//! Run recording: the capture half of the deterministic record/replay
//! engine.
//!
//! [`RecordComm`] wraps any [`Comm`] backend and captures a **canonical
//! per-rank event log**: one [`RecordedEvent`] per posted send, completed
//! receive, reduction compute, and round mark, in posting order. Payloads
//! are not stored — each event carries an [FNV-1a] digest instead, which is
//! what the replay engine (`exacoll-replay`) compares against the digests it
//! recomputes from the schedule IR's fault-free dataflow.
//!
//! Receive digests are back-patched when the receive *completes* (at the
//! covering `wait`/`waitall`), mirroring how `TimedComm` back-patches
//! completion times: a receive that was posted but never completed keeps
//! `digest: None`, which the replayer reports as "posted but never
//! completed" — exactly what a dropped message or a dead peer looks like.
//!
//! Layering matters: stack the recorder *outside* a fault injector
//! (`RecordComm<FaultComm<_>>`) so send events digest what the algorithm
//! intended to transmit while receive events digest what actually arrived.
//! An in-flight corruption then shows up as a receive digest that disagrees
//! with the fault-free dataflow, at the exact (rank, step) it landed.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use crate::comm::{Comm, Req};
use crate::error::CommResult;
use crate::sg::{Landing, Regions, SgDests, SgView};
use crate::types::{Rank, Tag};
use std::collections::HashMap;

/// FNV-1a 64-bit hash of `bytes` — the payload digest of the record/replay
/// contract. Chosen over a cryptographic hash because digests here detect
/// *divergence*, not adversaries: it is fast, dependency-free, and stable
/// across platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_segments([bytes])
}

/// [`fnv1a`] of the concatenation of `segments`, without building it.
fn fnv1a_segments<'a>(segments: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for segment in segments {
        for &b in segment {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One entry of a rank's canonical event log.
///
/// The sequence of these events is the observable behavior of one rank's
/// collective: the replay engine re-derives the *expected* sequence from the
/// lowered schedule and compares element by element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordedEvent {
    /// A posted send. `digest` hashes the payload as the algorithm posted it.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload length in bytes.
        bytes: usize,
        /// FNV-1a digest of the posted payload.
        digest: u64,
    },
    /// A posted receive. `bytes`/`digest` describe the payload that actually
    /// arrived; `digest` stays `None` until the receive completes (and
    /// forever, if it never does).
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Delivered payload length (posted length until completion).
        bytes: usize,
        /// FNV-1a digest of the delivered payload, `None` while in flight.
        digest: Option<u64>,
    },
    /// A reduction compute of `bytes` bytes ([`Comm::compute`]).
    Compute {
        /// Reduced byte count.
        bytes: usize,
    },
    /// A round/phase boundary ([`Comm::mark`]).
    Mark {
        /// Phase label.
        label: String,
        /// 0-based round index within the phase.
        round: u32,
    },
}

impl RecordedEvent {
    /// One-line rendering used by divergence reports; stable across runs.
    pub fn describe(&self) -> String {
        match self {
            RecordedEvent::Send {
                to,
                tag,
                bytes,
                digest,
            } => format!("send(to={to}, tag={tag}, {bytes} B, digest={digest:016x})"),
            RecordedEvent::Recv {
                from,
                tag,
                bytes,
                digest: Some(d),
            } => format!("recv(from={from}, tag={tag}, {bytes} B, digest={d:016x})"),
            RecordedEvent::Recv {
                from,
                tag,
                bytes,
                digest: None,
            } => format!("recv(from={from}, tag={tag}, {bytes} B, never completed)"),
            RecordedEvent::Compute { bytes } => format!("compute({bytes} B)"),
            RecordedEvent::Mark { label, round } => format!("mark({label}, round {round})"),
        }
    }
}

/// [`Comm`] wrapper that records a canonical event log while forwarding
/// every call unchanged.
///
/// Request handles of the inner backend pass through untouched (like
/// `TimedComm`), so the wrapper is transparent to matching semantics; it
/// relies on inner backends never reusing request indices, which every
/// backend in this workspace guarantees.
pub struct RecordComm<C: Comm> {
    inner: C,
    events: Vec<RecordedEvent>,
    /// Inner request index → index of the `Recv` event awaiting its digest.
    pending: HashMap<usize, usize>,
}

impl<C: Comm> RecordComm<C> {
    /// Record the send the inner layer is about to be asked for, if it
    /// accepts the post: an op refused outright (dead rank, poisoned
    /// endpoint) never happened, so the log truncates exactly at the failing
    /// step.
    fn record_send(
        &mut self,
        to: Rank,
        tag: Tag,
        bytes: usize,
        digest: u64,
        post: impl FnOnce(&mut C) -> CommResult<Req>,
    ) -> CommResult<Req> {
        let req = post(&mut self.inner)?;
        self.events.push(RecordedEvent::Send {
            to,
            tag,
            bytes,
            digest,
        });
        Ok(req)
    }

    /// Per request about to be waited on, the `Recv` event awaiting its
    /// digest (`None` for a send).
    fn recv_events(&mut self, reqs: &[Req]) -> Vec<Option<usize>> {
        reqs.iter()
            .map(|r| self.pending.remove(&r.index()))
            .collect()
    }

    /// Back-patch the receive event at `idx`: `bytes` arrived, digesting to
    /// `digest`.
    fn complete_recv(&mut self, idx: usize, arrived: usize, arrived_digest: u64) {
        if let RecordedEvent::Recv { bytes, digest, .. } = &mut self.events[idx] {
            *bytes = arrived;
            *digest = Some(arrived_digest);
        }
    }

    /// Wrap `inner` with an empty log.
    pub fn new(inner: C) -> RecordComm<C> {
        RecordComm {
            inner,
            events: Vec::new(),
            pending: HashMap::new(),
        }
    }

    /// The log recorded so far, in posting order.
    pub fn events(&self) -> &[RecordedEvent] {
        &self.events
    }

    /// Stop recording: return the inner backend and the event log.
    pub fn into_parts(self) -> (C, Vec<RecordedEvent>) {
        (self.inner, self.events)
    }

    /// Stop recording and return just the event log.
    pub fn finish(self) -> Vec<RecordedEvent> {
        self.events
    }
}

impl<C: Comm> Comm for RecordComm<C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        let (bytes, digest) = (data.len(), fnv1a(&data));
        self.record_send(to, tag, bytes, digest, |c| c.isend(to, tag, data))
    }

    /// Digests the view segment by segment — the digest of the gathered
    /// bytes — and forwards it borrowed, so recording does not forfeit the
    /// inner backend's zero-copy send.
    fn send_sg(&mut self, to: Rank, tag: Tag, view: SgView<'_>) -> CommResult<Req> {
        let (bytes, digest) = (view.len(), fnv1a_segments(view.segments()));
        self.record_send(to, tag, bytes, digest, |c| c.send_sg(to, tag, view))
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        let req = self.inner.irecv(from, tag, bytes)?;
        self.events.push(RecordedEvent::Recv {
            from,
            tag,
            bytes,
            digest: None,
        });
        self.pending.insert(req.index(), self.events.len() - 1);
        Ok(req)
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        let slot = self.pending.remove(&req.index());
        let out = self.inner.wait(req)?;
        if let (Some(idx), Some(payload)) = (slot, &out) {
            self.complete_recv(idx, payload.len(), fnv1a(payload));
        }
        Ok(out)
    }

    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        let slots = self.recv_events(&reqs);
        let out = self.inner.waitall(reqs)?;
        for (slot, res) in slots.iter().zip(&out) {
            if let (Some(idx), Some(payload)) = (slot, res) {
                self.complete_recv(*idx, payload.len(), fnv1a(payload));
            }
        }
        Ok(out)
    }

    /// Keeps what the folding destinations hold, forwards the destinations
    /// with every payload copied and digests what landed in them, then puts
    /// each kept value back and folds its payload into it: a digest is of
    /// the payload, never of a fold. The inner layer does not say how much
    /// arrived, so the event describes the whole destination: the arrived
    /// payload whenever it was as long as its destination, as a verified
    /// plan guarantees.
    fn waitall_into(
        &mut self,
        reqs: &mut Vec<Req>,
        mut bufs: Regions<'_>,
        dests: SgDests<'_>,
    ) -> CommResult<()> {
        let slots = self.recv_events(reqs);
        let mut kept: Vec<_> = (0..dests.len())
            .filter(|&i| matches!(dests.landing(i), Landing::Reduce { .. }))
            .map(|i| (i, bufs.get(&dests.of(i)[0]).to_vec()))
            .collect();
        self.inner
            .waitall_into(reqs, bufs.reborrow(), dests.copies())?;
        for (i, slot) in slots.iter().enumerate() {
            if let Some(idx) = *slot {
                let landed = bufs.view(dests.of(i));
                self.complete_recv(idx, landed.len(), fnv1a_segments(landed.segments()));
            }
        }
        for (i, landed) in &mut kept {
            bufs.get_mut(&dests.of(*i)[0]).swap_with_slice(landed);
            dests.put(&mut bufs, *i, landed);
        }
        Ok(())
    }

    fn compute(&mut self, bytes: usize) {
        self.events.push(RecordedEvent::Compute { bytes });
        self.inner.compute(bytes)
    }

    fn mark(&mut self, label: &'static str, round: u32) {
        self.events.push(RecordedEvent::Mark {
            label: label.to_string(),
            round,
        });
        self.inner.mark(label, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultComm, FaultPlan};
    use crate::thread_rt::{run_ranks, ThreadComm};
    use std::sync::Mutex;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn records_a_ping_pong_with_digests() {
        let logs: Vec<Vec<RecordedEvent>> = run_ranks(2, |c: &mut ThreadComm| {
            let mut rc = RecordComm::new(&mut *c);
            rc.mark("ping", 0);
            if rc.rank() == 0 {
                rc.send(1, 9, vec![7u8; 16])?;
            } else {
                let got = rc.recv(0, 9, 16)?;
                rc.compute(got.len());
            }
            Ok(rc.finish())
        });
        let d = fnv1a(&[7u8; 16]);
        assert_eq!(
            logs[0],
            vec![
                RecordedEvent::Mark {
                    label: "ping".into(),
                    round: 0
                },
                RecordedEvent::Send {
                    to: 1,
                    tag: 9,
                    bytes: 16,
                    digest: d
                },
            ]
        );
        assert_eq!(
            logs[1],
            vec![
                RecordedEvent::Mark {
                    label: "ping".into(),
                    round: 0
                },
                RecordedEvent::Recv {
                    from: 0,
                    tag: 9,
                    bytes: 16,
                    digest: Some(d)
                },
                RecordedEvent::Compute { bytes: 16 },
            ]
        );
    }

    #[test]
    fn recorder_over_fault_layer_sees_clean_sends_and_corrupt_receives() {
        // Recorder outside the fault injector: the send digest is the clean
        // payload, the receive digest is the corrupted one.
        let plan = FaultPlan::none(5).corrupts(1.0);
        let logs: Mutex<Vec<Vec<RecordedEvent>>> = Mutex::new(vec![Vec::new(); 2]);
        run_ranks(2, |c: &mut ThreadComm| {
            let rank = c.rank();
            let fc = FaultComm::new(&mut *c, plan);
            let mut rc = RecordComm::new(fc);
            if rank == 0 {
                rc.send(1, 0, vec![0u8; 8])?;
            } else {
                rc.recv(0, 0, 8)?;
            }
            logs.lock().unwrap()[rank] = rc.finish();
            Ok(())
        });
        let logs = logs.into_inner().unwrap();
        let clean = fnv1a(&[0u8; 8]);
        match (&logs[0][0], &logs[1][0]) {
            (
                RecordedEvent::Send { digest: sent, .. },
                RecordedEvent::Recv {
                    digest: Some(got), ..
                },
            ) => {
                assert_eq!(*sent, clean, "send digests the pre-fault payload");
                assert_ne!(*got, clean, "receive digests the corrupted payload");
            }
            other => panic!("unexpected log shapes: {other:?}"),
        }
    }

    #[test]
    fn unwaited_receive_keeps_no_digest() {
        let logs: Vec<Vec<RecordedEvent>> = run_ranks(2, |c: &mut ThreadComm| {
            let mut rc = RecordComm::new(&mut *c);
            if rc.rank() == 0 {
                rc.send(1, 1, vec![1, 2, 3])?;
                Ok(rc.finish())
            } else {
                // Post but never wait: digest must stay None. Drain the
                // message on the raw comm afterwards so rank 0's send
                // completes regardless of backend buffering.
                let _req = rc.irecv(0, 1, 3)?;
                let log = rc.finish();
                c.recv(0, 1, 3)?;
                Ok(log)
            }
        });
        assert!(matches!(
            logs[1][0],
            RecordedEvent::Recv { digest: None, .. }
        ));
    }

    #[test]
    fn describe_is_stable() {
        let e = RecordedEvent::Send {
            to: 3,
            tag: 7,
            bytes: 4,
            digest: 0xdeadbeef,
        };
        assert_eq!(
            e.describe(),
            "send(to=3, tag=7, 4 B, digest=00000000deadbeef)"
        );
        let r = RecordedEvent::Recv {
            from: 1,
            tag: 2,
            bytes: 8,
            digest: None,
        };
        assert_eq!(r.describe(), "recv(from=1, tag=2, 8 B, never completed)");
    }
}
