//! The run recorder: one timed event list per rank, optionally digested for
//! replay.
//!
//! [`RecordComm`] wraps any [`Comm`] backend and records a [`RankTimeline`]:
//! one [`TimedEvent`] per posted send or receive, wait, reduction compute
//! and round mark, in program order. Every event carries three times against
//! a shared epoch: `begin`/`end` bound the span during which the rank was
//! *occupied* by the call, while `done` is when the operation's effect
//! *completed* — a send or receive is done when the wait covering it
//! returns, and a `Wait` lists the events it `covers`. A round mark sets the
//! phase every later event is annotated with.
//!
//! Built with [`RecordComm::for_replay`], the recorder also keeps an
//! [FNV-1a] digest of every payload: a send's as posted, a receive's as it
//! arrived, back-patched when the covering wait returns. A receive that was
//! posted but never completed keeps `digest: None` — exactly what a dropped
//! message or a dead peer looks like. The replay engine (`exacoll-replay`)
//! compares the [`canonical`] view of the list (no waits, no times) with the
//! digests it recomputes from the schedule IR's fault-free dataflow.
//! [`RecordComm::new`] records times only: digesting every payload byte is
//! not something a timed run should pay for.
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
use std::time::Instant;

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

/// What kind of operation an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A posted send (`isend`, `send_sg`).
    Send,
    /// A posted receive (`irecv`).
    Recv,
    /// A blocking wait (`wait`/`waitall`/`waitall_into`) covering earlier
    /// sends/receives.
    Wait,
    /// Local reduction compute.
    Compute,
    /// A round/phase boundary ([`Comm::mark`]); zero-duration instant.
    Mark,
}

impl EventKind {
    /// Lowercase name: the Chrome-trace category and the serialized `kind`.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Wait => "wait",
            EventKind::Compute => "compute",
            EventKind::Mark => "mark",
        }
    }
}

/// One timed event on one rank's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Operation kind.
    pub kind: EventKind,
    /// Peer rank for sends (destination) and receives (source).
    pub peer: Option<Rank>,
    /// Message tag for sends/receives.
    pub tag: Option<Tag>,
    /// Payload bytes (message size or compute volume). A digested receive
    /// holds the length that arrived.
    pub bytes: u64,
    /// When the rank entered the call, ns since epoch.
    pub begin_ns: f64,
    /// When the call returned, ns since epoch.
    pub end_ns: f64,
    /// When the operation's effect completed (delivery/arrival), ns since
    /// epoch. Equals `end_ns` for waits, computes, and marks.
    pub done_ns: f64,
    /// Phase label active when the event was recorded (from [`Comm::mark`]).
    pub label: Option<&'static str>,
    /// Phase round index active when the event was recorded.
    pub round: Option<u32>,
    /// For `Wait` events: indices (into this rank's `events`) of the
    /// send/recv events the wait covered.
    pub covers: Vec<u32>,
    /// FNV-1a digest of a send's or a completed receive's payload, kept only
    /// by a recorder built [for replay](RecordComm::for_replay).
    pub digest: Option<u64>,
}

impl TimedEvent {
    /// A `kind` event with nothing else set: no peer, no bytes, no times.
    pub fn of(kind: EventKind) -> TimedEvent {
        TimedEvent {
            kind,
            peer: None,
            tag: None,
            bytes: 0,
            begin_ns: 0.0,
            end_ns: 0.0,
            done_ns: 0.0,
            label: None,
            round: None,
            covers: Vec::new(),
            digest: None,
        }
    }

    /// Occupied span in nanoseconds.
    pub fn span_ns(&self) -> f64 {
        self.end_ns - self.begin_ns
    }

    /// The step replay compares: `None` for a wait, otherwise the event
    /// without its times and, unless it is a mark, its phase.
    pub fn canonical(&self) -> Option<TimedEvent> {
        let mark = self.kind == EventKind::Mark;
        (self.kind != EventKind::Wait).then(|| TimedEvent {
            peer: self.peer,
            tag: self.tag,
            bytes: self.bytes,
            label: self.label.filter(|_| mark),
            round: self.round.filter(|_| mark),
            digest: self.digest,
            ..TimedEvent::of(self.kind)
        })
    }

    /// One-line rendering used by divergence reports; stable across runs.
    pub fn describe(&self) -> String {
        let (peer, tag, bytes) = (
            self.peer.unwrap_or_default(),
            self.tag.unwrap_or_default(),
            self.bytes,
        );
        let digest = match self.digest {
            Some(d) => format!("digest={d:016x}"),
            None => "never completed".into(),
        };
        match self.kind {
            EventKind::Send => format!("send(to={peer}, tag={tag}, {bytes} B, {digest})"),
            EventKind::Recv => format!("recv(from={peer}, tag={tag}, {bytes} B, {digest})"),
            EventKind::Compute => format!("compute({bytes} B)"),
            EventKind::Mark => format!(
                "mark({}, round {})",
                self.label.unwrap_or_default(),
                self.round.unwrap_or_default()
            ),
            EventKind::Wait => format!("wait(covers {:?})", self.covers),
        }
    }
}

/// The [`canonical`](TimedEvent::canonical) view of a rank's event list:
/// the sequence of steps replay compares with the schedule's.
pub fn canonical(events: &[TimedEvent]) -> Vec<TimedEvent> {
    events.iter().filter_map(TimedEvent::canonical).collect()
}

/// The full timed history of a single rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTimeline {
    /// The rank this timeline belongs to.
    pub rank: Rank,
    /// Communicator size.
    pub size: usize,
    /// Events in program order.
    pub events: Vec<TimedEvent>,
}

impl RankTimeline {
    /// Latest completion time on this rank, ns since epoch (0 if empty).
    pub fn finish_ns(&self) -> f64 {
        self.events.iter().map(|e| e.done_ns).fold(0.0, f64::max)
    }
}

/// [`Comm`] wrapper that records a [`RankTimeline`] while forwarding every
/// call unchanged.
///
/// Request handles of the inner backend pass through untouched, so the
/// wrapper is transparent to matching semantics; a later wait back-patches
/// the covered events by request index, which relies on inner backends
/// never reusing request indices — every backend in this workspace
/// allocates them monotonically.
pub struct RecordComm<C: Comm> {
    inner: C,
    epoch: Instant,
    /// Digest every payload ([`RecordComm::for_replay`]).
    digest: bool,
    events: Vec<TimedEvent>,
    /// Inner request index → index of the Send/Recv event it belongs to.
    pending: HashMap<usize, usize>,
    /// Currently active phase, set by the latest `mark`.
    phase: Option<(&'static str, u32)>,
}

impl<C: Comm> RecordComm<C> {
    /// Wrap `inner`, recording times only, with the clock starting now.
    pub fn new(inner: C) -> Self {
        RecordComm {
            inner,
            epoch: Instant::now(),
            digest: false,
            events: Vec::new(),
            pending: HashMap::new(),
            phase: None,
        }
    }

    /// Wrap `inner`, recording times and the digest of every payload: the
    /// log a replay artifact holds. Forwards the executor's folding
    /// landings as copies, so it can digest each payload before folding it.
    pub fn for_replay(inner: C) -> Self {
        RecordComm {
            digest: true,
            ..Self::new(inner)
        }
    }

    /// Count time from `epoch`. Pass the same `Instant` to every rank's
    /// recorder so their timelines share `t = 0`.
    pub fn since(mut self, epoch: Instant) -> Self {
        self.epoch = epoch;
        self
    }

    fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    /// Append an event spanning `begin` to now, in the current phase.
    fn push(
        &mut self,
        kind: EventKind,
        peer: Option<(Rank, Tag)>,
        bytes: usize,
        begin: f64,
        digest: Option<u64>,
    ) -> usize {
        let end = self.now_ns();
        self.events.push(TimedEvent {
            peer: peer.map(|(p, _)| p),
            tag: peer.map(|(_, t)| t),
            bytes: bytes as u64,
            begin_ns: begin,
            end_ns: end,
            done_ns: end,
            label: self.phase.map(|(l, _)| l),
            round: self.phase.map(|(_, r)| r),
            digest,
            ..TimedEvent::of(kind)
        });
        self.events.len() - 1
    }

    /// Post a send or receive and record it if the inner layer accepts the
    /// post: an op refused outright (dead rank, poisoned endpoint) never
    /// happened, so the log truncates exactly at the failing step.
    fn post(
        &mut self,
        kind: EventKind,
        peer: (Rank, Tag),
        bytes: usize,
        digest: Option<u64>,
        post: impl FnOnce(&mut C) -> CommResult<Req>,
    ) -> CommResult<Req> {
        let begin = self.now_ns();
        let req = post(&mut self.inner)?;
        let idx = self.push(kind, Some(peer), bytes, begin, digest);
        self.pending.insert(req.index(), idx);
        Ok(req)
    }

    /// Per request about to be waited on, the event it belongs to.
    fn covered(&mut self, reqs: &[Req]) -> Vec<Option<usize>> {
        reqs.iter()
            .map(|r| self.pending.remove(&r.index()))
            .collect()
    }

    /// Run the inner wait and record it as one `Wait` over `covered`, each
    /// of which completes when the wait returns — the first moment its
    /// completion is *observed*.
    fn timed_wait<T>(
        &mut self,
        covered: &[Option<usize>],
        wait: impl FnOnce(&mut C) -> CommResult<T>,
    ) -> CommResult<T> {
        let begin = self.now_ns();
        let out = wait(&mut self.inner)?;
        let idx = self.push(EventKind::Wait, None, 0, begin, None);
        let end = self.events[idx].end_ns;
        for &c in covered.iter().flatten() {
            self.events[c].done_ns = end;
        }
        self.events[idx].covers = covered.iter().flatten().map(|&c| c as u32).collect();
        Ok(out)
    }

    /// Back-patch the receive event at `idx`, if it is one: `arrived` bytes
    /// digesting to `digest` landed.
    fn complete_recv(&mut self, idx: usize, arrived: usize, digest: u64) {
        let event = &mut self.events[idx];
        if event.kind == EventKind::Recv {
            event.bytes = arrived as u64;
            event.digest = Some(digest);
        }
    }

    /// Stop recording: return the inner backend and the recorded timeline.
    pub fn into_parts(self) -> (C, RankTimeline) {
        let timeline = RankTimeline {
            rank: self.inner.rank(),
            size: self.inner.size(),
            events: self.events,
        };
        (self.inner, timeline)
    }

    /// Stop recording and return just the timeline.
    pub fn finish(self) -> RankTimeline {
        self.into_parts().1
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
        let (bytes, digest) = (data.len(), self.digest.then(|| fnv1a(&data)));
        self.post(EventKind::Send, (to, tag), bytes, digest, |c| {
            c.isend(to, tag, data)
        })
    }

    /// Digests the view segment by segment — the digest of the gathered
    /// bytes — and forwards it borrowed, so recording does not forfeit the
    /// inner backend's zero-copy send.
    fn send_sg(&mut self, to: Rank, tag: Tag, view: SgView<'_>) -> CommResult<Req> {
        let bytes = view.len();
        let digest = self.digest.then(|| fnv1a_segments(view.segments()));
        self.post(EventKind::Send, (to, tag), bytes, digest, |c| {
            c.send_sg(to, tag, view)
        })
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        self.post(EventKind::Recv, (from, tag), bytes, None, |c| {
            c.irecv(from, tag, bytes)
        })
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        self.waitall(vec![req]).map(|mut v| v.pop().unwrap())
    }

    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        let covered = self.covered(&reqs);
        let out = self.timed_wait(&covered, |c| c.waitall(reqs))?;
        if self.digest {
            for (slot, res) in covered.iter().zip(&out) {
                if let (Some(idx), Some(payload)) = (slot, res) {
                    self.complete_recv(*idx, payload.len(), fnv1a(payload));
                }
            }
        }
        Ok(out)
    }

    /// Without digests, forwards the destinations unchanged, so the
    /// recording measures the receive path applications take (`SocketComm`
    /// reading into, and folding on arrival in, the posted buffer).
    ///
    /// For replay, keeps what the folding destinations hold, forwards the
    /// destinations with every payload copied and digests what landed in
    /// them, then puts each kept value back and folds its payload into it: a
    /// digest is of the payload, never of a fold. The inner layer does not
    /// say how much arrived, so the event describes the whole destination:
    /// the arrived payload whenever it was as long as its destination, as a
    /// verified plan guarantees.
    fn waitall_into(
        &mut self,
        reqs: &mut Vec<Req>,
        mut bufs: Regions<'_>,
        dests: SgDests<'_>,
    ) -> CommResult<()> {
        let covered = self.covered(reqs);
        if !self.digest {
            return self.timed_wait(&covered, |c| c.waitall_into(reqs, bufs, dests));
        }
        let mut kept: Vec<_> = (0..dests.len())
            .filter(|&i| matches!(dests.landing(i), Landing::Reduce { .. }))
            .map(|i| (i, bufs.get(&dests.of(i)[0]).to_vec()))
            .collect();
        self.timed_wait(&covered, |c| {
            c.waitall_into(reqs, bufs.reborrow(), dests.copies())
        })?;
        for (i, slot) in covered.iter().enumerate() {
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
        let begin = self.now_ns();
        self.inner.compute(bytes);
        self.push(EventKind::Compute, None, bytes, begin, None);
    }

    fn mark(&mut self, label: &'static str, round: u32) {
        self.inner.mark(label, round);
        self.phase = Some((label, round));
        let now = self.now_ns();
        self.push(EventKind::Mark, None, 0, now, None);
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

    /// An untimed `kind` step to or from `peer` with `tag`.
    fn step(kind: EventKind, peer: Rank, tag: Tag, bytes: u64, digest: Option<u64>) -> TimedEvent {
        TimedEvent {
            peer: Some(peer),
            tag: Some(tag),
            bytes,
            digest,
            ..TimedEvent::of(kind)
        }
    }

    #[test]
    fn records_a_ping_pong_with_digests() {
        let logs: Vec<Vec<TimedEvent>> = run_ranks(2, |c: &mut ThreadComm| {
            let mut rc = RecordComm::for_replay(&mut *c);
            rc.mark("ping", 0);
            if rc.rank() == 0 {
                rc.send(1, 9, vec![7u8; 16])?;
            } else {
                let got = rc.recv(0, 9, 16)?;
                rc.compute(got.len());
            }
            Ok(canonical(&rc.finish().events))
        });
        let d = Some(fnv1a(&[7u8; 16]));
        let mark = TimedEvent {
            label: Some("ping"),
            round: Some(0),
            ..TimedEvent::of(EventKind::Mark)
        };
        let send = step(EventKind::Send, 1, 9, 16, d);
        assert_eq!(logs[0], vec![mark.clone(), send]);
        let compute = TimedEvent {
            bytes: 16,
            ..TimedEvent::of(EventKind::Compute)
        };
        let recv = step(EventKind::Recv, 0, 9, 16, d);
        assert_eq!(logs[1], vec![mark, recv, compute]);
    }

    #[test]
    fn recorder_over_fault_layer_sees_clean_sends_and_corrupt_receives() {
        // Recorder outside the fault injector: the send digest is the clean
        // payload, the receive digest is the corrupted one.
        let plan = FaultPlan::none(5).corrupts(1.0);
        let logs: Mutex<Vec<Vec<TimedEvent>>> = Mutex::new(vec![Vec::new(); 2]);
        run_ranks(2, |c: &mut ThreadComm| {
            let rank = c.rank();
            let fc = FaultComm::new(&mut *c, plan);
            let mut rc = RecordComm::for_replay(fc);
            if rank == 0 {
                rc.send(1, 0, vec![0u8; 8])?;
            } else {
                rc.recv(0, 0, 8)?;
            }
            logs.lock().unwrap()[rank] = canonical(&rc.finish().events);
            Ok(())
        });
        let logs = logs.into_inner().unwrap();
        let clean = Some(fnv1a(&[0u8; 8]));
        let (sent, got) = (&logs[0][0], &logs[1][0]);
        assert_eq!((sent.kind, got.kind), (EventKind::Send, EventKind::Recv));
        assert_eq!(sent.digest, clean, "send digests the pre-fault payload");
        assert!(
            got.digest.is_some() && got.digest != clean,
            "receive digests the corrupted payload"
        );
    }

    #[test]
    fn unwaited_receive_keeps_no_digest() {
        let logs: Vec<Vec<TimedEvent>> = run_ranks(2, |c: &mut ThreadComm| {
            let mut rc = RecordComm::for_replay(&mut *c);
            if rc.rank() == 0 {
                rc.send(1, 1, vec![1, 2, 3])?;
                Ok(canonical(&rc.finish().events))
            } else {
                // Post but never wait: digest must stay None. Drain the
                // message on the raw comm afterwards so rank 0's send
                // completes regardless of backend buffering.
                let _req = rc.irecv(0, 1, 3)?;
                let log = canonical(&rc.finish().events);
                c.recv(0, 1, 3)?;
                Ok(log)
            }
        });
        assert_eq!(logs[1][0], step(EventKind::Recv, 0, 1, 3, None));
    }

    #[test]
    fn describe_is_stable() {
        let e = step(EventKind::Send, 3, 7, 4, Some(0xdeadbeef));
        assert_eq!(
            e.describe(),
            "send(to=3, tag=7, 4 B, digest=00000000deadbeef)"
        );
        let r = step(EventKind::Recv, 1, 2, 8, None);
        assert_eq!(r.describe(), "recv(from=1, tag=2, 8 B, never completed)");
    }

    #[test]
    fn timed_wrapper_is_transparent_and_records() {
        let timelines: Vec<RankTimeline> = run_ranks(2, |c: &mut ThreadComm| {
            let mut tc = RecordComm::new(&mut *c);
            tc.mark("ping", 0);
            if tc.rank() == 0 {
                tc.send(1, 9, vec![7u8; 32])?;
            } else {
                let got = tc.recv(0, 9, 32)?;
                assert_eq!(got, vec![7u8; 32]);
            }
            Ok(tc.finish())
        });
        for (r, tl) in timelines.iter().enumerate() {
            assert_eq!(tl.rank, r);
            assert_eq!(tl.size, 2);
            // mark, send/recv, wait
            assert_eq!(tl.events.len(), 3);
            assert_eq!(tl.events[0].kind, EventKind::Mark);
            let xfer = &tl.events[1];
            assert_eq!(xfer.bytes, 32);
            assert_eq!(xfer.peer, Some(1 - r));
            assert_eq!(xfer.tag, Some(9));
            assert_eq!(xfer.label, Some("ping"));
            assert_eq!(xfer.digest, None, "a timed recording digests nothing");
            let wait = &tl.events[2];
            assert_eq!(wait.kind, EventKind::Wait);
            assert_eq!(wait.covers, vec![1]);
            // wait backdates the transfer's completion to its own end.
            assert_eq!(xfer.done_ns, wait.end_ns);
            assert!(wait.end_ns >= wait.begin_ns);
        }
    }

    #[test]
    fn wait_backpatches_done_time() {
        let timelines: Vec<RankTimeline> = run_ranks(2, |c: &mut ThreadComm| {
            let mut tc = RecordComm::new(&mut *c);
            if tc.rank() == 0 {
                // Post the send, dawdle, then wait: done must reflect the
                // wait's completion, not the post.
                let r = tc.isend(1, 1, vec![0u8; 8])?;
                tc.compute(1 << 12);
                tc.wait(r)?;
            } else {
                tc.compute(1 << 12);
                let _ = tc.recv(0, 1, 8)?;
            }
            Ok(tc.finish())
        });
        let send = &timelines[0].events[0];
        let wait = &timelines[0].events[2];
        assert_eq!(send.kind, EventKind::Send);
        assert_eq!(send.done_ns, wait.end_ns);
    }
}
