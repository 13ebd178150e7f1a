//! Transport conformance: the point-to-point semantics the collectives rely
//! on, each case written once against `Comm` and run over both transports —
//! in-process mailboxes and the loopback TCP mesh — from the table at the
//! bottom. The matching engine is shared (`exacoll::comm::engine`), so what a
//! case pins per transport is that its deliveries, departures and aborts
//! reach the engine in the order the semantics need.

use exacoll::comm::{
    canonical, expect_all_ranks, fnv1a, reduce_into, try_run_ranks_with, Comm, CommError,
    CommResult, DType, FaultComm, FaultPlan, Landing, Rank, RecordComm, ReduceOp, Regions, Req,
    SgDests, SgView, ThreadComm, WorldOptions,
};
use exacoll::comm::{EventKind, TimedEvent};
use exacoll::net::{try_run_socket_ranks_with, SocketComm};
use std::time::{Duration, Instant};

/// Only genuine hangs reach it.
const LONG: Duration = Duration::from_secs(60);

/// One row per transport: how to run a world on it and how a rank raises
/// the world-wide abort.
trait World {
    type C: Comm;

    fn try_run<T: Send>(
        p: usize,
        deadline: Duration,
        f: impl Fn(&mut Self::C) -> CommResult<T> + Send + Sync,
    ) -> Vec<CommResult<T>>;

    fn abort(c: &mut Self::C, origin: Rank);

    /// Every rank must succeed.
    fn run<T: Send>(p: usize, f: impl Fn(&mut Self::C) -> CommResult<T> + Send + Sync) -> Vec<T> {
        expect_all_ranks(Self::try_run(p, LONG, f))
    }
}

struct Threads;

impl World for Threads {
    type C = ThreadComm;

    fn try_run<T: Send>(
        p: usize,
        deadline: Duration,
        f: impl Fn(&mut ThreadComm) -> CommResult<T> + Send + Sync,
    ) -> Vec<CommResult<T>> {
        try_run_ranks_with(p, WorldOptions { deadline }, f)
    }

    fn abort(c: &mut ThreadComm, origin: Rank) {
        c.abort_handle().abort(origin);
    }
}

struct Sockets;

impl World for Sockets {
    type C = SocketComm;

    fn try_run<T: Send>(
        p: usize,
        deadline: Duration,
        f: impl Fn(&mut SocketComm) -> CommResult<T> + Send + Sync,
    ) -> Vec<CommResult<T>> {
        try_run_socket_ranks_with(p, deadline, f)
    }

    fn abort(c: &mut SocketComm, origin: Rank) {
        c.transport_mut().abort(origin);
    }
}

/// Forwards everything and counts which calls reached it: a wrapper above it
/// that claims to forward `send_sg` or `waitall_into` must show up here.
struct Probe<C> {
    inner: C,
    sg_sends: usize,
    owned_waits: usize,
    into_waits: usize,
}

impl<C: Comm> Probe<C> {
    fn new(inner: C) -> Self {
        Probe {
            inner,
            sg_sends: 0,
            owned_waits: 0,
            into_waits: 0,
        }
    }
}

impl<C: Comm> Comm for Probe<C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn isend(&mut self, to: Rank, tag: u32, data: Vec<u8>) -> CommResult<Req> {
        self.inner.isend(to, tag, data)
    }
    fn send_sg(&mut self, to: Rank, tag: u32, view: SgView<'_>) -> CommResult<Req> {
        self.sg_sends += 1;
        self.inner.send_sg(to, tag, view)
    }
    fn irecv(&mut self, from: Rank, tag: u32, bytes: usize) -> CommResult<Req> {
        self.inner.irecv(from, tag, bytes)
    }
    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        self.owned_waits += 1;
        self.inner.wait(req)
    }
    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        self.owned_waits += 1;
        self.inner.waitall(reqs)
    }
    fn waitall_into(
        &mut self,
        reqs: &mut Vec<Req>,
        bufs: Regions<'_>,
        dests: SgDests<'_>,
    ) -> CommResult<()> {
        self.into_waits += 1;
        self.inner.waitall_into(reqs, bufs, dests)
    }
    fn compute(&mut self, bytes: usize) {
        self.inner.compute(bytes)
    }
}

mod cases {
    use super::*;

    pub fn pingpong<W: World>() {
        let out = W::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1, 2, 3])?;
                c.recv(1, 1, 3)
            } else {
                let d = c.recv(0, 0, 3)?;
                c.send(0, 1, d.iter().map(|x| x * 2).collect())?;
                Ok(d)
            }
        });
        assert_eq!(out[0], vec![2, 4, 6]);
        assert_eq!(out[1], vec![1, 2, 3]);
    }

    pub fn same_tag_is_fifo<W: World>() {
        let out = W::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..32u8 {
                    c.send(1, 7, vec![i; 3])?;
                }
                Ok(vec![])
            } else {
                let mut got = Vec::new();
                for _ in 0..32 {
                    got.push(c.recv(0, 7, 3)?[0]);
                }
                Ok(got)
            }
        });
        assert_eq!(out[1], (0..32).collect::<Vec<u8>>());
    }

    pub fn tag_matching_out_of_order<W: World>() {
        // Rank 0 sends tag 5 then tag 6; rank 1 receives tag 6 first.
        let out = W::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![5])?;
                c.send(1, 6, vec![6])?;
                Ok(vec![])
            } else {
                let six = c.recv(0, 6, 1)?;
                let five = c.recv(0, 5, 1)?;
                Ok(vec![six[0], five[0]])
            }
        });
        assert_eq!(out[1], vec![6, 5]);
    }

    pub fn waitall_completes_out_of_order<W: World>() {
        // Rank 0 posts its receive from the slow sender FIRST; the fast
        // senders' messages must complete while the slow one is pending,
        // and arrival order must not disturb result-slot order.
        let p = 4;
        let out = W::run(p, |c| match c.rank() {
            0 => {
                let reqs: Vec<Req> = (1..p)
                    .map(|r| c.irecv(r, 0, 8))
                    .collect::<CommResult<_>>()?;
                let msgs = c.waitall(reqs)?;
                Ok(msgs.into_iter().map(|m| m.unwrap()[0]).collect::<Vec<u8>>())
            }
            1 => {
                std::thread::sleep(Duration::from_millis(150));
                c.send(0, 0, vec![1u8; 8])?;
                Ok(vec![])
            }
            r => {
                c.send(0, 0, vec![r as u8; 8])?;
                Ok(vec![])
            }
        });
        assert_eq!(out[0], vec![1, 2, 3]);
    }

    pub fn truncation_detected<W: World>() {
        let results = W::try_run(2, LONG, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0u8; 16])?;
                Ok(())
            } else {
                c.recv(0, 0, 8).map(|_| ())
            }
        });
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CommError::Truncation {
                posted: 8,
                arrived: 16,
                ..
            })
        ));
    }

    pub fn deadline_timeout_reports_pending_op<W: World>() {
        let results = W::try_run(2, Duration::from_millis(200), |c| {
            if c.rank() == 0 {
                // Outlive rank 1's deadline so it times out rather than
                // observing our departure.
                std::thread::sleep(Duration::from_millis(600));
                Ok(vec![])
            } else {
                c.recv(0, 9, 256)
            }
        });
        assert_eq!(
            results[1],
            Err(CommError::Timeout {
                rank: 1,
                from: 0,
                tag: 9,
                bytes: 256,
            })
        );
    }

    pub fn departed_peer_unblocks_receiver<W: World>() {
        // Rank 0 exits without sending; rank 1 must get PeerGone promptly
        // rather than waiting out the (long) deadline.
        let start = Instant::now();
        let results = W::try_run(2, LONG, |c| {
            if c.rank() == 0 {
                Ok(vec![])
            } else {
                c.recv(0, 0, 8)
            }
        });
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CommError::PeerGone { peer: 0 })));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "PeerGone should be near-immediate, not deadline-bound"
        );
    }

    pub fn messages_before_departure_still_delivered<W: World>() {
        // The departure must not outrun the peer's earlier messages
        // (per-sender FIFO).
        let out = W::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![42])?;
                Ok(vec![])
            } else {
                std::thread::sleep(Duration::from_millis(50));
                c.recv(0, 0, 1)
            }
        });
        assert_eq!(out[1], vec![42]);
    }

    pub fn abort_unblocks_all_ranks<W: World>() {
        let start = Instant::now();
        let results = W::try_run(4, LONG, |c| {
            if c.rank() == 2 {
                W::abort(c, 2);
                Err(CommError::Aborted { origin: 2 })
            } else {
                // Would otherwise block the full deadline.
                c.recv((c.rank() + 1) % 4, 77, 8).map(|_| ())
            }
        });
        for r in results {
            assert!(matches!(r, Err(CommError::Aborted { origin: 2 })));
        }
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    pub fn panicking_rank_is_captured_and_unblocks_peers<W: World>() {
        let results = W::try_run(2, LONG, |c| {
            if c.rank() == 0 {
                panic!("injected panic");
            }
            c.recv(0, 0, 8).map(|_| ())
        });
        assert!(matches!(
            &results[0],
            Err(CommError::RankPanicked { rank: 0, message }) if message.contains("injected panic")
        ));
        assert!(matches!(results[1], Err(CommError::PeerGone { peer: 0 })));
    }

    pub fn double_wait_is_error<W: World>() {
        let results = W::try_run(2, LONG, |c| {
            if c.rank() == 0 {
                let r = c.isend(1, 0, vec![1])?;
                let idx = r.index();
                c.wait(r)?;
                c.wait(Req::from_index(idx)).map(|_| ())
            } else {
                c.recv(0, 0, 1).map(|_| ())
            }
        });
        assert!(matches!(results[0], Err(CommError::UnknownRequest { .. })));
    }

    /// The handle-visible half; that the table itself stays as small as the
    /// batch in flight is asserted where its fields are visible
    /// (`exacoll-comm`'s `engine` and `fault` unit tests).
    pub fn request_table_is_reclaimed_but_handles_are_never_reused<W: World>() {
        W::run(2, |c| {
            let peer = 1 - c.rank();
            let sent = c.isend(peer, 0, vec![1])?;
            let stale = sent.index();
            let posted = c.irecv(peer, 0, 1)?;
            // Consuming the last live request empties the table.
            c.waitall(vec![sent, posted])?;
            assert_eq!(
                c.wait(Req::from_index(stale)),
                Err(CommError::UnknownRequest { handle: stale })
            );
            for _ in 0..100_000 {
                c.sendrecv(peer, 1, vec![0u8; 8], peer, 1, 8)?;
            }
            // The handles kept counting through every reclaim.
            assert_eq!(c.irecv(peer, 2, 1)?.index(), 2 + 200_000);
            assert_eq!(
                c.wait(Req::from_index(stale)),
                Err(CommError::UnknownRequest { handle: stale })
            );
            Ok(())
        });
    }

    /// The bytes of the large message in [`exchange`].
    const BIG: usize = 40 << 10;

    /// What `waitall_into` over one buffer must be: `waitall`, then each
    /// payload scattered over its destination with the rest zeroed, or
    /// reduced into it zero-padded.
    fn waitall_then_put<C: Comm>(
        c: &mut C,
        reqs: Vec<Req>,
        buf: &mut [u8],
        dests: SgDests<'_>,
    ) -> CommResult<()> {
        for (i, payload) in c.waitall(reqs)?.into_iter().enumerate() {
            let Some(mut payload) = payload else { continue };
            if let Landing::Reduce { dtype, op } = dests.landing(i) {
                let acc = dests.of(i)[0].clone();
                payload.resize(acc.len(), 0);
                reduce_into(*dtype, *op, &mut buf[acc], &payload)?;
            } else {
                let mut buf = Regions::one(buf);
                buf.scatter(dests.of(i), &payload);
                buf.zero_tail(dests.of(i), payload.len());
            }
        }
        Ok(())
    }

    /// Rank 1 completes one batch into two writable regions of 8 and 24
    /// bytes — a copy a byte short of its destination into the first, one
    /// into two swapped ranges of the second and, with `fold`, an f64 sum
    /// into the second's last eight bytes — with `waitall_into` over the two
    /// regions, or [`waitall_then_put`] over one buffer of their 32 bytes.
    /// Rank 0 sends once rank 1 has had time to park in its wait. Returns
    /// rank 1's bytes, the regions end to end, from `0xAA` and an f64 0.25.
    #[allow(clippy::single_range_in_vec_init)]
    fn two_regions<C: Comm>(c: &mut C, into: bool, fold: bool) -> CommResult<Vec<u8>> {
        let sum = Landing::Reduce {
            dtype: DType::F64,
            op: ReduceOp::Sum,
        };
        let batch = [
            (1, vec![1, 2, 3, 4, 5], &[2..8][..], Landing::Copy),
            (
                2,
                vec![6, 6, 6, 6, 7, 7, 7, 7],
                &[20..24, 12..16],
                Landing::Copy,
            ),
            (3, 2.5f64.to_le_bytes().to_vec(), &[24..32], sum),
        ];
        let batch = &batch[..2 + usize::from(fold)];
        if c.rank() == 0 {
            std::thread::sleep(Duration::from_millis(20));
            for (tag, msg, ..) in batch {
                c.send(1, *tag, msg.clone())?;
            }
            return Ok(vec![]);
        }
        let (mut ranges, mut spans, mut reqs) = (Vec::new(), Vec::new(), Vec::new());
        for (tag, _, dst, _) in batch {
            spans.push(ranges.len()..ranges.len() + dst.len());
            ranges.extend_from_slice(dst);
            reqs.push(c.irecv(0, *tag, dst.iter().map(|r| r.len()).sum())?);
        }
        let landings: Vec<Landing> = batch.iter().map(|b| b.3.clone()).collect();
        let dests = SgDests::new(&ranges, &spans).landing_into(&landings);
        let mut buf = vec![0xAA; 32];
        buf[24..].copy_from_slice(&0.25f64.to_le_bytes());
        if into {
            let (first, second) = buf.split_at_mut(8);
            c.waitall_into(&mut reqs, Regions::new(&[], first, second), dests)?;
        } else {
            waitall_then_put(c, reqs, &mut buf, dests)?;
        }
        Ok(buf)
    }

    /// What [`two_regions`] leaves, its f64 holding `acc`.
    fn two_regions_landed(acc: f64) -> Vec<u8> {
        let mut want = vec![0xAA; 24];
        want[2..8].copy_from_slice(&[1, 2, 3, 4, 5, 0]);
        want[12..16].fill(7);
        want[20..24].fill(6);
        want.extend_from_slice(&acc.to_le_bytes());
        want
    }

    /// Rank 0 completes one batch — two same-key receives from rank 1 (the
    /// second message a byte short of its destination, and sent only once
    /// rank 0 is on its way into the wait), a send, and a receive from rank 2
    /// longer than the mesh's read-ahead into a destination of two swapped
    /// ranges — with `waitall_into`, or with `waitall`, a scatter and a
    /// zeroed tail. Returns rank 0's buffer, which starts out all `0xEE`.
    fn exchange<C: Comm>(c: &mut C, into: bool) -> CommResult<Vec<u8>> {
        match c.rank() {
            0 => {
                let half = 16 + BIG / 2;
                let ranges = [8..13, 0..4, half..16 + BIG, 16..half];
                let spans = [0..1, 1..2, 0..0, 2..4];
                let mut reqs = vec![
                    c.irecv(1, 4, 5)?,
                    c.irecv(1, 4, 4)?,
                    c.isend(1, 9, vec![1])?,
                    c.irecv(2, 4, BIG)?,
                ];
                let mut buf = vec![0xEE; 16 + BIG];
                let dests = SgDests::new(&ranges, &spans);
                if into {
                    c.waitall_into(&mut reqs, Regions::one(&mut buf), dests)?;
                    assert!(reqs.is_empty());
                } else {
                    waitall_then_put(c, reqs, &mut buf, dests)?;
                }
                Ok(buf)
            }
            1 => {
                c.send(0, 4, vec![1, 2, 3, 4, 5])?;
                c.recv(0, 9, 1)?;
                let (bytes, range) = ([9u8, 7, 8, 9], 1..4);
                let sent = c.send_sg(0, 4, SgView::contiguous(&bytes, &range))?;
                c.wait(sent)?;
                Ok(vec![])
            }
            _ => {
                c.send(0, 4, (0..BIG).map(|i| (i % 251) as u8).collect())?;
                Ok(vec![])
            }
        }
    }

    /// What `exchange` must leave in rank 0's buffer when nothing interferes:
    /// the short message's last destination byte is zeroed, bytes no
    /// destination names keep the `0xEE` they held.
    fn exchanged() -> Vec<u8> {
        let mut want = vec![0xEE; 16 + BIG];
        want[8..13].copy_from_slice(&[1, 2, 3, 4, 5]);
        want[..4].copy_from_slice(&[7, 8, 9, 0]);
        let big: Vec<u8> = (0..BIG).map(|i| (i % 251) as u8).collect();
        want[16 + BIG / 2..].copy_from_slice(&big[..BIG / 2]);
        want[16..16 + BIG / 2].copy_from_slice(&big[BIG / 2..]);
        want
    }

    #[allow(clippy::single_range_in_vec_init)]
    pub fn waitall_into_is_waitall_then_scatter<W: World>() {
        for into in [false, true] {
            let out = W::run(3, |c| exchange(c, into));
            assert!(out[0] == exchanged(), "into={into}");
            let out = W::run(2, |c| two_regions(c, into, false));
            assert_eq!(out[1], two_regions_landed(0.25), "into={into}");
        }
        // A message longer than posted is the same error either way.
        for into in [false, true] {
            let results = W::try_run(2, LONG, |c| {
                if c.rank() == 0 {
                    return c.send(1, 0, vec![0u8; 16]);
                }
                let mut reqs = vec![c.irecv(0, 0, 8)?];
                if into {
                    let (ranges, spans) = ([0..8], [0..1]);
                    let dests = SgDests::new(&ranges, &spans);
                    c.waitall_into(&mut reqs, Regions::one(&mut [0; 8]), dests)
                } else {
                    c.waitall(reqs).map(|_| ())
                }
            });
            assert!(
                matches!(
                    results[1],
                    Err(CommError::Truncation {
                        posted: 8,
                        arrived: 16,
                        ..
                    })
                ),
                "into={into}: {:?}",
                results[1]
            );
        }
    }

    /// The wrappers keep the equivalence: `FaultComm` does not opt in and
    /// still corrupts what the receiver lands, `RecordComm` with and without
    /// digests forwards and logs the same run.
    pub fn wrappers_keep_waitall_into_equivalent<W: World>() {
        let plan = FaultPlan::none(11).corrupts(1.0);
        let [plain, landed] =
            [false, true].map(|into| W::run(3, |c| exchange(&mut FaultComm::new(c, plan), into)));
        assert!(plain[0] == landed[0]);
        let flipped = (plain[0].iter().zip(exchanged()))
            .filter(|(got, want)| *got != want)
            .count();
        assert_eq!(flipped, 3, "one byte of each of the three messages");

        let [plain, landed] = [false, true].map(|into| {
            W::run(3, |c| {
                let mut rc = RecordComm::for_replay(c);
                let buf = exchange(&mut rc, into)?;
                Ok((buf, canonical(&rc.finish().events)))
            })
        });
        for rank in 0..3 {
            assert!(plain[rank].0 == landed[rank].0);
            let (mut a, mut b) = (plain[rank].1.clone(), landed[rank].1.clone());
            if rank == 0 {
                assert!(landed[0].0 == exchanged());
                // The short message: `waitall` knows it was three bytes,
                // `waitall_into` describes the four-byte destination, whose
                // last byte is the zero the message did not cover.
                let (short, dest) = ([7, 8, 9], [7, 8, 9, 0]);
                let event = |bytes: &[u8]| TimedEvent {
                    peer: Some(1),
                    tag: Some(4),
                    bytes: bytes.len() as u64,
                    digest: Some(fnv1a(bytes)),
                    ..TimedEvent::of(EventKind::Recv)
                };
                assert_eq!((a.remove(1), b.remove(1)), (event(&short), event(&dest)));
            }
            assert_eq!(a, b, "rank {rank}");
        }

        let [plain, landed] = [false, true].map(|into| {
            W::run(3, |c| {
                let mut tc = RecordComm::new(c);
                let buf = exchange(&mut tc, into)?;
                Ok((buf, tc.finish()))
            })
        });
        // Forwarding, not re-deriving: what the executor calls is what the
        // backend under a recorder, a timeline or a borrow is asked for.
        for replay in [false, true] {
            let calls = W::run(3, |c| {
                let mut probe = Probe::new(c);
                let mut rc = match replay {
                    true => RecordComm::for_replay(&mut probe),
                    false => RecordComm::new(&mut probe),
                };
                exchange(&mut rc, true)?;
                drop(rc);
                Ok((probe.sg_sends, probe.owned_waits, probe.into_waits))
            });
            assert_eq!(calls, [(0, 0, 1), (1, 3, 0), (0, 1, 0)], "replay={replay}");
        }
        assert!(plain[0].0 == exchanged() && landed[0].0 == exchanged());
        let shape = |t: &exacoll::obs::RankTimeline| -> Vec<_> {
            t.events
                .iter()
                .map(|e| (e.kind, e.peer, e.tag, e.bytes, e.covers.clone()))
                .collect()
        };
        assert_eq!(shape(&plain[0].1), shape(&landed[0].1));
        let wait = landed[0].1.events.last().expect("events");
        assert_eq!(
            (wait.kind, wait.covers.as_slice()),
            (EventKind::Wait, &[0, 1, 2, 3][..])
        );
        for covered in &landed[0].1.events[..4] {
            assert_eq!(covered.done_ns, wait.end_ns);
        }
    }

    /// Rank 0's receives in [`fold`]: `(from, tag, posted bytes)`, the
    /// destination ranges and whether the payload is folded into them.
    #[allow(clippy::type_complexity, clippy::single_range_in_vec_init)]
    const FOLDS: [((Rank, u32, usize), &[std::ops::Range<usize>], bool); 5] = [
        // An f64 split across the two segments of the sender's view.
        ((1, 4, 24), &[0..24], true),
        // Same key, a message of one and a half elements: zero-padded.
        ((1, 4, 24), &[32..56], true),
        // Longer than the mesh's read-ahead and than one staging window:
        // elements split across reads.
        ((2, 5, FOLD_BIG), &[56..56 + FOLD_BIG], true),
        ((2, 6, 8), &[24..32], false),
        // As long, copied into two swapped ranges.
        (
            (2, 7, FOLD_BIG),
            &[
                56 + FOLD_BIG + FOLD_BIG / 2..56 + 2 * FOLD_BIG,
                56 + FOLD_BIG..56 + FOLD_BIG + FOLD_BIG / 2,
            ],
            false,
        ),
    ];

    /// The large message of [`FOLDS`]: not a whole number of staging
    /// windows.
    const FOLD_BIG: usize = (96 << 10) + 8 * 13;

    /// The f64 payload rank `from` sends under `tag` in [`fold`].
    fn fold_payload(from: Rank, tag: u32, len: usize) -> Vec<u8> {
        (0..len / 8)
            .flat_map(|i| ((i as f64 + 0.1) * (from as f64 + tag as f64).powi(7)).to_le_bytes())
            .collect()
    }

    /// Rank 0 completes one batch of [`FOLDS`] plus a send — with
    /// `waitall_into` over folding landings, or with `waitall`, a scatter
    /// and a zeroed tail, or `reduce_into` of the zero-padded payload — in a
    /// buffer of `0xAA`, whose folded destinations start as f64s. Returns
    /// rank 0's buffer.
    fn fold<C: Comm>(c: &mut C, into: bool) -> CommResult<Vec<u8>> {
        let sum = Landing::Reduce {
            dtype: DType::F64,
            op: ReduceOp::Sum,
        };
        match c.rank() {
            0 => {
                let ranges: Vec<_> = FOLDS.iter().flat_map(|f| f.1.iter().cloned()).collect();
                let (mut spans, mut at) = (Vec::new(), 0);
                for f in FOLDS {
                    spans.push(at..at + f.1.len());
                    at += f.1.len();
                }
                spans.insert(2, 0..0);
                let mut landings: Vec<Landing> = FOLDS
                    .iter()
                    .map(|f| if f.2 { sum.clone() } else { Landing::Copy })
                    .collect();
                landings.insert(2, Landing::Copy);
                let mut reqs = Vec::new();
                for ((from, tag, bytes), ..) in &FOLDS[..2] {
                    reqs.push(c.irecv(*from, *tag, *bytes)?);
                }
                reqs.push(c.isend(1, 9, vec![1])?);
                for ((from, tag, bytes), ..) in &FOLDS[2..] {
                    reqs.push(c.irecv(*from, *tag, *bytes)?);
                }
                let mut buf = vec![0xAA; 56 + 2 * FOLD_BIG];
                let dests = SgDests::new(&ranges, &spans).landing_into(&landings);
                if into {
                    c.waitall_into(&mut reqs, Regions::one(&mut buf), dests)?;
                } else {
                    waitall_then_put(c, reqs, &mut buf, dests)?;
                }
                Ok(buf)
            }
            1 => {
                let first = fold_payload(1, 4, 24);
                let segments = [0..12, 12..24];
                let sent = c.send_sg(0, 4, SgView::new(&first, &segments))?;
                c.wait(sent)?;
                c.recv(0, 9, 1)?;
                c.send(0, 4, fold_payload(1, 4, 16)[..12].to_vec())?;
                Ok(vec![])
            }
            _ => {
                c.send(0, 5, fold_payload(2, 5, FOLD_BIG))?;
                c.send(0, 6, fold_payload(2, 6, 8))?;
                c.send(0, 7, fold_payload(2, 7, FOLD_BIG))?;
                Ok(vec![])
            }
        }
    }

    /// `waitall_into` with folding landings is `waitall` and `reduce_into`,
    /// on each transport and under each wrapper — the ones that forward it,
    /// and `FaultComm`, which does not — and a recording digests the
    /// payloads, not what a fold leaves.
    #[allow(clippy::single_range_in_vec_init)]
    pub fn folding_landings_are_waitall_then_reduce<W: World>() {
        let want = W::run(3, |c| fold(c, false));
        assert!(W::run(3, |c| fold(c, true)) == want);
        for into in [false, true] {
            let out = W::run(2, |c| two_regions(c, into, true));
            assert_eq!(out[1], two_regions_landed(2.75), "into={into}");
        }
        let plan = FaultPlan::none(11);
        assert_eq!(
            W::run(3, |c| fold(&mut FaultComm::new(c, plan), true)),
            want
        );
        let timed = W::run(3, |c| fold(&mut RecordComm::new(c), true));
        assert_eq!(timed, want);
        let recorded = W::run(3, |c| {
            let mut rc = RecordComm::for_replay(c);
            let buf = fold(&mut rc, true)?;
            Ok((buf, canonical(&rc.finish().events)))
        });
        assert!(recorded[0].0 == want[0]);
        let digests: Vec<_> = (recorded[0].1.iter())
            .filter(|e| e.kind == EventKind::Recv)
            .filter_map(|e| e.digest)
            .collect();
        let mut short = fold_payload(1, 4, 16)[..12].to_vec();
        short.resize(24, 0);
        let sent = [
            fold_payload(1, 4, 24),
            short,
            fold_payload(2, 5, FOLD_BIG),
            fold_payload(2, 6, 8),
            fold_payload(2, 7, FOLD_BIG),
        ];
        assert_eq!(digests, sent.iter().map(|p| fnv1a(p)).collect::<Vec<_>>());
        // Two same-key receives posted for 16 bytes folding into 8 bytes, the
        // receiver parked first: the first message is too long for its
        // destination, so it takes the queue and loses its tail there, and
        // the second may not overtake it into the first receive.
        let f64s = |xs: &[f64]| xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let out = W::run(2, |c| {
            if c.rank() == 1 {
                std::thread::sleep(Duration::from_millis(20));
                c.send(0, 7, f64s(&[1.0, 2.0]))?;
                c.send(0, 7, f64s(&[4.0]))?;
                return Ok(vec![]);
            }
            let mut reqs = vec![c.irecv(1, 7, 16)?, c.irecv(1, 7, 16)?];
            let (ranges, spans) = ([0..8, 8..16], [0..1, 1..2]);
            let sum = Landing::Reduce {
                dtype: DType::F64,
                op: ReduceOp::Sum,
            };
            let landings = [sum.clone(), sum];
            let mut buf = f64s(&[0.5, 0.5]);
            let dests = SgDests::new(&ranges, &spans).landing_into(&landings);
            c.waitall_into(&mut reqs, Regions::one(&mut buf), dests)?;
            Ok(buf)
        });
        assert_eq!(out[0], f64s(&[1.5, 4.5]));
        // A message longer than posted is `Truncation`, as for a copy.
        let results = W::try_run(2, LONG, |c| {
            if c.rank() == 0 {
                return c.send(1, 0, vec![0u8; 16]);
            }
            let mut reqs = vec![c.irecv(0, 0, 8)?];
            let (ranges, spans) = ([0..8], [0..1]);
            let landings = [Landing::Reduce {
                dtype: DType::F64,
                op: ReduceOp::Sum,
            }];
            let dests = SgDests::new(&ranges, &spans).landing_into(&landings);
            c.waitall_into(&mut reqs, Regions::one(&mut [0; 8]), dests)
        });
        assert!(
            matches!(
                results[1],
                Err(CommError::Truncation {
                    posted: 8,
                    arrived: 16,
                    ..
                })
            ),
            "{:?}",
            results[1]
        );
    }

    pub fn invalid_rank_rejected<W: World>() {
        let results = W::try_run(1, LONG, |c| c.send(5, 0, vec![]));
        assert!(matches!(
            results[0],
            Err(CommError::InvalidRank { rank: 5, size: 1 })
        ));
    }
}

macro_rules! on_both_transports {
    ($($case:ident),* $(,)?) => {$(
        #[test]
        fn $case() {
            cases::$case::<Threads>();
            cases::$case::<Sockets>();
        }
    )*};
}

on_both_transports!(
    pingpong,
    same_tag_is_fifo,
    tag_matching_out_of_order,
    waitall_completes_out_of_order,
    truncation_detected,
    deadline_timeout_reports_pending_op,
    departed_peer_unblocks_receiver,
    messages_before_departure_still_delivered,
    abort_unblocks_all_ranks,
    panicking_rank_is_captured_and_unblocks_peers,
    double_wait_is_error,
    request_table_is_reclaimed_but_handles_are_never_reused,
    invalid_rank_rejected,
    waitall_into_is_waitall_then_scatter,
    wrappers_keep_waitall_into_equivalent,
    folding_landings_are_waitall_then_reduce,
);
