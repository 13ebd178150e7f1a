//! Timed event timelines: a uniform per-rank record of what each rank did
//! and when, produced by either backend.
//!
//! * The **threaded runtime** is instrumented by wrapping any [`Comm`] in a
//!   [`TimedComm`], which stamps wall-clock nanoseconds (relative to a shared
//!   epoch so all ranks agree on `t = 0`).
//! * The **simulator** produces the same structure from a recorded
//!   [`RankTrace`] plus the per-op [`OpTiming`]s returned by
//!   `exacoll_sim::simulate_timed` — virtual nanoseconds on the α-β-γ clock.
//!
//! Every event carries three timestamps: `begin`/`end` bound the span during
//! which the rank was *occupied* by the call (posting a send, blocking in a
//! wait), while `done` is when the operation's effect *completed* (a send
//! delivered, a receive's payload arrived). For non-blocking ops `done` may
//! be far after `end`; the critical-path walk uses `done`, the Chrome trace
//! draws `begin..end`.

use exacoll_comm::{Comm, CommResult, Rank, RankTrace, Req, SgDests, SgView, Tag, TraceOp};
use exacoll_sim::OpTiming;
use std::collections::HashMap;
use std::time::Instant;

/// What kind of operation an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A posted send (`isend`).
    Send,
    /// A posted receive (`irecv`).
    Recv,
    /// A blocking wait (`wait`/`waitall`) covering earlier sends/receives.
    Wait,
    /// Local reduction compute.
    Compute,
    /// A round/phase boundary ([`Comm::mark`]); zero-duration instant.
    Mark,
}

impl EventKind {
    /// Lowercase name, used as the Chrome-trace category.
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
    /// Payload bytes (message size or compute volume).
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
}

impl TimedEvent {
    /// Occupied span in nanoseconds.
    pub fn span_ns(&self) -> f64 {
        self.end_ns - self.begin_ns
    }
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

/// Latest completion across all ranks — the collective's makespan in ns.
pub fn makespan_ns(timelines: &[RankTimeline]) -> f64 {
    timelines.iter().map(|t| t.finish_ns()).fold(0.0, f64::max)
}

/// [`Comm`] wrapper that records a [`RankTimeline`] of wall-clock events
/// while forwarding every call to the inner backend.
///
/// Request indices of the inner backend are tracked so a later `wait` can
/// back-patch the covered send/recv's `done_ns`; this relies on inner
/// backends never reusing request indices, which holds for every backend in
/// this workspace (indices are monotonically allocated).
pub struct TimedComm<C: Comm> {
    inner: C,
    epoch: Instant,
    events: Vec<TimedEvent>,
    /// Inner request index → index of the Send/Recv event it belongs to.
    pending: HashMap<usize, usize>,
    /// Currently active phase, set by the latest `mark`.
    phase: Option<(&'static str, u32)>,
}

impl<C: Comm> TimedComm<C> {
    /// Wrap `inner`, starting the clock now.
    pub fn new(inner: C) -> Self {
        Self::with_epoch(inner, Instant::now())
    }

    /// Wrap `inner` with a caller-supplied epoch. Pass the same `Instant` to
    /// every rank's wrapper so their timelines share `t = 0`.
    pub fn with_epoch(inner: C, epoch: Instant) -> Self {
        TimedComm {
            inner,
            epoch,
            events: Vec::new(),
            pending: HashMap::new(),
            phase: None,
        }
    }

    fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    fn push(
        &mut self,
        kind: EventKind,
        peer: Option<Rank>,
        tag: Option<Tag>,
        bytes: u64,
        begin: f64,
        end: f64,
    ) -> usize {
        self.events.push(TimedEvent {
            kind,
            peer,
            tag,
            bytes,
            begin_ns: begin,
            end_ns: end,
            done_ns: end,
            label: self.phase.map(|(l, _)| l),
            round: self.phase.map(|(_, r)| r),
            covers: Vec::new(),
        });
        self.events.len() - 1
    }

    /// The Send/Recv events `reqs` belong to, which a wait on them covers.
    fn covered(&mut self, reqs: &[Req]) -> Vec<usize> {
        reqs.iter()
            .filter_map(|r| self.pending.remove(&r.index()))
            .collect()
    }

    /// Run the inner wait and record it as one `Wait` event over `covered`.
    fn timed_wait<T>(
        &mut self,
        covered: Vec<usize>,
        wait: impl FnOnce(&mut C) -> CommResult<T>,
    ) -> CommResult<T> {
        let begin = self.now_ns();
        let out = wait(&mut self.inner)?;
        let end = self.now_ns();
        // The wait's return is the first moment completion is *observed*;
        // credit covered ops with that completion time.
        for &c in &covered {
            self.events[c].done_ns = end;
        }
        let idx = self.push(EventKind::Wait, None, None, 0, begin, end);
        self.events[idx].covers = covered.iter().map(|&c| c as u32).collect();
        Ok(out)
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

impl<C: Comm> Comm for TimedComm<C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        let bytes = data.len() as u64;
        let begin = self.now_ns();
        let req = self.inner.isend(to, tag, data)?;
        let end = self.now_ns();
        let idx = self.push(EventKind::Send, Some(to), Some(tag), bytes, begin, end);
        self.pending.insert(req.index(), idx);
        Ok(req)
    }

    /// Forwards the borrowed view to the inner backend, so wrapping in a
    /// timeline does not forfeit the zero-copy send path — the launch
    /// harness times `SocketComm`'s vectored writes, not a gather-copy.
    fn send_sg(&mut self, to: Rank, tag: Tag, view: SgView<'_>) -> CommResult<Req> {
        let bytes = view.len() as u64;
        let begin = self.now_ns();
        let req = self.inner.send_sg(to, tag, view)?;
        let end = self.now_ns();
        let idx = self.push(EventKind::Send, Some(to), Some(tag), bytes, begin, end);
        self.pending.insert(req.index(), idx);
        Ok(req)
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        let begin = self.now_ns();
        let req = self.inner.irecv(from, tag, bytes)?;
        let end = self.now_ns();
        let idx = self.push(
            EventKind::Recv,
            Some(from),
            Some(tag),
            bytes as u64,
            begin,
            end,
        );
        self.pending.insert(req.index(), idx);
        Ok(req)
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        self.waitall(vec![req]).map(|mut v| v.pop().unwrap())
    }

    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        let covered = self.covered(&reqs);
        self.timed_wait(covered, |c| c.waitall(reqs))
    }

    /// Forwards the destinations to the inner backend, so a timeline
    /// measures the receive path applications take — `SocketComm` reading
    /// into the posted buffer — and records the same one `Wait` event.
    fn waitall_into(
        &mut self,
        reqs: &mut Vec<Req>,
        buf: &mut [u8],
        dests: SgDests<'_>,
    ) -> CommResult<()> {
        let covered = self.covered(reqs);
        self.timed_wait(covered, |c| c.waitall_into(reqs, buf, dests))
    }

    fn compute(&mut self, bytes: usize) {
        let begin = self.now_ns();
        self.inner.compute(bytes);
        let end = self.now_ns();
        self.push(EventKind::Compute, None, None, bytes as u64, begin, end);
    }

    fn mark(&mut self, label: &'static str, round: u32) {
        self.inner.mark(label, round);
        self.phase = Some((label, round));
        let now = self.now_ns();
        let idx = self.push(EventKind::Mark, None, None, 0, now, now);
        // `push` stamps the *new* phase already, but keep it explicit.
        self.events[idx].label = Some(label);
        self.events[idx].round = Some(round);
    }
}

/// Build per-rank timelines from a recorded schedule and the per-op virtual
/// timings produced by `exacoll_sim::simulate_timed`.
///
/// Op `i` of `traces[r]` corresponds 1:1 to `timings[r][i]`, so event
/// indices equal trace op indices and `WaitAll.reqs` carry over directly as
/// `covers`.
pub fn timelines_from_sim(traces: &[RankTrace], timings: &[Vec<OpTiming>]) -> Vec<RankTimeline> {
    assert_eq!(traces.len(), timings.len(), "one timing row per rank");
    traces
        .iter()
        .zip(timings)
        .map(|(trace, times)| {
            assert_eq!(
                trace.ops.len(),
                times.len(),
                "rank {}: one timing per op",
                trace.rank
            );
            let mut phase: Option<(&'static str, u32)> = None;
            let events = trace
                .ops
                .iter()
                .zip(times)
                .map(|(op, t)| {
                    let (kind, peer, tag, bytes, covers) = match op {
                        TraceOp::Send { to, tag, bytes } => {
                            (EventKind::Send, Some(*to), Some(*tag), *bytes, Vec::new())
                        }
                        TraceOp::Recv { from, tag, bytes } => {
                            (EventKind::Recv, Some(*from), Some(*tag), *bytes, Vec::new())
                        }
                        TraceOp::WaitAll { reqs } => (EventKind::Wait, None, None, 0, reqs.clone()),
                        TraceOp::Compute { bytes } => {
                            (EventKind::Compute, None, None, *bytes, Vec::new())
                        }
                        TraceOp::Mark { label, round } => {
                            phase = Some((label, *round));
                            (EventKind::Mark, None, None, 0, Vec::new())
                        }
                    };
                    TimedEvent {
                        kind,
                        peer,
                        tag,
                        bytes,
                        begin_ns: t.begin.as_nanos(),
                        end_ns: t.end.as_nanos(),
                        done_ns: t.done.as_nanos(),
                        label: phase.map(|(l, _)| l),
                        round: phase.map(|(_, r)| r),
                        covers,
                    }
                })
                .collect();
            RankTimeline {
                rank: trace.rank,
                size: trace.size,
                events,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_comm::{run_ranks, ThreadComm};

    #[test]
    fn timed_wrapper_is_transparent_and_records() {
        let timelines: Vec<RankTimeline> = run_ranks(2, |c: &mut ThreadComm| {
            let mut tc = TimedComm::new(&mut *c);
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
            let mut tc = TimedComm::new(&mut *c);
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

    #[test]
    fn sim_timelines_align_with_ops() {
        use exacoll_core::registry::{lower, Algorithm, CollArgs, CollectiveOp};
        use exacoll_sim::{simulate_timed, Machine};

        let bcast = CollArgs::new(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 });
        let traces: Vec<_> = (0..2).map(|r| lower(&bcast, 2, r, 64).to_trace()).collect();
        let m = Machine::testbed(2, 1, 1);
        let (outcome, timings) = simulate_timed(&m, &traces).expect("replay");
        let tls = timelines_from_sim(&traces, &timings);
        assert_eq!(tls.len(), 2);
        for tl in &tls {
            assert_eq!(tl.events.len(), traces[tl.rank].ops.len());
            assert_eq!(tl.events[0].kind, EventKind::Mark);
            // Phase annotation flows onto subsequent events.
            assert_eq!(tl.events[1].label, Some("bc-knomial"));
            assert_eq!(tl.events[1].round, tl.events[0].round);
        }
        let makespan = makespan_ns(&tls);
        assert!((makespan - outcome.makespan.as_nanos()).abs() < 1e-6);
    }
}
