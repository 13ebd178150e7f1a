//! Timed event timelines: a uniform per-rank record of what each rank did
//! and when, produced by either backend.
//!
//! * A **live backend** is instrumented by wrapping its `Comm` in the one
//!   recorder, [`RecordComm`], which stamps wall-clock nanoseconds relative
//!   to a shared epoch so all ranks agree on `t = 0` (and digests payloads
//!   too when it records for replay).
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

pub use exacoll_comm::{EventKind, RankTimeline, TimedEvent};
use exacoll_comm::{RankTrace, RecordComm, TraceOp};
use exacoll_sim::OpTiming;

/// The recorder without digests, under its former name: it stays for the
/// benchmark's probes, which build `TimedComm::new(..)`, until they move to
/// [`RecordComm`] (ROADMAP item 1(a)).
pub type TimedComm<C> = RecordComm<C>;

/// Latest completion across all ranks — the collective's makespan in ns.
pub fn makespan_ns(timelines: &[RankTimeline]) -> f64 {
    timelines.iter().map(|t| t.finish_ns()).fold(0.0, f64::max)
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
                        digest: None,
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
