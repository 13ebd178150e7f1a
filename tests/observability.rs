//! Integration tests for the observability subsystem: the timing wrapper
//! must never perturb collective results, the exporters must round-trip,
//! and injected faults must be visible in the recorded timelines.

use exacoll::chaos::run_case_results;
use exacoll::collectives::registry::{candidates, lower};
use exacoll::collectives::request::payload;
use exacoll::collectives::schedule::compile;
use exacoll::collectives::{execute, Algorithm, CollArgs, CollectiveOp, Request};
use exacoll::comm::thread_rt::try_run_ranks;
use exacoll::comm::{Comm, FaultEvent, FaultPlan, ThreadComm, TraceOp};
use exacoll::obs::{
    chrome_trace, profile_sim, profile_thread, rank_tracks, EventKind, Histogram, Metrics,
    ProfileSpec, RankTimeline, TimedComm,
};
use exacoll::sim::Machine;
use proptest::prelude::*;
use std::time::Duration;

/// Run one (op, alg) case on `p` threaded ranks, optionally timed, and
/// return every rank's output bytes and — when timed — its timeline.
fn run_outputs(
    op: CollectiveOp,
    alg: Algorithm,
    p: usize,
    len: usize,
    timed: bool,
) -> Vec<(Vec<u8>, Option<RankTimeline>)> {
    let args = CollArgs::new(op, alg);
    let results = try_run_ranks(p, |c: &mut ThreadComm| {
        let input = payload(1, c.rank(), len);
        if timed {
            let mut tc = TimedComm::new(&mut *c);
            let out = execute(&mut tc, &args, &input)?;
            Ok((out, Some(tc.finish())))
        } else {
            Ok((execute(c, &args, &input)?, None))
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(r, res)| res.unwrap_or_else(|e| panic!("{op}/{alg} rank {r} (timed={timed}): {e}")))
        .collect()
}

/// The correctness guard: wrapping every rank in `TimedComm` must leave the
/// result of every collective byte-identical, for every candidate algorithm
/// — and the wrapper must see every call the executor makes, `send_sg` and
/// `waitall_into` included: its timeline is the plan's own op stream, one
/// event per op, each flush one `Wait` covering what was posted since the
/// last.
#[test]
fn timed_wrapper_is_transparent_for_every_collective() {
    let p = 6;
    for op in CollectiveOp::ALL {
        // 96 B is a multiple of p, so alltoall's one-block-per-peer layout
        // holds; barrier takes no payload.
        let len = if op == CollectiveOp::Barrier { 0 } else { 96 };
        for alg in candidates(op, p, 4) {
            let bare = run_outputs(op, alg, p, len, false);
            let timed = run_outputs(op, alg, p, len, true);
            for (rank, ((bare, _), (timed, timeline))) in bare.iter().zip(&timed).enumerate() {
                assert_eq!(bare, timed, "{op}/{alg}: TimedComm changed the result");
                let plan = compile(&lower(&CollArgs::new(op, alg), p, rank, len));
                let seen: Vec<TraceOp> = (timeline.as_ref().expect("timed run").events.iter())
                    .map(|e| match e.kind {
                        EventKind::Send => TraceOp::Send {
                            to: e.peer.expect("send peer"),
                            tag: e.tag.expect("send tag"),
                            bytes: e.bytes,
                        },
                        EventKind::Recv => TraceOp::Recv {
                            from: e.peer.expect("recv peer"),
                            tag: e.tag.expect("recv tag"),
                            bytes: e.bytes,
                        },
                        EventKind::Wait => TraceOp::WaitAll {
                            reqs: e.covers.clone(),
                        },
                        EventKind::Compute => TraceOp::Compute { bytes: e.bytes },
                        EventKind::Mark => TraceOp::Mark {
                            label: e.label.expect("mark label"),
                            round: e.round.expect("mark round"),
                        },
                    })
                    .collect();
                assert_eq!(seen, plan.to_trace().ops, "{op}/{alg} rank {rank}");
            }
        }
    }
}

/// Chrome-trace export: pretty-print, re-parse, and check the track map
/// matches the recorded timelines slice-for-slice.
#[test]
fn chrome_trace_round_trips_through_json() {
    let recmult = CollArgs::new(
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 4 },
    );
    let spec = ProfileSpec {
        request: Request::uniform(recmult, 16, 2048).unwrap(),
        machine: Machine::testbed(16, 1, 1),
    };
    let sim = profile_sim(&spec).expect("sim profile");
    let thread = profile_thread(&spec).expect("thread profile");
    let doc = chrome_trace(&[
        ("thread", thread.timelines.as_slice()),
        ("sim", sim.timelines.as_slice()),
    ]);
    let reparsed = exacoll::json::parse(&doc.pretty()).expect("trace survives printing");
    let tracks = rank_tracks(&reparsed).expect("trace is Chrome-shaped");
    assert_eq!(tracks.len(), 32, "one track per rank per backend");
    for (run, pid) in [(&thread, 0usize), (&sim, 1usize)] {
        for tl in &run.timelines {
            let slices = tracks[&(pid, tl.rank)];
            let expected = tl
                .events
                .iter()
                .filter(|e| e.kind != EventKind::Mark)
                .count();
            assert_eq!(slices, expected, "backend {pid} rank {} slices", tl.rank);
        }
    }
}

/// Metrics snapshot: serialize, re-parse, deserialize, compare structurally.
#[test]
fn metrics_snapshot_round_trips_through_json() {
    let kring = CollArgs::new(CollectiveOp::Allgather, Algorithm::KRing { k: 2 });
    let spec = ProfileSpec {
        request: Request::uniform(kring, 16, 512).unwrap(),
        machine: Machine::testbed(8, 2, 1),
    };
    let run = profile_sim(&spec).expect("sim profile");
    let mut m = Metrics::new();
    m.incr("campaigns", 3);
    m.observe("arbitrary", 0.25);
    m.observe("arbitrary", 9e9);
    m.record_timelines("allgather/kring:2/512/sim", &run.timelines);
    let text = m.to_json().pretty();
    let back = Metrics::from_json(&exacoll::json::parse(&text).expect("valid JSON"))
        .expect("snapshot deserializes");
    assert_eq!(m, back);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram invariant: bucket counts always sum to the number of
    /// observations, whatever the values (including sub-1.0 and huge ones).
    #[test]
    fn histogram_buckets_sum_to_observation_count(
        vals in proptest::collection::vec(0.0f64..1e15, 0..256)
    ) {
        let mut h = Histogram::default();
        for &v in &vals {
            h.observe(v);
        }
        prop_assert_eq!(h.count(), vals.len() as u64);
        prop_assert_eq!(h.counts.iter().sum::<u64>(), vals.len() as u64);
    }
}

/// A FaultPlan delay injected under `FaultComm` must surface in the outer
/// `TimedComm` timeline as an inflated send span at the faulted op index.
#[test]
fn injected_delay_inflates_the_matching_send_span() {
    let plan = FaultPlan::none(7).delays(1.0, Duration::from_micros(800));
    let p = 4;
    let cases = run_case_results(
        CollectiveOp::Allreduce,
        Algorithm::Ring,
        p,
        plan,
        Duration::from_secs(30),
        64,
    );
    assert_eq!(cases.len(), p);
    let mut checked = 0;
    for (rank, case) in cases.iter().enumerate() {
        let out = case
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("delay-only plan must still complete (rank {rank}): {e}"));
        assert_eq!(out.len(), 64);
        // FaultComm's op clock ticks once per isend/irecv, in call order —
        // the same order TimedComm records Send/Recv events.
        let p2p: Vec<_> = case
            .timeline
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send | EventKind::Recv))
            .collect();
        for f in &case.faults {
            if let FaultEvent::Delay { op, to, delay_us } = f {
                let e = p2p
                    .get(*op)
                    .unwrap_or_else(|| panic!("rank {rank}: no p2p event at op {op}"));
                assert_eq!(e.kind, EventKind::Send, "rank {rank} op {op}");
                assert_eq!(e.peer, Some(*to), "rank {rank} op {op}");
                if *delay_us > 0 {
                    let floor = *delay_us as f64 * 1000.0;
                    assert!(
                        e.span_ns() >= floor,
                        "rank {rank} op {op}: send span {:.0} ns < injected {floor} ns",
                        e.span_ns()
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked > 0,
        "plan with delay_prob=1.0 injected no nonzero delay"
    );
}
