//! Integration tests for the observability subsystem: the timing wrapper
//! must never perturb collective results, the exporters must round-trip,
//! and injected faults must be visible in the recorded timelines.

use exacoll::chaos::run_case_results;
use exacoll::collectives::registry::{candidates, lower, lower_v, table_i, unique_candidates_v};
use exacoll::collectives::request::payload;
use exacoll::collectives::schedule::Schedule;
use exacoll::collectives::{
    execute, merge_tenants, Algorithm, CollArgs, CollectiveOp, Request, Tenant,
};
use exacoll::comm::{run_ranks, Comm, FaultEvent, FaultPlan};
use exacoll::obs::{
    chrome_trace, profile_sim, profile_thread, rank_tracks, EventKind, Histogram, Metrics,
    ProfileSpec,
};
use exacoll::sim::Machine;
use proptest::prelude::*;
use std::fmt::Display;
use std::time::Duration;

mod support;

use support::{input_len, lower_all, run_traced};

/// The correctness guard: wrapping every rank in `RecordComm` must leave the
/// result of every collective byte-identical, for every candidate algorithm
/// — and the wrapper must see every call the executor makes, `send_sg` and
/// `waitall_into` included.
#[test]
fn timed_wrapper_is_transparent_for_every_collective() {
    let p = 6;
    for op in CollectiveOp::ALL {
        // 96 B is a multiple of p, so alltoall's one-block-per-peer layout
        // holds; barrier takes no payload.
        let len = if op == CollectiveOp::Barrier { 0 } else { 96 };
        for alg in candidates(op, p, 4) {
            let args = CollArgs::new(op, alg);
            let what = format!("{op}/{alg}");
            let bare = run_ranks(p, |c| execute(c, &args, &payload(1, c.rank(), len)));
            let timed = run_traced(&lower_all(&args, p, len), &what);
            assert_eq!(bare, timed, "{what}: RecordComm changed the result");
        }
    }
}

/// What the simulator prices is what a live run issues: the symbolic
/// `to_trace()` of every plan equals, rank by rank, the op stream the
/// executor drives a threaded backend with. Over the registry grid, ragged
/// v-plans with zero-count ranks, merged tenants, the OSU-sized plans every
/// figure is priced from and the paper's p = 128 Table I shapes. The
/// optimizer's rewrites run through the same oracle in `tests/schedule_ir.rs`.
#[test]
fn symbolic_trace_equals_the_executed_trace() {
    let mut compared = 0;
    let mut check = |world: &[Schedule], what: &dyn Display| {
        run_traced(world, what);
        compared += world.len();
    };
    for p in [1usize, 2, 4, 6, 8, 9, 16] {
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                let args = CollArgs::new(op, alg);
                for size in [0usize, 24, 32 << 10] {
                    let n = input_len(op, p, size);
                    check(
                        &lower_all(&args, p, n),
                        &format_args!("{op} / {alg} p={p} n={n}"),
                    );
                }
            }
        }
        if p < 2 {
            continue;
        }
        let mut holes = vec![24usize; p];
        holes[p - 1] = 0;
        holes[p / 2] = 0;
        let mut head = vec![8usize; p];
        head[0] = 4096;
        for counts in [holes, head] {
            for op in [CollectiveOp::Allgather, CollectiveOp::ReduceScatter] {
                for alg in unique_candidates_v(op, 4, &counts) {
                    let args = CollArgs::new(op, alg);
                    let world: Vec<_> = (0..p).map(|r| lower_v(&args, r, &counts)).collect();
                    check(&world, &format_args!("{op}v / {alg} {counts:?}"));
                }
            }
        }
        let tenant = |id: usize, op, alg| -> Vec<Schedule> {
            let args = CollArgs::new(op, alg);
            (0..p)
                .map(|r| Tenant::new(id).rewrite(&lower(&args, p, r, 64)))
                .collect()
        };
        let t0 = tenant(0, CollectiveOp::Allgather, Algorithm::Ring);
        let t1 = tenant(
            1,
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        );
        let merged: Vec<_> = (0..p)
            .map(|r| merge_tenants(&[t0[r].clone(), t1[r].clone()]))
            .collect();
        check(&merged, &format_args!("2 merged tenants p={p}"));
    }

    // The route every figure is priced through: f64 sums at OSU sizes,
    // alltoall sized per destination.
    for op in CollectiveOp::ALL {
        for alg in candidates(op, 8, 4) {
            for n in [8usize, 1024, 64 << 10] {
                let world = exacoll::sim::cost::plans(8, op, alg, n, 0).expect("OSU point lowers");
                check(&world, &format_args!("{op} / {alg} f64 n={n}"));
            }
        }
    }

    // The paper's headline shapes: the ten Table I algorithms on 128 ranks.
    const P: usize = 128;
    let kernels: [fn(usize) -> Algorithm; 3] = [
        |k| Algorithm::KnomialTree { k },
        |k| Algorithm::RecursiveMultiplying { k },
        |k| Algorithm::KRing { k },
    ];
    for ((_, _, ops), kernel) in table_i().into_iter().zip(kernels) {
        for op in ops {
            for alg in [2, 4, 8, P].map(kernel) {
                if alg.supports(op, P).is_ok() {
                    check(
                        &lower_all(&CollArgs::new(op, alg), P, 1 << 10),
                        &format_args!("{op} / {alg} p={P}"),
                    );
                }
            }
        }
    }
    assert!(
        compared > 7_000,
        "grid should be dense, compared {compared}"
    );
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
/// `RecordComm` timeline as an inflated send span at the faulted op index.
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
        // the same order RecordComm records Send/Recv events.
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
