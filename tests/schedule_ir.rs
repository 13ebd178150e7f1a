//! Schedule-IR contract tests over the whole registry.
//!
//! Every generalized collective lowers to a per-rank [`Schedule`] before it
//! touches a transport. These tests pin the three properties that make the
//! IR trustworthy:
//!
//! 1. **Static safety** — the verifier proves every candidate plan is
//!    deadlock-free, tag-hygienic, and covers every output byte, for every
//!    (collective, algorithm, p, k) the registry offers, without running
//!    anything.
//! 2. **Dynamic fidelity** — compiling the same plans and executing them
//!    on the threaded runtime reproduces the sequential reference byte for
//!    byte.
//! 3. **Analytical utility** — the verifier's α/β/γ term counts price into
//!    a finite positive prediction, and direct IR costing agrees with
//!    simulating a recorded live run.

use exacoll::collectives::reference::expected_outputs;
use exacoll::collectives::registry::{candidates, lower, unique_candidates};
use exacoll::collectives::schedule::verify::verify;
use exacoll::collectives::schedule::{compile, execute_compiled, Schedule};
use exacoll::collectives::{CollArgs, CollectiveOp};
use exacoll::comm::{run_ranks, Comm};
use exacoll::models::{predict_from_stats, NetParams};
use exacoll::obs::payload;

/// Per-rank input length for one grid case.
fn input_len(op: CollectiveOp, p: usize, size: usize) -> usize {
    match op {
        CollectiveOp::Alltoall => size * p,
        CollectiveOp::Barrier => 0,
        _ => size,
    }
}

/// Lower every rank's plan for one case.
fn lower_all(args: &CollArgs, p: usize, n: usize) -> Vec<Schedule> {
    (0..p).map(|r| lower(args, p, r, n)).collect()
}

#[test]
fn every_registry_candidate_verifies_statically() {
    let net = NetParams::frontier_like();
    let mut cases = 0;
    for p in [4usize, 6, 8, 9] {
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                let n = input_len(op, p, 24);
                let plans = lower_all(&CollArgs::new(op, alg), p, n);
                let stats = verify(&plans)
                    .unwrap_or_else(|e| panic!("{op} / {alg} p={p} fails verification: {e}"));
                // Any plan that moves data must cost something.
                if p > 1 && op != CollectiveOp::Barrier {
                    assert!(
                        stats.beta_bytes > 0,
                        "{op} / {alg} p={p}: no bytes on the critical rank"
                    );
                }
                let priced = predict_from_stats(&net, &stats);
                assert!(
                    priced.is_finite() && priced >= 0.0,
                    "{op} / {alg} p={p}: bad prediction {priced}"
                );
                cases += 1;
            }
        }
    }
    assert!(cases > 200, "sweep should be dense, got {cases} cases");
}

#[test]
fn engine_reproduces_the_sequential_reference_on_threads() {
    for p in [4usize, 6, 8, 9] {
        for op in CollectiveOp::ALL {
            // The deduplicated set keeps one representative per distinct
            // plan, which is exactly the set of distinct executions.
            for alg in unique_candidates(op, p, 4) {
                let n = input_len(op, p, 16);
                let args = CollArgs::new(op, alg);
                let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(r, n)).collect();
                let expect = expected_outputs(op, args.root, args.dtype, args.rop, &inputs)
                    .expect("reference computes");
                let plans = lower_all(&args, p, n);
                let got = run_ranks(p, |c| {
                    execute_compiled(c, &compile(&plans[c.rank()]), &inputs[c.rank()])
                });
                for r in 0..p {
                    assert_eq!(got[r], expect[r], "{op} / {alg} p={p} rank={r}");
                }
            }
        }
    }
}

#[test]
fn unique_candidates_execute_everything_candidates_do() {
    // Dedup must only drop aliases: for each dropped configuration there is
    // a kept one whose lowered plans are identical, so coverage is intact.
    for p in [4usize, 6, 8, 9] {
        for op in CollectiveOp::ALL {
            let all = candidates(op, p, 4);
            let kept = unique_candidates(op, p, 4);
            assert!(!kept.is_empty(), "{op} p={p}: empty candidate set");
            for alg in &all {
                let n = input_len(op, p, 16);
                let dropped_plans = lower_all(&CollArgs::new(op, *alg), p, n);
                let covered = kept.iter().any(|k| {
                    *k == *alg || lower_all(&CollArgs::new(op, *k), p, n) == dropped_plans
                });
                assert!(covered, "{op} / {alg} p={p}: dropped without an alias");
            }
        }
    }
}

#[test]
fn direct_ir_costing_agrees_with_live_trace_simulation() {
    use exacoll::collectives::{execute, Algorithm};
    use exacoll::comm::record_traces;
    use exacoll::sim::{cost, simulate, Machine};

    let p = 8;
    let machine = Machine::frontier(4, 2);
    for (op, alg) in [
        (CollectiveOp::Allreduce, Algorithm::Ring),
        (
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        ),
        (CollectiveOp::Bcast, Algorithm::KnomialTree { k: 4 }),
        (CollectiveOp::Alltoall, Algorithm::Pairwise),
    ] {
        let n = input_len(op, p, 32);
        let args = CollArgs::new(op, alg);
        let plans = lower_all(&args, p, n);
        let direct = cost(&machine, &plans).expect("schedule costs");
        let traces = record_traces(p, |c| {
            let input = payload(c.rank(), n);
            execute(c, &args, &input).map(|_| ())
        });
        let live = simulate(&machine, &traces).expect("trace replays");
        assert_eq!(direct.makespan, live.makespan, "{op} / {alg}");
    }
}
