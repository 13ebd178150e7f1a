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
use exacoll::collectives::registry::{candidates, lower, table_i, unique_candidates};
use exacoll::collectives::request::payload;
use exacoll::collectives::schedule::eval::{evaluate, probe_inputs, provenance};
use exacoll::collectives::schedule::provenance::{Arena, Equivalence, Seg};
use exacoll::collectives::schedule::verify::verify;
use exacoll::collectives::schedule::{compile, execute_compiled, Schedule};
use exacoll::collectives::{Algorithm, CollArgs, CollectiveOp, Request};
use exacoll::comm::{run_ranks, Comm, RankTrace, TraceComm};
use exacoll::models::{predict_from_stats, NetParams};

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

/// The trace the real executor leaves on the recorder — the reference the
/// symbolic `to_trace` walk must reproduce op for op.
fn executed_trace(plan: &Schedule) -> RankTrace {
    let plan = compile(plan);
    let mut c = TraceComm::new(plan.rank, plan.p);
    execute_compiled(&mut c, &plan, &vec![0; plan.input_bytes()]).expect("recorder cannot fail");
    c.finish()
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
                let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(1, r, n)).collect();
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
            let input = payload(1, c.rank(), n);
            execute(c, &args, &input).map(|_| ())
        });
        let live = simulate(&machine, &traces).expect("trace replays");
        assert_eq!(direct.makespan, live.makespan, "{op} / {alg}");
    }
}

#[test]
fn paper_scale_shapes_verify_and_price_independent_of_message_size() {
    // The paper's headline shapes (Figs. 8-11): the ten generalized
    // algorithms of Table I on 128 nodes. Verifying and pricing read ranges
    // and step counts, never bytes, so the 1 MiB allgathers — gigabytes of
    // scratch address space per rank — cost what the 1 KiB ones do; with a
    // per-byte verifier this test cannot finish.
    use exacoll::sim::{cost, Machine};
    const P: usize = 128;
    const KIB: usize = 1 << 10;
    let machine = Machine::frontier(16, 8);
    // `table_i` rows in order: k-nomial, recursive multiplying, k-ring.
    let kernels: [fn(usize) -> Algorithm; 3] = [
        |k| Algorithm::KnomialTree { k },
        |k| Algorithm::RecursiveMultiplying { k },
        |k| Algorithm::KRing { k },
    ];
    let mut cases = 0;
    for ((_, _, ops), kernel) in table_i().into_iter().zip(kernels) {
        for op in ops {
            for alg in [2, 4, 8, P].map(kernel) {
                if alg.supports(op, P).is_err() {
                    continue;
                }
                let what = format!("{op} / {alg} p={P}");
                let args = CollArgs::new(op, alg);
                let (small, large) = (lower_all(&args, P, KIB), lower_all(&args, P, KIB * KIB));
                let s = verify(&small).unwrap_or_else(|e| panic!("{what} at 1 KiB: {e}"));
                let l = verify(&large).unwrap_or_else(|e| panic!("{what} at 1 MiB: {e}"));
                // 1 KiB splits evenly into 128 blocks, so every term scales
                // exactly.
                assert_eq!(l.alpha_rounds, s.alpha_rounds, "{what}");
                assert_eq!(l.beta_bytes, s.beta_bytes * KIB, "{what}");
                assert_eq!(l.gamma_bytes, s.gamma_bytes * KIB, "{what}");

                // ceil(log_k 128) rounds for the tree and the exchange.
                let log_k = |k: usize| (1..).find(|&m| k.pow(m) >= P).unwrap() as usize;
                match (op, alg) {
                    (CollectiveOp::Bcast | CollectiveOp::Reduce, Algorithm::KnomialTree { k })
                    | (CollectiveOp::Allgather, Algorithm::RecursiveMultiplying { k }) => {
                        assert_eq!(s.alpha_rounds, log_k(k), "{what}");
                    }
                    _ => {}
                }

                let inputs = probe_inputs(&small);
                let expect = expected_outputs(op, args.root, args.dtype, args.rop, &inputs)
                    .expect("reference computes");
                assert_eq!(evaluate(&small, &inputs).unwrap(), expect, "{what}");
                for plan in &small {
                    assert_eq!(
                        plan.to_trace(),
                        executed_trace(plan),
                        "{what} rank {}",
                        plan.rank
                    );
                }
                let priced = cost(&machine, &large).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(priced.makespan > exacoll::sim::SimTime::ZERO, "{what}");

                // What the world computes, as expressions: the same walk, the
                // same expressions and the same segments at both sizes, only
                // the lengths and coordinates 1024 times larger — no step of
                // it depends on n — and at both sizes the collective's own
                // definition, which the bytes above cross-check at 1 KiB.
                let denoted = [(KIB, &small), (KIB * KIB, &large)].map(|(n, plans)| {
                    let mut arena = Arena::new();
                    let got = provenance(&mut arena, plans).unwrap();
                    let built = arena.len();
                    let request = Request::uniform(args, P, n).unwrap();
                    let want = request.denotation(&mut arena);
                    let verdict = arena
                        .equivalent(&want, &got)
                        .unwrap_or_else(|d| panic!("{what} at {n} B: {d}"));
                    (got, built, verdict)
                });
                let [(at_kib, built_kib, says_kib), (at_mib, built_mib, says_mib)] = denoted;
                let scaled: Vec<Vec<Seg>> = at_kib
                    .iter()
                    .map(|segs| {
                        let up = |s: &Seg| Seg {
                            len: s.len * KIB,
                            at: s.at * KIB as i64,
                            ..*s
                        };
                        segs.iter().map(up).collect()
                    })
                    .collect();
                assert_eq!(at_mib, scaled, "{what}");
                assert_eq!((built_mib, says_mib), (built_kib, says_kib), "{what}");
                let reduces = matches!(op, CollectiveOp::Reduce | CollectiveOp::Allreduce);
                assert!(reduces || says_kib == Equivalence::Same, "{what}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 40, "ten Table I algorithms at four radixes");
}

#[test]
fn symbolic_trace_equals_executed_trace_for_optimizer_rewrites() {
    // The registry grid, ragged v-plans and merged tenants are pinned in
    // `exacoll-sim` (`schedule_cost_equals_traced_execution_cost`); the
    // optimizer's rewrites need `exacoll-opt` and are pinned here.
    use exacoll::opt::{aggregate, pipeline};
    let mut rewritten = 0;
    for p in [4usize, 6, 8, 9] {
        for op in CollectiveOp::ALL {
            for alg in unique_candidates(op, p, 4) {
                let n = input_len(op, p, 4096);
                let plans = lower_all(&CollArgs::new(op, alg), p, n);
                for world in [
                    pipeline(&plans, 1024).expect("pipeline applies"),
                    aggregate(&plans, 4096).expect("aggregate applies"),
                ] {
                    rewritten += usize::from(world != plans);
                    for plan in &world {
                        assert_eq!(
                            plan.to_trace(),
                            executed_trace(plan),
                            "{op} / {alg} p={p} rank {}",
                            plan.rank
                        );
                    }
                }
            }
        }
    }
    assert!(rewritten > 50, "passes should bite, rewrote {rewritten}");
}
