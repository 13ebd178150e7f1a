//! Pricing a collective on the simulator: lower, read the op stream off the
//! plan, replay it.
//!
//! `exacoll_core::registry::lower` produces every rank's communication plan;
//! [`cost`] reads each plan's op stream off its compiled instructions
//! ([`Schedule::to_trace`], a symbolic walk: no buffer, no data movement, no
//! threads, O(steps) whatever the message size) and feeds the result to the
//! discrete-event simulator. That walk sits beside the executor's own and
//! the test below pins the two op streams equal over the registry grid, so
//! what is simulated is what a live run would issue.
//!
//! [`plans`], [`traces`], [`measure`] and [`latency`] are the OSU-style front
//! end every sweep, figure and workload prices through: one (collective,
//! algorithm, per-rank message size) point in, virtual time out. The paper
//! measures with the OSU microbenchmark suite; its conventions are kept here
//! (`f64` elements summed, sizes rounded down to whole elements, alltoall
//! sized per destination), and a configuration `lower` would panic on, or a
//! size it would silently truncate, is a [`CostError`] instead.

use crate::machine::Machine;
use crate::replay::{simulate, ReplayError, SimOutcome};
use crate::time::SimTime;
use exacoll_comm::{DType, RankTrace, ReduceOp};
use exacoll_core::registry::{Algorithm, CollArgs, CollectiveOp};
use exacoll_core::schedule::Schedule;
use exacoll_core::Request;

/// Simulate the lowered plans of all ranks on `machine`.
///
/// # Errors
///
/// [`ReplayError::RankMismatch`] when `schedules.len()` differs from the
/// machine's rank count, plus any replay error a malformed plan produces
/// (the static verifier catches those earlier in test sweeps).
pub fn cost(machine: &Machine, schedules: &[Schedule]) -> Result<SimOutcome, ReplayError> {
    let traces: Vec<_> = schedules.iter().map(|s| s.to_trace()).collect();
    simulate(machine, &traces)
}

/// Why a (collective, algorithm, size) point could not be priced.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// The point cannot be lowered as asked: what `lower` (or `compile`)
    /// would panic on, or quietly plan as something else.
    Unsupported(String),
    /// The simulator rejected the lowered plans.
    Replay(ReplayError),
}

impl std::fmt::Display for CostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostError::Unsupported(why) => write!(f, "unsupported configuration: {why}"),
            CostError::Replay(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CostError {}

impl From<ReplayError> for CostError {
    fn from(e: ReplayError) -> Self {
        CostError::Replay(e)
    }
}

/// The element type every figure is priced with (OSU reduces doubles).
const OSU_DTYPE: DType = DType::F64;

/// Every rank's lowered plan for `alg` running `op` with `n`-byte per-rank
/// payloads on `p` ranks.
///
/// `n` follows OSU conventions: it is the per-rank message size (the full
/// payload for bcast/reduce/allreduce, the per-rank block for
/// gather/allgather, the per-destination block for alltoall, whose input
/// therefore holds `p` blocks), rounded down to whole `f64` elements.
///
/// # Errors
///
/// [`CostError::Unsupported`] when [`Algorithm::supports`] rejects the
/// combination, `root` is out of range, a reducing collective is left with
/// a fraction of an element (which `lower` would plan as reducing nothing),
/// or one region of the plan would span 4 GiB or more.
pub fn plans(
    p: usize,
    op: CollectiveOp,
    alg: Algorithm,
    n: usize,
    root: usize,
) -> Result<Vec<Schedule>, CostError> {
    let elem = OSU_DTYPE.size();
    // OSU sizes are all multiples of the element; pad odd ones down.
    let n = if n >= elem { n - n % elem } else { n };
    // Alltoall is sized per destination: the input holds p blocks.
    let bytes = match op {
        CollectiveOp::Alltoall => n.checked_mul(p).ok_or_else(|| {
            CostError::Unsupported(format!(
                "{op} of {n} B on {p} ranks addresses 4 GiB or more in one region"
            ))
        })?,
        _ => n,
    };
    let args = CollArgs {
        op,
        alg,
        root,
        dtype: OSU_DTYPE,
        rop: ReduceOp::Sum,
    };
    Request::uniform(args, p, bytes)
        .map(|req| req.lower_world())
        .map_err(CostError::Unsupported)
}

/// Every rank's op stream for the same call, read off [`plans`]: the one
/// place per-rank traces are built for pricing.
pub fn traces(
    p: usize,
    op: CollectiveOp,
    alg: Algorithm,
    n: usize,
    root: usize,
) -> Result<Vec<RankTrace>, CostError> {
    Ok(plans(p, op, alg, n, root)?
        .iter()
        .map(Schedule::to_trace)
        .collect())
}

/// Price `alg` running `op` on `machine`: the full simulated outcome.
pub fn measure(
    machine: &Machine,
    op: CollectiveOp,
    alg: Algorithm,
    n: usize,
    root: usize,
) -> Result<SimOutcome, CostError> {
    let traces = traces(machine.ranks(), op, alg, n, root)?;
    Ok(simulate(machine, &traces)?)
}

/// Latency (makespan) of one collective on `machine`, root 0.
pub fn latency(
    machine: &Machine,
    op: CollectiveOp,
    alg: Algorithm,
    n: usize,
) -> Result<SimTime, CostError> {
    measure(machine, op, alg, n, 0).map(|o| o.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_comm::{record_traces, Comm, TraceComm};
    use exacoll_core::registry::{candidates, execute, lower, lower_v, unique_candidates_v};
    use exacoll_core::schedule::{compile, execute_compiled};
    use exacoll_core::{merge_tenants, Tenant};

    /// What the real executor makes the recorder write for `plan`: the
    /// reference the symbolic `to_trace` must reproduce op for op.
    fn executed_trace(plan: &Schedule) -> RankTrace {
        let plan = compile(plan);
        let mut c = TraceComm::new(plan.rank, plan.p);
        execute_compiled(&mut c, &plan, &vec![0; plan.input_bytes()]).unwrap();
        c.finish()
    }

    /// Every rank's symbolic trace equals its executed one; returns how many
    /// rank plans were compared.
    fn assert_traces_match(world: &[Schedule], what: &dyn std::fmt::Display) -> usize {
        for plan in world {
            let (symbolic, executed) = (plan.to_trace(), executed_trace(plan));
            assert_eq!(symbolic, executed, "{what} rank {}", plan.rank);
        }
        world.len()
    }

    #[test]
    fn schedule_cost_equals_traced_execution_cost() {
        // Costing the IR directly must give the same makespan as recording
        // a live (threaded) execution and simulating that.
        let p = 8;
        let machine = Machine::testbed(2, 4, 2);
        for alg in [
            Algorithm::Ring,
            Algorithm::KnomialTree { k: 2 },
            Algorithm::RecursiveMultiplying { k: 4 },
        ] {
            let args = CollArgs::new(CollectiveOp::Allgather, alg);
            let n = 64;
            let plans: Vec<_> = (0..p).map(|r| lower(&args, p, r, n)).collect();
            let direct = cost(&machine, &plans).unwrap();

            let traces = record_traces(p, |c| {
                let input = vec![c.rank() as u8; n];
                execute(c, &args, &input).map(|_| ())
            });
            let live = simulate(&machine, &traces).unwrap();
            assert_eq!(direct.makespan, live.makespan, "{alg}");
        }

        // The route every figure is priced through: `traces` (f64 sums at
        // OSU sizes, alltoall sized per destination) against what a
        // recorder sees when the registry executes the same call.
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                for n in [8usize, 1024, 64 << 10] {
                    let args = CollArgs {
                        dtype: OSU_DTYPE,
                        ..CollArgs::new(op, alg)
                    };
                    let bytes = if op == CollectiveOp::Alltoall {
                        n * p
                    } else {
                        n
                    };
                    let executed =
                        record_traces(p, |c| execute(c, &args, &vec![0; bytes]).map(|_| ()));
                    assert_eq!(
                        traces(p, op, alg, n, 0).unwrap(),
                        executed,
                        "{op} / {alg} f64 n={n}"
                    );
                }
            }
        }

        // And rank by rank, the op stream `cost` prices is the one the
        // executor drives a backend with: over the registry grid (empty,
        // small and 32 KiB payloads; one rank up to sixteen), ragged
        // v-plans with zero-count ranks, and merged two-tenant plans.
        let mut compared = 0;
        for p in [1usize, 2, 4, 6, 8, 9, 16] {
            for op in CollectiveOp::ALL {
                for alg in candidates(op, p, 4) {
                    let args = CollArgs::new(op, alg);
                    for size in [0usize, 24, 32 << 10] {
                        let n = match op {
                            CollectiveOp::Alltoall => size * p,
                            CollectiveOp::Barrier => 0,
                            _ => size,
                        };
                        let world: Vec<_> = (0..p).map(|r| lower(&args, p, r, n)).collect();
                        compared +=
                            assert_traces_match(&world, &format_args!("{op} / {alg} p={p} n={n}"));
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
                        compared +=
                            assert_traces_match(&world, &format_args!("{op}v / {alg} {counts:?}"));
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
            compared += assert_traces_match(&merged, &format_args!("2 merged tenants p={p}"));
        }
        assert!(
            compared > 7_000,
            "grid should be dense, compared {compared}"
        );
    }

    #[test]
    fn skewed_v_allgather_costs_more_than_uniform_at_equal_total() {
        // Same total bytes, two distributions: a ring allgatherv must pay
        // for the largest block on every hop, so skew raises the makespan.
        let machine = Machine::testbed(2, 2, 2);
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let run = |counts: &[usize]| {
            let plans: Vec<_> = (0..counts.len())
                .map(|r| exacoll_core::registry::lower_v(&args, r, counts))
                .collect();
            cost(&machine, &plans).unwrap().makespan
        };
        let uniform = run(&[4096, 4096, 4096, 4096]);
        let skewed = run(&[13312, 1024, 1024, 1024]);
        assert!(
            skewed > uniform,
            "skew must not be free: skewed {skewed} vs uniform {uniform}"
        );
        // Zero-count ranks still simulate (0-byte messages are legal).
        assert!(run(&[8192, 0, 8192, 0]) > crate::time::SimTime::ZERO);
    }

    #[test]
    fn generalized_allreduce_simulates_at_non_power_of_k_counts() {
        let machine = Machine::testbed(2, 4, 2);
        for k in [2usize, 3] {
            let args = CollArgs::new(
                CollectiveOp::Allreduce,
                Algorithm::GeneralizedMultiplying { k },
            );
            let plans: Vec<_> = (0..8).map(|r| lower(&args, 8, r, 64)).collect();
            let out = cost(&machine, &plans).unwrap();
            assert!(out.makespan > crate::time::SimTime::ZERO, "genmult k={k}");
        }
    }

    #[test]
    fn rank_count_mismatch_is_an_error() {
        let machine = Machine::testbed(2, 2, 2);
        let args = CollArgs::new(CollectiveOp::Barrier, Algorithm::Dissemination { k: 2 });
        let plans: Vec<_> = (0..2).map(|r| lower(&args, 2, r, 0)).collect();
        assert!(matches!(
            cost(&machine, &plans),
            Err(ReplayError::RankMismatch { .. })
        ));
    }

    #[test]
    fn bcast_latency_positive_and_monotone() {
        let m = Machine::frontier(8, 1);
        let alg = Algorithm::KnomialTree { k: 2 };
        let t_small = latency(&m, CollectiveOp::Bcast, alg, 8).unwrap();
        let t_big = latency(&m, CollectiveOp::Bcast, alg, 1 << 20).unwrap();
        assert!(t_small.as_micros() > 0.0);
        assert!(t_big > t_small);
    }

    #[test]
    fn every_supported_pair_simulates_cleanly() {
        // Deadlock-freedom across the whole compatibility matrix on a
        // non-trivial machine.
        let m = Machine::frontier(4, 2); // p = 8
        for op in CollectiveOp::ALL {
            for alg in exacoll_core::registry::candidates(op, m.ranks(), 8) {
                let out = measure(&m, op, alg, 4096, 0);
                assert!(out.is_ok(), "{op} {alg}: {:?}", out.err());
            }
        }
    }

    #[test]
    fn knomial_matches_alpha_model_shape() {
        // On a machine with zero overheads the simulated binomial bcast of a
        // tiny message costs depth * alpha.
        let mut m = Machine::testbed(8, 1, 1);
        m.cpu.o_send_ns = 0.0;
        m.cpu.o_recv_ns = 0.0;
        let t = latency(&m, CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }, 8).unwrap();
        // depth = 3, alpha = 1000 ns, beta*8 = 8 ns per hop.
        let expect = 3.0 * (1000.0 + 8.0);
        assert!(
            (t.as_nanos() - expect).abs() < 1.0,
            "simulated {} vs model {expect}",
            t.as_nanos()
        );
    }

    #[test]
    fn flat_tree_is_single_alpha_deep() {
        let mut m = Machine::testbed(8, 1, 8);
        m.cpu.o_send_ns = 0.0;
        m.cpu.o_recv_ns = 0.0;
        let t = latency(&m, CollectiveOp::Bcast, Algorithm::KnomialTree { k: 8 }, 8).unwrap();
        // One round: alpha + n*beta, all seven sends striped over 8 ports.
        assert!((t.as_nanos() - 1008.0).abs() < 1.0, "{t}");
    }

    #[test]
    fn odd_sizes_round_down_to_elements() {
        let m = Machine::frontier(4, 1);
        let t = latency(
            &m,
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
            17,
        );
        assert!(t.is_ok());
    }

    #[test]
    fn what_lower_panics_on_or_truncates_is_a_typed_error() {
        let m = Machine::frontier(4, 1);
        let recmult = Algorithm::RecursiveMultiplying { k: 2 };
        // 3 B of f64: `lower` would plan zero-element reductions.
        for op in [CollectiveOp::Allreduce, CollectiveOp::ReduceScatter] {
            let err = latency(&m, op, Algorithm::Ring, 3).unwrap_err();
            assert!(err.to_string().contains("whole number of f64"), "{err}");
        }
        // Moving 3 B without combining them is fine.
        assert!(latency(&m, CollectiveOp::Bcast, recmult, 3).is_ok());
        // `lower` panics on all of these.
        for (op, alg, root) in [
            (CollectiveOp::Reduce, recmult, 0),
            (CollectiveOp::Allgather, Algorithm::KRing { k: 300 }, 0),
            (CollectiveOp::Allreduce, Algorithm::Auto, 0),
            (CollectiveOp::Bcast, recmult, 4),
        ] {
            let err = measure(&m, op, alg, 64, root).unwrap_err();
            assert!(matches!(err, CostError::Unsupported(_)), "{err}");
        }
        // And `compile` on a region of 4 GiB or more.
        let err = latency(&m, CollectiveOp::Allgather, Algorithm::Ring, 1 << 30).unwrap_err();
        assert!(err.to_string().contains("4 GiB"), "{err}");
        assert!(latency(&m, CollectiveOp::Bcast, recmult, 1 << 30).is_ok());
    }
}
