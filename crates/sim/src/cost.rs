//! Direct schedule costing: simulate a lowered [`Schedule`] set without
//! running it on a live backend first.
//!
//! `exacoll_core::registry::lower` produces every rank's communication plan;
//! [`cost`] reads each plan's op stream off its compiled instructions
//! ([`Schedule::to_trace`], a symbolic walk: no buffer, no data movement, no
//! threads, O(steps) whatever the message size) and feeds the result to the
//! discrete-event simulator. That walk sits beside the executor's own and
//! the test below pins the two op streams equal over the registry grid, so
//! what is simulated is what a live run would issue.

use crate::machine::Machine;
use crate::replay::{simulate, ReplayError, SimOutcome};
use exacoll_core::schedule::Schedule;

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

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_comm::{record_traces, Comm, RankTrace, TraceComm};
    use exacoll_core::registry::{
        candidates, lower, lower_v, unique_candidates_v, Algorithm, CollArgs, CollectiveOp,
    };
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
                exacoll_core::registry::execute(c, &args, &input).map(|_| ())
            });
            let live = simulate(&machine, &traces).unwrap();
            assert_eq!(direct.makespan, live.makespan, "{alg}");
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
}
