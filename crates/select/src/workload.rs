//! Application-level collective workloads.
//!
//! §II-A motivates the paper with profiles of production applications:
//! collectives consume 25–50% of runtime, and the ECP proxy-app suite
//! spends 40%+ of exascale workloads' time in them, dominated by
//! `MPI_Allreduce`. This module times a whole *sequence* of collectives —
//! an application's per-iteration communication mix — end-to-end on the
//! simulator, under a given selection policy, so the paper's bottom-line
//! question ("what does radix tuning buy an application?") can be answered
//! directly.

use exacoll_core::registry::default_algorithm;
use exacoll_core::spec::{Variant, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES};
use exacoll_core::CollectiveOp;
use exacoll_opt::apply_opt_spec;
use exacoll_sim::cost::plans;
use exacoll_sim::{cost, CostError, Machine, SimTime};

/// Latency of one collective under a table's answer: the algorithm's plans
/// at `n` bytes per rank (OSU conventions, see [`exacoll_sim::cost`]) with
/// the variant's optimizer passes applied at their default thresholds — the
/// plans `launch --select auto` would run. A pass-free variant prices exactly
/// as [`exacoll_sim::cost::latency`] does.
pub fn variant_latency(
    machine: &Machine,
    op: CollectiveOp,
    variant: Variant,
    n: usize,
) -> Result<SimTime, CostError> {
    let plans = apply_opt_spec(
        &plans(machine.ranks(), op, variant.alg, n, 0)?,
        &variant.opt,
        OPT_PIPELINE_CHUNK_BYTES,
        OPT_AGGREGATE_MAX_FUSE_BYTES,
    )
    .expect("the default thresholds are nonzero");
    Ok(cost(machine, &plans)?.makespan)
}

/// One collective invocation in an application's communication mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadStep {
    /// The collective.
    pub op: CollectiveOp,
    /// Per-rank message size in bytes.
    pub bytes: usize,
    /// How many times per iteration the application issues it.
    pub count: usize,
}

/// A named per-iteration communication mix.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name for reporting.
    pub name: String,
    /// The steps of one iteration.
    pub steps: Vec<WorkloadStep>,
}

impl Workload {
    /// A mix from `(collective, bytes, count)` triples.
    fn mix(name: &str, steps: &[(CollectiveOp, usize, usize)]) -> Workload {
        Workload {
            name: name.into(),
            steps: steps
                .iter()
                .map(|&(op, bytes, count)| WorkloadStep { op, bytes, count })
                .collect(),
        }
    }

    /// A CG-solver-like mix: three dot-product allreduces of a scalar and
    /// one small vector allreduce per iteration (the `cg_solver` example's
    /// actual pattern).
    pub fn cg_like() -> Workload {
        use CollectiveOp::Allreduce;
        Workload::mix("cg-solver", &[(Allreduce, 8, 3), (Allreduce, 4096, 1)])
    }

    /// A data-parallel-training-like mix: one large gradient allreduce and
    /// one parameter broadcast per step.
    pub fn training_like() -> Workload {
        use CollectiveOp::{Allreduce, Bcast};
        Workload::mix(
            "dl-training",
            &[(Allreduce, 4 << 20, 1), (Bcast, 64 << 10, 1)],
        )
    }

    /// An ECP-proxy-like mix (§II-A): frequent small allreduces, periodic
    /// medium broadcast and allgather.
    pub fn proxy_like() -> Workload {
        use CollectiveOp::{Allgather, Allreduce, Bcast, Reduce};
        Workload::mix(
            "ecp-proxy",
            &[
                (Allreduce, 64, 8),
                (Bcast, 32 << 10, 2),
                (Allgather, 1024, 1),
                (Reduce, 8192, 1),
            ],
        )
    }

    /// Time one iteration under a selection function answering an
    /// algorithm or a table's [`Variant`] (each collective runs
    /// back-to-back; per-collective latencies add, matching the
    /// blocking-collective semantics of the motivating applications).
    pub fn time_with<V: Into<Variant>>(
        &self,
        machine: &Machine,
        mut select: impl FnMut(CollectiveOp, usize) -> V,
    ) -> Result<SimTime, CostError> {
        let mut total = SimTime::ZERO;
        for step in &self.steps {
            let variant = select(step.op, step.bytes).into();
            total += variant_latency(machine, step.op, variant, step.bytes)? * step.count as f64;
        }
        Ok(total)
    }

    /// Time one iteration under the fixed MPICH-style defaults.
    pub fn time_defaults(&self, machine: &Machine) -> Result<SimTime, CostError> {
        self.time_with(machine, |op, _| default_algorithm(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::Algorithm;

    #[test]
    fn workloads_time_and_add_up() {
        let m = Machine::frontier(8, 1);
        let w = Workload::cg_like();
        let t = w.time_defaults(&m).unwrap();
        // Three scalar allreduces + one 4 KB allreduce: strictly more than
        // a single scalar allreduce.
        let single = Workload {
            name: "one".into(),
            steps: vec![WorkloadStep {
                op: CollectiveOp::Allreduce,
                bytes: 8,
                count: 1,
            }],
        };
        let t1 = single.time_defaults(&m).unwrap();
        assert!(t > t1 * 3.0);
    }

    #[test]
    fn fixed_choice_workload_timing_is_composable() {
        // A hand-picked tuned selection (port-matched radixes) must not
        // lose to the fixed defaults on the proxy mix.
        let m = Machine::frontier(8, 1);
        let w = Workload::proxy_like();
        let tuned = w
            .time_with(&m, |op, _n| match op {
                CollectiveOp::Allreduce => Algorithm::RecursiveMultiplying { k: 4 },
                CollectiveOp::Bcast | CollectiveOp::Reduce => Algorithm::KnomialTree { k: 5 },
                CollectiveOp::Allgather => Algorithm::RecursiveMultiplying { k: 4 },
                _ => Algorithm::Dissemination { k: 2 },
            })
            .unwrap();
        let default = w.time_defaults(&m).unwrap();
        assert!(tuned <= default, "tuned {tuned} vs default {default}");
    }
}
