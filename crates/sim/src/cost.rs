//! Pricing a collective on the simulator: lower, read the op stream off the
//! plan, replay it.
//!
//! `exacoll_core::registry::lower` produces every rank's communication plan;
//! [`cost`] reads each plan's op stream off its compiled instructions
//! ([`Schedule::to_trace`], a symbolic walk: no buffer, no data movement, no
//! threads, O(steps) whatever the message size) and feeds the result to the
//! discrete-event simulator. That walk sits beside the executor's own, and
//! `tests/observability.rs` pins the two op streams equal against a live
//! threaded run over the registry grid, so what is simulated is what a live
//! run issues.
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
    use exacoll_core::registry::lower;

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
