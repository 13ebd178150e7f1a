//! Chaos suite: every registered algorithm × collective, under every fault
//! class, must either complete correctly or error cleanly **on every rank**
//! — never hang and never partially succeed.
//!
//! The no-hang property is asserted by construction: every case runs under
//! a receive deadline with cooperative abort, so the suite finishing at all
//! is the proof. Partial success surfaces as `Outcome::Mixed`, which
//! [`FaultClass::acceptable`] never accepts.

use exacoll::chaos::{algorithm_candidates, run_case, run_case_results, FaultClass, Outcome};
use exacoll::collectives::{Algorithm, CollectiveOp};
use exacoll::comm::{FaultEvent, FaultPlan};
use std::time::Duration;

const SEED: u64 = 2026;
const PAYLOAD: usize = 96;

/// Sweep every registered algorithm for `op` at p = 8 under `fault` and
/// assert the class's acceptance contract holds.
fn assert_matrix(op: CollectiveOp, fault: FaultClass) {
    let p = 8;
    let algs = algorithm_candidates(op, p, 3);
    assert!(!algs.is_empty(), "no algorithms registered for {op:?}");
    for alg in algs {
        let r = run_case(op, alg, p, fault, SEED, PAYLOAD);
        assert_ne!(
            r.outcome,
            Outcome::Mixed,
            "{op:?}/{alg} under `{}`: some ranks succeeded while others \
             failed — the error protocol is broken",
            fault.name()
        );
        assert!(
            r.survived,
            "{op:?}/{alg} under `{}`: outcome {:?} violates the fault \
             class contract",
            fault.name(),
            r.outcome
        );
    }
}

#[test]
fn baseline_matrix_is_correct() {
    for op in CollectiveOp::EVALUATED {
        assert_matrix(op, FaultClass::None);
    }
}

#[test]
fn delay_matrix_still_completes_correctly() {
    for op in CollectiveOp::EVALUATED {
        assert_matrix(op, FaultClass::Delay);
    }
}

#[test]
fn duplicate_matrix_never_hangs_or_splits() {
    for op in CollectiveOp::EVALUATED {
        assert_matrix(op, FaultClass::Duplicate);
    }
}

#[test]
fn corrupt_matrix_never_hangs_or_splits() {
    for op in CollectiveOp::EVALUATED {
        assert_matrix(op, FaultClass::Corrupt);
    }
}

#[test]
fn kill_matrix_fails_cleanly_everywhere() {
    for op in CollectiveOp::EVALUATED {
        assert_matrix(op, FaultClass::Kill);
    }
}

// Total message loss makes every receiver wait out its deadline, so each
// case costs real wall time — one test per collective keeps them parallel.

#[test]
fn drop_matrix_bcast_times_out_cleanly() {
    assert_matrix(CollectiveOp::Bcast, FaultClass::Drop);
}

#[test]
fn drop_matrix_reduce_times_out_cleanly() {
    assert_matrix(CollectiveOp::Reduce, FaultClass::Drop);
}

#[test]
fn drop_matrix_allgather_times_out_cleanly() {
    assert_matrix(CollectiveOp::Allgather, FaultClass::Drop);
}

#[test]
fn drop_matrix_allreduce_times_out_cleanly() {
    assert_matrix(CollectiveOp::Allreduce, FaultClass::Drop);
}

/// Acceptance criterion: killing one rank mid-collective must surface as an
/// error on **all** surviving ranks — at awkward (non-power) sizes too.
#[test]
fn killed_rank_fails_every_survivor() {
    for p in [4usize, 7, 8] {
        for op in CollectiveOp::EVALUATED {
            for alg in algorithm_candidates(op, p, 3) {
                let plan = FaultPlan::none(SEED).kills(1, 0);
                let results = run_case_results(op, alg, p, plan, Duration::from_secs(5), PAYLOAD);
                assert_eq!(results.len(), p);
                for (rank, res) in results.iter().enumerate() {
                    assert!(
                        res.result.is_err(),
                        "{op:?}/{alg} p={p}: rank {rank} returned Ok although \
                         rank 1 was killed mid-collective"
                    );
                }
            }
        }
    }
}

/// Run one faulty allreduce and return each rank's injected-event log.
/// The campaign's runner closes with a barrier on the raw communicator, so
/// no rank drops its endpoint while a peer still has a duplicate to post.
fn event_logs(plan: FaultPlan) -> Vec<Vec<FaultEvent>> {
    let recmult = Algorithm::RecursiveMultiplying { k: 2 };
    let deadline = Duration::from_secs(30);
    run_case_results(CollectiveOp::Allreduce, recmult, 4, plan, deadline, PAYLOAD)
        .into_iter()
        .map(|rank| {
            rank.result
                .expect("delay/dup/corrupt faults do not abort the collective");
            rank.faults
        })
        .collect()
}

/// Acceptance criterion: fault injection is deterministic — replaying the
/// same seed yields the exact same event sequence on every rank, and a
/// different seed does not.
#[test]
fn fault_injection_replays_identically() {
    let plan = FaultPlan::none(SEED)
        .delays(0.5, Duration::from_millis(1))
        .duplicates(0.4)
        .corrupts(0.4);
    let first = event_logs(plan);
    let second = event_logs(plan);
    assert_eq!(first, second, "same seed must replay identically");
    assert!(
        first.iter().any(|l| !l.is_empty()),
        "the plan should have injected at least one event"
    );
    let other = event_logs(
        FaultPlan::none(SEED + 1)
            .delays(0.5, Duration::from_millis(1))
            .duplicates(0.4)
            .corrupts(0.4),
    );
    assert_ne!(first, other, "a different seed must diverge");
}
