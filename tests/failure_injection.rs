//! Failure injection across the stack: runtime errors, structural bugs,
//! and invalid configurations must be detected, not silently mis-executed.

use exacoll::collectives::registry::lower;
use exacoll::collectives::{execute, Algorithm, CollArgs, CollectiveOp};
use exacoll::comm::thread_rt::try_run_ranks;
use exacoll::comm::trace::check_conservation;
use exacoll::comm::{Comm, CommError, DType, RankTrace, ReduceOp, TraceOp};
use exacoll::sim::{simulate, Machine, PendingOp, ReplayError};

#[test]
fn mismatched_payload_sizes_truncate() {
    // Rank 1 believes the broadcast is 8 bytes; the root sends 64.
    let results = try_run_ranks(2, |c| {
        let n = if c.rank() == 0 { 64 } else { 8 };
        let data = vec![0u8; n];
        let args = CollArgs::new(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 });
        execute(c, &args, &data).map(|_| ())
    });
    assert!(results[0].is_ok());
    assert!(matches!(
        results[1],
        Err(CommError::Truncation {
            posted: 8,
            arrived: 64,
            ..
        })
    ));
}

#[test]
fn reduction_with_wrong_operator_dtype_pair_fails_cleanly() {
    let results = try_run_ranks(4, |c| {
        let args = CollArgs {
            op: CollectiveOp::Allreduce,
            alg: Algorithm::RecursiveMultiplying { k: 2 },
            root: 0,
            dtype: DType::F64,
            rop: ReduceOp::BAnd, // undefined for floats
        };
        execute(c, &args, &[0u8; 16]).map(|_| ())
    });
    assert!(results
        .iter()
        .any(|r| matches!(r, Err(CommError::UnsupportedReduction { .. }))));
}

/// A three-rank world where rank `who` posts `op` and waits for it and the
/// other ranks do nothing.
fn lone_op(who: usize, op: TraceOp) -> Vec<RankTrace> {
    (0..3)
        .map(|rank| {
            let ops = if rank == who {
                vec![op.clone(), TraceOp::WaitAll { reqs: vec![0] }]
            } else {
                vec![]
            };
            RankTrace { rank, size: 3, ops }
        })
        .collect()
}

#[test]
fn broken_schedule_is_caught_by_conservation_and_replay() {
    // A "collective" where rank 0 sends to a peer that never receives.
    let traces = lone_op(
        0,
        TraceOp::Send {
            to: 2,
            tag: 77,
            bytes: 128,
        },
    );
    assert!(check_conservation(&traces).is_err());
    // Replay completes (the message is simply never consumed): the sender's
    // eager send and the other ranks' empty programs all terminate — the
    // conservation checker is the tool that catches this class of bug.
    let m = Machine::testbed(3, 1, 1);
    assert!(simulate(&m, &traces).is_ok());
}

#[test]
fn blocked_receiver_is_a_replay_deadlock() {
    let traces = lone_op(
        2,
        TraceOp::Recv {
            from: 0,
            tag: 77,
            bytes: 128,
        },
    );
    let m = Machine::testbed(3, 1, 1);
    match simulate(&m, &traces) {
        Err(err @ ReplayError::Deadlock { .. }) => {
            let ReplayError::Deadlock { ref blocked } = err else {
                unreachable!()
            };
            // Rank 2 parks at its wait (op index 1, after the posted recv),
            // and the diagnostics name the unmatched (peer, tag, bytes).
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].rank, 2);
            assert_eq!(blocked[0].op, 1);
            assert_eq!(
                blocked[0].pending,
                vec![PendingOp::RecvFrom {
                    peer: 0,
                    tag: 77,
                    bytes: 128,
                }]
            );
            // The human-readable form carries the same information.
            let msg = err.to_string();
            assert!(msg.contains("rank 2"), "got: {msg}");
            assert!(msg.contains("recv from 0 tag 77 (128 B)"), "got: {msg}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn wrong_trace_count_rejected() {
    let barrier = CollArgs::new(CollectiveOp::Barrier, Algorithm::Dissemination { k: 2 });
    let traces: Vec<_> = (0..3)
        .map(|r| lower(&barrier, 3, r, 0).to_trace())
        .collect();
    let m = Machine::testbed(4, 1, 1);
    assert!(matches!(
        simulate(&m, &traces),
        Err(ReplayError::RankMismatch {
            machine_ranks: 4,
            traces: 3
        })
    ));
}

#[test]
#[should_panic(expected = "unsupported configuration")]
fn executing_an_unsupported_pair_panics_with_reason() {
    // Bruck does not implement bcast; lowering, which every dispatch goes
    // through, must refuse loudly.
    let args = CollArgs::new(CollectiveOp::Bcast, Algorithm::Bruck);
    lower(&args, 4, 0, 8);
}

#[test]
fn cross_collective_tags_never_collide() {
    // Run two different collectives back-to-back on the same communicator;
    // phase tags must isolate them.
    let results = try_run_ranks(6, |c| {
        let args1 = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let a = execute(c, &args1, &[c.rank() as u8; 4])?;
        let args2 = CollArgs {
            op: CollectiveOp::Allreduce,
            alg: Algorithm::RecursiveMultiplying { k: 3 },
            root: 0,
            dtype: DType::U8,
            rop: ReduceOp::Sum,
        };
        let b = execute(c, &args2, &[1u8; 4])?;
        Ok((a, b))
    });
    for r in results {
        let (a, b) = r.expect("both collectives complete");
        let expect_a: Vec<u8> = (0..6).flat_map(|r| [r as u8; 4]).collect();
        assert_eq!(a, expect_a);
        assert_eq!(b, vec![6u8; 4]);
    }
}
