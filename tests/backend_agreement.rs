//! The write-once-run-twice contract: the op stream pricing reads off a
//! plan must be exactly the communication the threaded backend performs.
//!
//! Both come from the same lowered plan — the executor runs its compiled
//! steps, `sim::cost::traces` reads them symbolically, and `exacoll-sim`'s
//! `schedule_cost_equals_traced_execution_cost` pins the two streams equal —
//! so the reference semantics the threaded run already proves carry over.
//! Here we additionally check the structural invariants the simulator
//! relies on.

use exacoll::collectives::{registry::candidates, CollectiveOp};
use exacoll::comm::{RankTrace, TraceOp};
use exacoll::sim::cost::traces;

/// Every WaitAll's request indices refer to earlier Send/Recv ops of the
/// same rank, and every Send/Recv is waited exactly once.
fn check_wait_discipline(t: &RankTrace) {
    let mut waited = vec![false; t.ops.len()];
    for (i, op) in t.ops.iter().enumerate() {
        if let TraceOp::WaitAll { reqs } = op {
            for &r in reqs {
                let r = r as usize;
                assert!(
                    r < i,
                    "rank {}: wait at {i} references future op {r}",
                    t.rank
                );
                assert!(
                    matches!(t.ops[r], TraceOp::Send { .. } | TraceOp::Recv { .. }),
                    "rank {}: wait references non-request op {r}",
                    t.rank
                );
                assert!(!waited[r], "rank {}: op {r} waited twice", t.rank);
                waited[r] = true;
            }
        }
    }
    for (i, op) in t.ops.iter().enumerate() {
        if matches!(op, TraceOp::Send { .. } | TraceOp::Recv { .. }) {
            assert!(waited[i], "rank {}: request op {i} never waited", t.rank);
        }
    }
}

#[test]
fn every_schedule_has_clean_wait_discipline() {
    for p in [2usize, 7, 9, 12] {
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                for t in traces(p, op, alg, 512, 0).unwrap() {
                    check_wait_discipline(&t);
                }
            }
        }
    }
}

#[test]
fn no_self_messages_in_any_schedule() {
    // MPI collectives never send to self through the network; local data
    // movement is memcpy. A self-send would distort the simulation.
    for p in [2usize, 6, 8, 11] {
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                for t in traces(p, op, alg, 512, 0).unwrap() {
                    for o in &t.ops {
                        match o {
                            TraceOp::Send { to, .. } => {
                                assert_ne!(*to, t.rank, "{op} {alg} p={p}: self-send")
                            }
                            TraceOp::Recv { from, .. } => {
                                assert_ne!(*from, t.rank, "{op} {alg} p={p}: self-recv")
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn schedule_volume_is_size_linear_for_bandwidth_kernels() {
    // Doubling the payload must exactly double every bandwidth kernel's
    // traffic (no hidden constants): the basis for trace scaling.
    use exacoll::collectives::Algorithm;
    for alg in [
        Algorithm::Ring,
        Algorithm::KRing { k: 4 },
        Algorithm::RecursiveMultiplying { k: 4 },
    ] {
        let p = 8;
        let t1: u64 = traces(p, CollectiveOp::Allgather, alg, 1024, 0)
            .unwrap()
            .iter()
            .map(|t| t.bytes_sent())
            .sum();
        let t2: u64 = traces(p, CollectiveOp::Allgather, alg, 2048, 0)
            .unwrap()
            .iter()
            .map(|t| t.bytes_sent())
            .sum();
        assert_eq!(2 * t1, t2, "{alg}: traffic not linear in payload");
    }
}

#[test]
fn message_counts_match_paper_round_structure() {
    use exacoll::collectives::Algorithm;
    let p = 16;
    // Ring allgather: every rank sends exactly p-1 messages.
    for t in traces(p, CollectiveOp::Allgather, Algorithm::Ring, 256, 0).unwrap() {
        assert_eq!(t.messages_sent(), p - 1);
    }
    // K-ring: identical round count (Eq. 12), k | p.
    for t in traces(
        p,
        CollectiveOp::Allgather,
        Algorithm::KRing { k: 4 },
        256,
        0,
    )
    .unwrap()
    {
        assert_eq!(t.messages_sent(), p - 1);
    }
    // Recursive multiplying with k = 4 on p = 16: 2 rounds x 3 partners.
    for t in traces(
        p,
        CollectiveOp::Allgather,
        Algorithm::RecursiveMultiplying { k: 4 },
        256,
        0,
    )
    .unwrap()
    {
        assert_eq!(t.messages_sent(), 6);
    }
    // Binomial bcast: the root sends log2(p) messages, leaves none.
    let traces = traces(
        p,
        CollectiveOp::Bcast,
        Algorithm::KnomialTree { k: 2 },
        256,
        0,
    )
    .unwrap();
    assert_eq!(traces[0].messages_sent(), 4);
    let total: usize = traces.iter().map(|t| t.messages_sent()).sum();
    assert_eq!(total, p - 1, "tree bcast sends exactly p-1 messages");
}
