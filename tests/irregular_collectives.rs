//! Property-test grid for the irregular ("v") collectives and the
//! generalized non-power-of-k allreduce: random skewed count vectors
//! (including zero-count ranks) must execute byte-identically to the
//! sequential reference on both the threaded runtime and the TCP socket
//! runtime, and malformed configurations must be rejected — by
//! `supports_v` before lowering, or by the static verifier when per-rank
//! plans disagree on the count vector.

use exacoll::collectives::registry::{execute_v, lower_v, supports_v, unique_candidates_v};
use exacoll::collectives::schedule::verify::verify;
use exacoll::collectives::schedule::{compile, execute_compiled};
use exacoll::collectives::spec::CountsSpec;
use exacoll::collectives::{Algorithm, CollArgs, CollectiveOp, Request};
use exacoll::comm::{run_ranks, Comm};
use exacoll::net::run_socket_ranks;
use proptest::prelude::*;

/// The request for `alg` running the v-variant of `op` over `counts`.
fn request_v(op: CollectiveOp, alg: Algorithm, counts: &[usize]) -> Request {
    let counts = CountsSpec::new(counts.to_vec()).unwrap();
    Request::irregular(CollArgs::new(op, alg), counts).unwrap()
}

/// The request for a generalized allreduce of `n` bytes on `p` ranks.
fn genmult(k: usize, p: usize, n: usize) -> Request {
    let alg = Algorithm::GeneralizedMultiplying { k };
    Request::uniform(CollArgs::new(CollectiveOp::Allreduce, alg), p, n).unwrap()
}

/// Strategy: a ragged count vector over p ∈ {4, 6, 7, 8, 9}. Counts are
/// drawn from a skew-friendly range that produces zero-count ranks often;
/// an all-zero draw is nudged so the collective moves at least one byte.
fn arb_counts() -> impl Strategy<Value = Vec<usize>> {
    (0usize..5).prop_flat_map(|p_idx| {
        let p = [4, 6, 7, 8, 9][p_idx];
        collection::vec(0usize..48, p..p + 1).prop_map(|mut counts| {
            if counts.iter().all(|&c| c == 0) {
                counts[0] = 8;
            }
            counts
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every registered v-candidate for a random ragged count vector
    /// produces byte-identical output to the sequential reference on the
    /// threaded runtime, for both irregular collectives.
    #[test]
    fn v_candidates_match_reference_on_threads(counts in arb_counts()) {
        let p = counts.len();
        for op in [CollectiveOp::Allgather, CollectiveOp::ReduceScatter] {
            for alg in unique_candidates_v(op, 4, &counts) {
                let req = request_v(op, alg, &counts);
                let inputs = req.inputs(1);
                let expect = req.reference(&inputs).expect("reference computes");
                let got = run_ranks(p, |c| {
                    execute_v(c, req.args(), &counts, &inputs[c.rank()])
                });
                for r in 0..p {
                    prop_assert_eq!(
                        &got[r], &expect[r],
                        "{}v/{} counts={:?} rank {}", op, alg, counts, r
                    );
                }
            }
        }
    }

    /// The generalized (non-power-of-k) recursive multiplying allreduce
    /// matches the reference at awkward world sizes — p with leftover
    /// ranks after every k-grouping — across random payload sizes.
    #[test]
    fn generalized_allreduce_matches_reference_on_threads(
        p_idx in 0usize..3,
        k in 2usize..4,
        n in 1usize..64,
    ) {
        let p = [6, 7, 9][p_idx];
        let req = genmult(k, p, n);
        let inputs = req.inputs(1);
        let expect = req.reference(&inputs).expect("reference computes");
        let plans = req.lower_world();
        verify(&plans).expect("generalized allreduce verifies");
        let got = run_ranks(p, |c| {
            execute_compiled(c, &compile(&plans[c.rank()]), &inputs[c.rank()])
        });
        for r in 0..p {
            prop_assert_eq!(&got[r], &expect[r], "genmult:{} p={} n={} rank {}", k, p, n, r);
        }
    }
}

/// The same v-plans run byte-identically over the real TCP socket runtime.
/// Sockets are orders of magnitude slower than the threaded backend, so
/// this pins a deterministic ragged grid (head-heavy, holes, and a
/// non-power-of-two world) instead of sampling.
#[test]
fn v_candidates_match_reference_on_sockets() {
    let grids: &[&[usize]] = &[
        &[40, 0, 8, 16],
        &[0, 24, 0, 24, 0, 8],
        &[9, 1, 27, 3, 81, 0, 7],
    ];
    for &counts in grids {
        let p = counts.len();
        for op in [CollectiveOp::Allgather, CollectiveOp::ReduceScatter] {
            for alg in unique_candidates_v(op, 3, counts) {
                let req = request_v(op, alg, counts);
                let inputs = req.inputs(1);
                let expect = req.reference(&inputs).expect("reference computes");
                let got =
                    run_socket_ranks(p, |c| execute_v(c, req.args(), counts, &inputs[c.rank()]));
                for r in 0..p {
                    assert_eq!(
                        got[r], expect[r],
                        "{op}v/{alg} counts={counts:?} rank {r} over sockets"
                    );
                }
            }
        }
    }
}

/// The generalized allreduce also survives the socket backend at a prime
/// world size (p = 7 never divides evenly by k = 2 or 3).
#[test]
fn generalized_allreduce_matches_reference_on_sockets() {
    let (p, n) = (7, 24);
    for k in [2, 3] {
        let req = genmult(k, p, n);
        let inputs = req.inputs(1);
        let expect = req.reference(&inputs).expect("reference computes");
        let plans = req.lower_world();
        let got = run_socket_ranks(p, |c| {
            execute_compiled(c, &compile(&plans[c.rank()]), &inputs[c.rank()])
        });
        for r in 0..p {
            assert_eq!(got[r], expect[r], "genmult:{k} p={p} rank {r} over sockets");
        }
    }
}

/// `supports_v` rejects configurations before any plan exists: fixed-block
/// algorithms on ragged counts, non-ring reduce_scatter_v, collectives
/// without a v-variant, and the degenerate empty vector.
#[test]
fn supports_v_rejects_malformed_configurations() {
    let ragged = [32usize, 0, 8, 16];
    let err = supports_v(Algorithm::Bruck, CollectiveOp::Allgather, &ragged).unwrap_err();
    assert!(err.contains("uniform"), "got: {err}");
    let err = supports_v(
        Algorithm::KnomialTree { k: 2 },
        CollectiveOp::Allgather,
        &ragged,
    )
    .unwrap_err();
    assert!(err.contains("uniform"), "got: {err}");
    // Uniform counts lift the restriction for the same algorithms.
    supports_v(Algorithm::Bruck, CollectiveOp::Allgather, &[16; 4]).unwrap();
    let err = supports_v(Algorithm::Bruck, CollectiveOp::ReduceScatter, &ragged).unwrap_err();
    assert!(err.contains("ring-structured"), "got: {err}");
    let err = supports_v(Algorithm::Ring, CollectiveOp::Allreduce, &ragged).unwrap_err();
    assert!(err.contains("no irregular"), "got: {err}");
    assert!(supports_v(Algorithm::Ring, CollectiveOp::Allgather, &[]).is_err());
}

/// Ranks that disagree on the count vector produce plans the static
/// verifier refuses: the mismatched transfers can never pair up, so the
/// error surfaces *before* any rank deadlocks at runtime.
#[test]
fn verifier_rejects_plans_with_mismatched_count_vectors() {
    let agreed = [24usize, 8, 16, 0];
    let skewed = [24usize, 8, 0, 16]; // same total, different distribution
    for op in [CollectiveOp::Allgather, CollectiveOp::ReduceScatter] {
        let args = CollArgs::new(op, Algorithm::Ring);
        let mut plans: Vec<_> = (0..4).map(|r| lower_v(&args, r, &agreed)).collect();
        verify(&plans).expect("agreeing ranks verify");
        plans[2] = lower_v(&args, 2, &skewed);
        assert!(
            verify(&plans).is_err(),
            "{op}v with rank 2 on a different count vector must not verify"
        );
    }
}
