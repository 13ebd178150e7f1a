//! The vendor-MPI stand-in baseline.
//!
//! The paper compares against Cray MPI, "the vendor-supported,
//! state-of-the-art MPI implementation on Frontier", using its *default*
//! algorithm selections. Cray MPI is proprietary, so this reproduction
//! substitutes a fixed selection table over the same simulated fabric,
//! built from the classical switchpoints production MPIs use (tree for
//! small, recursive doubling for medium, ring/Bruck for large) plus the
//! anomaly the paper reports: at large `MPI_Reduce` sizes the vendor
//! switches to a high-radix tree, which is what produces the >4.5× outlier
//! of Fig. 9(a).

use exacoll_core::{Algorithm, CollectiveOp};

/// The algorithm the vendor baseline runs for `op` at per-rank message
/// size `n` on `p` ranks. A `match`, not a seeded table: the allgather
/// switch-point is on `n * p`, which no per-`p` size bucket encodes at a
/// non-power-of-two `p`.
pub fn vendor(op: CollectiveOp, n: usize, p: usize) -> Algorithm {
    match op {
        CollectiveOp::Bcast => {
            // The paper finds no speedup over the vendor for small
            // broadcasts — its proprietary small-message path is already
            // well tuned — and ~2x at large sizes where it rides the
            // latency-heavy ring.
            if n < 16 * 1024 {
                Algorithm::KnomialTree { k: 4 }
            } else if n < 1024 * 1024 {
                Algorithm::RecursiveMultiplying { k: 2 }
            } else {
                Algorithm::Ring
            }
        }
        CollectiveOp::Reduce => {
            if n < 256 * 1024 {
                Algorithm::KnomialTree { k: 2 }
            } else {
                // The mis-switch: a radix-64 tree multiplies the
                // bandwidth term by (k-1) per level — §VI-C's ">4.5x"
                // anomaly.
                Algorithm::KnomialTree { k: 64 }
            }
        }
        CollectiveOp::Gather => Algorithm::KnomialTree { k: 2 },
        CollectiveOp::Allgather => {
            if n.saturating_mul(p) < 64 * 1024 {
                Algorithm::Bruck
            } else if n < 512 * 1024 {
                Algorithm::RecursiveMultiplying { k: 2 }
            } else {
                Algorithm::Ring
            }
        }
        CollectiveOp::Barrier => Algorithm::Dissemination { k: 2 },
        CollectiveOp::ReduceScatter => Algorithm::Ring,
        CollectiveOp::Alltoall => {
            if n < 32 * 1024 {
                Algorithm::GeneralizedBruck { r: 2 }
            } else {
                Algorithm::Pairwise
            }
        }
        CollectiveOp::Allreduce => {
            if n < 4 * 1024 * 1024 {
                Algorithm::RecursiveMultiplying { k: 2 }
            } else {
                Algorithm::Ring
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selections_are_always_runnable() {
        for op in CollectiveOp::ALL {
            for p in [2usize, 7, 8, 128, 1024] {
                for n in [8usize, 1024, 64 * 1024, 1 << 22] {
                    let alg = vendor(op, n, p);
                    assert!(
                        alg.supports(op, p).is_ok(),
                        "vendor picked unsupported {alg} for {op} p={p} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_misswitch_is_at_256k() {
        assert_eq!(
            vendor(CollectiveOp::Reduce, 128 * 1024, 128),
            Algorithm::KnomialTree { k: 2 }
        );
        assert_eq!(
            vendor(CollectiveOp::Reduce, 512 * 1024, 128),
            Algorithm::KnomialTree { k: 64 }
        );
    }

    #[test]
    fn switchpoints_follow_size() {
        assert_eq!(
            vendor(CollectiveOp::Bcast, 8, 128),
            Algorithm::KnomialTree { k: 4 }
        );
        assert_eq!(vendor(CollectiveOp::Bcast, 1 << 22, 128), Algorithm::Ring);
        assert_eq!(
            vendor(CollectiveOp::Allreduce, 8, 128),
            Algorithm::RecursiveMultiplying { k: 2 }
        );
        assert_eq!(
            vendor(CollectiveOp::Allreduce, 8 << 20, 128),
            Algorithm::Ring
        );
    }
}
