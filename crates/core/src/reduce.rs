//! Reduction-to-root algorithms.
//!
//! * `build_reduce_knomial` — k-nomial tree reduce (§III); the paper's headline
//!   k-nomial collective (Fig. 8a, Fig. 9a, Fig. 10a). `k = 2` is MPICH's
//!   binomial reduce. The tree is *receive-heavy at parents*: each parent
//!   absorbs `k-1` concurrent child messages per level, which multi-port
//!   NICs and message buffering overlap cheaply — the reason the optimal
//!   radix for tiny messages sits near `p`.
//! * `build_reduce_linear` — every rank sends its vector to the root, which
//!   combines them sequentially.
//!
//! Reductions assume a commutative operator (all [`ReduceOp`]s are); partial
//! results are always folded in ascending source-rank order so results are
//! bitwise deterministic for a given tree shape. In the lowered plan that
//! order is the order of the [`Step::Compute`](crate::schedule::Step) steps.

use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::topo::KnomialTree;
use exacoll_comm::{DType, Rank, ReduceOp};

/// Fold `parts[1..]` into `parts[0]` left to right and return `parts[0]`.
/// Every builder that combines partials folds through here, in ascending
/// rank or group position, so each rank computes bitwise-identical results.
pub(crate) fn fold_in_order(
    b: &mut ScheduleBuilder,
    parts: Vec<SgList>,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    let mut parts = parts.into_iter();
    let acc = parts.next().expect("a fold needs at least one part");
    for part in parts {
        b.reduce(dtype, op, part, acc.clone());
    }
    acc
}

/// Lower a k-nomial reduce into `b`, accumulating in place into `own`.
/// Returns the result view at the root, `None` elsewhere.
pub(crate) fn build_reduce_knomial(
    b: &mut ScheduleBuilder,
    k: usize,
    root: Rank,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> Option<SgList> {
    let p = b.p();
    let me = b.rank();
    let n = own.len();
    if p == 1 {
        return Some(own);
    }
    let t = KnomialTree::new(p, k);
    let v = t.vrank(me, root);
    // Round index = distance from the root's level: the tree round in
    // which this rank forwards its partial upward (0 at the root).
    b.mark("red-knomial", (t.depth() - t.level(v)) as u32);
    let mut children = t.children(v);
    // Post every child receive up front (message buffering), then fold
    // in ascending vrank order for determinism.
    children.sort_unstable();
    let mut parts = Vec::with_capacity(children.len() + 1);
    parts.push(own);
    for &ch in &children {
        let region = b.alloc(n);
        b.recv(t.unvrank(ch, root), tags::REDUCE_TREE, region.clone());
        parts.push(region);
    }
    let own = fold_in_order(b, parts, dtype, op);
    if let Some(parent) = t.parent(v) {
        b.send(t.unvrank(parent, root), tags::REDUCE_TREE, own);
        return None;
    }
    Some(own)
}

/// Lower a linear reduce into `b`, accumulating in place into `own`.
pub(crate) fn build_reduce_linear(
    b: &mut ScheduleBuilder,
    root: Rank,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> Option<SgList> {
    let p = b.p();
    let n = own.len();
    if b.rank() == root {
        // Fold in ascending sender order.
        let mut parts = Vec::with_capacity(p);
        parts.push(own);
        for r in (0..p).filter(|&r| r != root) {
            let region = b.alloc(n);
            b.recv(r, tags::REDUCE_LINEAR, region.clone());
            parts.push(region);
        }
        Some(fold_in_order(b, parts, dtype, op))
    } else {
        b.send(root, tags::REDUCE_LINEAR, own);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{execute, Algorithm, CollArgs, CollectiveOp};
    use exacoll_comm::{reduce_ops::reduce_all, run_ranks, Comm, TypedBuf};

    fn rank_input(rank: usize, count: usize, dtype: DType) -> Vec<u8> {
        let vals: Vec<f64> = (0..count)
            .map(|i| ((rank + 1) * (i + 2) % 17) as f64)
            .collect();
        TypedBuf::from_f64s(dtype, &vals).bytes
    }

    /// The registry's reduce `alg` toward `root`: the root must hold the
    /// reference reduction, every other rank nothing.
    fn check_alg(alg: Algorithm, p: usize, root: usize, count: usize, dtype: DType, rop: ReduceOp) {
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| rank_input(r, count, dtype)).collect();
        let expect = reduce_all(dtype, rop, &inputs).unwrap();
        let args = CollArgs {
            op: CollectiveOp::Reduce,
            alg,
            root,
            dtype,
            rop,
        };
        let out = run_ranks(p, |c| execute(c, &args, &inputs[c.rank()]));
        for (r, o) in out.iter().enumerate() {
            if r == root {
                assert_eq!(o, &expect, "{alg} p={p} root={root} {dtype} {rop}");
            } else {
                assert!(o.is_empty(), "non-root rank {r} must output nothing");
            }
        }
    }

    fn check(p: usize, k: usize, root: usize, count: usize, dtype: DType, op: ReduceOp) {
        check_alg(Algorithm::KnomialTree { k }, p, root, count, dtype, op);
    }

    #[test]
    fn knomial_sum_across_shapes() {
        for p in [1usize, 2, 3, 6, 9, 16, 17] {
            for k in [2usize, 3, 5, 16] {
                check(p, k, 0, 8, DType::I64, ReduceOp::Sum);
            }
        }
    }

    #[test]
    fn knomial_nonzero_root() {
        for root in 0..6 {
            check(6, 3, root, 5, DType::I32, ReduceOp::Sum);
        }
    }

    #[test]
    fn knomial_every_op_and_dtype() {
        for op in ReduceOp::ALL {
            for dtype in DType::ALL {
                if op.supports(dtype) {
                    check(7, 3, 2, 6, dtype, op);
                }
            }
        }
    }

    #[test]
    fn knomial_float_exact_on_small_ints() {
        check(9, 3, 0, 16, DType::F64, ReduceOp::Sum);
        check(8, 4, 3, 16, DType::F32, ReduceOp::Max);
    }

    #[test]
    fn linear_matches_reference() {
        for p in [1usize, 2, 5, 9] {
            check_alg(Algorithm::Linear, p, 0, 4, DType::U64, ReduceOp::Prod);
        }
    }

    #[test]
    fn k_equals_p_single_round() {
        // Flat tree: root absorbs p-1 messages in one round.
        check(10, 10, 0, 3, DType::I32, ReduceOp::Min);
    }

    #[test]
    fn zero_length_reduce() {
        check(4, 2, 0, 0, DType::F64, ReduceOp::Sum);
    }
}
