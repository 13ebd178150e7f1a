//! Gather-to-root over the k-nomial tree.
//!
//! Fig. 1 of the paper illustrates gather on the binomial tree; the k-nomial
//! generalization uses the fact that the subtree rooted at vrank `v` covers
//! the *contiguous* vrank range `[v, v + subtree_size(v))`, so every internal
//! node forwards a single contiguous buffer to its parent. The root's final
//! vrank→rank unrotation is pure bookkeeping: the schedule's output view
//! lists the received regions in rank order, no copy happens.

use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::topo::KnomialTree;
use exacoll_comm::Rank;

/// Lower a k-nomial gather into `b`. `own` is this rank's uniform-size
/// block; the root gets the concatenation in rank order, others `None`.
pub(crate) fn build_gather_knomial(
    b: &mut ScheduleBuilder,
    k: usize,
    root: Rank,
    own: SgList,
) -> Option<SgList> {
    let p = b.p();
    let me = b.rank();
    let n = own.len();
    if p == 1 {
        return Some(own);
    }
    let t = KnomialTree::new(p, k);
    let v = t.vrank(me, root);
    // Round index = distance from the root's level: the tree round in which
    // this rank's subtree payload arrives at its parent (0 at the root).
    b.mark("gat-knomial", (t.depth() - t.level(v)) as u32);
    let span = t.subtree_size(v);
    // seg[x] is the region holding vrank v + x's block.
    let mut seg: Vec<SgList> = vec![SgList::empty(); span];
    seg[0] = own;
    for ch in t.children(v) {
        let sub = t.subtree_size(ch);
        let region = b.alloc(sub * n);
        b.recv(t.unvrank(ch, root), tags::GATHER_TREE, region.clone());
        for i in 0..sub {
            seg[ch - v + i] = region.slice(i * n, n);
        }
    }
    let buf = SgList::concat(&seg);
    if let Some(parent) = t.parent(v) {
        b.send(t.unvrank(parent, root), tags::GATHER_TREE, buf);
        return None;
    }
    // Root: the output view unrotates vrank order back to rank order.
    let mut out = SgList::empty();
    for r in 0..p {
        let vr = t.vrank(r, root);
        out = SgList::concat([&out, &seg[vr]]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use crate::registry::{execute, Algorithm, CollArgs, CollectiveOp};
    use exacoll_comm::{run_ranks, Comm};

    fn rank_block(rank: usize, n: usize) -> Vec<u8> {
        (0..n).map(|i| (rank * 31 + i) as u8).collect()
    }

    fn check(p: usize, k: usize, root: usize, n: usize) {
        let expect: Vec<u8> = (0..p).flat_map(|r| rank_block(r, n)).collect();
        let args = CollArgs {
            root,
            ..CollArgs::new(CollectiveOp::Gather, Algorithm::KnomialTree { k })
        };
        let out = run_ranks(p, |c| execute(c, &args, &rank_block(c.rank(), n)));
        for (r, o) in out.iter().enumerate() {
            if r == root {
                assert_eq!(o, &expect, "p={p} k={k} root={root}");
            } else {
                assert!(o.is_empty(), "non-root rank {r} must output nothing");
            }
        }
    }

    #[test]
    fn gather_shapes() {
        for p in [1usize, 2, 3, 6, 8, 9, 13, 16] {
            for k in [2usize, 3, 4, 7] {
                check(p, k, 0, 9);
            }
        }
    }

    #[test]
    fn gather_rotated_roots() {
        for root in 0..7 {
            check(7, 3, root, 5);
        }
    }

    #[test]
    fn gather_single_byte_blocks() {
        check(12, 4, 5, 1);
    }

    #[test]
    fn gather_zero_length_blocks() {
        check(6, 2, 0, 0);
    }
}
