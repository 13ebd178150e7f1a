//! Scatter over the k-nomial tree — the first phase of the large-message
//! "scatter-allgather" broadcast (§V-C).
//!
//! The root splits an `n`-byte payload into `p` near-equal blocks, block `i`
//! destined for *real* rank `i` ([`crate::util::block_range`]). The tree
//! operates on virtual ranks, so the buffer an internal node handles is the
//! concatenation, in vrank order, of the (unequal) real-rank blocks of its
//! contiguous vrank subtree span. Lowering never materializes that vrank
//! reorder: the root's buffer is a scatter/gather view over its input.

use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::topo::KnomialTree;
use crate::util::{block_len, block_range};
use exacoll_comm::Rank;

/// Lower a k-nomial scatter into `b`. `data` must be `Some` at the root (the
/// full `n`-byte payload in rank order); returns this rank's block view
/// (`block_range(n, p, rank)` bytes).
pub(crate) fn build_scatter_knomial(
    b: &mut ScheduleBuilder,
    k: usize,
    root: Rank,
    data: Option<SgList>,
    n: usize,
) -> SgList {
    let p = b.p();
    let me = b.rank();
    if p == 1 {
        return data.expect("root provides data");
    }
    let t = KnomialTree::new(p, k);
    let v = t.vrank(me, root);
    // Round index = distance from the root's level: the tree round in which
    // this rank receives its subtree's slice (0 at the root).
    b.mark("sc-knomial", (t.depth() - t.level(v)) as u32);
    // Size of the block belonging to virtual rank x.
    let vsize = |x: usize| block_len(n, p, t.unvrank(x, root));
    // Byte length of the contiguous vrank span [a, b).
    let span_bytes = |a: usize, bb: usize| (a..bb).map(vsize).sum::<usize>();

    let span = t.subtree_size(v);
    let buf: SgList = if v == 0 {
        // Root's vrank-ordered buffer is a permuted view of the payload.
        let data = data.expect("root provides data");
        assert_eq!(data.len(), n, "root payload must be n bytes");
        let mut view = SgList::empty();
        for x in 0..p {
            let (s, e) = block_range(n, p, t.unvrank(x, root));
            view = SgList::concat([&view, &data.slice(s, e - s)]);
        }
        view
    } else {
        let parent = t.unvrank(t.parent(v).expect("non-root"), root);
        let region = b.alloc(span_bytes(v, v + span));
        b.recv(parent, tags::SCATTER_TREE, region.clone());
        region
    };

    // Forward each child its subtree's slice; deepest subtrees first.
    for ch in t.children(v) {
        let off = span_bytes(v, ch);
        let len = span_bytes(ch, ch + t.subtree_size(ch));
        b.send(t.unvrank(ch, root), tags::SCATTER_TREE, buf.slice(off, len));
    }
    buf.slice(0, vsize(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::run_built;
    use exacoll_comm::{run_ranks, Comm};

    fn check(p: usize, k: usize, root: usize, n: usize) {
        let data: Vec<u8> = (0..n).map(|i| (i * 13 + 1) as u8).collect();
        // Scatter is a building block, not a registry collective: drive the
        // builder directly. Only the root's plan has an input view.
        let out = run_ranks(p, |c| {
            let input = if c.rank() == root { &data[..] } else { &[] };
            run_built(c, input, |b| {
                let held = (b.rank() == root).then(|| b.alloc(n));
                let mine = build_scatter_knomial(b, k, root, held.clone(), n);
                (held.unwrap_or_default(), mine)
            })
        });
        for (r, o) in out.iter().enumerate() {
            let (s, e) = block_range(n, p, r);
            assert_eq!(o, &data[s..e], "p={p} k={k} root={root} rank={r}");
        }
    }

    #[test]
    fn scatter_shapes() {
        for p in [1usize, 2, 3, 6, 8, 9, 16, 17] {
            for k in [2usize, 3, 4] {
                check(p, k, 0, 103);
            }
        }
    }

    #[test]
    fn scatter_rotated_roots() {
        for root in 0..9 {
            check(9, 3, root, 55);
        }
    }

    #[test]
    fn scatter_payload_smaller_than_p() {
        // n < p: some ranks get zero bytes.
        check(8, 2, 0, 5);
        check(8, 2, 3, 0);
    }

    #[test]
    fn scatter_uneven_blocks() {
        check(7, 4, 2, 100); // 100 / 7 leaves remainders
    }
}
