//! Broadcast algorithms.
//!
//! * `build_bcast_knomial` — k-nomial tree (§III); `k = 2` is MPICH's
//!   binomial. Best for small, latency-bound messages.
//! * `build_bcast_linear` — root sends to every rank sequentially; the naïve
//!   `p(α + βn)` baseline from §III-B.
//! * `build_bcast_scatter_allgather` — the large-message path (§V-C): a
//!   binomial scatter of `n/p` blocks followed by any allgather kernel
//!   (ring, k-ring, or recursive multiplying), exactly how MPICH composes
//!   its large broadcast and how the paper's k-ring and
//!   recursive-multiplying broadcasts are built.
//!
//! Each variant is a schedule *builder*: lowering appends [`crate::schedule`]
//! steps, and `registry::lower` seals them into a plan.

use crate::allgather::{build_allgather_kernel, AllgatherKernel};
use crate::scatter::build_scatter_knomial;
use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::topo::KnomialTree;
use crate::util::block_len;
use exacoll_comm::Rank;

/// Lower a k-nomial broadcast into `b`. `data` must be `Some` at the root;
/// returns the full-payload view every rank ends up holding.
pub(crate) fn build_bcast_knomial(
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
    // this rank receives its data (0 at the root).
    b.mark("bc-knomial", (t.depth() - t.level(v)) as u32);
    let data = if v == 0 {
        data.expect("root provides data")
    } else {
        let parent = t.unvrank(t.parent(v).expect("non-root"), root);
        let region = b.alloc(n);
        b.recv(parent, tags::BCAST_TREE, region.clone());
        region
    };
    // Deepest-subtree children first; all sends overlap via buffering.
    for ch in t.children(v) {
        b.send(t.unvrank(ch, root), tags::BCAST_TREE, data.clone());
    }
    data
}

/// Lower a linear broadcast into `b`.
pub(crate) fn build_bcast_linear(
    b: &mut ScheduleBuilder,
    root: Rank,
    data: Option<SgList>,
    n: usize,
) -> SgList {
    let p = b.p();
    if b.rank() == root {
        let data = data.expect("root provides data");
        for r in (0..p).filter(|&r| r != root) {
            b.send(r, tags::BCAST_LINEAR, data.clone());
        }
        data
    } else {
        let region = b.alloc(n);
        b.recv(root, tags::BCAST_LINEAR, region.clone());
        region
    }
}

/// Lower a scatter-allgather broadcast into `b`: binomial scatter of
/// near-equal blocks, then the chosen allgather kernel reassembles the
/// payload everywhere.
pub(crate) fn build_bcast_scatter_allgather(
    b: &mut ScheduleBuilder,
    kernel: AllgatherKernel,
    root: Rank,
    data: Option<SgList>,
    n: usize,
) -> SgList {
    let p = b.p();
    if p == 1 {
        return data.expect("root provides data");
    }
    b.mark("bc-scatter", 0);
    let my_block = build_scatter_knomial(b, 2, root, data, n);
    let sizes: Vec<usize> = (0..p).map(|i| block_len(n, p, i)).collect();
    let blocks = build_allgather_kernel(b, kernel, my_block, &sizes);
    SgList::concat(&blocks)
}

#[cfg(test)]
mod tests {
    use crate::registry::{execute, Algorithm, CollArgs, CollectiveOp};
    use exacoll_comm::{run_ranks, Comm, CommResult};

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// Broadcast `data` from `root` with the registry's `alg`; the other
    /// ranks hand in zeros of the same length, which their plans ignore.
    fn bcast<C: Comm>(c: &mut C, alg: Algorithm, root: usize, data: &[u8]) -> CommResult<Vec<u8>> {
        let args = CollArgs {
            root,
            ..CollArgs::new(CollectiveOp::Bcast, alg)
        };
        if c.rank() == root {
            execute(c, &args, data)
        } else {
            execute(c, &args, &vec![0; data.len()])
        }
    }

    #[test]
    fn knomial_all_radixes_roots_sizes() {
        for p in [1usize, 2, 3, 4, 6, 9, 16, 17] {
            for k in [2usize, 3, 4, 8] {
                for root in [0, p / 2, p - 1] {
                    let data = payload(33);
                    let out = run_ranks(p, |c| bcast(c, Algorithm::KnomialTree { k }, root, &data));
                    for (r, o) in out.iter().enumerate() {
                        assert_eq!(o, &data, "p={p} k={k} root={root} rank={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn linear_matches() {
        for p in [1usize, 2, 5, 8] {
            for root in [0, p - 1] {
                let data = payload(17);
                let out = run_ranks(p, |c| bcast(c, Algorithm::Linear, root, &data));
                assert!(out.iter().all(|o| o == &data));
            }
        }
    }

    #[test]
    fn scatter_allgather_ring() {
        for p in [2usize, 3, 7, 8] {
            for root in [0, p - 1] {
                for n in [0usize, 5, 64, 129] {
                    let data = payload(n);
                    let out = run_ranks(p, |c| bcast(c, Algorithm::Ring, root, &data));
                    for o in &out {
                        assert_eq!(o, &data, "p={p} root={root} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_allgather_kring() {
        for (p, k) in [(6usize, 3usize), (8, 4), (8, 2), (12, 4), (9, 3)] {
            let data = payload(97);
            let out = run_ranks(p, |c| bcast(c, Algorithm::KRing { k }, 1, &data));
            for o in &out {
                assert_eq!(o, &data, "p={p} k={k}");
            }
        }
    }

    #[test]
    fn scatter_allgather_recmult() {
        for (p, k) in [(8usize, 2usize), (9, 3), (12, 4), (7, 4), (10, 5)] {
            let data = payload(64);
            let out = run_ranks(p, |c| {
                bcast(c, Algorithm::RecursiveMultiplying { k }, 0, &data)
            });
            for o in &out {
                assert_eq!(o, &data, "p={p} k={k}");
            }
        }
    }

    #[test]
    fn zero_byte_bcast() {
        let out = run_ranks(5, |c| bcast(c, Algorithm::KnomialTree { k: 3 }, 0, &[]));
        assert!(out.iter().all(|o| o.is_empty()));
    }
}
