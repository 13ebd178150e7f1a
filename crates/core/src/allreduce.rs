//! Allreduce algorithms.
//!
//! * `build_allreduce_recmult_mapped` — recursive multiplying (§IV):
//!   `log_k p` rounds; each round every rank exchanges its running vector
//!   with `k-1` partners and folds. The paper's headline
//!   recursive-multiplying collective (Fig. 8b, Fig. 9d, Fig. 10c); `k = 2`
//!   is MPICH's recursive doubling. Non-`k`-smooth process counts fold
//!   remainder ranks first (the "non-uniform group" corner case of §VI-A).
//! * `build_allreduce_rsag` — ring reduce-scatter followed by an allgather
//!   kernel. With [`AllgatherKernel::Ring`] this is the classic bandwidth-
//!   optimal ring allreduce; with [`AllgatherKernel::KRing`] it is the
//!   paper's k-ring allreduce ("the reduce-scatter-allgather algorithm,
//!   which can also leverage the MPI_Allgather k-ring algorithm", §VI-C).
//!   `lower` routes only those two here. Any other kernel would follow the
//!   same *ring* reduce-scatter; the Rabenseifner-style composite also
//!   needs a recursive-splitting reduce-scatter, which ROADMAP item 10
//!   plans.
//! * `build_allreduce_reduce_bcast` — k-nomial reduce + k-nomial bcast, the
//!   composite of Eq. (2)/(3).
//! * `build_allreduce_general` and `build_allreduce_hierarchical` — the
//!   any-`p` and SMP-aware variants.
//!
//! Composites are composed at the *schedule* level: each phase's builder
//! appends its steps to the same plan, and the flushes round marks imply
//! sequence the phases exactly as blocking calls would.

use crate::allgather::{build_allgather_kernel, AllgatherKernel};
use crate::bcast::build_bcast_knomial;
use crate::reduce::build_reduce_knomial;
use crate::reduce_scatter::{build_reduce_scatter_ring, elem_block_sizes};
use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::topo::{factorize, largest_smooth_leq};
use crate::util::block_range;
use exacoll_comm::{DType, ReduceOp};

/// Lower the recursive multiplying allreduce over a subgroup into `b`:
/// `gsize` participants with group indices `0..gsize`, mapped to global
/// ranks by `map`. Accumulates in place into `own`; returns the result view.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_allreduce_recmult_mapped(
    b: &mut ScheduleBuilder,
    k: usize,
    gsize: usize,
    gidx: usize,
    map: impl Fn(usize) -> usize,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    assert!(k >= 2, "recursive multiplying radix must be at least 2");
    debug_assert!(gidx < gsize);
    let n = own.len();
    if gsize == 1 {
        return own;
    }
    let q = if factorize(gsize, k).is_some() {
        gsize
    } else {
        largest_smooth_leq(gsize, k)
    };
    // Fold: extras hand their vector to a partner and wait for the result.
    if gidx >= q {
        b.mark("ar-fold", 0);
        b.send(map(gidx - q), tags::FOLD, own);
        let region = b.alloc(n);
        b.recv(map(gidx - q), tags::FOLD, region.clone());
        return region;
    }
    if gidx + q < gsize {
        b.mark("ar-fold", 0);
        let region = b.alloc(n);
        b.recv(map(gidx + q), tags::FOLD, region.clone());
        b.reduce(dtype, op, region, own.clone());
    }
    // Mixed-radix exchange rounds among the q core members.
    let factors = factorize(q, k).expect("q is k-smooth");
    let mut acc = own;
    let mut s = 1usize;
    for (round, &f) in factors.iter().enumerate() {
        b.mark("ar-recmult", round as u32);
        let tag = tags::ALLREDUCE_RECMULT + round as u32;
        let d = (gidx / s) % f;
        let base = gidx - d * s;
        let mut regions: Vec<(usize, SgList)> = Vec::with_capacity(f - 1);
        for dd in 0..f {
            if dd == d {
                continue;
            }
            let peer = map(base + dd * s);
            b.send(peer, tag, acc.clone());
            let region = b.alloc(n);
            b.recv(peer, tag, region.clone());
            regions.push((dd, region));
        }
        // Fold all group members' vectors in ascending group position so
        // every member computes the bitwise-identical result: the position-0
        // vector is the accumulator, the rest fold in ascending order.
        let mut it = regions.into_iter();
        let mut folded: Option<SgList> = None;
        for dd in 0..f {
            let buf = if dd == d {
                acc.clone()
            } else {
                it.next().expect("one contribution per partner").1
            };
            match &folded {
                None => folded = Some(buf),
                Some(a) => b.reduce(dtype, op, buf, a.clone()),
            }
        }
        acc = folded.expect("group nonempty");
        s *= f;
    }
    // Unfold: return the result to the absorbed extra.
    if gidx + q < gsize {
        b.send(map(gidx + q), tags::FOLD, acc.clone());
    }
    acc
}

/// Lower the generalized recursive multiplying allreduce of Kolmakov &
/// Zhang (arXiv:2004.09362) into `b`: valid for *any* process count with
/// radix `k ≥ 2`, not just k-smooth ones. The rank range splits into
/// `min(k, s)` contiguous near-equal blocks (sizes differ by at most one);
/// each block recursively allreduces, then aligned positions across
/// sibling blocks exchange full vectors and fold. A block one larger than
/// its smallest sibling has a single residual member whose position has no
/// cross partner; it skips that exchange and receives the folded result
/// from its block's position-0 member — one extra hop per level at worst,
/// instead of recmult's global pre-fold that idles `p - q` ranks through
/// every round.
pub(crate) fn build_allreduce_general(
    b: &mut ScheduleBuilder,
    k: usize,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    assert!(k >= 2, "generalized multiplying radix must be at least 2");
    let p = b.p();
    let me = b.rank();
    build_general_level(b, k, 0, p, me, own, dtype, op, 0)
}

#[allow(clippy::too_many_arguments)]
fn build_general_level(
    b: &mut ScheduleBuilder,
    k: usize,
    lo: usize,
    s: usize,
    me: usize,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
    depth: u32,
) -> SgList {
    if s == 1 {
        return own;
    }
    // Per-depth tag offsets must stay inside the 0x10-wide window between
    // ALLREDUCE_GENERAL and ALLREDUCE_GENERAL_UNFOLD. Depth grows as
    // ceil(log_k s), so this admits any p below 2^16.
    assert!(
        depth < 0x10,
        "generalized allreduce recursion exhausts its tag window"
    );
    let n = own.len();
    let f = k.min(s);
    let bounds: Vec<(usize, usize)> = (0..f).map(|j| block_range(s, f, j)).collect();
    let j = bounds
        .iter()
        .position(|&(st, en)| st <= me - lo && me - lo < en)
        .expect("rank inside its block");
    let (start, end) = bounds[j];
    // Inner levels first: afterwards every member of this sub-block holds
    // the bitwise-identical reduction of the sub-block's inputs.
    let acc = build_general_level(b, k, lo + start, end - start, me, own, dtype, op, depth + 1);
    let q = s / f; // smallest sibling block size; sizes are q or q+1
    let i = me - lo - start; // my position within the sub-block
    if i == q {
        // Residual member of an oversized block: no aligned partner in the
        // smaller siblings, so await the final vector instead.
        b.mark("ar-gen-unfold", depth);
        let region = b.alloc(n);
        b.recv(
            lo + start,
            tags::ALLREDUCE_GENERAL_UNFOLD + depth,
            region.clone(),
        );
        return region;
    }
    // Cross exchange: the f ranks at position i, one per sibling block,
    // swap full vectors and fold in ascending block order so every
    // participant computes the bitwise-identical result.
    b.mark("ar-gen", depth);
    let tag = tags::ALLREDUCE_GENERAL + depth;
    let mut regions: Vec<SgList> = Vec::with_capacity(f - 1);
    for (jj, &(st, _)) in bounds.iter().enumerate() {
        if jj == j {
            continue;
        }
        let peer = lo + st + i;
        b.send(peer, tag, acc.clone());
        let region = b.alloc(n);
        b.recv(peer, tag, region.clone());
        regions.push(region);
    }
    let mut it = regions.into_iter();
    let mut folded: Option<SgList> = None;
    for jj in 0..f {
        let buf = if jj == j {
            acc.clone()
        } else {
            it.next().expect("one vector per sibling block")
        };
        match &folded {
            None => folded = Some(buf),
            Some(a) => b.reduce(dtype, op, buf, a.clone()),
        }
    }
    let acc = folded.expect("at least one block");
    if i == 0 && end - start > q {
        b.mark("ar-gen-unfold", depth);
        b.send(
            lo + start + q,
            tags::ALLREDUCE_GENERAL_UNFOLD + depth,
            acc.clone(),
        );
    }
    acc
}

/// Lower the hierarchical (SMP-aware) allreduce into `b`, the Hasanov-style
/// structure the paper cites as k-ring's inspiration [17]: a flat intranode
/// reduce to each node leader, recursive multiplying with radix `k` among
/// leaders, then a flat intranode broadcast. Requires `ppn | p`; ranks are
/// grouped contiguously per node as in `exacoll_sim::Machine`.
pub(crate) fn build_allreduce_hierarchical(
    b: &mut ScheduleBuilder,
    ppn: usize,
    k: usize,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    let p = b.p();
    let me = b.rank();
    let n = own.len();
    assert!(ppn >= 1, "processes per node must be at least 1");
    assert!(
        p.is_multiple_of(ppn),
        "hierarchical allreduce needs ppn ({ppn}) to divide p ({p})"
    );
    let leader = me / ppn * ppn;
    let nodes = p / ppn;
    if me != leader {
        // Phase 1: contribute to the node leader; phase 3: await result.
        b.mark("hier-reduce", 0);
        b.send(leader, tags::HIER_REDUCE, own);
        b.mark("hier-bcast", 0);
        let region = b.alloc(n);
        b.recv(leader, tags::HIER_BCAST, region.clone());
        return region;
    }
    // Leader: absorb the node's contributions in ascending rank order.
    b.mark("hier-reduce", 0);
    let regions: Vec<SgList> = (leader + 1..leader + ppn)
        .map(|r| {
            let region = b.alloc(n);
            b.recv(r, tags::HIER_REDUCE, region.clone());
            region
        })
        .collect();
    for region in regions {
        b.reduce(dtype, op, region, own.clone());
    }
    // Phase 2: recursive multiplying among the node leaders.
    b.mark("hier-leaders", 0);
    let acc = build_allreduce_recmult_mapped(b, k, nodes, me / ppn, |l| l * ppn, own, dtype, op);
    // Phase 3: flat intranode broadcast.
    b.mark("hier-bcast", 0);
    for r in leader + 1..leader + ppn {
        b.send(r, tags::HIER_BCAST, acc.clone());
    }
    acc
}

/// Lower the reduce-scatter + allgather allreduce into `b`.
pub(crate) fn build_allreduce_rsag(
    b: &mut ScheduleBuilder,
    kernel: AllgatherKernel,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    let p = b.p();
    let n = own.len();
    if p == 1 {
        return own;
    }
    let sizes = elem_block_sizes(n, dtype.size(), p);
    let mine = build_reduce_scatter_ring(b, &sizes, own, dtype, op);
    let blocks = build_allgather_kernel(b, kernel, mine, &sizes);
    SgList::concat(&blocks)
}

/// Lower the k-nomial reduce + k-nomial bcast composite into `b`.
pub(crate) fn build_allreduce_reduce_bcast(
    b: &mut ScheduleBuilder,
    k: usize,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    let n = own.len();
    let reduced = build_reduce_knomial(b, k, 0, own, dtype, op);
    build_bcast_knomial(b, k, 0, reduced, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{execute, Algorithm, CollArgs, CollectiveOp};
    use exacoll_comm::{reduce_ops::reduce_all, run_ranks, Comm, CommResult, ThreadComm, TypedBuf};

    /// Run the registry's allreduce `alg` on this rank's `input`.
    fn allreduce<C: Comm>(
        c: &mut C,
        alg: Algorithm,
        input: &[u8],
        dtype: DType,
        rop: ReduceOp,
    ) -> CommResult<Vec<u8>> {
        let args = CollArgs {
            op: CollectiveOp::Allreduce,
            alg,
            root: 0,
            dtype,
            rop,
        };
        execute(c, &args, input)
    }

    fn rank_input(rank: usize, count: usize, dtype: DType) -> Vec<u8> {
        let vals: Vec<f64> = (0..count)
            .map(|i| ((rank * 7 + i * 3) % 13) as f64)
            .collect();
        TypedBuf::from_f64s(dtype, &vals).bytes
    }

    /// Every rank of a `p`-world running `run` must end with the reference
    /// reduction of all inputs.
    fn check_run(
        p: usize,
        count: usize,
        dtype: DType,
        op: ReduceOp,
        label: &str,
        run: impl Fn(&mut ThreadComm, &[u8]) -> CommResult<Vec<u8>> + Send + Sync,
    ) {
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| rank_input(r, count, dtype)).collect();
        let expect = reduce_all(dtype, op, &inputs).unwrap();
        let out = run_ranks(p, |c| run(c, &inputs[c.rank()]));
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o, &expect, "{label} p={p} rank={r} {dtype} {op}");
        }
    }

    fn check(p: usize, count: usize, dtype: DType, op: ReduceOp, alg: Algorithm) {
        check_run(p, count, dtype, op, &alg.to_string(), |c, x| {
            allreduce(c, alg, x, dtype, op)
        });
    }

    /// Inputs whose f64 sum depends on association order.
    fn harmonic_inputs(p: usize, count: usize) -> Vec<Vec<u8>> {
        (0..p)
            .map(|r| {
                let vals: Vec<f64> = (0..count)
                    .map(|i| 1.0 / ((r * count + i + 1) as f64))
                    .collect();
                TypedBuf::from_f64s(DType::F64, &vals).bytes
            })
            .collect()
    }

    /// All ranks must produce the *same* bits even where the value depends
    /// on association order.
    fn check_bitwise_identical(p: usize, count: usize, alg: Algorithm) {
        let inputs = harmonic_inputs(p, count);
        let out = run_ranks(p, |c| {
            allreduce(c, alg, &inputs[c.rank()], DType::F64, ReduceOp::Sum)
        });
        for o in &out[1..] {
            assert_eq!(o, &out[0], "{alg} results diverge across ranks at p={p}");
        }
    }

    #[test]
    fn recmult_smooth_counts() {
        for (p, k) in [
            (2usize, 2usize),
            (4, 2),
            (8, 2),
            (9, 3),
            (16, 4),
            (12, 4),
            (27, 3),
            (6, 6),
        ] {
            let alg = Algorithm::RecursiveMultiplying { k };
            check(p, 8, DType::I64, ReduceOp::Sum, alg);
        }
    }

    #[test]
    fn recmult_fold_path() {
        for (p, k) in [(3usize, 2usize), (7, 2), (7, 4), (11, 4), (13, 3), (15, 2)] {
            let alg = Algorithm::RecursiveMultiplying { k };
            check(p, 6, DType::I32, ReduceOp::Sum, alg);
        }
    }

    /// `alg` under every operator × {u8, i32, f64} the operator supports.
    fn check_ops_dtypes(p: usize, alg: Algorithm) {
        for op in ReduceOp::ALL {
            for dtype in [DType::U8, DType::I32, DType::F64] {
                if op.supports(dtype) {
                    check(p, 5, dtype, op, alg);
                }
            }
        }
    }

    #[test]
    fn recmult_ops_dtypes() {
        check_ops_dtypes(9, Algorithm::RecursiveMultiplying { k: 3 });
    }

    #[test]
    fn general_ops_dtypes() {
        check_ops_dtypes(7, Algorithm::GeneralizedMultiplying { k: 3 });
    }

    #[test]
    fn general_any_process_count() {
        // The whole point: non-power-of-k counts, incl. the acceptance
        // grid p ∈ {6, 7, 9}, plus smooth counts where it must still agree.
        for (p, k) in [
            (6usize, 2usize),
            (7, 2),
            (9, 2),
            (6, 3),
            (7, 3),
            (9, 3),
            (7, 4),
            (9, 4),
            (5, 2),
            (11, 3),
            (13, 4),
            (1, 2),
            (2, 2),
            (8, 2),
            (16, 4),
        ] {
            let alg = Algorithm::GeneralizedMultiplying { k };
            check(p, 8, DType::I64, ReduceOp::Sum, alg);
        }
    }

    #[test]
    fn float_sums_bitwise_identical_across_ranks() {
        for k in [2usize, 3, 4] {
            check_bitwise_identical(12, 16, Algorithm::RecursiveMultiplying { k });
        }
    }

    #[test]
    fn general_float_bitwise_identical() {
        // Cross folds run in ascending block order on every participant,
        // so non-associative float sums still agree bit for bit.
        for (p, k) in [(7usize, 2usize), (11, 3), (13, 4)] {
            check_bitwise_identical(p, 12, Algorithm::GeneralizedMultiplying { k });
        }
    }

    #[test]
    fn hierarchical_float_bitwise_identical() {
        check_bitwise_identical(16, 8, Algorithm::Hierarchical { ppn: 4, k: 4 });
    }

    #[test]
    fn general_schedules_verify() {
        use crate::schedule::verify::verify;
        for (p, k) in [(6usize, 2usize), (7, 3), (9, 4), (13, 2)] {
            let plans: Vec<_> = (0..p)
                .map(|r| {
                    let mut b = ScheduleBuilder::new(p, r);
                    let own = b.alloc(24);
                    let out =
                        build_allreduce_general(&mut b, k, own.clone(), DType::I32, ReduceOp::Sum);
                    b.finish(own, out)
                })
                .collect();
            verify(&plans).unwrap_or_else(|e| panic!("general p={p} k={k}: {e}"));
        }
    }

    #[test]
    fn ring_allreduce() {
        for p in [1usize, 2, 3, 5, 8, 12] {
            check(p, 10, DType::I64, ReduceOp::Sum, Algorithm::Ring);
        }
    }

    #[test]
    fn kring_allreduce() {
        for (p, k) in [(6usize, 3usize), (8, 4), (8, 2), (12, 4), (12, 6), (9, 3)] {
            check(p, 11, DType::I64, ReduceOp::Sum, Algorithm::KRing { k });
        }
    }

    #[test]
    fn rsag_recmult_composite() {
        // Not a registry algorithm: drive the builder directly.
        for (p, k) in [(8usize, 4usize), (7, 2), (12, 3)] {
            let kernel = AllgatherKernel::RecursiveMultiplying { k };
            check_run(p, 9, DType::I32, ReduceOp::Sum, "rsag-recmult", |c, x| {
                crate::schedule::run_built(c, x, |b| {
                    let own = b.alloc(x.len());
                    let out =
                        build_allreduce_rsag(b, kernel, own.clone(), DType::I32, ReduceOp::Sum);
                    (own, out)
                })
            });
        }
    }

    #[test]
    fn reduce_bcast_composite() {
        for (p, k) in [(6usize, 2usize), (9, 3), (13, 4), (16, 16)] {
            check(
                p,
                7,
                DType::U64,
                ReduceOp::Max,
                Algorithm::ReduceBcast { k },
            );
        }
    }

    #[test]
    fn hierarchical_correctness() {
        for (p, ppn, k) in [
            (8usize, 2usize, 2usize),
            (8, 4, 2),
            (8, 8, 2),
            (12, 4, 3),
            (16, 4, 4),
            (24, 8, 4),
            (6, 1, 3),  // degenerate: every rank its own leader
            (20, 4, 4), // 5 leaders: non-smooth leader count, fold path
        ] {
            let alg = Algorithm::Hierarchical { ppn, k };
            check(p, 9, DType::I64, ReduceOp::Sum, alg);
        }
    }

    #[test]
    fn tiny_and_empty_vectors() {
        let recdoubling = Algorithm::RecursiveMultiplying { k: 2 };
        check(5, 0, DType::F64, ReduceOp::Sum, recdoubling);
        check(8, 1, DType::U8, ReduceOp::BOr, Algorithm::Ring);
    }
}
