//! Allreduce algorithms.
//!
//! * `build_allreduce_recmult` — recursive multiplying (§IV): `log_k p`
//!   rounds; each round every rank exchanges its running vector with `k-1`
//!   partners and folds. The paper's headline recursive-multiplying
//!   collective (Fig. 8b, Fig. 9d, Fig. 10c); `k = 2` is MPICH's recursive
//!   doubling. A `Remainder` policy serves the ranks that fit no group
//!   (the "non-uniform group" corner case of §VI-A): `PreFold` folds them
//!   in before the rounds; `Residual` is Kolmakov & Zhang's generalized
//!   allreduce.
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
//! * `build_allreduce_hierarchical` — the SMP-aware variant; its node
//!   leaders run `build_allreduce_recmult` at stride `ppn`.
//!
//! Composites are composed at the *schedule* level: each phase's builder
//! appends its steps to the same plan, and the flushes round marks imply
//! sequence the phases exactly as blocking calls would.

use crate::allgather::{build_allgather_kernel, AllgatherKernel};
use crate::bcast::build_bcast_knomial;
use crate::reduce::{build_reduce_knomial, fold_in_order};
use crate::reduce_scatter::{build_reduce_scatter_ring, elem_block_sizes};
use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::topo::{factorize, largest_smooth_leq};
use crate::util::block_range;
use exacoll_comm::{DType, ReduceOp};

/// How [`build_allreduce_recmult`] serves the ranks that do not fit a
/// group of `k` (§VI-A's non-uniform group sizes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Remainder {
    /// Recursive multiplying proper: the ranks above the largest `k`-smooth
    /// `q ≤ gsize` hand their vector to rank `gidx - q` before the rounds
    /// and get the result back after them; level `i` from the top splits
    /// into the `i`-th factor of `factorize(q, k)` counted from the last.
    PreFold,
    /// Kolmakov & Zhang (arXiv:2004.09362): every level splits into
    /// `min(k, s)` near-equal blocks; the one residual member of a block
    /// larger than its smallest sibling skips the cross exchange and
    /// receives the block's result instead — one extra hop per level at
    /// worst, where the pre-fold idles `gsize - q` ranks through every round.
    Residual,
}

/// Lower the recursive multiplying allreduce over a subgroup into `b`:
/// `gsize` participants with group indices `0..gsize`, group index `g`
/// being global rank `g · stride`. Each level splits its range into
/// contiguous blocks and allreduces inside this rank's block first; then
/// the ranks at one position across the sibling blocks swap full vectors
/// and fold in ascending block order, so every member computes the
/// bitwise-identical result. Accumulates in place into `own`; returns the
/// result view.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_allreduce_recmult(
    b: &mut ScheduleBuilder,
    k: usize,
    rem: Remainder,
    gsize: usize,
    gidx: usize,
    stride: usize,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    assert!(k >= 2, "recursive multiplying radix must be at least 2");
    debug_assert!(gidx < gsize);
    let n = own.len();
    let (q, factors) = match rem {
        Remainder::PreFold => {
            let q = largest_smooth_leq(gsize, k);
            (q, factorize(q, k).expect("q is k-smooth"))
        }
        Remainder::Residual => (gsize, Vec::new()),
    };
    // Fold: extras hand their vector to a partner and wait for the result.
    if gidx >= q {
        b.mark("ar-fold", 0);
        b.send((gidx - q) * stride, tags::FOLD, own);
        let region = b.alloc(n);
        b.recv((gidx - q) * stride, tags::FOLD, region.clone());
        return region;
    }
    if gidx + q < gsize {
        b.mark("ar-fold", 0);
        let region = b.alloc(n);
        b.recv((gidx + q) * stride, tags::FOLD, region.clone());
        b.reduce(dtype, op, region, own.clone());
    }
    // Descend to this rank's innermost block: the level at depth d splits
    // lo..lo + s into f blocks (the last factor not yet used, or min(k, s))
    // and this rank sits in block j.
    let mut levels = Vec::with_capacity(factors.len());
    let (mut lo, mut s, mut rest) = (0, q, &factors[..]);
    while s > 1 {
        let f = match rest.split_last() {
            Some((&f, inner)) => {
                rest = inner;
                f
            }
            None => k.min(s),
        };
        let j = ((gidx - lo + 1) * f - 1) / s; // the block_range block holding gidx
        let (start, end) = block_range(s, f, j);
        levels.push((lo, s, f, j, start, end));
        (lo, s) = (lo + start, end - start);
    }
    // Per-depth tag offsets must stay inside the 0x10-wide window between
    // ALLREDUCE_GENERAL and ALLREDUCE_GENERAL_UNFOLD. The level at depth d
    // has more than one rank iff p > k^d, so this admits any p ≤ k^16,
    // which `Algorithm::supports` enforces.
    assert!(
        rem == Remainder::PreFold || levels.len() <= 0x10,
        "generalized allreduce recursion exhausts its tag window"
    );
    // Then back up, inner levels first: after each, every member of its
    // range holds the bitwise-identical reduction of the range's inputs.
    let mut acc = own;
    for (d, &(lo, s, f, j, start, end)) in levels.iter().enumerate().rev() {
        let q = s / f; // smallest sibling block size; sizes are q or q+1
        let i = gidx - lo - start; // my position within the block
        let depth = d as u32;
        let unfold = tags::ALLREDUCE_GENERAL_UNFOLD + depth;
        if i == q {
            // Residual member of an oversized block: no aligned partner in
            // the smaller siblings, so await the final vector instead.
            b.mark("ar-gen-unfold", depth);
            acc = b.alloc(n);
            b.recv((lo + start) * stride, unfold, acc.clone());
            continue;
        }
        let (label, base, round) = match rem {
            Remainder::PreFold => ("ar-recmult", tags::ALLREDUCE_RECMULT, levels.len() - 1 - d),
            Remainder::Residual => ("ar-gen", tags::ALLREDUCE_GENERAL, d),
        };
        let round = round as u32;
        b.mark(label, round);
        let tag = base + round;
        let mut parts = Vec::with_capacity(f);
        for jj in 0..f {
            if jj == j {
                parts.push(acc.clone());
                continue;
            }
            let peer = (lo + block_range(s, f, jj).0 + i) * stride;
            b.send(peer, tag, acc.clone());
            let region = b.alloc(n);
            b.recv(peer, tag, region.clone());
            parts.push(region);
        }
        acc = fold_in_order(b, parts, dtype, op);
        if i == 0 && end - start > q {
            b.mark("ar-gen-unfold", depth);
            b.send((lo + start + q) * stride, unfold, acc.clone());
        }
    }
    // Unfold: return the result to the absorbed extra.
    if gidx + q < gsize {
        b.send((gidx + q) * stride, tags::FOLD, acc.clone());
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
    let mut parts = Vec::with_capacity(ppn);
    parts.push(own);
    for r in leader + 1..leader + ppn {
        let region = b.alloc(n);
        b.recv(r, tags::HIER_REDUCE, region.clone());
        parts.push(region);
    }
    let own = fold_in_order(b, parts, dtype, op);
    // Phase 2: recursive multiplying among the node leaders.
    b.mark("hier-leaders", 0);
    let acc = build_allreduce_recmult(
        b,
        k,
        Remainder::PreFold,
        nodes,
        me / ppn,
        ppn,
        own,
        dtype,
        op,
    );
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

    /// With one group (k ≥ p) every reducing builder folds the inputs in
    /// rank order, so f64 outputs equal the sequential reference bit for bit.
    #[test]
    fn one_group_folds_in_rank_order() {
        use Algorithm::*;
        use CollectiveOp::{Allreduce, Reduce};
        let p = 5;
        let inputs = harmonic_inputs(p, 12);
        let expect = reduce_all(DType::F64, ReduceOp::Sum, &inputs).unwrap();
        for (op, alg) in [
            (Allreduce, RecursiveMultiplying { k: 8 }),
            (Allreduce, GeneralizedMultiplying { k: 8 }),
            (Allreduce, Hierarchical { ppn: 5, k: 2 }),
            (Reduce, KnomialTree { k: 8 }),
            (Reduce, Linear),
        ] {
            let mut args = CollArgs::new(op, alg);
            args.dtype = DType::F64;
            let out = run_ranks(p, |c| execute(c, &args, &inputs[c.rank()]));
            let holders = if op == Reduce { 1 } else { p };
            for (r, o) in out[..holders].iter().enumerate() {
                assert_eq!(o, &expect, "{op} {alg} rank={r}");
            }
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
                    let out = build_allreduce_recmult(
                        &mut b,
                        k,
                        Remainder::Residual,
                        p,
                        r,
                        1,
                        own.clone(),
                        DType::I32,
                        ReduceOp::Sum,
                    );
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
