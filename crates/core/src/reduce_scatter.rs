//! Reduce-scatter algorithms.
//!
//! * `build_reduce_scatter_ring` — runs the ring "leftward" so that after `p-1`
//!   rounds rank `r` owns the fully reduced block `r` — the one-block
//!   ownership offset the paper notes distinguishes the allreduce k-ring
//!   from the allgather k-ring (§V-D).
//! * `build_reduce_scatter_recmult` — **radix-`k` recursive vector splitting**:
//!   MPICH's recursive *halving* is the `k = 2` case; each round splits the
//!   active segment into `f ≤ k` parts exchanged within a group of `f`
//!   ranks, shrinking the segment by the round's factor. Requires a
//!   `k`-smooth rank count (the factorization defines the rounds).
//!
//! Blocks are split on element boundaries so reductions never straddle an
//! element. Both variants lower to [`crate::schedule`] steps; fold order is
//! the order of the `Compute` steps, kept identical to the original loops so
//! results stay bitwise deterministic.

use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::topo::factorize;
use crate::util::{pmod, prefix_offsets};
use exacoll_comm::{DType, ReduceOp};

/// Element-aligned byte range of block `i` when `n` bytes of `esize`-byte
/// elements are split into `p` near-equal blocks.
pub fn elem_block_range(n: usize, esize: usize, p: usize, i: usize) -> (usize, usize) {
    debug_assert_eq!(n % esize, 0);
    let count = n / esize;
    (i * count / p * esize, (i + 1) * count / p * esize)
}

/// Sizes of all element-aligned blocks.
pub fn elem_block_sizes(n: usize, esize: usize, p: usize) -> Vec<usize> {
    (0..p)
        .map(|i| {
            let (s, e) = elem_block_range(n, esize, p, i);
            e - s
        })
        .collect()
}

/// Lower the ring reduce-scatter into `b`, accumulating in place into the
/// `n`-byte vector `own`. Returns this rank's fully reduced block view.
///
/// Round `t`: send partial block `(r + t + 1) mod p` to the left neighbor,
/// receive partial block `(r + t + 2) mod p` from the right, fold own
/// contribution in. Each block accumulates contributions in descending-rank
/// ring order, identically on every path, so results are deterministic.
pub(crate) fn build_reduce_scatter_ring(
    b: &mut ScheduleBuilder,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    let p = b.p();
    let me = b.rank();
    let n = own.len();
    let esize = dtype.size();
    let range = |i: usize| elem_block_range(n, esize, p, i);
    let block = |i: usize| {
        let (s, e) = range(i);
        own.slice(s, e - s)
    };
    if p == 1 {
        return own;
    }
    let left = (me + p - 1) % p;
    let right = (me + 1) % p;
    for t in 0..p - 1 {
        b.mark("rs-ring", t as u32);
        let send_idx = pmod(me as isize + t as isize + 1, p);
        let recv_idx = pmod(me as isize + t as isize + 2, p);
        let recv_blk = block(recv_idx);
        let region = b.alloc(recv_blk.len());
        b.sendrecv(
            left,
            tags::REDUCE_SCATTER_RING,
            block(send_idx),
            right,
            tags::REDUCE_SCATTER_RING,
            region.clone(),
        );
        b.reduce(dtype, op, region, recv_blk);
    }
    block(me)
}

/// Lower the irregular ("v") ring reduce-scatter into `b`: block `i` is
/// the explicit `counts[i]`-byte slice of the input vector rather than a
/// near-equal split, so rank `i` ends up owning exactly `counts[i]` bytes
/// of the reduction — including zero (its rounds then move and fold
/// zero-byte blocks, which both backends and the verifier already treat as
/// ordinary messages). The ring structure and descending-rank fold order
/// match [`build_reduce_scatter_ring`] exactly, so results stay bitwise
/// deterministic. Counts must be element-aligned and sum to the input
/// length.
pub(crate) fn build_reduce_scatter_v(
    b: &mut ScheduleBuilder,
    counts: &[usize],
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    let p = b.p();
    let me = b.rank();
    let esize = dtype.size();
    assert_eq!(counts.len(), p, "one count per rank");
    assert!(
        counts.iter().all(|c| c.is_multiple_of(esize)),
        "per-rank counts must be element-aligned"
    );
    let offsets = prefix_offsets(counts);
    assert_eq!(
        own.len(),
        offsets[p],
        "input length must equal the sum of the per-rank counts"
    );
    let block = |i: usize| own.slice(offsets[i], counts[i]);
    if p == 1 {
        return own;
    }
    let left = (me + p - 1) % p;
    let right = (me + 1) % p;
    for t in 0..p - 1 {
        b.mark("rs-v", t as u32);
        let send_idx = pmod(me as isize + t as isize + 1, p);
        let recv_idx = pmod(me as isize + t as isize + 2, p);
        let recv_blk = block(recv_idx);
        let region = b.alloc(recv_blk.len());
        b.sendrecv(
            left,
            tags::REDUCE_SCATTER_RING,
            block(send_idx),
            right,
            tags::REDUCE_SCATTER_RING,
            region.clone(),
        );
        b.reduce(dtype, op, region, recv_blk);
    }
    block(me)
}

/// Lower the radix-`k` recursive-splitting reduce-scatter into `b`.
/// Requires `p` to be `k`-smooth; returns this rank's reduced block view.
pub(crate) fn build_reduce_scatter_recmult(
    b: &mut ScheduleBuilder,
    k: usize,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> SgList {
    assert!(k >= 2, "radix must be at least 2");
    let p = b.p();
    let me = b.rank();
    let n = own.len();
    let esize = dtype.size();
    let factors = factorize(p, k).unwrap_or_else(|| panic!("p = {p} is not {k}-smooth"));
    let byte_range = |blocks: (usize, usize)| {
        let (b0, b1) = blocks;
        let (s, _) = elem_block_range(n, esize, p, b0);
        let e = if b1 == 0 {
            s
        } else {
            elem_block_range(n, esize, p, b1 - 1).1
        };
        (s, e)
    };
    if p == 1 {
        return own;
    }
    // Active segment: `cur` views the bytes of the aligned block window
    // [lo, lo + span) that still holds this rank's data; `seg_s` is its
    // byte offset in the original vector.
    let mut cur = own;
    let mut span = p;
    for (round, &f) in factors.iter().enumerate() {
        b.mark("rs-recmult", round as u32);
        let tag = tags::REDUCE_SCATTER_RECMULT + round as u32;
        let lo = me / span * span;
        let sub = span / f;
        let d = (me - lo) / sub;
        let offset = (me - lo) % sub;
        let (seg_s, _) = byte_range((lo, lo + span));
        let (my_s, my_e) = byte_range((lo + d * sub, lo + (d + 1) * sub));
        let part_len = my_e - my_s;
        // Exchange: send partner dd its part of my segment, receive my part.
        let mut regions: Vec<(usize, SgList)> = Vec::with_capacity(f - 1);
        for dd in 0..f {
            if dd == d {
                continue;
            }
            let peer = lo + dd * sub + offset;
            let (s, e) = byte_range((lo + dd * sub, lo + (dd + 1) * sub));
            b.send(peer, tag, cur.slice(s - seg_s, e - s));
            let region = b.alloc(part_len);
            b.recv(peer, tag, region.clone());
            regions.push((dd, region));
        }
        // Fold contributions in ascending group position, my own partial at
        // position d, so every rank of the part computes identical bits. The
        // position-0 contribution becomes the accumulator; the rest fold in.
        let my_part = cur.slice(my_s - seg_s, part_len);
        let mut it = regions.into_iter();
        let mut acc: Option<SgList> = None;
        for dd in 0..f {
            let buf = if dd == d {
                my_part.clone()
            } else {
                it.next().expect("one contribution per partner").1
            };
            match &acc {
                None => acc = Some(buf),
                Some(a) => b.reduce(dtype, op, buf, a.clone()),
            }
        }
        cur = acc.expect("group nonempty");
        span = sub;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{execute, execute_v, Algorithm, CollArgs, CollectiveOp};
    use exacoll_comm::{reduce_ops::reduce_all, run_ranks, Comm, TypedBuf};

    fn args(alg: Algorithm, dtype: DType, rop: ReduceOp) -> CollArgs {
        CollArgs {
            op: CollectiveOp::ReduceScatter,
            alg,
            root: 0,
            dtype,
            rop,
        }
    }

    fn rank_input(rank: usize, count: usize, dtype: DType) -> Vec<u8> {
        let vals: Vec<f64> = (0..count).map(|i| ((rank * 5 + i) % 11) as f64).collect();
        TypedBuf::from_f64s(dtype, &vals).bytes
    }

    /// Every rank's output of the registry's `alg`, near-equal split.
    fn run(alg: Algorithm, dtype: DType, op: ReduceOp, inputs: &[Vec<u8>]) -> Vec<Vec<u8>> {
        run_ranks(inputs.len(), |c| {
            execute(c, &args(alg, dtype, op), &inputs[c.rank()])
        })
    }

    fn check_alg(alg: Algorithm, p: usize, count: usize, dtype: DType, op: ReduceOp) {
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| rank_input(r, count, dtype)).collect();
        let full = reduce_all(dtype, op, &inputs).unwrap();
        for (r, o) in run(alg, dtype, op, &inputs).iter().enumerate() {
            let (s, e) = elem_block_range(count * dtype.size(), dtype.size(), p, r);
            assert_eq!(o, &full[s..e], "{alg} p={p} rank={r} {dtype} {op}");
        }
    }

    fn check(p: usize, count: usize, dtype: DType, op: ReduceOp) {
        check_alg(Algorithm::Ring, p, count, dtype, op);
    }

    fn check_recmult(p: usize, k: usize, count: usize, dtype: DType, op: ReduceOp) {
        check_alg(Algorithm::RecursiveMultiplying { k }, p, count, dtype, op);
    }

    #[test]
    fn blocks_align_to_elements() {
        // 10 f64 elements over 4 ranks: 2/3/2/3 elements, all multiples of 8.
        let sizes = elem_block_sizes(80, 8, 4);
        assert_eq!(sizes.iter().sum::<usize>(), 80);
        assert!(sizes.iter().all(|s| s % 8 == 0));
    }

    #[test]
    fn reduce_scatter_various_p() {
        for p in [1usize, 2, 3, 5, 8, 9] {
            check(p, 12, DType::I64, ReduceOp::Sum);
        }
    }

    #[test]
    fn reduce_scatter_ops_dtypes() {
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::BXor] {
            for dtype in [DType::I32, DType::U64, DType::U8] {
                check(6, 10, dtype, op);
            }
        }
        check(5, 9, DType::F64, ReduceOp::Sum);
    }

    #[test]
    fn fewer_elements_than_ranks() {
        // Some ranks own zero elements.
        check(8, 3, DType::I32, ReduceOp::Min);
    }

    #[test]
    fn zero_elements() {
        check(4, 0, DType::F32, ReduceOp::Sum);
    }

    #[test]
    fn recursive_splitting_smooth_counts() {
        for (p, k) in [
            (2usize, 2usize),
            (4, 2),
            (8, 2),
            (9, 3),
            (12, 4),
            (16, 4),
            (27, 3),
            (6, 6),
            (1, 2),
        ] {
            check_recmult(p, k, 20, DType::I64, ReduceOp::Sum);
        }
    }

    #[test]
    fn recursive_splitting_ops_and_dtypes() {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::BOr] {
            for dtype in [DType::I32, DType::U64, DType::U8] {
                check_recmult(8, 4, 13, dtype, op);
            }
        }
        check_recmult(9, 3, 11, DType::F64, ReduceOp::Sum);
    }

    #[test]
    fn recursive_splitting_fewer_elements_than_ranks() {
        check_recmult(8, 2, 3, DType::I32, ReduceOp::Max);
        check_recmult(12, 4, 0, DType::F32, ReduceOp::Sum);
    }

    fn check_v(p: usize, elem_counts: &[usize], dtype: DType, op: ReduceOp) {
        let esize = dtype.size();
        let counts: Vec<usize> = elem_counts.iter().map(|c| c * esize).collect();
        let total_elems: usize = elem_counts.iter().sum();
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| rank_input(r, total_elems, dtype)).collect();
        let full = reduce_all(dtype, op, &inputs).unwrap();
        let offsets = crate::util::prefix_offsets(&counts);
        let out = run_ranks(p, |c| {
            execute_v(
                c,
                &args(Algorithm::Ring, dtype, op),
                &counts,
                &inputs[c.rank()],
            )
        });
        for (r, o) in out.iter().enumerate() {
            assert_eq!(
                o,
                &full[offsets[r]..offsets[r] + counts[r]],
                "v p={p} counts={elem_counts:?} rank={r} {dtype} {op}"
            );
        }
    }

    #[test]
    fn v_variant_irregular_counts() {
        check_v(4, &[3, 0, 7, 1], DType::I64, ReduceOp::Sum);
        check_v(5, &[0, 0, 11, 0, 2], DType::I32, ReduceOp::Max);
        check_v(6, &[1, 2, 3, 4, 5, 6], DType::U8, ReduceOp::BXor);
        check_v(7, &[13, 0, 0, 1, 1, 0, 4], DType::F64, ReduceOp::Sum);
        check_v(3, &[0, 0, 0], DType::I32, ReduceOp::Sum);
        check_v(1, &[5], DType::I64, ReduceOp::Sum);
    }

    #[test]
    fn v_variant_uniform_counts_match_near_equal_split_when_divisible() {
        // With p | elements the uniform split *is* the elem_block split, so
        // the v-variant must agree byte for byte with the classic ring.
        let p = 4;
        let elems = 12;
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| rank_input(r, elems, DType::I64)).collect();
        let counts = vec![elems / p * 8; p];
        let ring_args = args(Algorithm::Ring, DType::I64, ReduceOp::Sum);
        let v = run_ranks(p, |c| execute_v(c, &ring_args, &counts, &inputs[c.rank()]));
        assert_eq!(run(Algorithm::Ring, DType::I64, ReduceOp::Sum, &inputs), v);
    }

    #[test]
    fn v_variant_schedules_verify() {
        use crate::schedule::verify::verify;
        let counts = [24usize, 0, 56, 8, 0, 16];
        let p = counts.len();
        let n: usize = counts.iter().sum();
        let plans: Vec<_> = (0..p)
            .map(|r| {
                let mut b = ScheduleBuilder::new(p, r);
                let own = b.alloc(n);
                let out =
                    build_reduce_scatter_v(&mut b, &counts, own.clone(), DType::I64, ReduceOp::Sum);
                b.finish(own, out)
            })
            .collect();
        verify(&plans).unwrap_or_else(|e| panic!("reduce_scatter_v: {e}"));
    }

    #[test]
    #[should_panic(expected = "element-aligned")]
    fn v_variant_rejects_misaligned_counts() {
        let ring_args = args(Algorithm::Ring, DType::I64, ReduceOp::Sum);
        crate::registry::lower_v(&ring_args, 0, &[3, 5]);
    }

    #[test]
    #[should_panic(expected = "smooth")]
    fn recursive_splitting_rejects_nonsmooth() {
        // The builder's own precondition, below the registry's `supports`.
        let mut b = ScheduleBuilder::new(7, 0);
        let own = b.alloc(56);
        build_reduce_scatter_recmult(&mut b, 2, own, DType::F64, ReduceOp::Sum);
    }

    #[test]
    fn ring_and_recursive_agree() {
        let p = 12;
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| rank_input(r, 24, DType::I64)).collect();
        let rec = Algorithm::RecursiveMultiplying { k: 3 };
        assert_eq!(
            run(Algorithm::Ring, DType::I64, ReduceOp::Sum, &inputs),
            run(rec, DType::I64, ReduceOp::Sum, &inputs)
        );
    }
}
