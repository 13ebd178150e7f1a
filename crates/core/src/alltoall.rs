//! Alltoall algorithms — the radix-generalization thesis applied to
//! personalized all-to-all exchange.
//!
//! §VII cites Fan et al.'s generalization of Bruck's algorithm for
//! all-to-all communication; this module implements that family:
//!
//! * pairwise (`build_alltoall_pairwise`) — `p-1` rounds, round `i` exchanging directly
//!   with ranks `±i`: bandwidth-optimal (every block moves once), linear
//!   latency. MPICH's large-message choice.
//! * spread-out (`build_alltoall_spread`) — post all `p-1` sends and receives at once and
//!   wait: one "round", maximal concurrency, at the mercy of NIC ports and
//!   buffering (MPICH's `isend_irecv` small/medium algorithm).
//! * **radix-`r` Bruck** (`build_alltoall_bruck`): blocks travel via
//!   intermediate ranks in `(r-1)·ceil(log_r p)` bundled rounds. `r = 2` is
//!   Bruck's classic algorithm (log₂ p rounds, each moving ~half the
//!   data); larger radixes trade rounds for volume exactly like the
//!   paper's kernels trade α for β.
//!
//! Data layout: every rank contributes `p` blocks of `n` bytes (`input`
//! is `p·n` long); block `j` is destined to rank `j`. The output is the
//! received blocks in source-rank order.
//!
//! The Bruck rotation and unrotation phases are pure buffer-view
//! permutations in the lowered plan: no copy steps, only scatter-gather
//! lists that index the right blocks.

use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::util::pmod;

/// Lower a pairwise-exchange alltoall into `b`: `own` is `p` blocks of `n`
/// bytes; round `i` sends block `(me+i) mod p` to that rank and receives
/// from `(me-i) mod p`. Returns the output view in source-rank order.
pub(crate) fn build_alltoall_pairwise(b: &mut ScheduleBuilder, own: SgList, n: usize) -> SgList {
    let p = b.p();
    let me = b.rank();
    let mut blocks: Vec<SgList> = (0..p).map(|j| own.slice(j * n, n)).collect();
    for i in 1..p {
        b.mark("a2a-pairwise", i as u32 - 1);
        let to = (me + i) % p;
        let from = pmod(me as isize - i as isize, p);
        let region = b.alloc(n);
        b.sendrecv(
            to,
            tags::ALLTOALL_PAIRWISE,
            own.slice(to * n, n),
            from,
            tags::ALLTOALL_PAIRWISE,
            region.clone(),
        );
        blocks[from] = region;
    }
    SgList::concat(&blocks)
}

/// Lower a spread-out alltoall into `b`: everything posts up front and the
/// single end-of-plan flush waits for it all.
pub(crate) fn build_alltoall_spread(b: &mut ScheduleBuilder, own: SgList, n: usize) -> SgList {
    let p = b.p();
    let me = b.rank();
    let mut blocks: Vec<SgList> = (0..p).map(|j| own.slice(j * n, n)).collect();
    // MPICH staggers peers by rank to avoid hot receivers.
    for i in 1..p {
        let to = (me + i) % p;
        let from = pmod(me as isize - i as isize, p);
        b.send(to, tags::ALLTOALL_SPREAD, own.slice(to * n, n));
        let region = b.alloc(n);
        b.recv(from, tags::ALLTOALL_SPREAD, region.clone());
        blocks[from] = region;
    }
    SgList::concat(&blocks)
}

/// Lower a radix-`r` Bruck alltoall into `b`.
///
/// Phase 1 rotates block `dest` to index `j = (dest - me) mod p` ("distance
/// still to travel") — a pure view permutation. Phase 2 processes `j`
/// digit-by-digit in base `r`: for digit position `d` with value `v ≥ 1`,
/// every block whose `d`-th digit is `v` hops `v·r^d` ranks forward in one
/// bundled message. After all digits, index `j` holds the block *from* rank
/// `(me - j) mod p` destined to me; phase 3 reorders to source order,
/// again as views.
pub(crate) fn build_alltoall_bruck(
    b: &mut ScheduleBuilder,
    r: usize,
    own: SgList,
    n: usize,
) -> SgList {
    assert!(r >= 2, "Bruck radix must be at least 2");
    let p = b.p();
    let me = b.rank();
    if p == 1 {
        return own;
    }
    // Phase 1: rotate (views only).
    let mut buf: Vec<SgList> = (0..p)
        .map(|j| {
            let dest = (me + j) % p;
            own.slice(dest * n, n)
        })
        .collect();
    // Phase 2: digit rounds.
    let mut stride = 1usize; // r^d
    let mut round = 0u32;
    while stride < p {
        for v in 1..r {
            let hop = v * stride;
            if hop >= p {
                break;
            }
            let indices: Vec<usize> = (0..p).filter(|&j| (j / stride) % r == v).collect();
            if indices.is_empty() {
                continue;
            }
            b.mark("a2a-bruck", round);
            let tag = tags::ALLTOALL_BRUCK + round;
            let bundle = SgList::concat(indices.iter().map(|&j| &buf[j]));
            let to = (me + hop) % p;
            let from = pmod(me as isize - hop as isize, p);
            let region = b.alloc(indices.len() * n);
            b.sendrecv(to, tag, bundle, from, tag, region.clone());
            for (slot, &j) in indices.iter().enumerate() {
                buf[j] = region.slice(slot * n, n);
            }
            round += 1;
        }
        stride *= r;
    }
    // Phase 3: index j holds the block from rank (me - j) mod p.
    let mut out: Vec<SgList> = vec![SgList::empty(); p];
    for (j, view) in buf.into_iter().enumerate() {
        out[pmod(me as isize - j as isize, p)] = view;
    }
    SgList::concat(&out)
}

/// Number of communication rounds radix-`r` Bruck uses for `p` ranks.
pub fn bruck_rounds(p: usize, r: usize) -> usize {
    let mut rounds = 0;
    let mut stride = 1usize;
    while stride < p {
        for v in 1..r {
            if v * stride < p {
                rounds += 1;
            }
        }
        stride *= r;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{execute, Algorithm, CollArgs, CollectiveOp};
    use exacoll_comm::{run_ranks, Comm, CommResult};

    /// Run the registry's alltoall `alg` on this rank's `p` blocks.
    fn alltoall<C: Comm>(c: &mut C, alg: Algorithm, input: &[u8]) -> CommResult<Vec<u8>> {
        execute(c, &CollArgs::new(CollectiveOp::Alltoall, alg), input)
    }

    fn rank_input(rank: usize, p: usize, n: usize) -> Vec<u8> {
        // Block j of rank `rank` is tagged with (rank, j).
        (0..p)
            .flat_map(|j| (0..n).map(move |b| (rank * 31 + j * 7 + b) as u8))
            .collect()
    }

    fn expected(me: usize, p: usize, n: usize) -> Vec<u8> {
        // out block i = rank i's block for me.
        (0..p)
            .flat_map(|i| {
                let all = rank_input(i, p, n);
                all[me * n..(me + 1) * n].to_vec()
            })
            .collect()
    }

    fn check(p: usize, n: usize, alg: Algorithm) {
        let out = run_ranks(p, |c| alltoall(c, alg, &rank_input(c.rank(), p, n)));
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o, &expected(r, p, n), "{alg} p={p} n={n} rank={r}");
        }
    }

    #[test]
    fn pairwise_counts() {
        for p in [1usize, 2, 3, 5, 8, 12] {
            check(p, 4, Algorithm::Pairwise);
        }
    }

    #[test]
    fn spread_counts() {
        for p in [1usize, 2, 4, 7, 9] {
            check(p, 5, Algorithm::Linear);
        }
    }

    #[test]
    fn bruck_all_radixes_and_counts() {
        for p in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17] {
            for r in [2usize, 3, 4, 8] {
                check(p, 3, Algorithm::GeneralizedBruck { r });
            }
        }
    }

    #[test]
    fn bruck_radix_p_is_one_shot() {
        // r >= p degenerates to direct exchange in one digit position.
        check(6, 4, Algorithm::GeneralizedBruck { r: 6 });
        assert_eq!(bruck_rounds(6, 6), 5);
    }

    #[test]
    fn bruck_round_counts() {
        assert_eq!(bruck_rounds(8, 2), 3); // log2
        assert_eq!(bruck_rounds(9, 3), 4); // 2 digits x 2 values
        assert_eq!(bruck_rounds(16, 4), 6); // 2 digits x 3 values
        assert_eq!(bruck_rounds(1, 2), 0);
        // Larger radix: fewer digit positions but more values per digit.
        assert!(bruck_rounds(64, 8) > bruck_rounds(64, 2) && bruck_rounds(64, 8) == 14);
    }

    #[test]
    fn zero_byte_blocks() {
        check(6, 0, Algorithm::GeneralizedBruck { r: 3 });
        check(6, 0, Algorithm::Pairwise);
    }

    #[test]
    #[should_panic(expected = "equal size")]
    fn ragged_input_rejected() {
        exacoll_comm::record_traces(4, |c| {
            alltoall(c, Algorithm::Pairwise, &[0u8; 7]).map(|_| ())
        });
    }
}
