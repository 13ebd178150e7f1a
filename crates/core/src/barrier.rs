//! Generalized dissemination barrier.
//!
//! An extension in the spirit of the paper: the n-way dissemination barrier
//! of Hoefler et al. (cited in §VII) is to the classic dissemination
//! barrier what k-nomial is to binomial — the fan-out per round is a
//! tunable radix. With radix `k`, round `i` has every rank notify the
//! `k-1` ranks at distances `j·k^i` (mod p), completing in
//! `ceil(log_k p)` rounds instead of `ceil(log_2 p)`.
//!
//! Barrier messages are empty; only the synchronization structure matters.
//! The lowering emits zero-byte sends and receives, and the flush each
//! round mark implies yields exactly one wait per round.

use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;

/// Lower a radix-`k` dissemination barrier into `b`: a rank's plan ends
/// only after every rank has entered. `k = 2` is the classic dissemination
/// barrier.
pub(crate) fn build_barrier_dissemination(b: &mut ScheduleBuilder, k: usize) {
    assert!(k >= 2, "dissemination radix must be at least 2");
    let p = b.p();
    let me = b.rank();
    if p == 1 {
        return;
    }
    let mut stride = 1usize;
    let mut round = 0u32;
    while stride < p {
        b.mark("bar-dissem", round);
        let tag = tags::BARRIER + round;
        for j in 1..k {
            let dist = j * stride;
            if dist >= p {
                break;
            }
            let to = (me + dist) % p;
            let from = (me + p - dist % p) % p;
            b.send(to, tag, SgList::empty());
            b.recv(from, tag, SgList::empty());
        }
        stride *= k;
        round += 1;
    }
}

/// Number of rounds the k-dissemination barrier takes: `ceil(log_k p)`.
pub fn dissemination_rounds(p: usize, k: usize) -> usize {
    let mut rounds = 0;
    let mut stride = 1usize;
    while stride < p {
        stride = stride.saturating_mul(k);
        rounds += 1;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{execute, Algorithm, CollArgs, CollectiveOp};
    use exacoll_comm::{run_ranks, Comm, CommResult};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn barrier_dissemination<C: Comm>(c: &mut C, k: usize) -> CommResult<()> {
        let args = CollArgs::new(CollectiveOp::Barrier, Algorithm::Dissemination { k });
        execute(c, &args, &[]).map(|_| ())
    }

    #[test]
    fn rounds_formula() {
        assert_eq!(dissemination_rounds(1, 2), 0);
        assert_eq!(dissemination_rounds(8, 2), 3);
        assert_eq!(dissemination_rounds(9, 2), 4);
        assert_eq!(dissemination_rounds(9, 3), 2);
        assert_eq!(dissemination_rounds(100, 10), 2);
    }

    /// The synchronization property: every rank increments a counter before
    /// the barrier; after the barrier every rank must observe all p
    /// increments.
    fn check_synchronizes(p: usize, k: usize) {
        let entered = AtomicUsize::new(0);
        let observed = run_ranks(p, |c| {
            entered.fetch_add(1, Ordering::SeqCst);
            barrier_dissemination(c, k)?;
            Ok(entered.load(Ordering::SeqCst))
        });
        for (r, &seen) in observed.iter().enumerate() {
            assert_eq!(seen, p, "rank {r} exited before all entered (p={p}, k={k})");
        }
    }

    #[test]
    fn synchronizes_all_radixes_and_counts() {
        for p in [1usize, 2, 3, 5, 8, 9, 16, 17] {
            for k in [2usize, 3, 4, 8] {
                check_synchronizes(p, k);
            }
        }
    }

    #[test]
    fn repeated_barriers_do_not_interfere() {
        let out = run_ranks(6, |c| {
            for _ in 0..10 {
                barrier_dissemination(c, 3)?;
            }
            Ok(())
        });
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn higher_radix_needs_fewer_rounds_in_simulation() {
        use exacoll_comm::record_traces;
        let p = 64;
        let count_rounds = |k: usize| {
            let traces = record_traces(p, |c| barrier_dissemination(c, k));
            traces[0]
                .ops
                .iter()
                .filter(|o| matches!(o, exacoll_comm::TraceOp::WaitAll { .. }))
                .count()
        };
        assert_eq!(count_rounds(2), 6);
        assert_eq!(count_rounds(4), 3);
        assert_eq!(count_rounds(8), 2);
        assert_eq!(count_rounds(64), 1);
    }
}
