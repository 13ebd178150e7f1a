//! Seeded, deterministic fault injection for any [`Comm`] backend.
//!
//! [`FaultComm`] wraps an inner communicator and perturbs its traffic
//! according to a [`FaultPlan`]: dropping, delaying, duplicating, or
//! corrupting outgoing messages, and killing a chosen rank once it reaches a
//! chosen operation index. Every decision is drawn from a per-rank
//! [SplitMix64] stream seeded from `(plan.seed, rank)`, so the injected
//! event sequence depends only on the plan and each rank's own operation
//! order — never on thread interleaving. Running the same plan twice yields
//! byte-identical [`FaultEvent`] logs, which is what makes chaos failures
//! reproducible from a seed.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use crate::comm::{Comm, Req};
use crate::engine::ReqTable;
use crate::error::{CommError, CommResult};
use crate::thread_rt::AbortHandle;
use crate::types::{Rank, Tag};
use std::time::Duration;

/// Kill one rank when it reaches a given operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The victim rank.
    pub rank: Rank,
    /// Zero-based index (counting `isend`s and `irecv`s) at which it dies.
    pub at_op: usize,
}

/// What faults to inject, with what probabilities.
///
/// Probabilities are per outgoing message and independent; `0.0` disables a
/// fault class, `1.0` applies it to every send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-rank decision streams.
    pub seed: u64,
    /// Probability an outgoing message is silently discarded.
    pub drop_prob: f64,
    /// Probability an outgoing message is delayed before posting.
    pub delay_prob: f64,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
    /// Probability an outgoing message is sent twice.
    pub duplicate_prob: f64,
    /// Probability one byte of an outgoing payload is flipped.
    pub corrupt_prob: f64,
    /// Optional kill of one rank at one operation index.
    pub kill: Option<KillSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a baseline).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
            kill: None,
        }
    }

    /// Drop each outgoing message with probability `p`.
    pub fn drops(mut self, p: f64) -> FaultPlan {
        self.drop_prob = p;
        self
    }

    /// Delay each outgoing message with probability `p`, by up to `max`.
    pub fn delays(mut self, p: f64, max: Duration) -> FaultPlan {
        self.delay_prob = p;
        self.max_delay = max;
        self
    }

    /// Duplicate each outgoing message with probability `p`.
    pub fn duplicates(mut self, p: f64) -> FaultPlan {
        self.duplicate_prob = p;
        self
    }

    /// Flip one byte of each outgoing payload with probability `p`.
    pub fn corrupts(mut self, p: f64) -> FaultPlan {
        self.corrupt_prob = p;
        self
    }

    /// Kill `rank` when it reaches operation `at_op`.
    pub fn kills(mut self, rank: Rank, at_op: usize) -> FaultPlan {
        self.kill = Some(KillSpec { rank, at_op });
        self
    }
}

/// One injected fault, as recorded in the event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Message to `to` with `tag` (`bytes` long) was discarded.
    Drop {
        /// Injecting rank's op index.
        op: usize,
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: usize,
    },
    /// Message to `to` was held back for `delay_us` microseconds.
    Delay {
        /// Injecting rank's op index.
        op: usize,
        /// Destination rank.
        to: Rank,
        /// Injected delay in microseconds.
        delay_us: u64,
    },
    /// Message to `to` with `tag` was sent twice.
    Duplicate {
        /// Injecting rank's op index.
        op: usize,
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
    },
    /// Byte `index` of the payload to `to` was flipped.
    Corrupt {
        /// Injecting rank's op index.
        op: usize,
        /// Destination rank.
        to: Rank,
        /// Flipped byte offset.
        index: usize,
    },
    /// This rank died at `op`.
    Kill {
        /// Op index at which the rank died.
        op: usize,
    },
}

/// Minimal SplitMix64; kept local so `exacoll-comm` stays dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn roll(&mut self, p: f64) -> bool {
        // Always consume one draw so the stream position depends only on
        // the op sequence, not on which fault classes are enabled.
        self.next_f64() < p
    }
}

/// Request bookkeeping: outer handles map onto inner ones, except for
/// dropped sends which complete trivially.
enum FReq {
    Inner(Req),
    DroppedSend,
}

/// A fault-injecting wrapper around any [`Comm`].
///
/// Collective algorithms run against it unchanged; the wrapper perturbs
/// outgoing traffic per its [`FaultPlan`] and records every injection in an
/// event log (see [`FaultComm::events`]).
pub struct FaultComm<C: Comm> {
    inner: C,
    plan: FaultPlan,
    rng: SplitMix64,
    /// Count of posted operations (isend + irecv), the kill clock.
    ops: usize,
    killed: bool,
    events: Vec<FaultEvent>,
    reqs: ReqTable<FReq>,
    /// On the threaded backend a kill also aborts the whole world, so
    /// surviving ranks fail fast instead of timing out.
    abort: Option<AbortHandle>,
}

impl<C: Comm> FaultComm<C> {
    /// Wrap `inner` under `plan`. The decision stream is seeded from
    /// `(plan.seed, inner.rank())`.
    pub fn new(inner: C, plan: FaultPlan) -> FaultComm<C> {
        // Decorrelate per-rank streams: mix the rank into the seed through
        // one SplitMix64 step.
        let mut seeder =
            SplitMix64(plan.seed ^ (inner.rank() as u64).wrapping_mul(0x5851_F42D_4C95_7F2D));
        let state = seeder.next_u64();
        FaultComm {
            inner,
            plan,
            rng: SplitMix64(state),
            ops: 0,
            killed: false,
            events: Vec::new(),
            reqs: ReqTable::default(),
            abort: None,
        }
    }

    /// Attach an abort handle so a kill takes the whole world down
    /// cooperatively (threaded backend).
    pub fn with_abort(mut self, handle: AbortHandle) -> FaultComm<C> {
        self.abort = Some(handle);
        self
    }

    /// The injected-fault log, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Consume the wrapper, returning the event log.
    pub fn into_events(self) -> Vec<FaultEvent> {
        self.events
    }

    /// Advance the op clock; dies here if the kill point is reached.
    fn tick(&mut self) -> CommResult<usize> {
        let rank = self.inner.rank();
        if self.killed {
            return Err(CommError::Aborted { origin: rank });
        }
        if let Some(k) = self.plan.kill {
            if k.rank == rank && self.ops == k.at_op {
                self.killed = true;
                self.events.push(FaultEvent::Kill { op: self.ops });
                if let Some(h) = &self.abort {
                    h.abort(rank);
                }
                return Err(CommError::Aborted { origin: rank });
            }
        }
        let op = self.ops;
        self.ops += 1;
        Ok(op)
    }
}

impl<C: Comm> Comm for FaultComm<C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn isend(&mut self, to: Rank, tag: Tag, mut data: Vec<u8>) -> CommResult<Req> {
        let op = self.tick()?;
        if self.rng.roll(self.plan.drop_prob) {
            self.events.push(FaultEvent::Drop {
                op,
                to,
                tag,
                bytes: data.len(),
            });
            return Ok(self.reqs.post(FReq::DroppedSend));
        }
        if self.rng.roll(self.plan.delay_prob) {
            let max_us = self.plan.max_delay.as_micros().max(1) as u64;
            let delay_us = self.rng.next_u64() % max_us;
            self.events.push(FaultEvent::Delay { op, to, delay_us });
            std::thread::sleep(Duration::from_micros(delay_us));
        }
        if self.rng.roll(self.plan.corrupt_prob) && !data.is_empty() {
            let index = (self.rng.next_u64() as usize) % data.len();
            data[index] ^= 0xA5;
            self.events.push(FaultEvent::Corrupt { op, to, index });
        }
        let duplicate = self.rng.roll(self.plan.duplicate_prob);
        if duplicate {
            self.events.push(FaultEvent::Duplicate { op, to, tag });
            let extra = self.inner.isend(to, tag, data.clone())?;
            // Sends complete eagerly on every backend; retire the shadow
            // request immediately so handles stay balanced.
            self.inner.wait(extra)?;
        }
        let r = self.inner.isend(to, tag, data)?;
        Ok(self.reqs.post(FReq::Inner(r)))
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        self.tick()?;
        let r = self.inner.irecv(from, tag, bytes)?;
        Ok(self.reqs.post(FReq::Inner(r)))
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        if self.killed {
            return Err(CommError::Aborted {
                origin: self.inner.rank(),
            });
        }
        match self.reqs.take(req)? {
            FReq::Inner(r) => self.inner.wait(r),
            FReq::DroppedSend => Ok(None),
        }
    }

    fn compute(&mut self, bytes: usize) {
        self.inner.compute(bytes)
    }

    fn mark(&mut self, label: &'static str, round: u32) {
        self.inner.mark(label, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_rt::{try_run_ranks, ThreadComm};
    use std::sync::Mutex;

    /// Run a small all-to-root exchange under `plan`, returning each rank's
    /// (result, event log).
    fn run_plan(p: usize, plan: FaultPlan) -> Vec<(CommResult<Vec<u8>>, Vec<FaultEvent>)> {
        let logs: Mutex<Vec<Option<Vec<FaultEvent>>>> = Mutex::new(vec![None; p]);
        let results = try_run_ranks(p, |c: &mut ThreadComm| {
            let rank = c.rank();
            let abort = c.abort_handle();
            let mut fc = FaultComm::new(&mut *c, plan).with_abort(abort);
            let res = if rank == 0 {
                let mut all = Vec::new();
                for r in 1..p {
                    all.extend(fc.recv(r, 0, 16)?);
                }
                Ok(all)
            } else {
                fc.send(0, 0, vec![rank as u8; 4]).map(|()| Vec::new())
            };
            logs.lock().unwrap()[rank] = Some(fc.into_events());
            res
        });
        let logs = logs.into_inner().unwrap();
        results
            .into_iter()
            .zip(logs)
            .map(|(r, l)| (r, l.unwrap_or_default()))
            .collect()
    }

    #[test]
    fn no_faults_is_transparent() {
        let out = run_plan(4, FaultPlan::none(7));
        assert_eq!(out[0].0.as_ref().unwrap().len(), 3 * 4);
        for (res, log) in &out {
            assert!(res.is_ok());
            assert!(log.is_empty());
        }
    }

    #[test]
    fn same_seed_same_event_sequence() {
        let plan = FaultPlan::none(42).drops(0.3).corrupts(0.3).duplicates(0.3);
        let a = run_plan(5, plan);
        let b = run_plan(5, plan);
        for rank in 0..5 {
            assert_eq!(a[rank].1, b[rank].1, "rank {rank} log diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        // With 4 senders at 50% drop, identical logs across two seeds would
        // mean the seed is ignored.
        let a = run_plan(5, FaultPlan::none(1).drops(0.5));
        let b = run_plan(5, FaultPlan::none(2).drops(0.5));
        let logs_a: Vec<_> = a.iter().map(|(_, l)| l.clone()).collect();
        let logs_b: Vec<_> = b.iter().map(|(_, l)| l.clone()).collect();
        assert_ne!(logs_a, logs_b);
    }

    #[test]
    fn certain_drop_times_out_the_receiver() {
        use crate::thread_rt::{try_run_ranks_with, WorldOptions};
        let plan = FaultPlan::none(3).drops(1.0);
        let opts = WorldOptions {
            deadline: Duration::from_millis(200),
        };
        let results = try_run_ranks_with(2, opts, |c: &mut ThreadComm| {
            let rank = c.rank();
            let mut fc = FaultComm::new(&mut *c, plan);
            if rank == 0 {
                let res = fc.send(1, 0, vec![1, 2, 3]).map(|()| Vec::new());
                // Outlive the receiver's deadline so it observes Timeout
                // rather than our departure poison.
                std::thread::sleep(Duration::from_millis(500));
                res
            } else {
                fc.recv(0, 0, 3)
            }
        });
        // The sender "succeeds" (eager drop), the receiver times out cleanly.
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CommError::Timeout {
                rank: 1,
                from: 0,
                ..
            })
        ));
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let plan = FaultPlan::none(9).corrupts(1.0);
        let results = try_run_ranks(2, |c: &mut ThreadComm| {
            let rank = c.rank();
            let mut fc = FaultComm::new(&mut *c, plan);
            if rank == 0 {
                fc.send(1, 0, vec![0u8; 8]).map(|()| Vec::new())
            } else {
                fc.recv(0, 0, 8)
            }
        });
        let got = results[1].as_ref().unwrap();
        let flipped = got.iter().filter(|&&b| b != 0).count();
        assert_eq!(flipped, 1);
        assert!(got.contains(&0xA5));
    }

    #[test]
    fn kill_aborts_victim_and_world() {
        let plan = FaultPlan::none(11).kills(1, 0);
        let results = try_run_ranks(3, |c: &mut ThreadComm| {
            let rank = c.rank();
            let abort = c.abort_handle();
            let mut fc = FaultComm::new(&mut *c, plan).with_abort(abort);
            if rank == 0 {
                let a = fc.recv(1, 0, 4)?;
                let b = fc.recv(2, 0, 4)?;
                Ok([a, b].concat())
            } else {
                fc.send(0, 0, vec![rank as u8; 4]).map(|()| Vec::new())
            }
        });
        assert_eq!(results[1], Err(CommError::Aborted { origin: 1 }));
        // Rank 0 blocks on the dead rank and the abort flag frees it.
        assert!(matches!(results[0], Err(CommError::Aborted { origin: 1 })));
    }

    #[test]
    fn request_table_is_reclaimed_but_handles_are_never_reused() {
        let results = try_run_ranks(2, |c: &mut ThreadComm| {
            let peer = 1 - c.rank();
            let mut fc = FaultComm::new(&mut *c, FaultPlan::none(5));
            let sent = fc.isend(peer, 0, vec![1])?;
            let stale = sent.0;
            let posted = fc.irecv(peer, 0, 1)?;
            fc.waitall(vec![sent, posted])?;
            for _ in 0..100_000 {
                fc.sendrecv(peer, 1, vec![0u8; 8], peer, 1, 8)?;
            }
            // Two requests in flight at most: the wrapper's table never
            // outgrew the smallest allocation a `Vec` makes, the handles
            // kept counting, and a consumed one stays unknown.
            assert!(fc.reqs.capacity() <= 4, "{}", fc.reqs.capacity());
            assert_eq!(fc.irecv(peer, 2, 1)?.0, 2 + 200_000);
            assert_eq!(
                fc.wait(Req(stale)),
                Err(CommError::UnknownRequest { handle: stale })
            );
            Ok(())
        });
        assert_eq!(results, vec![Ok(()), Ok(())]);
    }

    #[test]
    fn duplicates_preserve_payload() {
        let plan = FaultPlan::none(13).duplicates(1.0);
        let results = try_run_ranks(2, |c: &mut ThreadComm| {
            let rank = c.rank();
            let mut fc = FaultComm::new(&mut *c, plan);
            if rank == 0 {
                fc.send(1, 0, vec![7u8; 4]).map(|()| Vec::new())
            } else {
                // Both copies arrive; both match (same source, tag, bytes).
                let a = fc.recv(0, 0, 4)?;
                let b = fc.recv(0, 0, 4)?;
                assert_eq!(a, b);
                Ok(a)
            }
        });
        assert_eq!(results[1].as_ref().unwrap(), &vec![7u8; 4]);
    }
}
