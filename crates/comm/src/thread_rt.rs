//! Threaded real-data transport: every rank is an OS thread, messages are
//! real byte buffers moved between per-rank mailboxes.
//!
//! This backend exists to *prove* the collective algorithms correct: the test
//! suite runs every algorithm here with randomized inputs and compares the
//! results against sequential references. The MPI semantics — matching,
//! ordering, requests, the error taxonomy and the hang-free guarantee — are
//! [`crate::engine`]'s; this file is what is particular to threads:
//!
//! * one mailbox per rank — envelopes behind a mutex, and a condition
//!   variable its owner parks on — into which an owned payload is *moved*,
//! * sender-side landing: a rank parked in `progress` publishes its
//!   [`Posted`] and [`Inbox`] in its mailbox, and a sender whose message
//!   [`Posted::claim`] admits writes it there itself, under the mutex —
//!   written over the destination or folded into it, one pass where
//!   an envelope costs a gather, a scatter and a re-read. No rendezvous: a
//!   message nobody is parked for is an envelope,
//! * a `Gone` envelope to every peer when an endpoint drops (normal exit,
//!   error return, or panic), behind everything the rank sent,
//! * a world-wide abort flag ([`AbortHandle`]) that no message announces:
//!   raising it wakes every parked rank, which reads it under its own
//!   mailbox's mutex before it parks, so a rank parks until an envelope, a
//!   landing, an abort or the deadline,
//! * the scoped-thread harness ([`run_ranks`] and friends) every backend's
//!   in-process runner is built on.

use crate::engine::{Engine, Inbox, Payload, Posted, Transport};
use crate::error::{CommError, CommResult};
use crate::types::{Rank, Tag};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// An in-flight envelope: a payload or a departure notice.
enum Envelope {
    /// A message: (source, tag, payload).
    Msg(Rank, Tag, Vec<u8>),
    /// `from`'s endpoint was dropped; no further messages will arrive.
    Gone(Rank),
}

/// A clonable handle that can abort every rank of a world. Used by
/// fault-injection kills and available to tests via
/// [`ThreadComm::abort_handle`].
#[derive(Clone)]
pub struct AbortHandle {
    /// `usize::MAX` = not aborted, otherwise the origin rank. The first
    /// abort wins attribution.
    origin: Arc<AtomicUsize>,
    /// The world's mailboxes, whose parked owners an abort wakes.
    slots: Arc<[Slot]>,
}

impl AbortHandle {
    /// Raise the world-wide abort flag, attributing it to `origin`, and
    /// wake every parked rank. Idempotent; the first origin wins.
    pub fn abort(&self, origin: Rank) {
        let _ =
            self.origin
                .compare_exchange(usize::MAX, origin, Ordering::AcqRel, Ordering::Acquire);
        // Under each mutex: its owner either read the flag before it parked
        // or is parked by now and gets this wake-up.
        for slot in self.slots.iter() {
            let _state = lock(&slot.state);
            slot.ready.notify_all();
        }
    }

    /// The origin rank if the world has been aborted.
    #[inline]
    pub fn aborted(&self) -> Option<Rank> {
        match self.origin.load(Ordering::Acquire) {
            usize::MAX => None,
            origin => Some(origin),
        }
    }
}

/// Construction options for a threaded world.
#[derive(Debug, Clone, Copy)]
pub struct WorldOptions {
    /// Upper bound on how long any single blocking receive may wait before
    /// failing with [`CommError::Timeout`].
    pub deadline: Duration,
}

impl Default for WorldOptions {
    fn default() -> Self {
        // Generous enough that only genuine hangs hit it, even for large
        // debug-mode collectives under CI contention.
        WorldOptions {
            deadline: Duration::from_secs(60),
        }
    }
}

/// One rank's mailbox, shared by the whole world; its owner parks on
/// `ready`.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Default)]
struct SlotState {
    queue: VecDeque<Envelope>,
    /// Set while the owner is parked in `progress`.
    parked: Option<Parked>,
    /// The owner's endpoint has been dropped.
    gone: bool,
    /// Payload bytes senders landed in the owner's receives.
    #[cfg(test)]
    landed: usize,
    /// Times the owner's park returned.
    #[cfg(test)]
    wakes: usize,
}

/// What a parked rank is blocked on.
struct Parked {
    posted: *mut Posted<'static>,
    inbox: *const Inbox,
}

// SAFETY: the pointers are dereferenced only by a thread holding the slot's
// mutex while they are published (see `SlotState::land`), so moving them
// between threads inside the mutex never lets two threads use them at once.
unsafe impl Send for Parked {}

/// Lock a slot. A thread that panicked holding it left the slot's own
/// fields consistent; a landing it cut short is its receiver's, who fails
/// that receive when the sender's departure arrives.
fn lock(state: &Mutex<SlotState>) -> MutexGuard<'_, SlotState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SlotState {
    /// Land `from`'s message straight in the parked owner's posted receive,
    /// if the owner is parked and may take it now: nothing of `from`'s is
    /// still queued here ahead of it, and [`Posted::claim`] grants it.
    fn land(&mut self, from: Rank, tag: Tag, payload: &Payload<'_>) -> bool {
        let Some(parked) = &self.parked else {
            return false;
        };
        if (self.queue.iter()).any(|e| matches!(e, Envelope::Msg(src, ..) if *src == from)) {
            return false;
        }
        // SAFETY: `parked` is published by its owner from live `&mut`
        // borrows it does not touch while it waits, and cleared under this
        // mutex before it touches them again (also on unwind, by `Unpark`).
        // This thread holds the mutex, so the owner is still waiting and no
        // other sender is using them.
        let (posted, inbox) = unsafe { (&mut *parked.posted, &*parked.inbox) };
        let len = match payload {
            Payload::Owned(data) => data.len(),
            Payload::View(view) => view.len(),
        };
        if !posted.claim(inbox, from, tag, len) {
            return false;
        }
        match payload {
            Payload::Owned(data) => posted.write(from, data),
            Payload::View(view) => view.segments().for_each(|seg| posted.write(from, seg)),
        }
        #[cfg(test)]
        {
            self.landed += len;
        }
        true
    }
}

/// Clears what a parked rank published if its wait unwinds; a wait that
/// returns clears it under the lock it returns with and forgets this.
struct Unpark<'s>(&'s Mutex<SlotState>);

impl Drop for Unpark<'_> {
    fn drop(&mut self) {
        lock(self.0).parked = None;
    }
}

/// One rank's side of the mailboxes.
pub struct Mailbox {
    rank: Rank,
    slots: Arc<[Slot]>,
    abort: AbortHandle,
}

/// One rank's endpoint in the threaded runtime.
pub type ThreadComm = Engine<Mailbox>;

impl ThreadComm {
    /// A handle that can abort every rank of this world.
    pub fn abort_handle(&self) -> AbortHandle {
        self.transport().abort.clone()
    }
}

impl Mailbox {
    /// Hand `envelope` to `to`'s mailbox and wake its owner if it is
    /// parked; an owner that is not looks at its queue before it parks.
    fn post(&self, to: Rank, envelope: Envelope) -> CommResult<()> {
        let slot = &self.slots[to];
        let mut state = lock(&slot.state);
        if state.gone {
            return Err(CommError::PeerGone { peer: to });
        }
        state.queue.push_back(envelope);
        let parked = state.parked.is_some();
        drop(state);
        if parked {
            slot.ready.notify_one();
        }
        Ok(())
    }

    /// Payload bytes senders have landed in this rank's receives.
    #[cfg(test)]
    fn landed(&self) -> usize {
        lock(&self.slots[self.rank].state).landed
    }
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        let mut own = lock(&self.slots[self.rank].state);
        own.gone = true;
        own.queue.clear();
        drop(own);
        // Departure poison: tell every peer no further messages will come
        // from this rank. Mailboxes whose owner is already gone are fine.
        for peer in (0..self.slots.len()).filter(|&peer| peer != self.rank) {
            let _ = self.post(peer, Envelope::Gone(self.rank));
        }
    }
}

impl Transport for Mailbox {
    #[inline]
    fn send(
        &mut self,
        _inbox: &mut Inbox,
        to: Rank,
        tag: Tag,
        payload: Payload<'_>,
        _deadline: Duration,
    ) -> CommResult<()> {
        let slot = &self.slots[to];
        if lock(&slot.state).land(self.rank, tag, &payload) {
            slot.ready.notify_one();
            return Ok(());
        }
        // Gathered outside the lock: nothing of this rank's can overtake
        // the envelope meanwhile.
        self.post(to, Envelope::Msg(self.rank, tag, payload.into_vec()))
    }

    #[inline]
    fn progress(
        &mut self,
        inbox: &mut Inbox,
        posted: &mut Posted<'_>,
        timeout: Duration,
        from: Option<Rank>,
    ) {
        // One mailbox whoever is asked for: a look at `from` would be the
        // receive the park after it starts with, and costs a fence when it
        // comes up empty.
        if from.is_some() {
            return;
        }
        // One envelope per call; with nothing queued the rank parks until
        // an envelope, a landing, an abort or `timeout`, its receives open
        // to senders meanwhile. The abort flag is read under the mutex an
        // abort takes to wake it, so its wake-up is never lost.
        let slot = &self.slots[self.rank];
        let envelope = {
            let mut state = lock(&slot.state);
            if state.queue.is_empty() && !timeout.is_zero() && self.abort.aborted().is_none() {
                state.parked = Some(Parked {
                    posted: std::ptr::from_mut(posted).cast(),
                    inbox: std::ptr::from_ref(inbox),
                });
                let unpark = Unpark(&slot.state);
                let waited = slot.ready.wait_timeout(state, timeout);
                state = waited.unwrap_or_else(PoisonError::into_inner).0;
                state.parked = None;
                #[cfg(test)]
                {
                    state.wakes += 1;
                }
                std::mem::forget(unpark);
            }
            state.queue.pop_front()
        };
        match envelope {
            Some(Envelope::Msg(from, tag, data)) => inbox.deliver(from, tag, data),
            Some(Envelope::Gone(peer)) => inbox.depart(peer),
            None => {}
        }
    }

    #[inline]
    fn aborted(&self) -> Option<Rank> {
        self.abort.aborted()
    }
}

/// The `p` endpoints of a fresh size-`p` communicator, in rank order.
fn world(p: usize, opts: WorldOptions) -> Vec<ThreadComm> {
    assert!(p > 0, "communicator must have at least one rank");
    let slots: Arc<[Slot]> = (0..p).map(|_| Slot::default()).collect();
    let abort = AbortHandle {
        origin: Arc::new(AtomicUsize::new(usize::MAX)),
        slots: slots.clone(),
    };
    (0..p)
        .map(|rank| {
            let mailbox = Mailbox {
                rank,
                slots: slots.clone(),
                abort: abort.clone(),
            };
            Engine::new(rank, p, opts.deadline, mailbox)
        })
        .collect()
}

/// Render a panic payload as a string for [`CommError::RankPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The scoped-thread rank runner under every in-process harness: one OS
/// thread per entry of `seeds`, running `body(rank, seed)`, results in rank
/// order. A panicking rank yields [`CommError::RankPanicked`]; whatever
/// endpoint `body` owned is dropped by then, which unblocks its peers.
pub fn run_scoped<S, T, F>(seeds: Vec<S>, body: F) -> Vec<CommResult<T>>
where
    S: Send,
    T: Send,
    F: Fn(Rank, S) -> CommResult<T> + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .into_iter()
            .enumerate()
            .map(|(rank, seed)| {
                let body = &body;
                scope.spawn(move || {
                    std::panic::catch_unwind(AssertUnwindSafe(|| body(rank, seed))).unwrap_or_else(
                        |payload| {
                            Err(CommError::RankPanicked {
                                rank,
                                message: panic_message(payload.as_ref()),
                            })
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread infrastructure panicked"))
            .collect()
    })
}

/// Unwrap per-rank results, panicking with **every** failing rank (not just
/// the first) so a collective bug that takes down several ranks diagnoses
/// itself in one run.
pub fn expect_all_ranks<T>(results: Vec<CommResult<T>>) -> Vec<T> {
    let p = results.len();
    let mut out = Vec::with_capacity(p);
    let mut failures = Vec::new();
    for (rank, res) in results.into_iter().enumerate() {
        match res {
            Ok(v) => out.push(v),
            Err(e) => failures.push(format!("rank {rank}: {e}")),
        }
    }
    if !failures.is_empty() {
        panic!(
            "{}/{} ranks failed:\n  {}",
            failures.len(),
            p,
            failures.join("\n  ")
        );
    }
    out
}

/// Run closure `f` on every rank of a fresh size-`p` communicator, one OS
/// thread per rank, and return the per-rank results in rank order.
///
/// Panics if any rank returns an error or panics, reporting every failing
/// rank.
pub fn run_ranks<T, F>(p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> CommResult<T> + Send + Sync,
{
    expect_all_ranks(try_run_ranks(p, f))
}

/// Like [`run_ranks`] but collects per-rank `Result`s instead of panicking,
/// for failure-injection tests.
pub fn try_run_ranks<T, F>(p: usize, f: F) -> Vec<CommResult<T>>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> CommResult<T> + Send + Sync,
{
    try_run_ranks_with(p, WorldOptions::default(), f)
}

/// [`try_run_ranks`] with explicit [`WorldOptions`] (deadline control).
pub fn try_run_ranks_with<T, F>(p: usize, opts: WorldOptions, f: F) -> Vec<CommResult<T>>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> CommResult<T> + Send + Sync,
{
    run_scoped(world(p, opts), |_, mut c| f(&mut c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Comm, Req};

    #[test]
    fn sendrecv_exchanges() {
        let out = run_ranks(2, |c| {
            let peer = 1 - c.rank();
            c.sendrecv(peer, 0, vec![c.rank() as u8], peer, 0, 1)
        });
        assert_eq!(out[0], vec![1]);
        assert_eq!(out[1], vec![0]);
    }

    #[test]
    fn shorter_message_than_posted_is_ok() {
        let out = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![9u8; 4])?;
                Ok(vec![])
            } else {
                c.recv(0, 0, 64)
            }
        });
        assert_eq!(out[1], vec![9u8; 4]);
    }

    #[test]
    fn waitall_many_peers() {
        let p = 8;
        let out = run_ranks(p, |c| {
            if c.rank() == 0 {
                let reqs: Vec<Req> = (1..p)
                    .map(|r| c.irecv(r, 0, 8))
                    .collect::<CommResult<_>>()?;
                let msgs = c.waitall(reqs)?;
                Ok(msgs
                    .into_iter()
                    .map(|m| m.unwrap()[0] as usize)
                    .sum::<usize>())
            } else {
                c.send(0, 0, vec![c.rank() as u8; 8])?;
                Ok(0)
            }
        });
        assert_eq!(out[0], (1..8).sum::<usize>());
    }

    #[test]
    fn waitall_same_tag_pairs_in_posting_order() {
        // Two receives share (from, tag); the first-posted must get the
        // first-sent payload even though waitall matches out of order.
        let out = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 4, vec![10])?;
                c.send(1, 4, vec![20])?;
                Ok(vec![])
            } else {
                let a = c.irecv(0, 4, 1)?;
                let b = c.irecv(0, 4, 1)?;
                let msgs = c.waitall(vec![a, b])?;
                Ok(msgs.into_iter().map(|m| m.unwrap()[0]).collect::<Vec<u8>>())
            }
        });
        assert_eq!(out[1], vec![10, 20]);
    }

    #[test]
    fn large_communicator_all_to_root() {
        let p = 32;
        let out = run_ranks(p, |c| {
            if c.rank() == 0 {
                let mut total = 0usize;
                for r in 1..p {
                    total += c.recv(r, 3, 4)?.len();
                }
                Ok(total)
            } else {
                c.send(0, 3, vec![0u8; 4])?;
                Ok(0)
            }
        });
        assert_eq!(out[0], 31 * 4);
    }

    #[test]
    fn abort_fails_sends_too() {
        let results = try_run_ranks(2, |c| {
            if c.rank() == 0 {
                c.abort_handle().abort(0);
                Err(CommError::Aborted { origin: 0 })
            } else {
                std::thread::sleep(Duration::from_millis(50));
                c.send(0, 0, vec![1, 2, 3])
            }
        });
        assert!(matches!(results[1], Err(CommError::Aborted { origin: 0 })));
    }

    #[test]
    fn a_parked_rank_wakes_only_for_an_event() {
        // Rank 1 parks under the default 60 s deadline for 50 ms: one
        // wake-up for the message, plus one spurious return allowed.
        let out = run_ranks(2, |c| {
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(50));
                c.send(1, 0, vec![1])?;
                return Ok(0);
            }
            assert_eq!(c.recv(0, 0, 1)?, vec![1]);
            Ok(lock(&c.transport().slots[1].state).wakes)
        });
        assert!(out[1] <= 2, "rank 1 woke {} times", out[1]);
    }

    #[test]
    fn an_abort_wakes_a_parked_rank() {
        // Rank 0 stays alive until rank 1 returns, so no departure can be
        // what wakes it: only the abort, well before the 30 s deadline.
        let opts = WorldOptions {
            deadline: Duration::from_secs(30),
        };
        let done = std::sync::atomic::AtomicBool::new(false);
        let results = try_run_ranks_with(2, opts, |c| {
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(50));
                c.abort_handle().abort(0);
                let start = std::time::Instant::now();
                while !done.load(Ordering::Acquire) && start.elapsed().as_secs() < 5 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Ok((None, Duration::ZERO));
            }
            let start = std::time::Instant::now();
            let got = c.recv(0, 0, 1).err();
            done.store(true, Ordering::Release);
            Ok((got, start.elapsed()))
        });
        assert!(
            matches!(&results[1], Ok((Some(CommError::Aborted { origin: 0 }), t))
                if *t < Duration::from_secs(2)),
            "{:?}",
            results[1]
        );
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn a_sender_lands_in_the_receive_a_parked_rank_waits_on() {
        use crate::sg::{Landing, Regions, SgDests};
        use crate::types::{DType, ReduceOp};
        // Each round the receiver parks first: the sender writes the first
        // message into its destination and folds the second into its own,
        // unless it comes while the receiver is between parks.
        let rounds = 5;
        let out = run_ranks(2, |c| {
            if c.rank() == 0 {
                for _ in 0..rounds {
                    std::thread::sleep(Duration::from_millis(20));
                    c.send(1, 3, vec![7; 8])?;
                    c.send(1, 4, 1.5f64.to_le_bytes().to_vec())?;
                }
                return Ok(0);
            }
            let landings = [
                Landing::Copy,
                Landing::Reduce {
                    dtype: DType::F64,
                    op: ReduceOp::Sum,
                },
            ];
            let mut buf = vec![0; 16];
            buf[8..].copy_from_slice(&0.25f64.to_le_bytes());
            for round in 0..rounds {
                let mut reqs = vec![c.irecv(0, 3, 8)?, c.irecv(0, 4, 8)?];
                let dests = SgDests::new(&[0..8, 8..16], &[0..1, 1..2]).landing_into(&landings);
                c.waitall_into(&mut reqs, Regions::one(&mut buf), dests)?;
                let acc = f64::from_le_bytes(buf[8..].try_into().unwrap());
                assert_eq!(
                    (&buf[..8], acc),
                    (&[7; 8][..], 0.25 + 1.5 * (round + 1) as f64)
                );
            }
            Ok(c.transport().landed())
        });
        assert!(out[1] > 0, "no message landed in a parked receiver");
    }

    #[test]
    fn run_ranks_reports_every_failing_rank() {
        let outcome = std::panic::catch_unwind(|| {
            run_ranks(4, |c| {
                if c.rank() % 2 == 1 {
                    Err(CommError::InvalidRank { rank: 99, size: 4 })
                } else {
                    Ok(())
                }
            })
        });
        let msg = panic_message(outcome.unwrap_err().as_ref());
        assert!(msg.contains("2/4 ranks failed"), "got: {msg}");
        assert!(msg.contains("rank 1"), "got: {msg}");
        assert!(msg.contains("rank 3"), "got: {msg}");
    }
}
