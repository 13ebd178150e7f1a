//! Threaded real-data runtime: every rank is an OS thread, messages are real
//! byte buffers over std mpsc channels.
//!
//! This backend exists to *prove* the collective algorithms correct: the test
//! suite runs every algorithm here with randomized inputs and compares the
//! results against sequential references. It implements the MPI semantics
//! that matter for collectives:
//!
//! * eager sends (a send completes locally once buffered),
//! * `(source, tag)` matching with non-overtaking order per (peer, tag),
//! * an unexpected-message queue for messages that arrive before their
//!   receive is posted,
//! * truncation errors when a message is larger than the posted receive.
//!
//! ## Hang-free guarantee
//!
//! No blocking operation parks forever. Three mechanisms cooperate:
//!
//! 1. **Departure poison**: dropping a [`ThreadComm`] endpoint (normal exit,
//!    error return, or panic) broadcasts a `Gone` envelope to every peer, so
//!    a receive from a departed rank fails with [`CommError::PeerGone`]
//!    instead of waiting on a channel that can never produce a message.
//! 2. **Deadline**: every blocking receive is bounded by a configurable
//!    deadline ([`WorldOptions::deadline`]); exceeding it yields
//!    [`CommError::Timeout`] carrying a snapshot of the pending operation.
//! 3. **Cooperative abort**: an [`AbortHandle`] (shared by all endpoints of
//!    a world) lets any rank — or fault-injection code — raise a world-wide
//!    abort flag. Every operation checks the flag and fails promptly with
//!    [`CommError::Aborted`] naming the origin rank.

use crate::comm::{Comm, Req};
use crate::error::{CommError, CommResult};
use crate::types::{Rank, Tag};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An in-flight envelope: a payload or a departure notice.
enum Envelope {
    /// A message: (source, tag, payload).
    Msg(Rank, Tag, Vec<u8>),
    /// `from`'s endpoint was dropped; no further messages will arrive.
    Gone(Rank),
}

/// How long a blocked receive waits between abort-flag checks.
const POLL_QUANTUM: Duration = Duration::from_millis(1);

/// World-wide state shared by all endpoints of one communicator.
struct Shared {
    /// `usize::MAX` = not aborted, otherwise the origin rank. The first
    /// abort wins attribution.
    abort_origin: AtomicUsize,
}

impl Shared {
    fn aborted(&self) -> Option<Rank> {
        match self.abort_origin.load(Ordering::Acquire) {
            usize::MAX => None,
            origin => Some(origin),
        }
    }
}

/// A clonable handle that can abort every rank of a world. Used by
/// fault-injection kills and available to tests via
/// [`ThreadComm::abort_handle`].
#[derive(Clone)]
pub struct AbortHandle {
    shared: Arc<Shared>,
}

impl AbortHandle {
    /// Raise the world-wide abort flag, attributing it to `origin`.
    /// Idempotent; the first origin wins.
    pub fn abort(&self, origin: Rank) {
        let _ = self.shared.abort_origin.compare_exchange(
            usize::MAX,
            origin,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// The origin rank if the world has been aborted.
    pub fn aborted(&self) -> Option<Rank> {
        self.shared.aborted()
    }
}

/// State of a posted request.
enum ReqState {
    /// Send already completed (eager protocol).
    SendDone,
    /// Receive posted, not yet matched.
    RecvPosted { from: Rank, tag: Tag, bytes: usize },
    /// Handle already consumed by `wait`.
    Consumed,
}

/// The posted requests. A handle is `base + index into slots`; when the last
/// live request is consumed the slots are dropped and `base` moves past
/// them, so the table stays as small as the largest batch in flight while
/// handles are still allocated monotonically and never reused — which
/// `TimedComm`'s back-patching and `RecordComm`'s pending map rely on.
#[derive(Default)]
struct ReqTable {
    base: usize,
    slots: Vec<ReqState>,
    live: usize,
}

impl ReqTable {
    fn post(&mut self, state: ReqState) -> Req {
        self.slots.push(state);
        self.live += 1;
        Req(self.base + self.slots.len() - 1)
    }

    /// Consume a request handle, erroring on stale/unknown handles.
    fn take(&mut self, req: Req) -> CommResult<ReqState> {
        let handle = req.0;
        let state = handle
            .checked_sub(self.base)
            .and_then(|i| self.slots.get_mut(i))
            .map(|slot| std::mem::replace(slot, ReqState::Consumed));
        match state {
            None | Some(ReqState::Consumed) => Err(CommError::UnknownRequest { handle }),
            Some(live) => {
                self.live -= 1;
                if self.live == 0 {
                    self.base += self.slots.len();
                    self.slots.clear();
                }
                Ok(live)
            }
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

/// Factory for the per-rank [`ThreadComm`] endpoints of a communicator.
pub struct ThreadWorld;

impl ThreadWorld {
    /// Create the `p` endpoints of a size-`p` communicator with default
    /// options.
    ///
    /// Endpoints are meant to be moved into threads; see [`run_ranks`] for
    /// the common harness.
    pub fn create(p: usize) -> Vec<ThreadComm> {
        ThreadWorld::create_with(p, WorldOptions::default())
    }

    /// Create the `p` endpoints of a size-`p` communicator.
    pub fn create_with(p: usize, opts: WorldOptions) -> Vec<ThreadComm> {
        assert!(p > 0, "communicator must have at least one rank");
        let shared = Arc::new(Shared {
            abort_origin: AtomicUsize::new(usize::MAX),
        });
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel::<Envelope>();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| ThreadComm {
                rank,
                size: p,
                txs: txs.clone(),
                rx,
                unexpected: Vec::new(),
                gone: vec![false; p],
                reqs: ReqTable::default(),
                shared: Arc::clone(&shared),
                deadline: opts.deadline,
            })
            .collect()
    }
}

/// One rank's endpoint in the threaded runtime.
pub struct ThreadComm {
    rank: Rank,
    size: usize,
    txs: Vec<Sender<Envelope>>,
    rx: Receiver<Envelope>,
    /// MPI-style unexpected message queue, in arrival order.
    unexpected: Vec<(Rank, Tag, Vec<u8>)>,
    /// Peers whose `Gone` notice has been observed.
    gone: Vec<bool>,
    reqs: ReqTable,
    shared: Arc<Shared>,
    deadline: Duration,
}

impl Drop for ThreadComm {
    fn drop(&mut self) {
        // Departure poison: tell every peer no further messages will come
        // from this rank. Channels whose receiver is already gone are fine.
        for (peer, tx) in self.txs.iter().enumerate() {
            if peer != self.rank {
                let _ = tx.send(Envelope::Gone(self.rank));
            }
        }
    }
}

impl ThreadComm {
    /// A handle that can abort every rank of this world.
    pub fn abort_handle(&self) -> AbortHandle {
        AbortHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Override the blocking-receive deadline for this endpoint.
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }

    fn check_rank(&self, r: Rank) -> CommResult<()> {
        if r >= self.size {
            return Err(CommError::InvalidRank {
                rank: r,
                size: self.size,
            });
        }
        Ok(())
    }

    fn check_abort(&self) -> CommResult<()> {
        match self.shared.aborted() {
            Some(origin) => Err(CommError::Aborted { origin }),
            None => Ok(()),
        }
    }

    /// Try to match a posted receive against the unexpected queue.
    fn match_unexpected(&mut self, from: Rank, tag: Tag) -> Option<Vec<u8>> {
        let pos = self
            .unexpected
            .iter()
            .position(|(s, t, _)| *s == from && *t == tag)?;
        Some(self.unexpected.remove(pos).2)
    }

    /// Block until a message matching (from, tag) arrives, parking
    /// non-matching arrivals on the unexpected queue. Never parks forever:
    /// bails on abort, peer departure, or deadline expiry.
    fn pull_match(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Vec<u8>> {
        let start = Instant::now();
        loop {
            self.check_abort()?;
            if let Some(data) = self.match_unexpected(from, tag) {
                return Ok(data);
            }
            if self.gone[from] {
                // Per-sender FIFO: once Gone is observed, every message the
                // peer ever sent has already been drained into `unexpected`.
                return Err(CommError::PeerGone { peer: from });
            }
            let elapsed = start.elapsed();
            if elapsed >= self.deadline {
                return Err(CommError::Timeout {
                    rank: self.rank,
                    from,
                    tag,
                    bytes,
                });
            }
            let wait = (self.deadline - elapsed).min(POLL_QUANTUM);
            match self.rx.recv_timeout(wait) {
                Ok(Envelope::Msg(s, t, data)) => {
                    if s == from && t == tag {
                        return Ok(data);
                    }
                    self.unexpected.push((s, t, data));
                }
                Ok(Envelope::Gone(g)) => self.gone[g] = true,
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable in practice (each endpoint holds a clone of
                // its own sender), but treat it as the peer vanishing.
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerGone { peer: from });
                }
            }
        }
    }

    fn complete_recv(&mut self, from: Rank, tag: Tag, posted: usize) -> CommResult<Vec<u8>> {
        let data = self.pull_match(from, tag, posted)?;
        if data.len() > posted {
            return Err(CommError::Truncation {
                rank: self.rank,
                from,
                tag,
                posted,
                arrived: data.len(),
            });
        }
        Ok(data)
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        self.check_abort()?;
        self.check_rank(to)?;
        if self.gone[to] {
            return Err(CommError::PeerGone { peer: to });
        }
        self.txs[to]
            .send(Envelope::Msg(self.rank, tag, data))
            .map_err(|_| CommError::PeerGone { peer: to })?;
        Ok(self.reqs.post(ReqState::SendDone))
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        self.check_abort()?;
        self.check_rank(from)?;
        Ok(self.reqs.post(ReqState::RecvPosted { from, tag, bytes }))
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        match self.reqs.take(req)? {
            ReqState::SendDone => Ok(None),
            ReqState::RecvPosted { from, tag, bytes } => {
                let data = self.complete_recv(from, tag, bytes)?;
                Ok(Some(data))
            }
            ReqState::Consumed => unreachable!("take rejects consumed handles"),
        }
    }

    /// Out-of-order completion. Sends are eager (already complete), so only
    /// receives can block — and this backend drains arrivals into the
    /// unexpected queue regardless of which receive is being waited on, so
    /// the *default* sequential `waitall` could not deadlock here either.
    /// The override still matters: it completes whichever receive's message
    /// arrives first, so one slow sender does not charge its latency to the
    /// whole batch's deadline accounting, and the semantics match the TCP
    /// backend exactly.
    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        let mut out: Vec<Option<Vec<u8>>> = (0..reqs.len()).map(|_| None).collect();
        // (result slot, from, tag, posted) for still-unmatched receives, in
        // posting order so same-(from, tag) requests match FIFO.
        let mut pending: Vec<(usize, Rank, Tag, usize)> = Vec::new();
        for (slot, req) in reqs.into_iter().enumerate() {
            match self.reqs.take(req)? {
                ReqState::SendDone => {}
                ReqState::RecvPosted { from, tag, bytes } => {
                    pending.push((slot, from, tag, bytes));
                }
                ReqState::Consumed => unreachable!("take rejects consumed handles"),
            }
        }
        if pending.is_empty() {
            return Ok(out);
        }
        let start = Instant::now();
        loop {
            self.check_abort()?;
            let mut progressed = false;
            let mut i = 0;
            while i < pending.len() {
                let (slot, from, tag, posted) = pending[i];
                match self.match_unexpected(from, tag) {
                    Some(data) => {
                        if data.len() > posted {
                            return Err(CommError::Truncation {
                                rank: self.rank,
                                from,
                                tag,
                                posted,
                                arrived: data.len(),
                            });
                        }
                        out[slot] = Some(data);
                        pending.remove(i);
                        progressed = true;
                    }
                    None => i += 1,
                }
            }
            if pending.is_empty() {
                return Ok(out);
            }
            if progressed {
                continue;
            }
            for &(_, from, _, _) in &pending {
                if self.gone[from] {
                    return Err(CommError::PeerGone { peer: from });
                }
            }
            let elapsed = start.elapsed();
            if elapsed >= self.deadline {
                let (_, from, tag, bytes) = pending[0];
                return Err(CommError::Timeout {
                    rank: self.rank,
                    from,
                    tag,
                    bytes,
                });
            }
            let wait = (self.deadline - elapsed).min(POLL_QUANTUM);
            match self.rx.recv_timeout(wait) {
                Ok(Envelope::Msg(s, t, data)) => self.unexpected.push((s, t, data)),
                Ok(Envelope::Gone(g)) => self.gone[g] = true,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerGone { peer: pending[0].1 });
                }
            }
        }
    }

    fn compute(&mut self, _bytes: usize) {
        // Real computation happens in the algorithm via `reduce_into`; the
        // accounting hook is only meaningful to the trace backend.
    }
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

/// Run closure `f` on every rank of a fresh size-`p` communicator, one OS
/// thread per rank, and return the per-rank results in rank order.
///
/// Panics if any rank returns an error or panics, reporting **every**
/// failing rank (not just the first) so a collective bug that takes down
/// several ranks diagnoses itself in one run.
pub fn run_ranks<T, F>(p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> CommResult<T> + Send + Sync,
{
    let results = try_run_ranks(p, f);
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

/// Like [`run_ranks`] but collects per-rank `Result`s instead of panicking,
/// for failure-injection tests. A panicking rank yields
/// [`CommError::RankPanicked`] (and its dropped endpoint unblocks any peer
/// waiting on it).
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
    let comms = ThreadWorld::create_with(p, opts);
    let mut out: Vec<Option<CommResult<T>>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut c| {
                let f = &f;
                scope.spawn(move || {
                    let rank = c.rank();
                    let res = match std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut c))) {
                        Ok(r) => r,
                        Err(payload) => Err(CommError::RankPanicked {
                            rank,
                            message: panic_message(payload.as_ref()),
                        }),
                    };
                    // `c` drops here, poisoning peers so nobody waits on a
                    // departed rank.
                    (rank, res)
                })
            })
            .collect();
        for h in handles {
            let (rank, res) = h.join().expect("rank thread infrastructure panicked");
            out[rank] = Some(res);
        }
    });
    out.into_iter()
        .map(|o| o.expect("rank produced result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong() {
        let out = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1, 2, 3])?;
                c.recv(1, 1, 3)
            } else {
                let d = c.recv(0, 0, 3)?;
                c.send(0, 1, d.iter().map(|x| x * 2).collect())?;
                Ok(d)
            }
        });
        assert_eq!(out[0], vec![2, 4, 6]);
        assert_eq!(out[1], vec![1, 2, 3]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        // Rank 0 sends tag 5 then tag 6; rank 1 receives tag 6 first.
        let out = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![5])?;
                c.send(1, 6, vec![6])?;
                Ok(vec![])
            } else {
                let six = c.recv(0, 6, 1)?;
                let five = c.recv(0, 5, 1)?;
                Ok(vec![six[0], five[0]])
            }
        });
        assert_eq!(out[1], vec![6, 5]);
    }

    #[test]
    fn same_tag_is_fifo() {
        let out = run_ranks(2, |c| {
            if c.rank() == 0 {
                for i in 0..10u8 {
                    c.send(1, 0, vec![i])?;
                }
                Ok(vec![])
            } else {
                let mut got = Vec::new();
                for _ in 0..10 {
                    got.push(c.recv(0, 0, 1)?[0]);
                }
                Ok(got)
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u8>>());
    }

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
    fn truncation_detected() {
        let results = try_run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0u8; 16])?;
                Ok(())
            } else {
                c.recv(0, 0, 8).map(|_| ())
            }
        });
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CommError::Truncation {
                posted: 8,
                arrived: 16,
                ..
            })
        ));
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
    fn invalid_rank_rejected() {
        let results = try_run_ranks(1, |c| c.send(5, 0, vec![]));
        assert!(matches!(
            results[0],
            Err(CommError::InvalidRank { rank: 5, size: 1 })
        ));
    }

    #[test]
    fn double_wait_is_error() {
        let results = try_run_ranks(2, |c| {
            if c.rank() == 0 {
                let r = c.isend(1, 0, vec![1])?;
                c.wait(Req(r.0))?;
                c.wait(Req(r.0)).map(|_| ())
            } else {
                c.recv(0, 0, 1).map(|_| ())
            }
        });
        assert!(matches!(results[0], Err(CommError::UnknownRequest { .. })));
    }

    #[test]
    fn request_table_is_reclaimed_but_handles_are_never_reused() {
        run_ranks(2, |c| {
            let peer = 1 - c.rank();
            let sent = c.isend(peer, 0, vec![1])?;
            let stale = sent.0;
            let posted = c.irecv(peer, 0, 1)?;
            // Consuming the last live request empties the table.
            c.waitall(vec![sent, posted])?;
            assert_eq!(
                c.wait(Req(stale)),
                Err(CommError::UnknownRequest { handle: stale })
            );
            for _ in 0..100_000 {
                c.sendrecv(peer, 1, vec![0u8; 8], peer, 1, 8)?;
            }
            // Two requests in flight at most: the table never outgrew the
            // smallest allocation a `Vec` makes, and the handles kept
            // counting.
            assert!(c.reqs.slots.capacity() <= 4, "{}", c.reqs.slots.capacity());
            assert_eq!(c.irecv(peer, 2, 1)?.0, 2 + 200_000);
            assert_eq!(
                c.wait(Req(stale)),
                Err(CommError::UnknownRequest { handle: stale })
            );
            Ok(())
        });
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
    fn waitall_completes_out_of_order() {
        // Rank 0 posts its receive from the slow sender FIRST; the fast
        // senders' messages must complete while the slow one is pending,
        // and arrival order must not disturb result-slot order.
        let p = 4;
        let out = run_ranks(p, |c| match c.rank() {
            0 => {
                let reqs: Vec<Req> = (1..p)
                    .map(|r| c.irecv(r, 0, 8))
                    .collect::<CommResult<_>>()?;
                let msgs = c.waitall(reqs)?;
                Ok(msgs.into_iter().map(|m| m.unwrap()[0]).collect::<Vec<u8>>())
            }
            1 => {
                std::thread::sleep(Duration::from_millis(150));
                c.send(0, 0, vec![1u8; 8])?;
                Ok(vec![])
            }
            r => {
                c.send(0, 0, vec![r as u8; 8])?;
                Ok(vec![])
            }
        });
        assert_eq!(out[0], vec![1, 2, 3]);
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

    // ---- hang-free runtime ----

    #[test]
    fn departed_peer_unblocks_receiver() {
        // Rank 0 exits without sending; rank 1 must get PeerGone promptly
        // rather than waiting out the (long) deadline.
        let start = Instant::now();
        let results = try_run_ranks(2, |c| {
            if c.rank() == 0 {
                Ok(vec![])
            } else {
                c.recv(0, 0, 8)
            }
        });
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CommError::PeerGone { peer: 0 })));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "PeerGone should be near-immediate, not deadline-bound"
        );
    }

    #[test]
    fn messages_before_departure_still_delivered() {
        // Gone must not outrun the peer's earlier messages (per-sender FIFO).
        let out = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![42])?;
                Ok(vec![])
            } else {
                std::thread::sleep(Duration::from_millis(50));
                c.recv(0, 0, 1)
            }
        });
        assert_eq!(out[1], vec![42]);
    }

    #[test]
    fn deadline_timeout_reports_pending_op() {
        let opts = WorldOptions {
            deadline: Duration::from_millis(100),
        };
        let results = try_run_ranks_with(2, opts, |c| {
            if c.rank() == 0 {
                // Outlive rank 1's deadline so it times out rather than
                // seeing our departure poison.
                std::thread::sleep(Duration::from_millis(400));
                Ok(vec![])
            } else {
                c.recv(0, 9, 256)
            }
        });
        assert_eq!(
            results[1],
            Err(CommError::Timeout {
                rank: 1,
                from: 0,
                tag: 9,
                bytes: 256,
            })
        );
    }

    #[test]
    fn abort_unblocks_all_ranks() {
        let start = Instant::now();
        let results = try_run_ranks(4, |c| {
            if c.rank() == 2 {
                c.abort_handle().abort(2);
                Err(CommError::Aborted { origin: 2 })
            } else {
                // Would otherwise block the full 60 s default deadline.
                c.recv((c.rank() + 1) % 4, 77, 8).map(|_| ())
            }
        });
        for r in results {
            assert!(matches!(r, Err(CommError::Aborted { origin: 2 })));
        }
        assert!(start.elapsed() < Duration::from_secs(10));
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
    fn panicking_rank_is_captured_and_unblocks_peers() {
        let results = try_run_ranks(2, |c| {
            if c.rank() == 0 {
                panic!("injected panic");
            }
            c.recv(0, 0, 8).map(|_| ())
        });
        assert!(matches!(
            &results[0],
            Err(CommError::RankPanicked { rank: 0, message }) if message.contains("injected panic")
        ));
        assert!(matches!(results[1], Err(CommError::PeerGone { peer: 0 })));
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
