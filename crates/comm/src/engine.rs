//! The matching engine: the MPI semantics every real-data backend shares,
//! written once above a small [`Transport`].
//!
//! [`Engine`] owns what the collectives rely on and what must not differ
//! between backends:
//!
//! * eager sends (a send completes locally once the transport has taken it),
//! * `(source, tag)` matching against an arrival-order unexpected queue, so
//!   messages of one (sender, tag) never overtake each other,
//! * the reclaiming request table and out-of-order `waitall` — whichever
//!   pending receive's message is queued finishes first, same-`(from, tag)`
//!   receives match in posting order, results land in request order,
//! * truncation when a message is longer than its posted receive (a shorter
//!   one is accepted; in a destination it fills a prefix and the rest is
//!   zeroed).
//!
//! A transport only moves bytes and notices: the in-process mailboxes of
//! [`crate::thread_rt`], the TCP mesh of `exacoll-net`.
//!
//! ## Receiving into the posted destination
//!
//! `wait`, `waitall` and [`Comm::waitall_into`] are one loop
//! (`Engine::complete`) over a [`Posted`]: the receives still unmatched, in
//! posting order, and where their payloads go — owned slots, or ranges of
//! the caller's writable [`Regions`]. Every [`Transport::progress`] call is handed it.
//! A transport that learns a message's `(from, tag, length)` before its
//! bytes (a frame header) asks [`Posted::claim`]; the engine grants the
//! claim when that message is the next one the first matching receive would
//! get — nothing with the same key queued ahead of it — and fits its
//! destination, and the transport then writes the body through
//! [`Posted::window`] / [`Posted::advance`] (or [`Posted::write`]), past the
//! unexpected queue. A destination whose landing folds into what it holds
//! ([`crate::Landing::Reduce`]) is served through a reused staging window
//! instead, folded into it as each window is advanced.
//! Everything else is delivered to the [`Inbox`] as before and scattered by
//! the same loop, so the two routes cannot disagree about matching, order or
//! truncation. The state of a landing lives in the `Posted`, which dies with
//! the call: when `waitall_into` fails half-way through a body, the next
//! `window` for that peer is `None` and the transport discards the rest.
//!
//! ## Hang-free guarantee
//!
//! No blocking operation parks forever. Three mechanisms cooperate, and
//! every transport carries all three:
//!
//! 1. **Departure poison**: a dropped endpoint (normal exit, error return,
//!    panic, dead process) is reported through [`Inbox::depart`] after
//!    everything it sent, so a receive from it fails with
//!    [`CommError::PeerGone`] once the queue holds no match.
//! 2. **Deadline**: every blocking receive — and a send the transport has to
//!    wait out — is bounded by the world's deadline; exceeding it yields
//!    [`CommError::Timeout`] naming the oldest pending operation.
//! 3. **Cooperative abort**: once [`Transport::aborted`] names an origin,
//!    every operation fails promptly with [`CommError::Aborted`]. An abort
//!    outranks a departure observed in the same step, so ranks several hops
//!    from the origin agree on what happened.

use crate::comm::{Comm, Req};
use crate::error::{CommError, CommResult};
use crate::sg::{fold, fold_tail, Landing, Regions, SgDests, SgView};
use crate::types::{Rank, Tag};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What a send hands to the transport: an owned payload the mailboxes can
/// move, or borrowed segments vectored I/O can write without gathering.
pub enum Payload<'a> {
    /// From [`Comm::isend`].
    Owned(Vec<u8>),
    /// From [`Comm::send_sg`].
    View(SgView<'a>),
}

impl Payload<'_> {
    /// The payload as one owned buffer; gathers a view, moves a `Vec`.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(data) => data,
            Payload::View(view) => view.to_vec(),
        }
    }
}

/// What a backend supplies beneath the [`Engine`].
pub trait Transport {
    /// Hand one message to `to` (never this rank, never a peer the inbox
    /// knows is gone), eagerly: return once it no longer depends on the
    /// caller's buffer. A transport that has to wait for room keeps
    /// delivering into `inbox` meanwhile and gives up after `deadline`.
    fn send(
        &mut self,
        inbox: &mut Inbox,
        to: Rank,
        tag: Tag,
        payload: Payload<'_>,
        deadline: Duration,
    ) -> CommResult<()>;

    /// Deliver what has arrived — messages in arrival order, a departure
    /// after everything the peer sent — parking for at most `timeout` when
    /// there is nothing yet. With `from` named, the caller waits for that
    /// peer and parks next: a transport that pays per peer looked at looks at
    /// that one alone without parking; one with a single queue may do
    /// nothing, the park starts with the same look.
    ///
    /// `posted` is what the caller is blocked on. A transport may ignore it
    /// and deliver everything to `inbox`; one that sees a message's header
    /// before its body may [`claim`](Posted::claim) the receive it is for and
    /// write the body where that receive wants it.
    fn progress(
        &mut self,
        inbox: &mut Inbox,
        posted: &mut Posted<'_>,
        timeout: Duration,
        from: Option<Rank>,
    );

    /// The origin of the world-wide abort, once there is one. First origin
    /// wins.
    fn aborted(&self) -> Option<Rank>;
}

/// Where a [`Transport`] delivers: the unexpected-message queue and the
/// record of departed peers.
pub struct Inbox {
    /// MPI-style unexpected-message queue, in arrival order.
    unexpected: VecDeque<(Rank, Tag, Vec<u8>)>,
    gone: Vec<bool>,
}

impl Inbox {
    /// A message from `from` arrived.
    #[inline]
    pub fn deliver(&mut self, from: Rank, tag: Tag, data: Vec<u8>) {
        self.unexpected.push_back((from, tag, data));
    }

    /// `peer` departed: nothing further will arrive from it.
    #[inline]
    pub fn depart(&mut self, peer: Rank) {
        self.gone[peer] = true;
    }

    /// Whether `peer`'s departure has been observed.
    #[inline]
    pub fn is_gone(&self, peer: Rank) -> bool {
        self.gone[peer]
    }

    /// Where the first queued message matching `(from, tag)` sits.
    #[inline]
    fn position(&self, from: Rank, tag: Tag) -> Option<usize> {
        self.unexpected
            .iter()
            .position(|(s, t, _)| *s == from && *t == tag)
    }

    /// Take the first queued message matching `(from, tag)`.
    #[inline]
    fn take(&mut self, from: Rank, tag: Tag) -> Option<Vec<u8>> {
        let pos = self.position(from, tag)?;
        self.unexpected.remove(pos).map(|(_, _, data)| data)
    }
}

/// The posted requests of one endpoint or wrapper. A handle is `base + index
/// into slots`; when the last live request is consumed the slots are dropped
/// and `base` moves past them, so the table stays as small as the largest
/// batch in flight while handles are still allocated monotonically and never
/// reused — which `TimedComm`'s back-patching and `RecordComm`'s pending map
/// rely on.
pub(crate) struct ReqTable<S> {
    base: usize,
    /// `None` once consumed.
    slots: Vec<Option<S>>,
    live: usize,
}

impl<S> Default for ReqTable<S> {
    fn default() -> Self {
        ReqTable {
            base: 0,
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<S> ReqTable<S> {
    pub(crate) fn post(&mut self, state: S) -> Req {
        self.slots.push(Some(state));
        self.live += 1;
        Req(self.base + self.slots.len() - 1)
    }

    /// Consume a request handle, erroring on stale/unknown handles.
    pub(crate) fn take(&mut self, req: Req) -> CommResult<S> {
        let handle = req.0;
        let state = handle
            .checked_sub(self.base)
            .and_then(|i| self.slots.get_mut(i))
            .and_then(Option::take)
            .ok_or(CommError::UnknownRequest { handle })?;
        self.live -= 1;
        if self.live == 0 {
            self.base += self.slots.len();
            self.slots.clear();
        }
        Ok(state)
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// A posted request.
enum Request {
    /// Send already completed (eager protocol).
    Send,
    /// Receive posted, not yet matched.
    Recv(Recv),
}

#[derive(Clone, Copy)]
struct Recv {
    from: Rank,
    tag: Tag,
    bytes: usize,
}

/// A receive being completed.
#[derive(Clone, Copy)]
struct Pending {
    /// Which request of the batch it is: where its payload goes.
    slot: usize,
    recv: Recv,
    /// `(length, bytes written so far)` of the message a transport is
    /// writing into this receive's destination.
    landing: Option<(usize, usize)>,
    /// A folding landing's partial last element (see [`fold`]).
    carry: [u8; 8],
}

impl Pending {
    fn new(slot: usize, recv: Recv) -> Self {
        Pending {
            slot,
            recv,
            landing: None,
            carry: [0; 8],
        }
    }
}

/// Bytes of a folding landing a transport reads per window: one reused
/// buffer, small enough to stay in cache while it is reduced from.
const STAGE: usize = 64 << 10;

/// Where completed payloads go.
enum Sink<'a> {
    /// `wait`/`waitall`: payload `i` is handed back in slot `i`.
    Owned(&'a mut [Option<Vec<u8>>]),
    /// `waitall_into`: payload `i` is written over destination `i` of the
    /// caller's regions.
    Into(Regions<'a>, SgDests<'a>),
}

/// What a blocked engine offers its transport: the receives it is waiting
/// for and where their payloads go (see the module docs).
pub struct Posted<'a> {
    /// In posting order; `pending[..live]` are still unmatched.
    pending: &'a mut [Pending],
    live: usize,
    sink: Sink<'a>,
    /// Where a transport reads the body of a folding landing; kept by the
    /// engine between calls.
    stage: Vec<u8>,
}

impl<'a> Posted<'a> {
    fn new(pending: &'a mut [Pending], sink: Sink<'a>) -> Self {
        Posted {
            live: pending.len(),
            pending,
            sink,
            stage: Vec::new(),
        }
    }

    /// Nothing is waited for — a transport making progress on its own
    /// account (a blocked send, a last look on drop). Claims nothing.
    pub fn none() -> Posted<'static> {
        Posted::new(&mut [], Sink::Owned(&mut []))
    }

    fn unmatched(&self) -> &[Pending] {
        &self.pending[..self.live]
    }

    /// Receive `i` of the unmatched ones is complete.
    fn retire(&mut self, i: usize) {
        self.pending.copy_within(i + 1..self.live, i);
        self.live -= 1;
    }

    /// Hand over the whole payload of unmatched receive `i`.
    fn put(&mut self, i: usize, data: Vec<u8>) {
        let slot = self.pending[i].slot;
        match &mut self.sink {
            Sink::Owned(out) => out[slot] = Some(data),
            Sink::Into(bufs, dests) => dests.put(bufs, slot, &data),
        }
        self.retire(i);
    }

    /// Which unmatched receive `from` is writing into, if any.
    fn landing(&self, from: Rank) -> Option<usize> {
        self.unmatched()
            .iter()
            .position(|p| p.recv.from == from && p.landing.is_some())
    }

    /// A message of `len` bytes from `from` under `tag` is about to arrive:
    /// may its bytes be written straight into the destination of the receive
    /// it matches? Granted when that receive — the first unmatched one for
    /// `(from, tag)` — has a destination whose every range lies in one of
    /// the caller's writable regions and which holds `len` bytes, and
    /// `inbox` queues nothing for `(from, tag)` that would have to be
    /// matched first. A granted claim obliges the transport
    /// to pass exactly `len` bytes through [`window`](Self::window) and
    /// [`advance`](Self::advance), or [`write`](Self::write), before it
    /// claims for `from` again; a refused message goes to `inbox` (one
    /// longer than posted still ends in `Truncation` there, one past or
    /// across a region's end in the receiver's own out-of-range panic).
    pub fn claim(&mut self, inbox: &Inbox, from: Rank, tag: Tag, len: usize) -> bool {
        let Sink::Into(bufs, dests) = &self.sink else {
            return false;
        };
        let Some(i) = self
            .unmatched()
            .iter()
            .position(|p| p.recv.from == from && p.recv.tag == tag)
        else {
            return false;
        };
        let pending = &mut self.pending[i];
        debug_assert!(pending.landing.is_none(), "one message at a time per peer");
        let dest = dests.of(pending.slot);
        let room: usize = dest.iter().map(|r| r.len()).sum();
        let inside = dest.iter().all(|r| bufs.holds(r));
        if !inside || len > pending.recv.bytes.min(room) || inbox.position(from, tag).is_some() {
            return false;
        }
        pending.landing = Some((len, 0));
        if len == 0 {
            self.landed(i, 0, &[]);
        }
        true
    }

    /// Where the next bytes of the message claimed for `from` go: the rest
    /// of the destination range they fall into, or of a staging buffer its
    /// fold reads from, at most what is left of the message. `None` when no
    /// landing is in progress for `from` — the call that granted it has
    /// failed — and the bytes are to be discarded.
    pub fn window(&mut self, from: Rank) -> Option<&mut [u8]> {
        let Pending { slot, landing, .. } = self.pending[self.landing(from)?];
        let (len, filled) = landing?;
        let Sink::Into(bufs, dests) = &mut self.sink else {
            return None;
        };
        if let Landing::Reduce { .. } = dests.landing(slot) {
            let n = STAGE.min(len - filled);
            if self.stage.len() < n {
                self.stage.resize(STAGE, 0);
            }
            return Some(&mut self.stage[..n]);
        }
        let mut skip = filled;
        for r in dests.of(slot) {
            if skip < r.len() {
                let start = r.start + skip;
                return Some(bufs.get_mut(&(start..r.end.min(start + len - filled))));
            }
            skip -= r.len();
        }
        None
    }

    /// The first `n` bytes of the last [`window`](Self::window) for `from`
    /// were written. Completes the receive with the message's last byte.
    pub fn advance(&mut self, from: Rank, n: usize) {
        let i = self.landing(from).expect("advance follows a window");
        // What a folding landing's window was; a copying one ignores it.
        let stage = std::mem::take(&mut self.stage);
        self.landed(i, n, stage.get(..n).unwrap_or_default());
        self.stage = stage;
    }

    /// The next bytes of the message claimed for `from`, from a buffer the
    /// transport already holds: what [`window`](Self::window), a copy and
    /// [`advance`](Self::advance) would do, window after window, except
    /// that a folding landing reduces straight from `bytes`.
    pub fn write(&mut self, from: Rank, mut bytes: &[u8]) {
        let Some(i) = self.landing(from) else {
            return;
        };
        if let Sink::Into(_, dests) = &self.sink {
            if let Landing::Reduce { .. } = dests.landing(self.pending[i].slot) {
                return self.landed(i, bytes.len(), bytes);
            }
        }
        while let Some(window) = self.window(from).filter(|_| !bytes.is_empty()) {
            let n = window.len().min(bytes.len());
            window[..n].copy_from_slice(&bytes[..n]);
            self.advance(from, n);
            bytes = &bytes[n..];
        }
    }

    /// `n` more bytes of claimed receive `i`'s message are in: written into
    /// its destination already, or `folded` into it for a folding landing.
    /// With the message's last byte, what its landing leaves of the
    /// destination is settled and the receive completes.
    fn landed(&mut self, i: usize, n: usize, folded: &[u8]) {
        let Pending { slot, landing, .. } = self.pending[i];
        let (len, filled) = landing.expect("a landing is in progress");
        debug_assert!(filled + n <= len, "wrote past the claimed message");
        let Sink::Into(bufs, dests) = &mut self.sink else {
            unreachable!("only a destination is claimed");
        };
        let done = filled + n == len;
        match dests.landing(slot) {
            Landing::Copy if done => bufs.zero_tail(dests.of(slot), len),
            Landing::Copy => {}
            Landing::Reduce { dtype, op } => {
                let acc = bufs.get_mut(&dests.of(slot)[0]);
                let carry = &mut self.pending[i].carry;
                fold(*dtype, *op, acc, filled, carry, folded);
                if done {
                    fold_tail(*dtype, *op, acc, len, carry);
                }
            }
        }
        self.pending[i].landing = Some((len, filled + n));
        if done {
            self.retire(i);
        }
    }
}

/// One rank's endpoint: the MPI semantics over transport `T`.
pub struct Engine<T: Transport> {
    rank: Rank,
    size: usize,
    transport: T,
    inbox: Inbox,
    reqs: ReqTable<Request>,
    /// The receives of the `waitall`/`waitall_into` in progress and the
    /// staging buffer of their folding landings; kept between calls for
    /// their allocations.
    pending: Vec<Pending>,
    stage: Vec<u8>,
    /// Upper bound on how long any single blocking operation may wait.
    deadline: Duration,
}

impl<T: Transport> Engine<T> {
    /// Rank `rank` of a size-`size` world over `transport`.
    pub fn new(rank: Rank, size: usize, deadline: Duration, transport: T) -> Engine<T> {
        assert!(rank < size, "rank {rank} out of range for world of {size}");
        Engine {
            rank,
            size,
            transport,
            inbox: Inbox {
                unexpected: VecDeque::new(),
                gone: vec![false; size],
            },
            reqs: ReqTable::default(),
            pending: Vec::new(),
            stage: Vec::new(),
            deadline,
        }
    }

    /// The transport, for what only its backend offers.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The transport, mutably.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Messages delivered but not yet matched by a receive.
    pub fn queued(&self) -> usize {
        self.inbox.unexpected.len()
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
        match self.transport.aborted() {
            Some(origin) => Err(CommError::Aborted { origin }),
            None => Ok(()),
        }
    }

    fn post_send(&mut self, to: Rank, tag: Tag, payload: Payload<'_>) -> CommResult<Req> {
        self.check_abort()?;
        self.check_rank(to)?;
        if to == self.rank {
            // Collectives never send to self, but keep the semantics total.
            self.inbox.deliver(to, tag, payload.into_vec());
        } else if self.inbox.is_gone(to) {
            return Err(CommError::PeerGone { peer: to });
        } else {
            self.transport
                .send(&mut self.inbox, to, tag, payload, self.deadline)?;
        }
        Ok(self.reqs.post(Request::Send))
    }

    /// Block until every receive of `posted` has its message in the sink.
    /// Never parks forever: bails on abort, on the departure of a sender with
    /// nothing queued, or on deadline expiry.
    fn complete(&mut self, posted: &mut Posted<'_>) -> CommResult<()> {
        // All pending receives share one deadline window, opened the first
        // time the queue has nothing for them.
        let mut start = None;
        // Whether the transport has been asked for the pending senders: what
        // had already arrived is taken, once, without parking.
        let mut looked = false;
        loop {
            self.check_abort()?;
            let before = posted.live;
            let mut i = 0;
            while i < posted.live {
                let Recv { from, tag, bytes } = posted.pending[i].recv;
                let Some(data) = self.inbox.take(from, tag) else {
                    i += 1;
                    continue;
                };
                if data.len() > bytes {
                    return Err(CommError::Truncation {
                        rank: self.rank,
                        from,
                        tag,
                        posted: bytes,
                        arrived: data.len(),
                    });
                }
                posted.put(i, data);
            }
            if posted.live == 0 {
                return Ok(());
            }
            if posted.live < before {
                continue;
            }
            if !looked {
                let mut i = 0;
                while i < posted.live {
                    let (before, from) = (posted.live, posted.pending[i].recv.from);
                    self.transport
                        .progress(&mut self.inbox, posted, Duration::ZERO, Some(from));
                    // A receive completed in place moved the rest up by one.
                    if posted.live == before {
                        i += 1;
                    }
                }
                looked = true;
                continue;
            }
            // No queued match for anything pending: a departed sender can
            // never satisfy its receive now (everything it sent was
            // delivered before its departure). An abort the transport has
            // yet to look at outranks the departure.
            if let Some(peer) = (posted.unmatched().iter())
                .map(|p| p.recv.from)
                .find(|&from| self.inbox.is_gone(from))
            {
                self.transport
                    .progress(&mut self.inbox, posted, Duration::ZERO, None);
                self.check_abort()?;
                return Err(CommError::PeerGone { peer });
            }
            let now = Instant::now();
            let waited = now - *start.get_or_insert(now);
            let Some(left) = self.deadline.checked_sub(waited).filter(|d| !d.is_zero()) else {
                let Recv { from, tag, bytes } = posted.pending[0].recv;
                return Err(CommError::Timeout {
                    rank: self.rank,
                    from,
                    tag,
                    bytes,
                });
            };
            self.transport.progress(&mut self.inbox, posted, left, None);
        }
    }

    /// Consume `reqs` and complete the receives among them — request `i`'s
    /// payload is slot `i` of `sink` — through the kept `pending` arena.
    fn complete_all(&mut self, reqs: impl Iterator<Item = Req>, sink: Sink<'_>) -> CommResult<()> {
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        for (slot, req) in reqs.enumerate() {
            if let Request::Recv(recv) = self.reqs.take(req)? {
                pending.push(Pending::new(slot, recv));
            }
        }
        let done = if pending.is_empty() {
            Ok(())
        } else {
            let mut posted = Posted::new(&mut pending, sink);
            posted.stage = std::mem::take(&mut self.stage);
            let done = self.complete(&mut posted);
            self.stage = posted.stage;
            done
        };
        self.pending = pending;
        done
    }
}

impl<T: Transport> Drop for Engine<T> {
    fn drop(&mut self) {
        // One last look before the transport departs: an abort that arrived
        // while the rank was outside `Comm` calls counts as observed by
        // whatever the transport tells its peers on drop.
        self.transport
            .progress(&mut self.inbox, &mut Posted::none(), Duration::ZERO, None);
    }
}

impl<T: Transport> Comm for Engine<T> {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        self.post_send(to, tag, Payload::Owned(data))
    }

    /// The borrowed segments reach the transport as they are; what it does
    /// with them (one vectored write, one gather into a mailbox) delivers
    /// bytes identical to `isend(to, tag, view.to_vec())`.
    fn send_sg(&mut self, to: Rank, tag: Tag, view: SgView<'_>) -> CommResult<Req> {
        self.post_send(to, tag, Payload::View(view))
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        self.check_abort()?;
        self.check_rank(from)?;
        Ok(self.reqs.post(Request::Recv(Recv { from, tag, bytes })))
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        match self.reqs.take(req)? {
            Request::Send => Ok(None),
            Request::Recv(recv) => {
                let mut out = [None];
                self.complete(&mut Posted::new(
                    &mut [Pending::new(0, recv)],
                    Sink::Owned(&mut out),
                ))?;
                let [data] = out;
                Ok(data)
            }
        }
    }

    /// Out-of-order completion: matches whichever pending receive's message
    /// is queued first, so one slow sender never serializes the rest.
    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        let mut out: Vec<Option<Vec<u8>>> = (0..reqs.len()).map(|_| None).collect();
        self.complete_all(reqs.into_iter(), Sink::Owned(&mut out))?;
        Ok(out)
    }

    /// The same completion with the caller's regions as the sink: a message
    /// the transport can still steer is written into its destination as it
    /// arrives, one that was queued first is scattered from the queue.
    fn waitall_into(
        &mut self,
        reqs: &mut Vec<Req>,
        bufs: Regions<'_>,
        dests: SgDests<'_>,
    ) -> CommResult<()> {
        assert_eq!(reqs.len(), dests.len(), "one destination per request");
        self.complete_all(reqs.drain(..), Sink::Into(bufs, dests))
    }

    fn compute(&mut self, _bytes: usize) {
        // Real computation happens in the algorithm via `reduce_into`; the
        // accounting hook is only meaningful to observing wrappers.
    }
}

#[cfg(test)]
mod tests {
    //! The engine driven by a scripted in-memory transport: no threads, no
    //! sleeps, every ordering chosen by the script.

    use super::*;

    enum Ev {
        /// A whole message, delivered to the inbox.
        Msg(Rank, Tag, Vec<u8>),
        /// The header of a message on `from`'s stream: `(from, tag, length)`.
        /// Claimed where the engine allows it, as a wire transport would.
        Head(Rank, Tag, usize),
        /// The next bytes of the message whose header `from` sent last.
        Body(Rank, Vec<u8>),
        Gone(Rank),
        Abort(Rank),
    }
    use Ev::{Abort, Body, Gone, Head, Msg};

    /// Each `progress` call plays the next step of the script.
    #[derive(Default)]
    struct Script {
        steps: VecDeque<Vec<Ev>>,
        abort: Option<Rank>,
        /// `(timeout was zero, from)` of every `progress` call.
        asked: Vec<(bool, Option<Rank>)>,
        /// `(to, tag, payload was owned)` of every `send`.
        sent: Vec<(Rank, Tag, bool)>,
        /// Deliver every sent message straight back, as if from its
        /// destination.
        echo: bool,
        /// Per peer, the message in flight whose claim was refused:
        /// `(tag, length, bytes so far)`, delivered once whole.
        queueing: [Option<(Tag, usize, Vec<u8>)>; 3],
        /// `(from, tag, granted)` of every claim.
        claims: Vec<(Rank, Tag, bool)>,
        /// Bytes written through a window, and bytes no window wanted.
        landed: usize,
        discarded: usize,
    }

    impl Script {
        fn head(
            &mut self,
            inbox: &mut Inbox,
            posted: &mut Posted<'_>,
            from: Rank,
            tag: Tag,
            len: usize,
        ) {
            let granted = posted.claim(inbox, from, tag, len);
            self.claims.push((from, tag, granted));
            if !granted {
                self.queueing[from] = Some((tag, len, Vec::new()));
                self.body(inbox, posted, from, &[]);
            }
        }

        fn body(
            &mut self,
            inbox: &mut Inbox,
            posted: &mut Posted<'_>,
            from: Rank,
            mut bytes: &[u8],
        ) {
            if let Some((tag, len, mut so_far)) = self.queueing[from].take() {
                so_far.extend_from_slice(bytes);
                if so_far.len() == len {
                    inbox.deliver(from, tag, so_far);
                } else {
                    self.queueing[from] = Some((tag, len, so_far));
                }
                return;
            }
            while !bytes.is_empty() {
                let Some(window) = posted.window(from) else {
                    self.discarded += bytes.len();
                    return;
                };
                let n = window.len().min(bytes.len());
                window[..n].copy_from_slice(&bytes[..n]);
                posted.advance(from, n);
                self.landed += n;
                bytes = &bytes[n..];
            }
        }
    }

    impl Transport for Script {
        fn send(
            &mut self,
            inbox: &mut Inbox,
            to: Rank,
            tag: Tag,
            payload: Payload<'_>,
            _deadline: Duration,
        ) -> CommResult<()> {
            self.sent
                .push((to, tag, matches!(payload, Payload::Owned(_))));
            if self.echo {
                inbox.deliver(to, tag, payload.into_vec());
            }
            Ok(())
        }

        fn progress(
            &mut self,
            inbox: &mut Inbox,
            posted: &mut Posted<'_>,
            timeout: Duration,
            from: Option<Rank>,
        ) {
            self.asked.push((timeout.is_zero(), from));
            for ev in self.steps.pop_front().unwrap_or_default() {
                match ev {
                    Msg(from, tag, data) => inbox.deliver(from, tag, data),
                    Head(from, tag, len) => self.head(inbox, posted, from, tag, len),
                    Body(from, bytes) => self.body(inbox, posted, from, &bytes),
                    Gone(peer) => inbox.depart(peer),
                    Abort(origin) => {
                        self.abort.get_or_insert(origin);
                    }
                }
            }
        }

        fn aborted(&self) -> Option<Rank> {
            self.abort
        }
    }

    /// Rank 0 of a three-rank world whose transport plays `steps`.
    fn scripted(deadline: Duration, steps: Vec<Vec<Ev>>) -> Engine<Script> {
        let script = Script {
            steps: steps.into(),
            ..Script::default()
        };
        Engine::new(0, 3, deadline, script)
    }

    const LONG: Duration = Duration::from_secs(60);

    #[test]
    fn abort_outranks_a_departure_seen_in_the_same_step() {
        let mut c = scripted(LONG, vec![vec![Gone(1), Abort(2)]]);
        assert_eq!(c.recv(1, 0, 8), Err(CommError::Aborted { origin: 2 }));
        // Also when the ABORT is only found by the last look, and the first
        // origin sticks.
        let mut c = scripted(LONG, vec![vec![Gone(1)], vec![Abort(2), Abort(1)]]);
        assert_eq!(c.recv(1, 0, 8), Err(CommError::Aborted { origin: 2 }));
        assert_eq!(c.irecv(2, 0, 8), Err(CommError::Aborted { origin: 2 }));
        // Without one, the departure is what the receive reports.
        let mut c = scripted(LONG, vec![vec![Gone(1)]]);
        assert_eq!(c.recv(1, 0, 8), Err(CommError::PeerGone { peer: 1 }));
    }

    #[test]
    fn messages_queued_before_a_departure_are_delivered_then_peer_gone() {
        let step = vec![Msg(1, 0, vec![7]), Msg(1, 0, vec![8]), Gone(1)];
        let mut c = scripted(LONG, vec![step]);
        assert_eq!(c.recv(1, 0, 1), Ok(vec![7]));
        assert_eq!(c.recv(1, 0, 1), Ok(vec![8]));
        assert_eq!(c.recv(1, 0, 1), Err(CommError::PeerGone { peer: 1 }));
        assert_eq!(c.isend(1, 0, vec![1]), Err(CommError::PeerGone { peer: 1 }));
        assert!(c.transport().sent.is_empty());
    }

    #[test]
    fn timeout_names_the_oldest_receive_still_pending() {
        let mut c = scripted(Duration::ZERO, vec![vec![Msg(2, 9, vec![0; 64])]]);
        let reqs = vec![c.irecv(2, 9, 64), c.irecv(1, 5, 16), c.irecv(2, 6, 32)];
        let reqs = reqs.into_iter().collect::<CommResult<Vec<Req>>>().unwrap();
        assert_eq!(
            c.waitall(reqs),
            Err(CommError::Timeout {
                rank: 0,
                from: 1,
                tag: 5,
                bytes: 16,
            })
        );
    }

    #[test]
    fn same_source_and_tag_match_in_request_order_and_slots_follow_requests() {
        // Nothing has arrived when the three senders are looked at; then one
        // message per park, the other peer's first.
        let arrivals = [
            Msg(2, 4, vec![30]),
            Msg(1, 4, vec![10]),
            Msg(1, 4, vec![20]),
        ];
        let mut steps = vec![vec![], vec![], vec![]];
        steps.extend(arrivals.map(|msg| vec![msg]));
        let mut c = scripted(LONG, steps);
        let a = c.irecv(1, 4, 1).unwrap();
        let sent = c.isend(2, 0, vec![1]).unwrap();
        let other = c.irecv(2, 4, 1).unwrap();
        let b = c.irecv(1, 4, 1).unwrap();
        assert_eq!(
            c.waitall(vec![a, sent, other, b]),
            Ok(vec![Some(vec![10]), None, Some(vec![30]), Some(vec![20])])
        );
        // Each pending receive's sender is looked at once, without parking;
        // after that the engine parks and takes whatever arrives.
        let looks = [(true, Some(1)), (true, Some(2)), (true, Some(1))];
        let parks = [(false, None); 3];
        assert_eq!(c.transport().asked, [looks.as_slice(), &parks].concat());
    }

    #[test]
    fn longer_than_posted_is_truncation_and_shorter_is_accepted() {
        let step = vec![Msg(1, 0, vec![9; 4]), Msg(1, 1, vec![0; 16])];
        let mut c = scripted(LONG, vec![step]);
        assert_eq!(c.recv(1, 0, 64), Ok(vec![9; 4]));
        assert_eq!(
            c.recv(1, 1, 8),
            Err(CommError::Truncation {
                rank: 0,
                from: 1,
                tag: 1,
                posted: 8,
                arrived: 16,
            })
        );
    }

    #[test]
    fn payloads_reach_the_transport_as_posted_and_self_sends_stay_local() {
        let mut c = scripted(LONG, vec![]);
        let buf = [9u8, 8, 7, 6];
        let ranges = [2..4, 0..2];
        let reqs = vec![
            c.isend(1, 3, vec![1, 2]).unwrap(),
            c.send_sg(2, 4, SgView::new(&buf, &ranges)).unwrap(),
            c.send_sg(0, 5, SgView::new(&buf, &ranges)).unwrap(),
        ];
        assert_eq!(c.waitall(reqs), Ok(vec![None, None, None]));
        // An owned payload stays owned (the mailboxes move it), a view stays
        // borrowed (the mesh writes its segments), and neither is asked of
        // the transport for a send to self.
        assert_eq!(c.transport().sent, vec![(1, 3, true), (2, 4, false)]);
        assert_eq!(c.queued(), 1);
        assert_eq!(c.recv(0, 5, 4), Ok(vec![7, 6, 9, 8]));
    }

    /// What an earlier call left in a reused buffer.
    const OLD: u8 = 0xAA;

    /// `waitall_into` over `reqs` into a buffer of `n` bytes of [`OLD`],
    /// request `i` going to `spans[i]` of `ranges`.
    fn into(
        c: &mut Engine<Script>,
        reqs: Vec<CommResult<Req>>,
        n: usize,
        ranges: &[std::ops::Range<usize>],
        spans: &[std::ops::Range<usize>],
    ) -> (CommResult<()>, Vec<u8>) {
        let mut reqs = reqs.into_iter().collect::<CommResult<Vec<Req>>>().unwrap();
        let mut buf = vec![OLD; n];
        let res = c.waitall_into(
            &mut reqs,
            Regions::one(&mut buf),
            SgDests::new(ranges, spans),
        );
        assert!(reqs.is_empty());
        (res, buf)
    }

    #[test]
    fn a_message_the_rank_is_blocked_on_lands_past_the_queue() {
        // Two receives share (1, 4): the first message lands in the first
        // one's destination — two ranges, out of order, the body split
        // mid-range — the second in the second's, and a send in the batch has
        // an empty span.
        let steps = vec![
            vec![Head(1, 4, 4), Body(1, vec![1, 2, 3])],
            vec![],
            vec![Body(1, vec![4]), Head(1, 4, 2), Body(1, vec![5, 6])],
        ];
        let mut c = scripted(LONG, steps);
        let reqs = vec![c.irecv(1, 4, 4), c.isend(2, 0, vec![9]), c.irecv(1, 4, 2)];
        let (res, buf) = into(&mut c, reqs, 8, &[6..8, 0..2, 3..5], &[0..2, 0..0, 2..3]);
        assert_eq!(res, Ok(()));
        assert_eq!(buf, [3, 4, OLD, 5, 6, OLD, 1, 2]);
        let t = c.transport();
        assert_eq!(t.claims, [(1, 4, true), (1, 4, true)]);
        assert_eq!((t.landed, t.discarded, c.queued()), (6, 0, 0));
    }

    #[test]
    fn a_same_key_message_already_queued_is_not_bypassed() {
        // The first (1, 4) message is queued whole before the rank blocks
        // (as if it arrived during a send). The second one's header finds a
        // receive for (1, 4) — but the queued message is that receive's.
        let mut c = scripted(LONG, vec![vec![Head(1, 4, 2), Body(1, vec![3, 4])]]);
        c.inbox.deliver(1, 4, vec![1, 2]);
        let reqs = vec![c.irecv(1, 4, 2), c.irecv(1, 4, 2)];
        let (res, buf) = into(&mut c, reqs, 4, &[0..2, 2..4], &[0..1, 1..2]);
        assert_eq!(res, Ok(()));
        assert_eq!(buf, [1, 2, 3, 4]);
        // By the time the header is seen the queued message has been
        // matched, so the second lands directly — in the second receive.
        assert_eq!(c.transport().claims, [(1, 4, true)]);

        // Seen while the first is still queued (both on the wire before the
        // rank looks), the claim is refused and order is the queue's.
        let step = vec![Msg(1, 4, vec![1, 2]), Head(1, 4, 2), Body(1, vec![3, 4])];
        let mut c = scripted(LONG, vec![step]);
        let reqs = vec![c.irecv(1, 4, 2), c.irecv(1, 4, 2)];
        let (res, buf) = into(&mut c, reqs, 4, &[0..2, 2..4], &[0..1, 1..2]);
        assert_eq!(res, Ok(()));
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(c.transport().claims, [(1, 4, false)]);
        assert_eq!(c.transport().landed, 0);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn longer_than_posted_is_refused_and_truncates_shorter_lands_a_prefix() {
        let steps = vec![vec![
            Head(1, 0, 2),
            Body(1, vec![7, 8]),
            Head(1, 1, 16),
            Body(1, vec![0; 16]),
        ]];
        let mut c = scripted(LONG, steps);
        let reqs = vec![c.irecv(1, 0, 4), c.irecv(1, 1, 8)];
        let (res, buf) = into(&mut c, reqs, 12, &[0..4, 4..12], &[0..1, 1..2]);
        assert_eq!(
            res,
            Err(CommError::Truncation {
                rank: 0,
                from: 1,
                tag: 1,
                posted: 8,
                arrived: 16,
            })
        );
        // The short message landed a prefix, and the rest of its destination
        // no longer shows what the buffer held.
        assert_eq!(buf[..4], [7, 8, 0, 0]);
        assert_eq!(c.transport().claims, [(1, 0, true), (1, 1, false)]);
        // The same from the queue, into a destination of two ranges.
        let mut c = scripted(LONG, vec![vec![Msg(1, 0, vec![7, 8, 9])]]);
        let reqs = vec![c.irecv(1, 0, 4)];
        let (res, buf) = into(&mut c, reqs, 6, &[4..6, 0..2], &[0..2]);
        assert_eq!((res, buf), (Ok(()), vec![9, 0, OLD, OLD, 7, 8]));
        // A destination smaller than the posted size is no reason to write
        // past it either: the message takes the queue and loses its tail
        // there, as `waitall` + scatter would.
        let mut c = scripted(LONG, vec![vec![Head(1, 0, 4), Body(1, vec![1, 2, 3, 4])]]);
        let reqs = vec![c.irecv(1, 0, 4)];
        let (res, buf) = into(&mut c, reqs, 4, &[1..3], &[0..1]);
        assert_eq!((res, buf), (Ok(()), vec![OLD, 1, 2, OLD]));
        assert_eq!(c.transport().claims, [(1, 0, false)]);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn a_destination_across_a_region_boundary_is_refused_and_panics_as_its_own_access() {
        // Two writable regions of 8 bytes: a destination in the second lands
        // in place; one from the first into the second is not claimed, its
        // message is queued, and the receiver's own write panics as a slice
        // index past the first region does.
        let steps = vec![vec![
            Head(1, 4, 4),
            Body(1, vec![1, 2, 3, 4]),
            Head(1, 5, 8),
            Body(1, vec![9; 8]),
        ]];
        let mut c = scripted(LONG, steps);
        let mut reqs = vec![c.irecv(1, 4, 4).unwrap(), c.irecv(1, 5, 8).unwrap()];
        let (mut first, mut second) = ([OLD; 8], [OLD; 8]);
        let ranges = [10..14, 4..12];
        let message = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let bufs = Regions::new(&[], &mut first, &mut second);
            let _ = c.waitall_into(&mut reqs, bufs, SgDests::new(&ranges, &[0..1, 1..2]));
        }))
        .expect_err("the receiver's write panics");
        assert_eq!(
            message.downcast_ref::<String>().map(String::as_str),
            Some("range end index 12 out of range for slice of length 8")
        );
        assert_eq!(second[2..6], [1, 2, 3, 4]);
        let t = c.transport();
        assert_eq!(t.claims, [(1, 4, true), (1, 5, false)]);
        assert_eq!((t.landed, t.discarded), (4, 0));
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn a_landing_cut_short_names_its_receive_and_the_rest_is_discarded() {
        // Half a body has been written when the peer departs, the world is
        // aborted, or the deadline passes.
        let half = || vec![Head(1, 3, 4), Body(1, vec![1, 2])];
        let gone = (LONG, vec![half(), vec![Gone(1)]]);
        let abort = (LONG, vec![half(), vec![Abort(2)]]);
        let late = (Duration::ZERO, vec![half()]);
        let errors = [
            CommError::PeerGone { peer: 1 },
            CommError::Aborted { origin: 2 },
            CommError::Timeout {
                rank: 0,
                from: 1,
                tag: 3,
                bytes: 4,
            },
        ];
        for ((deadline, steps), error) in [gone, abort, late].into_iter().zip(errors) {
            let mut c = scripted(deadline, steps);
            let reqs = vec![c.irecv(1, 3, 4)];
            let (res, buf) = into(&mut c, reqs, 4, &[0..4], &[0..1]);
            assert_eq!(res, Err(error.clone()));
            assert_eq!(buf, [1, 2, OLD, OLD]);
            if !matches!(error, CommError::Timeout { .. }) {
                continue;
            }
            // A rank that outlives the timeout comes back for the message
            // behind: the rest of the abandoned one has nowhere to go, and
            // the stream stays in step.
            let next = vec![Body(1, vec![3, 4]), Head(1, 3, 2), Body(1, vec![5, 6])];
            c.transport_mut().steps.push_back(next);
            c.deadline = LONG;
            let reqs = vec![c.irecv(1, 3, 2)];
            let (res, buf) = into(&mut c, reqs, 2, &[0..2], &[0..1]);
            assert_eq!((res, buf), (Ok(()), vec![5, 6]));
            assert_eq!((c.transport().landed, c.transport().discarded), (4, 2));
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn a_folding_landing_reduces_piece_by_piece_and_pads_a_short_message() {
        use crate::reduce_ops::reduce_into;
        use crate::types::{DType, ReduceOp};
        // Ten bytes folded into a twelve-byte i32 destination: landed in
        // three windows that split elements, or queued whole. Either way the
        // destination ends as reducing the zero-padded message into it would
        // leave it, and nothing around it is written.
        let msg: Vec<u8> = (1..=10).collect();
        let (dtype, op) = (DType::I32, ReduceOp::Sum);
        let landings = [Landing::Reduce { dtype, op }];
        let mut padded = msg.clone();
        padded.resize(12, 0);
        let mut want = vec![OLD; 12];
        reduce_into(dtype, op, &mut want, &padded).unwrap();
        let landed = vec![
            vec![Head(1, 4, 10), Body(1, msg[..3].to_vec())],
            vec![Body(1, msg[3..9].to_vec()), Body(1, msg[9..].to_vec())],
        ];
        let queued = vec![vec![Msg(1, 4, msg.clone())]];
        for (steps, claims) in [(landed, vec![(1, 4, true)]), (queued, vec![])] {
            let mut c = scripted(LONG, steps);
            let mut reqs = vec![c.irecv(1, 4, 12).unwrap()];
            let mut buf = vec![OLD; 24];
            let dests = SgDests::new(&[6..18], &[0..1]).landing_into(&landings);
            assert_eq!(
                c.waitall_into(&mut reqs, Regions::one(&mut buf), dests),
                Ok(())
            );
            assert_eq!((&buf[..6], &buf[6..18]), (&[OLD; 6][..], &want[..]));
            assert_eq!(buf[18..], [OLD; 6]);
            assert_eq!(c.transport().claims, claims);
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn owned_waits_never_claim_and_empty_messages_complete_at_the_header() {
        let mut c = scripted(LONG, vec![vec![Head(1, 0, 2), Body(1, vec![1, 2])]]);
        assert_eq!(c.recv(1, 0, 2), Ok(vec![1, 2]));
        assert_eq!(c.transport().claims, [(1, 0, false)]);

        let mut c = scripted(LONG, vec![vec![Head(2, 5, 0)]]);
        let reqs = vec![c.irecv(2, 5, 8)];
        let (res, buf) = into(&mut c, reqs, 8, &[0..8], &[0..1]);
        assert_eq!((res, buf), (Ok(()), vec![0; 8]));
        assert_eq!(c.transport().claims, [(2, 5, true)]);
    }

    #[test]
    fn request_table_stays_as_small_as_the_batch_in_flight() {
        let mut c = scripted(LONG, vec![]);
        c.transport_mut().echo = true;
        for _ in 0..100_000 {
            c.sendrecv(1, 1, vec![0u8; 8], 1, 1, 8).unwrap();
        }
        assert!(c.reqs.capacity() <= 4, "{}", c.reqs.capacity());
        assert_eq!(c.irecv(1, 2, 1).unwrap().0, 200_000);
    }
}
