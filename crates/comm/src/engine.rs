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
//!   one is accepted).
//!
//! A transport only moves bytes and notices: the in-process mailboxes of
//! [`crate::thread_rt`], the TCP mesh of `exacoll-net`. This is also where
//! the receive-side twin of the `send_sg` contract — receive into the posted
//! destination — will land: one `waitall` and one transport hook.
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
use crate::sg::SgView;
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
    fn progress(&mut self, inbox: &mut Inbox, timeout: Duration, from: Option<Rank>);

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

    /// Take the first queued message matching `(from, tag)`.
    #[inline]
    fn take(&mut self, from: Rank, tag: Tag) -> Option<Vec<u8>> {
        let pos = self
            .unexpected
            .iter()
            .position(|(s, t, _)| *s == from && *t == tag)?;
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
enum Posted {
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

/// One rank's endpoint: the MPI semantics over transport `T`.
pub struct Engine<T: Transport> {
    rank: Rank,
    size: usize,
    transport: T,
    inbox: Inbox,
    reqs: ReqTable<Posted>,
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
        Ok(self.reqs.post(Posted::Send))
    }

    /// Block until every `(result slot, receive)` of `pending` (posting
    /// order) has its message in `out`. Never parks forever: bails on abort,
    /// on the departure of a sender with nothing queued, or on deadline
    /// expiry.
    fn complete(
        &mut self,
        pending: &mut [(usize, Recv)],
        out: &mut [Option<Vec<u8>>],
    ) -> CommResult<()> {
        // The receives still unmatched are `pending[..live]`.
        let mut live = pending.len();
        // All pending receives share one deadline window, opened the first
        // time the queue has nothing for them.
        let mut start = None;
        // Whether the transport has been asked for the pending senders: what
        // had already arrived is taken, once, without parking.
        let mut looked = false;
        loop {
            self.check_abort()?;
            let before = live;
            let mut i = 0;
            while i < live {
                let (slot, Recv { from, tag, bytes }) = pending[i];
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
                out[slot] = Some(data);
                pending.copy_within(i + 1..live, i);
                live -= 1;
            }
            if live == 0 {
                return Ok(());
            }
            if live < before {
                continue;
            }
            let pending = &pending[..live];
            if !looked {
                for &(_, Recv { from, .. }) in pending {
                    self.transport
                        .progress(&mut self.inbox, Duration::ZERO, Some(from));
                }
                looked = true;
                continue;
            }
            // No queued match for anything pending: a departed sender can
            // never satisfy its receive now (everything it sent was
            // delivered before its departure). An abort the transport has
            // yet to look at outranks the departure.
            if let Some(&(_, Recv { from: peer, .. })) =
                pending.iter().find(|(_, r)| self.inbox.is_gone(r.from))
            {
                self.transport
                    .progress(&mut self.inbox, Duration::ZERO, None);
                self.check_abort()?;
                return Err(CommError::PeerGone { peer });
            }
            let now = Instant::now();
            let waited = now - *start.get_or_insert(now);
            let Some(left) = self.deadline.checked_sub(waited).filter(|d| !d.is_zero()) else {
                let (_, Recv { from, tag, bytes }) = pending[0];
                return Err(CommError::Timeout {
                    rank: self.rank,
                    from,
                    tag,
                    bytes,
                });
            };
            self.transport.progress(&mut self.inbox, left, None);
        }
    }
}

impl<T: Transport> Drop for Engine<T> {
    fn drop(&mut self) {
        // One last look before the transport departs: an abort that arrived
        // while the rank was outside `Comm` calls counts as observed by
        // whatever the transport tells its peers on drop.
        self.transport
            .progress(&mut self.inbox, Duration::ZERO, None);
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
        Ok(self.reqs.post(Posted::Recv(Recv { from, tag, bytes })))
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        match self.reqs.take(req)? {
            Posted::Send => Ok(None),
            Posted::Recv(recv) => {
                let mut out = [None];
                self.complete(&mut [(0, recv)], &mut out)?;
                let [data] = out;
                Ok(data)
            }
        }
    }

    /// Out-of-order completion: matches whichever pending receive's message
    /// is queued first, so one slow sender never serializes the rest.
    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        let mut out: Vec<Option<Vec<u8>>> = (0..reqs.len()).map(|_| None).collect();
        let mut pending = Vec::new();
        for (slot, req) in reqs.into_iter().enumerate() {
            if let Posted::Recv(recv) = self.reqs.take(req)? {
                pending.push((slot, recv));
            }
        }
        if !pending.is_empty() {
            self.complete(&mut pending, &mut out)?;
        }
        Ok(out)
    }

    fn compute(&mut self, _bytes: usize) {
        // Real computation happens in the algorithm via `reduce_into`; the
        // accounting hook is only meaningful to the trace backend.
    }
}

#[cfg(test)]
mod tests {
    //! The engine driven by a scripted in-memory transport: no threads, no
    //! sleeps, every ordering chosen by the script.

    use super::*;

    enum Ev {
        Msg(Rank, Tag, Vec<u8>),
        Gone(Rank),
        Abort(Rank),
    }
    use Ev::{Abort, Gone, Msg};

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

        fn progress(&mut self, inbox: &mut Inbox, timeout: Duration, from: Option<Rank>) {
            self.asked.push((timeout.is_zero(), from));
            for ev in self.steps.pop_front().unwrap_or_default() {
                match ev {
                    Msg(from, tag, data) => inbox.deliver(from, tag, data),
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
