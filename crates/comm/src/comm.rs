//! The [`Comm`] trait: the MPI-like surface collective algorithms target.

use crate::error::CommResult;
use crate::sg::{Regions, SgDests, SgView};
use crate::types::{Rank, Tag};

/// A non-blocking request handle, as returned by [`Comm::isend`] /
/// [`Comm::irecv`]. Handles are consumed by `wait`/`waitall` exactly once.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Req(pub(crate) usize);

impl Req {
    /// The backend-internal handle index (used by trace replay).
    pub fn index(&self) -> usize {
        self.0
    }

    /// Construct a handle from an index, for [`Comm`] wrappers outside this
    /// crate that keep their own request table (backends do not: their
    /// handles come from [`crate::Engine`]). A forged or stale handle is
    /// harmless — it is answered with `CommError::UnknownRequest`.
    pub fn from_index(index: usize) -> Req {
        Req(index)
    }
}

/// The communication surface collective algorithms are written against.
///
/// This mirrors the MPI subset used by MPICH's collective implementations:
/// non-blocking point-to-point with `(source, tag)` matching, combined
/// completion via `waitall`, and a [`Comm::compute`] hook that accounts for
/// local reduction work (so the trace/simulation backend can charge γ·bytes).
///
/// Matching follows MPI ordering semantics: messages between a given
/// (sender, receiver, tag) triple are non-overtaking.
pub trait Comm {
    /// This process's rank, in `0..size`.
    fn rank(&self) -> Rank;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Post a non-blocking send of `data` to `to`.
    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req>;

    /// Post a non-blocking scatter-gather send: the payload is the ordered
    /// concatenation of `view`'s segments, borrowed from the caller's buffer.
    ///
    /// The receiver cannot tell `send_sg` and `isend` apart: for any `view`,
    /// `send_sg(to, tag, view)` must deliver bytes identical to
    /// `isend(to, tag, view.to_vec())`. The default implementation *is* that
    /// gather-copy, which keeps payload-observing wrappers (fault injection,
    /// digest recording) correct for free. [`crate::Engine`] overrides it to
    /// hand the borrowed segments to its transport, so the TCP mesh puts them
    /// on the wire without materializing an intermediate `Vec`.
    fn send_sg(&mut self, to: Rank, tag: Tag, view: SgView<'_>) -> CommResult<Req> {
        self.isend(to, tag, view.to_vec())
    }

    /// Post a non-blocking receive of exactly `bytes` bytes from `from`.
    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req>;

    /// Block until `req` completes. Returns the received payload for receive
    /// requests, `None` for send requests.
    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>>;

    /// Block until all of `reqs` complete, returning payloads in order.
    ///
    /// The default implementation waits sequentially; backends override it
    /// when completion order matters for performance accounting.
    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Complete all of `reqs` with every received payload put where the
    /// caller wants it: request `i`'s bytes land in `bufs` in `dests.of(i)`,
    /// written over it or folded into it as `dests.landing(i)` says. `reqs`
    /// is left empty (with its allocation, where the implementation
    /// completes in place).
    ///
    /// The caller cannot tell this from [`waitall`](Self::waitall) followed
    /// by [`SgDests::put`] of payload `i` — same matching, same errors: a
    /// copied payload is scattered over its destination and what a shorter
    /// one does not cover is zeroed, a folded one is reduced into its
    /// destination zero-padded, `dst ⊕ payload` (how much arrived is not
    /// reported; a caller that needs the length uses `waitall`). The default
    /// implementation *is* that, which keeps payload-observing wrappers
    /// correct without opting in; one that forwards to an inner layer and
    /// reads the payload there keeps the folding destinations, forwards
    /// [`SgDests::copies`] and folds after. [`crate::Engine`] overrides it
    /// to offer the destinations to its transport, so a message that
    /// arrives while the rank is blocked here is read from the socket, or
    /// written by the sending thread, straight into `bufs`: no payload `Vec`,
    /// no second copy. After an error the destinations hold unspecified
    /// bytes.
    ///
    /// # Panics
    ///
    /// If `dests` does not name one destination per request.
    fn waitall_into(
        &mut self,
        reqs: &mut Vec<Req>,
        mut bufs: Regions<'_>,
        dests: SgDests<'_>,
    ) -> CommResult<()> {
        assert_eq!(reqs.len(), dests.len(), "one destination per request");
        let payloads = self.waitall(std::mem::take(reqs))?;
        for (i, payload) in payloads.iter().enumerate() {
            if let Some(payload) = payload {
                dests.put(&mut bufs, i, payload);
            }
        }
        Ok(())
    }

    /// Account for `bytes` of local reduction computation (γ term in the
    /// cost model). Backends that execute for real treat this as a no-op;
    /// wrappers that observe the op stream (`RecordComm`) record it.
    fn compute(&mut self, bytes: usize);

    /// Annotate the schedule with a round/phase boundary: `label` names the
    /// phase (a static string so annotations stay allocation-free on hot
    /// paths) and `round` is the 0-based round index within that phase.
    /// Purely observational — backends that don't record timelines ignore it.
    fn mark(&mut self, _label: &'static str, _round: u32) {}

    /// Blocking send: post and wait.
    fn send(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<()> {
        let r = self.isend(to, tag, data)?;
        self.wait(r)?;
        Ok(())
    }

    /// Blocking receive: post and wait, returning the payload.
    fn recv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Vec<u8>> {
        let r = self.irecv(from, tag, bytes)?;
        Ok(self.wait(r)?.expect("recv request yields a payload"))
    }

    /// Simultaneous exchange: post both, wait both, return the received
    /// payload. The workhorse of recursive doubling/multiplying and ring.
    fn sendrecv(
        &mut self,
        to: Rank,
        send_tag: Tag,
        data: Vec<u8>,
        from: Rank,
        recv_tag: Tag,
        recv_bytes: usize,
    ) -> CommResult<Vec<u8>> {
        let rs = self.isend(to, send_tag, data)?;
        let rr = self.irecv(from, recv_tag, recv_bytes)?;
        let mut out = self.waitall(vec![rs, rr])?;
        Ok(out
            .pop()
            .expect("waitall returns one entry per request")
            .expect("recv request yields a payload"))
    }
}

/// Forwarding impl so wrappers (e.g. fault injection) can borrow an endpoint
/// instead of owning it.
impl<C: Comm> Comm for &mut C {
    fn rank(&self) -> Rank {
        (**self).rank()
    }
    fn size(&self) -> usize {
        (**self).size()
    }
    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        (**self).isend(to, tag, data)
    }
    fn send_sg(&mut self, to: Rank, tag: Tag, view: SgView<'_>) -> CommResult<Req> {
        (**self).send_sg(to, tag, view)
    }
    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        (**self).irecv(from, tag, bytes)
    }
    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        (**self).wait(req)
    }
    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        (**self).waitall(reqs)
    }
    fn waitall_into(
        &mut self,
        reqs: &mut Vec<Req>,
        bufs: Regions<'_>,
        dests: SgDests<'_>,
    ) -> CommResult<()> {
        (**self).waitall_into(reqs, bufs, dests)
    }
    fn compute(&mut self, bytes: usize) {
        (**self).compute(bytes)
    }
    fn mark(&mut self, label: &'static str, round: u32) {
        (**self).mark(label, round)
    }
}
