//! The benchmark's own `Comm` wrappers: a transport that costs nothing
//! (`SinkComm`) and a span recorder around a real endpoint (`SpanComm`).
//!
//! `SpanComm` is deliberately not `exacoll_obs::TimedComm`: that wrapper is
//! a layer under test (`obs.timed_overhead_pct`), and the tracing the
//! benchmark does must not change when it does.

use exacoll_comm::{Comm, CommError, CommResult, Rank, Req, SgView, Tag};
use std::time::Instant;

/// A transport whose cost is as close to zero as the `Comm` contract allows:
/// sends are dropped, receives complete at once with zeroed payloads. What a
/// call spends over it is the caller's own cost.
pub struct SinkComm {
    rank: Rank,
    size: usize,
    /// `bytes + 1` for a posted receive, 0 for a posted send.
    reqs: Vec<usize>,
}

impl SinkComm {
    pub fn new(rank: Rank, size: usize) -> SinkComm {
        SinkComm {
            rank,
            size,
            reqs: Vec::new(),
        }
    }

    /// Start the next call: forget posted requests, keep the allocation.
    pub fn reset(&mut self) {
        self.reqs.clear();
    }

    fn post(&mut self, marker: usize) -> CommResult<Req> {
        self.reqs.push(marker);
        Ok(Req::from_index(self.reqs.len() - 1))
    }
}

impl Comm for SinkComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, _to: Rank, _tag: Tag, _data: Vec<u8>) -> CommResult<Req> {
        self.post(0)
    }

    fn send_sg(&mut self, _to: Rank, _tag: Tag, _view: SgView<'_>) -> CommResult<Req> {
        self.post(0)
    }

    fn irecv(&mut self, _from: Rank, _tag: Tag, bytes: usize) -> CommResult<Req> {
        self.post(bytes + 1)
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        match self.reqs.get(req.index()) {
            Some(0) => Ok(None),
            Some(&marker) => Ok(Some(vec![0u8; marker - 1])),
            None => Err(CommError::UnknownRequest {
                handle: req.index(),
            }),
        }
    }

    fn compute(&mut self, _bytes: usize) {}
}

/// What a child span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Isend,
    SendSg,
    Irecv,
    Wait,
    Waitall,
}

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Isend => "isend",
            Call::SendSg => "send_sg",
            Call::Irecv => "irecv",
            Call::Wait => "wait",
            Call::Waitall => "waitall",
        }
    }
}

/// One call into the wrapped endpoint. Times are nanoseconds since the
/// epoch every rank of the world shares.
#[derive(Clone, Copy, Debug)]
pub struct ChildSpan {
    pub call: Call,
    pub begin_ns: u64,
    pub end_ns: u64,
    /// Payload bytes for a send or a posted receive, request count for a
    /// `waitall`, 0 for a `wait`.
    pub detail: u64,
}

/// Totals taken at the `Comm` boundary; kept for every call even after the
/// span buffer is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommTotals {
    pub messages: u64,
    pub bytes_sent: u64,
    /// Nanoseconds inside `wait` and `waitall`.
    pub wait_ns: u64,
    /// Nanoseconds inside every forwarded call, waits included.
    pub comm_ns: u64,
}

/// Records a span per forwarded call and forwards it unchanged.
pub struct SpanComm<C: Comm> {
    inner: C,
    epoch: Instant,
    /// Pre-sized; once full, later calls only update `totals`.
    spans: Vec<ChildSpan>,
    totals: CommTotals,
}

impl<C: Comm> SpanComm<C> {
    /// Wrap `inner`; keep at most `max_spans` child spans (the buffer is
    /// allocated here, never grown while measuring).
    pub fn new(inner: C, epoch: Instant, max_spans: usize) -> SpanComm<C> {
        SpanComm {
            inner,
            epoch,
            spans: Vec::with_capacity(max_spans),
            totals: CommTotals::default(),
        }
    }

    /// Stop recording.
    pub fn finish(self) -> (Vec<ChildSpan>, CommTotals) {
        (self.spans, self.totals)
    }

    fn timed<T>(&mut self, call: Call, detail: u64, f: impl FnOnce(&mut C) -> T) -> T {
        let begin_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(&mut self.inner);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let took = end_ns - begin_ns;
        self.totals.comm_ns += took;
        if matches!(call, Call::Wait | Call::Waitall) {
            self.totals.wait_ns += took;
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(ChildSpan {
                call,
                begin_ns,
                end_ns,
                detail,
            });
        }
        out
    }

    fn count_send(&mut self, bytes: usize) {
        self.totals.messages += 1;
        self.totals.bytes_sent += bytes as u64;
    }
}

impl<C: Comm> Comm for SpanComm<C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        self.count_send(data.len());
        self.timed(Call::Isend, data.len() as u64, |c| c.isend(to, tag, data))
    }

    fn send_sg(&mut self, to: Rank, tag: Tag, view: SgView<'_>) -> CommResult<Req> {
        self.count_send(view.len());
        self.timed(Call::SendSg, view.len() as u64, |c| {
            c.send_sg(to, tag, view)
        })
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        self.timed(Call::Irecv, bytes as u64, |c| c.irecv(from, tag, bytes))
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        self.timed(Call::Wait, 0, |c| c.wait(req))
    }

    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        self.timed(Call::Waitall, reqs.len() as u64, |c| c.waitall(reqs))
    }

    fn compute(&mut self, bytes: usize) {
        self.inner.compute(bytes);
    }

    fn mark(&mut self, label: &'static str, round: u32) {
        self.inner.mark(label, round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_comm::run_ranks;

    /// The `Comm` contract: a receiver cannot tell `send_sg` from
    /// `isend(view.to_vec())`.
    #[test]
    fn span_comm_send_sg_delivers_the_gathered_bytes() {
        let buf: Vec<u8> = (0..32).collect();
        let ranges = [20..24, 0..3, 9..10];
        let out = run_ranks(2, |c| {
            let mut sc = SpanComm::new(&mut *c, Instant::now(), 16);
            if sc.rank() == 0 {
                let view = SgView::new(&buf, &ranges);
                let a = sc.send_sg(1, 7, view)?;
                let b = sc.isend(1, 8, SgView::new(&buf, &ranges).to_vec())?;
                sc.waitall(vec![a, b])?;
                Ok((Vec::new(), Vec::new(), sc.finish().1))
            } else {
                let sg = sc.recv(0, 7, 8)?;
                let plain = sc.recv(0, 8, 8)?;
                Ok((sg, plain, sc.finish().1))
            }
        });
        assert_eq!(out[1].0, vec![20, 21, 22, 23, 0, 1, 2, 9]);
        assert_eq!(out[1].0, out[1].1);
        assert_eq!((out[0].2.messages, out[0].2.bytes_sent), (2, 16));
        assert_eq!(out[1].2.messages, 0);
        assert!(out[1].2.wait_ns > 0 && out[1].2.wait_ns <= out[1].2.comm_ns);
    }

    #[test]
    fn span_buffer_never_grows_but_totals_keep_counting() {
        let mut sc = SpanComm::new(SinkComm::new(0, 2), Instant::now(), 2);
        for _ in 0..5 {
            let r = sc.isend(1, 0, vec![0; 10]).unwrap();
            sc.wait(r).unwrap();
        }
        let (spans, totals) = sc.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].call, Call::Isend);
        assert_eq!((totals.messages, totals.bytes_sent), (5, 50));
    }

    /// A sink has no receiver to compare bytes at, so its half of the
    /// contract is that both send forms are accepted alike and a receive
    /// yields exactly the posted length.
    #[test]
    fn sink_comm_treats_both_send_forms_alike() {
        let buf = [1u8, 2, 3, 4];
        let range = 1..3;
        let mut c = SinkComm::new(0, 2);
        let a = c.send_sg(1, 0, SgView::contiguous(&buf, &range)).unwrap();
        let b = c
            .isend(1, 0, SgView::contiguous(&buf, &range).to_vec())
            .unwrap();
        assert_eq!(c.wait(a).unwrap(), None);
        assert_eq!(c.wait(b).unwrap(), None);
        let r = c.irecv(1, 0, 5).unwrap();
        assert_eq!(c.wait(r).unwrap(), Some(vec![0; 5]));
        c.reset();
        assert!(matches!(
            c.wait(Req::from_index(0)),
            Err(CommError::UnknownRequest { .. })
        ));
    }
}
