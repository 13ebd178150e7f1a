//! The execution engine: [`compile`] + [`Executor`].
//!
//! [`compile`] lowers a [`Schedule`] — a straight-line `Vec<Step>` of
//! heap-allocated [`SgList`]s — into an immutable [`CompiledSchedule`]:
//! every scatter/gather list is flattened into one contiguous range arena,
//! every instruction into one flat [`CStep`] array, and every *flush* — the
//! single `waitall`, in posting order, that completes all outstanding
//! requests and lands received payloads in their scatter lists — becomes an
//! explicit [`CStep::Flush`]. This is the one place the flush rule is
//! decided (the verifier keeps an independent copy as the proof tool). A
//! flush is emitted, only when requests are actually outstanding, at exactly
//! four points:
//!
//! 1. at a [`Step::RoundMark`], *before* the mark — one `waitall` per round;
//! 2. before a [`Step::Compute`], so reductions see delivered data;
//! 3. before a send whose source overlaps a pending receive's destination
//!    (read-after-write hazard: forwarding data still in flight);
//! 4. at the end of the plan.
//!
//! Which requests are outstanding at each step is a pure function of the
//! straight-line step sequence, so the rule resolves statically and
//! everything that walks a plan — [`Executor::run`] on a live backend,
//! [`CompiledSchedule::to_trace`] reading sizes off it for the simulator,
//! the world walker ([`super::eval`]) for the optimizer gate and replay —
//! walks the same `CStep` stream and cannot disagree about where a wait
//! happens.
//!
//! The same walk records which scratch bytes have been written, and sets
//! [`CompiledSchedule::reads_unwritten`] when a step or the output may read
//! one that was not.
//!
//! [`Executor::run`] does no overlap scans, keeps its scratch buffer and its
//! request and receive-destination arenas across runs, and never owns a
//! payload: sends go out as borrowed [`SgView`]s via [`Comm::send_sg`], and a
//! flush is one [`Comm::waitall_into`] naming the scratch buffer and the
//! plan's own range arena, so the backend writes received bytes where the
//! plan wants them.

use super::verify::Intervals;
use super::{ComputeKind, Schedule, SgList, Step};
use exacoll_comm::{
    reduce_into, scatter, Comm, CommError, CommResult, DType, Rank, RankTrace, ReduceOp, Req,
    SgDests, SgView, Tag, TraceOp,
};
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// A slice of the compiled plan's range arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First range index in the arena.
    start: u32,
    /// Number of ranges.
    count: u32,
    /// Total bytes the ranges denote.
    bytes: u32,
}

impl Span {
    /// Total bytes the span denotes.
    pub fn bytes(&self) -> usize {
        self.bytes as usize
    }

    /// The arena indices of the span's ranges.
    fn indices(&self) -> Range<usize> {
        self.start as usize..(self.start + self.count) as usize
    }
}

/// One compiled instruction. `SendRecv` is decomposed into `Send` + `Recv`
/// (posted in that order), and flushes are explicit instructions rather
/// than runtime decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CStep {
    /// Complete every outstanding request with one `waitall`, scattering
    /// received payloads. Emitted only where requests are outstanding.
    Flush,
    /// Timeline annotation (the flush a round mark implies is a separate
    /// preceding [`CStep::Flush`] when one is due).
    Mark {
        /// Phase label.
        label: &'static str,
        /// Round index within the phase.
        round: u32,
    },
    /// Post a zero-copy scatter-gather send of the bytes `src` denotes.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload ranges in the scratch buffer.
        src: Span,
    },
    /// Post a receive of `dst.bytes()` bytes, scattered into `dst` at the
    /// next flush.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Destination ranges.
        dst: Span,
    },
    /// `dst = src` local movement.
    Copy {
        /// Source ranges.
        src: Span,
        /// Destination ranges.
        dst: Span,
    },
    /// `dst = dst ⊕ src` elementwise, charged `dst.bytes()` γ bytes.
    Reduce {
        /// Element type.
        dtype: DType,
        /// Combining operator.
        op: ReduceOp,
        /// Right-hand operand.
        src: Span,
        /// Destination and left-hand operand.
        dst: Span,
    },
}

/// An immutable, arena-backed execution plan: the cacheable product of
/// `lower` (+ optional optimizer passes) + [`compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSchedule {
    /// Communicator size the plan was lowered for.
    pub p: usize,
    /// The rank this plan belongs to.
    pub rank: Rank,
    /// Scratch buffer size in bytes.
    pub buf_len: usize,
    input: Span,
    output: Span,
    ranges: Box<[Range<usize>]>,
    steps: Box<[CStep]>,
    reads_unwritten: bool,
}

impl CompiledSchedule {
    /// Bytes of caller input the plan consumes.
    pub fn input_bytes(&self) -> usize {
        self.input.bytes()
    }

    /// Whether some step or the output may read a scratch byte that neither
    /// the input view nor an earlier step wrote. Writes are the input view,
    /// a receive's destination at post time (as the verifier counts it) and
    /// a copy's destination, up to its source's length; reads are a send's
    /// source, both operands of a reduction, a copy's source and, at the
    /// end, the output view. Clear for every plan
    /// [`verify`](super::verify::verify) accepts — its define-once rules
    /// imply it — and what lets an [`Executor`] skip zeroing the scratch
    /// bytes an earlier run left behind.
    pub fn reads_unwritten(&self) -> bool {
        self.reads_unwritten
    }

    /// The compiled instruction sequence.
    pub fn steps(&self) -> &[CStep] {
        &self.steps
    }

    /// Where input bytes land and which bytes form the output, for the
    /// memories of [`super::eval`].
    pub(super) fn views(&self) -> (Span, Span) {
        (self.input, self.output)
    }

    /// The ranges a span denotes, in payload order.
    pub fn ranges_of(&self, span: Span) -> &[Range<usize>] {
        &self.ranges[span.indices()]
    }
}

/// Narrow an arena index or byte total to the `u32` a [`Span`] stores.
///
/// # Panics
///
/// Names `region` when `n` does not fit: a plan addressing 4 GiB or more
/// through one region must fail here, not wrap into a short message.
fn span_u32(n: usize, what: &str, region: fmt::Arguments) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| {
        panic!("cannot compile {region}: {what} {n} exceeds the u32 a compiled span holds")
    })
}

/// [`compile`]'s working state: the arenas being filled, the static picture
/// of what is outstanding since the last flush, and of which scratch bytes
/// have been written.
#[derive(Default)]
struct Compiler<'a> {
    ranges: Vec<Range<usize>>,
    steps: Vec<CStep>,
    /// Requests posted since the last flush.
    outstanding: usize,
    /// Destination lists of the receives among them.
    pending_dsts: Vec<&'a SgList>,
    written: Intervals<()>,
    /// See [`CompiledSchedule::reads_unwritten`].
    reads_unwritten: bool,
}

impl<'a> Compiler<'a> {
    fn read(&mut self, sg: &SgList) {
        if !self.reads_unwritten {
            self.reads_unwritten = !sg.ranges().iter().all(|r| self.written.cover(r).is_some());
        }
    }

    fn write(&mut self, sg: &SgList) {
        if !self.reads_unwritten {
            // A verified plan writes each byte once, so `define` (nothing
            // written there yet) is the cheap common case.
            for r in sg.ranges() {
                if !self.written.define(r.clone(), ()) {
                    self.written.assign(r.clone(), ());
                }
            }
        }
    }

    /// Append `sg`'s ranges to the arena and return the span naming them.
    fn intern(&mut self, sg: &SgList, region: fmt::Arguments) -> Span {
        let start = span_u32(self.ranges.len(), "range index", region);
        self.ranges.extend_from_slice(sg.ranges());
        Span {
            start,
            count: span_u32(sg.ranges().len(), "range count", region),
            bytes: span_u32(sg.len(), "byte total", region),
        }
    }

    fn flush(&mut self) {
        if self.outstanding > 0 {
            self.steps.push(CStep::Flush);
            self.outstanding = 0;
            self.pending_dsts.clear();
        }
    }

    fn send(&mut self, i: usize, to: Rank, tag: Tag, src: &SgList) {
        if self.pending_dsts.iter().any(|d| src.overlaps(d)) {
            self.flush();
        }
        self.read(src);
        let src = self.intern(src, format_args!("step {i} send source"));
        self.steps.push(CStep::Send { to, tag, src });
        self.outstanding += 1;
    }

    fn recv(&mut self, i: usize, from: Rank, tag: Tag, dst: &'a SgList) {
        self.write(dst);
        let span = self.intern(dst, format_args!("step {i} receive destination"));
        self.steps.push(CStep::Recv {
            from,
            tag,
            dst: span,
        });
        self.outstanding += 1;
        self.pending_dsts.push(dst);
    }
}

/// Flatten `schedule` into a [`CompiledSchedule`], placing every flush
/// statically (see the module docs for the rule).
///
/// # Panics
///
/// If any region of the plan denotes 4 GiB or more (a [`Span`] stores
/// `u32` totals); the message names the region.
pub fn compile(schedule: &Schedule) -> CompiledSchedule {
    let mut c = Compiler::default();
    c.write(&schedule.input);
    for (i, step) in schedule.steps.iter().enumerate() {
        match step {
            Step::RoundMark { label, round } => {
                c.flush();
                c.steps.push(CStep::Mark {
                    label,
                    round: *round,
                });
            }
            Step::Compute { kind, src, dst } => {
                c.flush();
                c.read(src);
                match kind {
                    // A short source fills a prefix of the destination.
                    ComputeKind::Copy if src.len() < dst.len() => c.write(&dst.slice(0, src.len())),
                    ComputeKind::Copy => c.write(dst),
                    ComputeKind::Reduce { .. } => c.read(dst),
                }
                let src = c.intern(src, format_args!("step {i} compute source"));
                let dst = c.intern(dst, format_args!("step {i} compute destination"));
                c.steps.push(match kind {
                    ComputeKind::Copy => CStep::Copy { src, dst },
                    ComputeKind::Reduce { dtype, op } => CStep::Reduce {
                        dtype: *dtype,
                        op: *op,
                        src,
                        dst,
                    },
                });
            }
            Step::Send { to, tag, src } => c.send(i, *to, *tag, src),
            Step::Recv { from, tag, dst } => c.recv(i, *from, *tag, dst),
            Step::SendRecv {
                to,
                send_tag,
                src,
                from,
                recv_tag,
                dst,
            } => {
                c.send(i, *to, *send_tag, src);
                c.recv(i, *from, *recv_tag, dst);
            }
        }
    }
    c.flush();
    c.read(&schedule.output);
    let input = c.intern(&schedule.input, format_args!("input view"));
    let output = c.intern(&schedule.output, format_args!("output view"));
    CompiledSchedule {
        p: schedule.p,
        rank: schedule.rank,
        buf_len: schedule.buf_len,
        input,
        output,
        ranges: c.ranges.into_boxed_slice(),
        steps: c.steps.into_boxed_slice(),
        reads_unwritten: c.reads_unwritten,
    }
}

/// One rank's scratch buffer plus the gather scratch its non-contiguous
/// copy/reduce paths need. The [`Executor`] and the world walker's byte
/// memory ([`super::eval`]) copy and reduce only through this type, so what
/// `Copy` and `Reduce` do to the buffer is written once; a receive is
/// [`scatter`]ed into it by the walker and by the backend under the executor
/// ([`Comm::waitall_into`]) alike.
#[derive(Default)]
pub(super) struct RankMem {
    buf: Vec<u8>,
    scratch_src: Vec<u8>,
    scratch_dst: Vec<u8>,
}

impl RankMem {
    /// Make the scratch buffer ready for `plan`, with `input` in its input
    /// view. The caller has checked `input` fills the view; extra bytes are
    /// ignored.
    ///
    /// The buffer keeps its high-water length and only grows, new bytes
    /// zero; every access goes through its first `plan.buf_len` bytes, so a
    /// range past them panics as in a buffer of exactly that size. The bytes
    /// an earlier run left are zeroed only for a plan that may read a byte
    /// it did not write ([`CompiledSchedule::reads_unwritten`]): no other
    /// plan can observe them.
    pub(super) fn load(&mut self, plan: &CompiledSchedule, input: &[u8]) {
        debug_assert!(input.len() >= plan.input_bytes());
        if plan.reads_unwritten {
            self.buf.clear();
        }
        if self.buf.len() < plan.buf_len {
            self.buf.resize(plan.buf_len, 0);
        }
        self.land(plan, plan.input, input);
    }

    /// The bytes `span` denotes, borrowed in payload order.
    pub(super) fn view<'a>(&'a self, plan: &'a CompiledSchedule, span: Span) -> SgView<'a> {
        SgView::new(&self.buf[..plan.buf_len], plan.ranges_of(span))
    }

    /// Write `data` into `dst`'s ranges in order. A short payload fills a
    /// prefix.
    pub(super) fn land(&mut self, plan: &CompiledSchedule, dst: Span, data: &[u8]) {
        scatter(&mut self.buf[..plan.buf_len], plan.ranges_of(dst), data);
    }

    /// The plan's output bytes.
    pub(super) fn output(&self, plan: &CompiledSchedule) -> Vec<u8> {
        self.view(plan, plan.output).to_vec()
    }

    /// `dst = src`.
    pub(super) fn copy(&mut self, plan: &CompiledSchedule, src: Span, dst: Span) {
        let (s, d) = (plan.ranges_of(src), plan.ranges_of(dst));
        let buf = &mut self.buf[..plan.buf_len];
        if let ([s], [d]) = (s, d) {
            // Contiguous fast path; `copy_within` is memmove, so overlap
            // behaves like the gather-then-scatter below.
            buf.copy_within(s.clone(), d.start);
        } else {
            gather(&mut self.scratch_src, buf, s);
            scatter(buf, d, &self.scratch_src);
        }
    }

    /// `dst = dst ⊕ src` elementwise.
    ///
    /// # Errors
    ///
    /// Whatever [`reduce_into`] rejects (operator/dtype mismatch, ragged
    /// operand lengths).
    pub(super) fn reduce(
        &mut self,
        plan: &CompiledSchedule,
        dtype: DType,
        op: ReduceOp,
        src: Span,
        dst: Span,
    ) -> CommResult<()> {
        let (s, d) = (plan.ranges_of(src), plan.ranges_of(dst));
        let buf = &mut self.buf[..plan.buf_len];
        match (s, d) {
            // Contiguous disjoint operands reduce in place via a split
            // borrow — no gather, no scatter.
            ([s], [d]) if s.end <= d.start => {
                let (lo, hi) = buf.split_at_mut(d.start);
                reduce_into(dtype, op, &mut hi[..d.len()], &lo[s.clone()])
            }
            ([s], [d]) if d.end <= s.start => {
                let (lo, hi) = buf.split_at_mut(s.start);
                reduce_into(dtype, op, &mut lo[d.clone()], &hi[..s.len()])
            }
            _ => {
                gather(&mut self.scratch_src, buf, s);
                gather(&mut self.scratch_dst, buf, d);
                reduce_into(dtype, op, &mut self.scratch_dst, &self.scratch_src)?;
                scatter(buf, d, &self.scratch_dst);
                Ok(())
            }
        }
    }
}

/// Replace `out` with the bytes of `buf` that `ranges` denote, in order.
fn gather(out: &mut Vec<u8>, buf: &[u8], ranges: &[Range<usize>]) {
    out.clear();
    for r in ranges {
        out.extend_from_slice(&buf[r.clone()]);
    }
}

/// Reusable execution state for compiled plans.
///
/// One `Executor` may run any number of plans; its scratch buffer, compute
/// scratch and the arenas of the requests outstanding since the last flush
/// grow to a high-water mark and are reused, so on a backend that implements
/// [`Comm::waitall_into`] itself a steady-state run allocates nothing but
/// its output. The scratch buffer is not re-zeroed between runs (see
/// [`CompiledSchedule::reads_unwritten`]). [`execute_compiled`] keeps one
/// per thread.
#[derive(Default)]
pub struct Executor {
    mem: RankMem,
    reqs: Vec<Req>,
    /// Per outstanding request, where its payload lands: the arena indices
    /// of a receive's destination ranges, empty for a send.
    dsts: Vec<Range<usize>>,
}

impl Executor {
    /// A fresh executor with empty arenas.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Run `plan` on backend `c` with this rank's `input` bytes, returning
    /// the rank's output bytes.
    ///
    /// # Errors
    ///
    /// [`CommError::PlanMismatch`] when `c`'s rank/size disagree with the
    /// plan's, [`CommError::ShortInput`] when `input` is shorter than the
    /// plan's input region — errors, not panics, so a mis-routed plan cannot
    /// take down a worker process mid-launch — and any backend error
    /// (truncation, unsupported reduction, peer failure) at the step that
    /// met it.
    pub fn run<C: Comm>(
        &mut self,
        c: &mut C,
        plan: &CompiledSchedule,
        input: &[u8],
    ) -> CommResult<Vec<u8>> {
        if (c.size(), c.rank()) != (plan.p, plan.rank) {
            return Err(CommError::PlanMismatch {
                plan_p: plan.p,
                plan_rank: plan.rank,
                comm_size: c.size(),
                comm_rank: c.rank(),
            });
        }
        if input.len() < plan.input_bytes() {
            return Err(CommError::ShortInput {
                need: plan.input_bytes(),
                got: input.len(),
            });
        }
        self.mem.load(plan, input);
        self.reqs.clear();
        self.dsts.clear();

        for step in plan.steps() {
            match step {
                CStep::Flush => {
                    let dests = SgDests::new(&plan.ranges, &self.dsts);
                    let buf = &mut self.mem.buf[..plan.buf_len];
                    c.waitall_into(&mut self.reqs, buf, dests)?;
                    self.dsts.clear();
                }
                CStep::Mark { label, round } => c.mark(label, *round),
                CStep::Send { to, tag, src } => {
                    let req = c.send_sg(*to, *tag, self.mem.view(plan, *src))?;
                    self.reqs.push(req);
                    self.dsts.push(0..0);
                }
                CStep::Recv { from, tag, dst } => {
                    let req = c.irecv(*from, *tag, dst.bytes())?;
                    self.reqs.push(req);
                    self.dsts.push(dst.indices());
                }
                CStep::Copy { src, dst } => self.mem.copy(plan, *src, *dst),
                CStep::Reduce {
                    dtype,
                    op,
                    src,
                    dst,
                } => {
                    self.mem.reduce(plan, *dtype, *op, *src, *dst)?;
                    c.compute(dst.bytes());
                }
            }
        }
        Ok(self.mem.output(plan))
    }
}

/// The executor's symbolic twin: the op stream [`Executor::run`] would issue
/// to its backend, read off the instruction stream without running it. It
/// lives beside `run` because the two must agree step for step; both
/// `match` exhaustively, so a new [`CStep`] variant stops both from
/// compiling.
impl CompiledSchedule {
    /// The rank's [`RankTrace`] for discrete-event simulation. A trace names
    /// peers and sizes only, so no buffer is allocated and no byte moved: a
    /// plan prices in O(steps) whatever its message size.
    ///
    /// `Send`/`Recv` post the same op with the span's byte total, `Flush`
    /// waits on every op posted since the last one, `Reduce` charges its
    /// destination bytes, `Copy` is free. `tests/observability.rs`'s
    /// `symbolic_trace_equals_the_executed_trace` pins this equal, rank by
    /// rank, to the ops [`execute_compiled`] issues on the threaded backend
    /// as a timing wrapper sees them.
    ///
    /// # Panics
    ///
    /// Naming the rank, when a step addresses a peer outside the
    /// communicator or a request is never waited on.
    pub fn to_trace(&self) -> RankTrace {
        let check_peer = |peer: Rank| {
            assert!(
                peer < self.p,
                "symbolic trace failed on rank {}: peer {peer} out of range for size {}",
                self.rank,
                self.p
            );
        };
        let mut ops = Vec::with_capacity(self.steps.len());
        // Op indices posted since the last flush.
        let mut posted: Vec<u32> = Vec::new();
        for step in self.steps() {
            match step {
                CStep::Flush => ops.push(TraceOp::WaitAll {
                    reqs: std::mem::take(&mut posted),
                }),
                CStep::Mark { label, round } => ops.push(TraceOp::Mark {
                    label,
                    round: *round,
                }),
                CStep::Send { to, tag, src } => {
                    check_peer(*to);
                    posted.push(ops.len() as u32);
                    ops.push(TraceOp::Send {
                        to: *to,
                        tag: *tag,
                        bytes: src.bytes() as u64,
                    });
                }
                CStep::Recv { from, tag, dst } => {
                    check_peer(*from);
                    posted.push(ops.len() as u32);
                    ops.push(TraceOp::Recv {
                        from: *from,
                        tag: *tag,
                        bytes: dst.bytes() as u64,
                    });
                }
                CStep::Copy { .. } => {}
                CStep::Reduce { dst, .. } => ops.push(TraceOp::Compute {
                    bytes: dst.bytes() as u64,
                }),
            }
        }
        assert!(
            posted.is_empty(),
            "rank {} leaked {} unwaited request(s): ops {posted:?}",
            self.rank,
            posted.len()
        );
        RankTrace {
            rank: self.rank,
            size: self.p,
            ops,
        }
    }
}

/// Run an already-compiled plan on this thread's [`Executor`], whose
/// scratch buffer and arenas persist across calls. A call made while that
/// executor is running — from inside a `Comm` method — runs on a throwaway
/// one instead.
pub fn execute_compiled<C: Comm>(
    c: &mut C,
    plan: &CompiledSchedule,
    input: &[u8],
) -> CommResult<Vec<u8>> {
    thread_local! {
        static EXECUTOR: RefCell<Executor> = RefCell::new(Executor::new());
    }
    EXECUTOR.with(|e| match e.try_borrow_mut() {
        Ok(mut e) => e.run(c, plan, input),
        Err(_) => Executor::new().run(c, plan, input),
    })
}

#[cfg(test)]
mod tests {
    use super::super::ScheduleBuilder;
    use super::*;
    use exacoll_comm::run_ranks;
    use proptest::prelude::*;

    /// A two-rank swap written directly in the IR.
    fn swap_schedule(p: usize, rank: usize, n: usize) -> Schedule {
        let mut b = ScheduleBuilder::new(p, rank);
        let mine = b.alloc(n);
        let theirs = b.alloc(n);
        let peer = rank ^ 1;
        b.mark("swap", 0);
        b.sendrecv(peer, 7, mine.clone(), peer, 7, theirs.clone());
        b.finish(mine, theirs)
    }

    #[test]
    fn executes_a_two_rank_swap() {
        let out = run_ranks(2, |c| {
            let s = swap_schedule(2, c.rank(), 4);
            execute_compiled(c, &compile(&s), &[c.rank() as u8; 4])
        });
        assert_eq!(out[0], vec![1; 4]);
        assert_eq!(out[1], vec![0; 4]);
    }

    #[test]
    fn trace_is_the_executor_op_stream() {
        let t = swap_schedule(2, 0, 4).to_trace();
        assert_eq!(
            t.ops,
            vec![
                TraceOp::Mark {
                    label: "swap",
                    round: 0
                },
                TraceOp::Send {
                    to: 1,
                    tag: 7,
                    bytes: 4
                },
                TraceOp::Recv {
                    from: 1,
                    tag: 7,
                    bytes: 4
                },
                TraceOp::WaitAll { reqs: vec![1, 2] },
            ]
        );
    }

    #[test]
    fn static_flush_placement_matches_hazard_rule() {
        // Relay: recv then send from the same slot — the send must be
        // preceded by a compiled-in flush.
        let mut b = ScheduleBuilder::new(3, 1);
        let slot = b.alloc(2);
        b.recv(0, 5, slot.clone());
        b.send(2, 5, slot.clone());
        let plan = compile(&b.finish(SgList::empty(), SgList::empty()));
        assert_eq!(
            plan.steps()
                .iter()
                .filter(|s| matches!(s, CStep::Flush))
                .count(),
            2,
            "one hazard flush + one end-of-plan flush: {:?}",
            plan.steps()
        );
        assert!(matches!(plan.steps()[1], CStep::Flush));
    }

    #[test]
    fn forwarding_hazard_relays_delivered_bytes() {
        // Rank 1 relays rank 0's message to rank 2: the relay send reads the
        // pending receive's destination, so the engine must wait first.
        let out = run_ranks(3, |c| {
            let mut b = ScheduleBuilder::new(3, c.rank());
            let slot = b.alloc(2);
            let (plan, input): (Schedule, &[u8]) = match c.rank() {
                0 => {
                    b.send(1, 5, slot.clone());
                    (b.finish(slot, SgList::empty()), &[3, 9])
                }
                1 => {
                    b.recv(0, 5, slot.clone());
                    b.send(2, 5, slot.clone());
                    (b.finish(SgList::empty(), SgList::empty()), &[])
                }
                _ => {
                    b.recv(1, 5, slot.clone());
                    (b.finish(SgList::empty(), slot), &[])
                }
            };
            execute_compiled(c, &compile(&plan), input)
        });
        assert_eq!(out[2], vec![3, 9]);
    }

    #[test]
    fn no_flush_emitted_for_empty_pending() {
        // A mark with nothing outstanding must not emit a waitall.
        let mut b = ScheduleBuilder::new(1, 0);
        let x = b.alloc(2);
        b.mark("phase", 0);
        b.copy(x.slice(0, 1), x.slice(1, 1));
        let plan = compile(&b.finish(x.slice(0, 1), x.clone()));
        assert!(!plan.steps().iter().any(|s| matches!(s, CStep::Flush)));
    }

    #[test]
    fn reduce_step_accumulates_in_place() {
        // Single-rank plan: input holds [acc | src]; one reduce folds src in.
        let mut b = ScheduleBuilder::new(1, 0);
        let acc = b.alloc(2);
        let src = b.alloc(2);
        b.reduce(DType::U8, ReduceOp::Sum, src.clone(), acc.clone());
        let s = b.finish(SgList::concat([&acc, &src]), acc);
        let plan = compile(&s);
        let out = run_ranks(1, |c| execute_compiled(c, &plan, &[10, 20, 1, 2]));
        assert_eq!(out[0], vec![11, 22]);
        assert_eq!(plan.to_trace().ops, vec![TraceOp::Compute { bytes: 2 }]);
    }

    #[test]
    fn reduce_paths_produce_hand_computed_bytes() {
        // Input is [dst | src] = 0..2n, so every path must yield
        // dst[i] + src[i] = 2i + n. The contiguous split-borrow fast paths
        // take both physical operand orders; a src gathered from two
        // out-of-order ranges takes the scratch path and permutes the sum.
        for (first_is_dst, n) in [(true, 8usize), (false, 8), (true, 5), (false, 5)] {
            let mut b = ScheduleBuilder::new(1, 0);
            let a = b.alloc(n);
            let s = b.alloc(n);
            let (dst, src) = if first_is_dst { (a, s) } else { (s, a) };
            b.reduce(DType::U8, ReduceOp::Sum, src.clone(), dst.clone());
            let plan = b.finish(SgList::concat([&dst, &src]), dst.clone());
            let input: Vec<u8> = (0..2 * n as u8).collect();
            let out = run_ranks(1, |c| execute_compiled(c, &compile(&plan), &input));
            let want: Vec<u8> = (0..n as u8).map(|i| 2 * i + n as u8).collect();
            assert_eq!(out[0], want, "first_is_dst={first_is_dst} n={n}");
        }
        let mut b = ScheduleBuilder::new(1, 0);
        let dst = b.alloc(4);
        let src = b.alloc(4);
        let swapped = SgList::concat([&src.slice(2, 2), &src.slice(0, 2)]);
        b.reduce(DType::U8, ReduceOp::Sum, swapped, dst.clone());
        let plan = b.finish(SgList::concat([&dst, &src]), dst);
        let out = run_ranks(1, |c| {
            execute_compiled(c, &compile(&plan), &[0, 1, 2, 3, 10, 20, 30, 40])
        });
        assert_eq!(out[0], vec![30, 41, 12, 23]);
    }

    #[test]
    fn gather_follows_range_order() {
        let mut out = vec![9];
        gather(&mut out, &[5, 6, 7, 8, 1, 2, 3, 4], &[4..8, 0..4]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "step 0 send source: byte total 5368709120 exceeds")]
    fn oversized_region_fails_loudly_instead_of_wrapping() {
        // Ranges only — compile allocates no buffer, so a 5 GiB region is
        // cheap to describe.
        let five_gib = 5usize << 30;
        let plan = Schedule {
            p: 2,
            rank: 0,
            buf_len: five_gib,
            input: SgList::empty(),
            output: SgList::empty(),
            steps: vec![Step::Send {
                to: 1,
                tag: 1,
                src: SgList::from(0..five_gib),
            }],
        };
        compile(&plan);
    }

    /// [`CompiledSchedule::reads_unwritten`] restated one flag per scratch
    /// byte: the oracle the interval walk in `compile` is checked against.
    fn reads_unwritten_bytewise(s: &Schedule) -> bool {
        let mut written = vec![false; s.buf_len];
        let bytes = |sg: &SgList| {
            sg.ranges()
                .iter()
                .flat_map(|r| r.clone())
                .collect::<Vec<_>>()
        };
        let unwritten = |w: &[bool], sg: &SgList| bytes(sg).iter().any(|&b| !w[b]);
        let mut read_unwritten = false;
        let write = |w: &mut Vec<bool>, sg: &SgList, len: usize| {
            for b in bytes(sg).into_iter().take(len) {
                w[b] = true;
            }
        };
        write(&mut written, &s.input, usize::MAX);
        for step in &s.steps {
            match step {
                Step::Send { src, .. } => read_unwritten |= unwritten(&written, src),
                Step::Recv { dst, .. } => write(&mut written, dst, usize::MAX),
                Step::SendRecv { src, dst, .. } => {
                    read_unwritten |= unwritten(&written, src);
                    write(&mut written, dst, usize::MAX);
                }
                Step::Compute {
                    kind: ComputeKind::Copy,
                    src,
                    dst,
                } => {
                    read_unwritten |= unwritten(&written, src);
                    write(&mut written, dst, src.len());
                }
                Step::Compute { src, dst, .. } => {
                    read_unwritten |= unwritten(&written, src) || unwritten(&written, dst);
                }
                Step::RoundMark { .. } => {}
            }
        }
        read_unwritten || unwritten(&written, &s.output)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Random hand-built plans over a 24-byte scratch — lists that
        /// overlap, touch, come up empty, are read before anything writes
        /// them and copy between operands of unequal length — compile to
        /// exactly the byte model's flag.
        #[test]
        fn reads_unwritten_agrees_with_the_byte_model(
            views in collection::vec((0usize..24, 0usize..9), 0..6),
            steps in collection::vec(
                (0usize..6, collection::vec((0usize..24, 0usize..7), 0..6)),
                0..10,
            ),
        ) {
            const LEN: usize = 24;
            let list = |pieces: &[(usize, usize)]| {
                let mut sg = SgList::empty();
                for &(start, len) in pieces {
                    sg.push(start..(start + len).min(LEN));
                }
                sg
            };
            let half = |pieces: &[(usize, usize)], second: bool| {
                let mid = pieces.len() / 2;
                list(if second { &pieces[mid..] } else { &pieces[..mid] })
            };
            let steps = steps
                .iter()
                .map(|(kind, pieces)| {
                    let (a, b) = (half(pieces, false), half(pieces, true));
                    match kind {
                        0 => Step::Send { to: 1, tag: 1, src: a },
                        1 => Step::Recv { from: 1, tag: 1, dst: a },
                        2 => Step::SendRecv {
                            to: 1,
                            send_tag: 1,
                            src: a,
                            from: 1,
                            recv_tag: 1,
                            dst: b,
                        },
                        3 => Step::Compute { kind: ComputeKind::Copy, src: a, dst: b },
                        4 => Step::Compute {
                            kind: ComputeKind::Reduce { dtype: DType::U8, op: ReduceOp::Sum },
                            src: a,
                            dst: b,
                        },
                        _ => Step::RoundMark { label: "r", round: 0 },
                    }
                })
                .collect();
            let s = Schedule {
                p: 2,
                rank: 0,
                buf_len: LEN,
                input: half(&views, false),
                output: half(&views, true),
                steps,
            };
            prop_assert_eq!(
                compile(&s).reads_unwritten(),
                reads_unwritten_bytewise(&s),
                "{:?}",
                s
            );
        }
    }

    #[test]
    fn mismatched_endpoint_is_an_error_not_a_panic() {
        let plan = compile(&swap_schedule(2, 0, 4));
        let e = run_ranks(4, |c| Ok(execute_compiled(c, &plan, &[0; 4]).unwrap_err()));
        assert!(matches!(e[0], CommError::PlanMismatch { plan_p: 2, .. }));

        // Rank 1 is handed rank 0's plan too, so it fails without sending.
        let e = run_ranks(2, |c| Ok(execute_compiled(c, &plan, &[0; 2]).unwrap_err()));
        assert!(matches!(e[0], CommError::ShortInput { need: 4, got: 2 }));
    }
}
