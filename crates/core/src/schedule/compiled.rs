//! The execution engine: [`compile`] + [`Executor`].
//!
//! [`compile`] lowers a [`Schedule`] — a straight-line `Vec<Step>` of
//! heap-allocated [`SgList`]s — into an immutable [`CompiledSchedule`]:
//! every scatter/gather list is flattened into one contiguous range arena,
//! every instruction into one flat [`CStep`] array, and every *flush* — the
//! single `waitall`, in posting order, that completes all outstanding
//! requests and lands received payloads in their scatter lists — becomes an
//! explicit [`CStep::Flush`]. This is the one place the flush rule is
//! decided. A flush is emitted, only when requests are actually outstanding,
//! at exactly four points:
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
//! the world walker ([`super::eval`]) for the verifier, the optimizer gate
//! and replay — walks the same `CStep` stream and cannot disagree about
//! where a wait happens.
//!
//! The same walk is the one definedness analysis of a plan: it records
//! which scratch bytes have been written, as an interval set
//! ([`Intervals`]), and keeps the plan's first data-flow [`Fault`] — a read
//! of a byte nothing wrote, a write onto a written byte, or an output byte
//! never written. The executor zeroes its scratch buffer only for a plan
//! with a fault ([`CompiledSchedule::reads_unwritten`]), and
//! [`verify`](super::verify::verify) refuses every plan that has one.
//!
//! [`Executor::run`] does no overlap scans, keeps its scratch buffer and its
//! request and receive-destination arenas across runs, and never owns a
//! payload: sends go out as borrowed [`SgView`]s via [`Comm::send_sg`], and a
//! flush is one [`Comm::waitall_into`] naming the run's [`Regions`] and a
//! range arena, so the backend writes received bytes where the plan wants
//! them.
//!
//! Reduce on arrival: a receive whose destination dies as the `src` of the
//! reduce right after its flush is *fused* with it (`Compiler::fusable`,
//! and `Compiler::read` for "dies"): the executor posts it with the
//! reduce's `dst` as its destination, lands it there as
//! [`Landing::Reduce`], never touches the temporary and skips that kernel.
//! The fusions sit beside the step stream, so every other walker sees the
//! unfused plan.
//!
//! Placement: the executor runs every plan in three regions, not one buffer
//! (`place`, beside the step stream, worked out on a plan's first run, is
//! the one place that decides where a byte lives). *Out* holds the output
//! view's bytes in output order; it is the `Vec` the run returns. *In* is
//! the input-view bytes that no step writes and the output does not list,
//! read from the caller's input in place. *Scratch*, the executor's
//! persistent buffer at the plan's own addresses, holds the rest and is
//! loaded from the input only where it overlaps the input view. Every
//! range of the plan is split where it crosses from one region into the
//! next and addresses In, Out and scratch laid end to end ([`Regions`]).
//! The rare layouts are data in the placement, not another path: a faulty
//! plan runs with Out and scratch zeroed; a range past the plan's buffer stays at its own scratch
//! address, where it panics as in a buffer of that size; an output byte
//! listed twice lives at its first position and is copied to the later
//! ones at the end of the run; and a fused pair whose accumulator would
//! straddle two regions runs unfused. The world walker uses one region:
//! every byte in scratch at its own address.

use super::{ComputeKind, Schedule, SgList, Step};
use exacoll_comm::{
    reduce_into, Comm, CommError, CommResult, DType, Landing, Rank, RankTrace, ReduceOp, Regions,
    Req, SgDests, SgView, Tag, TraceOp,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

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
        /// Payload ranges in the plan's buffer.
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
    fault: Option<Fault>,
    /// `(receive, reduce)` step indices of every fused pair (see the module
    /// docs), in step order.
    fused: Box<[(u32, u32)]>,
    /// Where the executor keeps each byte.
    placement: Lazy,
}

/// A plan's [`Placement`], worked out on its first run: the control plane
/// compiles many plans it never runs. A function of the rest of the plan,
/// so it takes no part in comparing plans.
#[derive(Debug, Clone, Default)]
struct Lazy(OnceLock<Placement>);

impl PartialEq for Lazy {
    fn eq(&self, _: &Lazy) -> bool {
        true
    }
}

impl Eq for Lazy {}

/// `place`'s answer for a plan: every byte's address in the [`Regions`] of
/// a run — In, then Out, then scratch (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Placement {
    /// The range arena of the plan's steps, each range split where it
    /// crosses from one region into another and moved to where it lives.
    ranges: Box<[Range<usize>]>,
    /// Where arena range `i`'s pieces start in `ranges`, and one more entry
    /// for where the last one's end.
    starts: Box<[u32]>,
    /// Bytes of In (the input view's) and of Out (the output view's).
    in_len: usize,
    out_len: usize,
    /// `(at, from)`: the bytes at `at` start as the input's bytes from
    /// `from` on; by address, so Out's come first, `out_loads` of them.
    loads: Box<[(Range<usize>, usize)]>,
    out_loads: usize,
    /// `(from, at)`: at the end of a run the bytes at `from` are copied to
    /// Out from `at` on — to each later position of an output byte listed
    /// twice, and to the positions of an output range past the buffer.
    finals: Box<[(Range<usize>, usize)]>,
    /// The fused pairs that run fused: those whose accumulator lies in one
    /// region, as [`Landing::Reduce`] needs it to.
    fused: Box<[(u32, u32)]>,
}

impl Placement {
    /// The placed ranges of `span`.
    fn ranges_of(&self, span: Span) -> &[Range<usize>] {
        &self.ranges[self.indices(span)]
    }

    /// The indices of `span`'s placed ranges.
    fn indices(&self, span: Span) -> Range<usize> {
        let at = |i: usize| self.starts[i] as usize;
        at(span.start as usize)..at((span.start + span.count) as usize)
    }
}

/// `(logical, at)`: the plan's bytes `logical` live from address `at` on.
type Piece = (Range<usize>, usize);

/// Call `f(logical, at)` for each stretch of `r` that lives in one of
/// `pieces` (sorted and disjoint), or in none and so in scratch, which
/// starts at address `scratch`.
fn stretches(
    pieces: &[Piece],
    scratch: usize,
    r: &Range<usize>,
    mut f: impl FnMut(Range<usize>, usize),
) {
    let mut at = r.start;
    let mut i = pieces.partition_point(|p| p.0.end <= at);
    while at < r.end {
        match pieces.get(i) {
            Some((logical, to)) if logical.start <= at => {
                let end = logical.end.min(r.end);
                f(at..end, to + at - logical.start);
                (at, i) = (end, i + 1);
            }
            next => {
                let end = next.map_or(r.end, |p| p.0.start.min(r.end));
                f(at..end, scratch + at);
                at = end;
            }
        }
    }
}

/// Place the bytes of `plan` in the executor's three regions (see the
/// module docs).
fn place(plan: &CompiledSchedule) -> Placement {
    let (steps, buf_len) = (&plan.steps[..], plan.buf_len);
    let (input, output) = (plan.ranges_of(plan.input), plan.ranges_of(plan.output));
    let (in_len, out_len) = (plan.input.bytes(), plan.output.bytes());
    let scratch = in_len + out_len;
    // A view's range past the buffer gets no piece, so it stays at its own
    // scratch address, where an access panics as in a buffer of `buf_len`.
    let fits = |r: &Range<usize>| r.end <= buf_len;
    // The input view's bytes, each from its last position (what loading it
    // in order leaves), as the offset of that input byte from its own.
    let mut from_input = Intervals::default();
    let mut from = 0usize;
    for r in input.iter().filter(|r| !r.is_empty()) {
        from_input.assign(r.clone(), from.wrapping_sub(r.start));
        from += r.len();
    }
    // Out: each output byte at its first position.
    let (mut pieces, mut finals): (Vec<Piece>, _) = (Vec::new(), Vec::new());
    let mut at = in_len;
    for r in output {
        if !fits(r) {
            finals.push((scratch + r.start..scratch + r.end, at));
        } else {
            let mut homed = Vec::new();
            stretches(&pieces, scratch, r, |logical, home| {
                let to = at + logical.start - r.start;
                if home < scratch {
                    finals.push((home..home + logical.len(), to));
                } else {
                    homed.push((logical, to));
                }
            });
            pieces.extend(homed);
            pieces.sort_unstable_by_key(|p| p.0.start);
        }
        at += r.len();
    }
    // In: the input bytes no step writes and the output does not list.
    let mut unwritten = Intervals(
        from_input
            .0
            .iter()
            .map(|(r, d)| (r.clone(), Some(*d)))
            .collect(),
    );
    let writes = steps.iter().filter_map(|step| match step {
        CStep::Recv { dst, .. } | CStep::Copy { dst, .. } | CStep::Reduce { dst, .. } => {
            Some(plan.ranges_of(*dst))
        }
        _ => None,
    });
    for r in writes.flatten().chain(output).filter(|r| !r.is_empty()) {
        unwritten.assign(r.clone(), None);
    }
    for (r, delta) in unwritten.0.iter().filter(|(r, _)| fits(r)) {
        if let Some(delta) = delta {
            pieces.push((r.clone(), r.start.wrapping_add(*delta)));
        }
    }
    pieces.sort_unstable_by_key(|p| p.0.start);
    debug_assert!(pieces.windows(2).all(|w| w[0].0.end <= w[1].0.start));
    let mut loads = Vec::new();
    for (r, delta) in &from_input.0 {
        stretches(&pieces, scratch, r, |logical, at| {
            if at >= in_len {
                loads.push((at..at + logical.len(), logical.start.wrapping_add(*delta)));
            }
        });
    }
    loads.sort_unstable_by_key(|(at, _)| at.start);
    // The step lists' ranges, split where they cross from one region into
    // the next.
    let arena = &plan.ranges[..plan.input.start as usize];
    let (mut ranges, mut starts) = (Vec::new(), Vec::with_capacity(arena.len() + 1));
    for r in arena {
        starts.push(ranges.len() as u32);
        stretches(&pieces, scratch, r, |logical, at| {
            ranges.push(at..at + logical.len());
        });
    }
    starts.push(ranges.len() as u32);
    let mut placement = Placement {
        ranges: ranges.into_boxed_slice(),
        starts: starts.into_boxed_slice(),
        in_len,
        out_len,
        out_loads: loads.partition_point(|(at, _)| at.start < scratch),
        loads: loads.into_boxed_slice(),
        finals: finals.into_boxed_slice(),
        fused: Box::default(),
    };
    let fused = (plan.fused.iter().copied())
        .filter(|&(_, reduce)| placement.indices(plan.landing(reduce).0).len() == 1)
        .collect();
    placement.fused = fused;
    placement
}

/// A plan's first data-flow fault in program order, with the range of the
/// offending list that holds its first bad byte. Writes are the input view,
/// a receive's destination at post time and a copy's destination, up to its
/// source's length; reads are a send's source, both operands of a
/// reduction, a copy's source and, at the end, the output view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Fault {
    /// A step reads bytes nothing wrote before it.
    Undefined(Range<usize>),
    /// A step writes bytes already written (or listed twice in one list).
    Overwrite(Range<usize>),
    /// The output view holds bytes nothing wrote.
    Unwritten(Range<usize>),
}

impl CompiledSchedule {
    /// Bytes of caller input the plan consumes.
    pub fn input_bytes(&self) -> usize {
        self.input.bytes()
    }

    /// Whether the plan has a data-flow fault, so that some step or the
    /// output may read a scratch byte the run did not write: nothing after
    /// the first fault is tracked. Clear for every plan
    /// [`verify`](super::verify::verify) accepts — it refuses every fault —
    /// and what lets an [`Executor`] skip zeroing the scratch bytes an
    /// earlier run left behind.
    pub fn reads_unwritten(&self) -> bool {
        self.fault.is_some()
    }

    /// The plan's first data-flow fault, if any.
    pub(super) fn fault(&self) -> Option<&Fault> {
        self.fault.as_ref()
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

    /// Where and how the executor lands a fused receive: folded into the
    /// destination of the reduce at step `reduce`.
    fn landing(&self, reduce: u32) -> (Span, Landing) {
        let CStep::Reduce { dtype, op, dst, .. } = self.steps[reduce as usize] else {
            unreachable!("fused with a reduce");
        };
        (dst, Landing::Reduce { dtype, op })
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

/// Sorted, pairwise disjoint half-open intervals of one rank's scratch
/// bytes, each carrying a value; two that touch and carry equal values are
/// one interval.
///
/// [`compile`]'s record of written bytes is `Intervals<()>`: with nothing to
/// tell intervals apart every touching pair merges, so a fully written range
/// lies inside exactly one interval and both its queries are one binary
/// search. The symbolic memory of [`super::provenance`] carries what each
/// byte holds, and merging equal neighbours is what gives a chunked, a fused
/// and an untouched transfer the same map.
#[derive(Debug)]
pub(super) struct Intervals<V>(Vec<(Range<usize>, V)>);

impl<V> Default for Intervals<V> {
    fn default() -> Self {
        Intervals(Vec::new())
    }
}

impl<V: Clone + PartialEq> Intervals<V> {
    /// Index of the first interval ending after byte `at` — the only one
    /// that can contain `at` or be the next one above it.
    fn first_ending_after(&self, at: usize) -> usize {
        self.0.partition_point(|(iv, _)| iv.end <= at)
    }

    /// The run of intervals that covers `r` without a gap (its first and
    /// last may reach past `r`), or `None` when a byte of `r` is undefined.
    pub(super) fn cover(&self, r: &Range<usize>) -> Option<&[(Range<usize>, V)]> {
        let first = self.first_ending_after(r.start);
        let (mut next, mut covered) = (first, r.start);
        while covered < r.end {
            let (iv, _) = self.0.get(next)?;
            if iv.start > covered {
                return None;
            }
            covered = iv.end;
            next += 1;
        }
        Some(&self.0[first..next])
    }

    /// Put `v` over `r`, which no interval overlaps and which sorts at index
    /// `i`, merging it into equal-valued neighbours it touches.
    fn insert_at(&mut self, i: usize, r: Range<usize>, v: V) {
        let joins_below = i > 0 && self.0[i - 1].0.end == r.start && self.0[i - 1].1 == v;
        let joins_above = self
            .0
            .get(i)
            .is_some_and(|(iv, w)| iv.start == r.end && *w == v);
        match (joins_below, joins_above) {
            (true, true) => {
                self.0[i - 1].0.end = self.0[i].0.end;
                self.0.remove(i);
            }
            (true, false) => self.0[i - 1].0.end = r.end,
            (false, true) => self.0[i].0.start = r.start,
            (false, false) => self.0.insert(i, (r, v)),
        }
    }

    /// Define `r` as `v`; returns false, changing nothing, if any byte of
    /// `r` was already defined.
    pub(super) fn define(&mut self, r: Range<usize>, v: V) -> bool {
        let i = self.first_ending_after(r.start);
        if self.0.get(i).is_some_and(|(iv, _)| iv.start < r.end) {
            return false;
        }
        self.insert_at(i, r, v);
        true
    }

    /// Make `r` hold `v`, cutting away whatever it held before.
    pub(super) fn assign(&mut self, r: Range<usize>, v: V) {
        let i = self.first_ending_after(r.start);
        let j = i + self.0[i..].partition_point(|(iv, _)| iv.start < r.end);
        let overlapped = &self.0[i..j];
        let below = overlapped
            .first()
            .filter(|(iv, _)| iv.start < r.start)
            .map(|(iv, w)| (iv.start..r.start, w.clone()));
        let above = overlapped
            .last()
            .filter(|(iv, _)| iv.end > r.end)
            .map(|(iv, w)| (r.end..iv.end, w.clone()));
        let at = i + usize::from(below.is_some());
        self.0.splice(i..j, below.into_iter().chain(above));
        self.insert_at(at, r, v);
    }
}

/// [`compile`]'s working state: the arenas being filled, the static picture
/// of what is outstanding since the last flush, of which scratch bytes
/// have been written up to the first fault, and of which receives may fuse.
#[derive(Default)]
struct Compiler<'a> {
    ranges: Vec<Range<usize>>,
    steps: Vec<CStep>,
    /// Requests posted since the last flush.
    outstanding: usize,
    /// Step index and destination list of the receives among them.
    pending_dsts: Vec<(u32, &'a SgList)>,
    /// The same of the receives the last flush completed.
    flushed: Vec<(u32, &'a SgList)>,
    written: Intervals<()>,
    /// See [`CompiledSchedule::fault`].
    fault: Option<Fault>,
    /// `(receive, reduce)` step indices of the pairs that may fuse, and
    /// whether the receive's destination is still unread since the reduce.
    candidates: Vec<((u32, u32), bool)>,
    /// Those destinations' ranges by start: `(end, candidate)`.
    watched: BTreeMap<usize, (usize, usize)>,
}

impl<'a> Compiler<'a> {
    /// Read `sg`: the first of its ranges holding a byte nothing wrote is
    /// `fault`, unless one came earlier. A candidate whose destination it
    /// reads does not fuse. (A plan without a fault writes no byte twice,
    /// so reads are all that can keep a destination alive.)
    fn read(&mut self, sg: &SgList, fault: fn(Range<usize>) -> Fault) {
        if self.fault.is_none() {
            let written = &self.written;
            let unwritten = sg.ranges().iter().find(|r| written.cover(r).is_none());
            self.fault = unwritten.map(|r| fault(r.clone()));
            for r in sg.ranges() {
                // Disjoint ranges sorted by start end in order too.
                for (_, &(end, c)) in self.watched.range(..r.end).rev() {
                    if end <= r.start {
                        break;
                    }
                    self.candidates[c].1 = false;
                }
            }
        }
    }

    /// Write `sg`'s ranges in order, stopping at the first that holds a byte
    /// already written, the fault.
    fn write(&mut self, sg: &SgList) {
        if self.fault.is_none() {
            let written = &mut self.written;
            let twice = sg
                .ranges()
                .iter()
                .find(|r| !written.define((*r).clone(), ()));
            self.fault = twice.map(|r| Fault::Overwrite(r.clone()));
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
            std::mem::swap(&mut self.pending_dsts, &mut self.flushed);
            self.pending_dsts.clear();
        }
    }

    /// The receive a reduce of `src` into `dst` right after a flush may fuse
    /// with: the one of that flush whose destination is `src`, when `dst`
    /// is one range as long, the kernel accepts the operands, and no
    /// receive of the flush lands in `dst` — so folding on arrival is
    /// `dst ⊕ src` in the reduce's own order, whichever message comes first.
    fn fusable(&self, dtype: DType, op: ReduceOp, src: &SgList, dst: &SgList) -> Option<u32> {
        let [acc] = dst.ranges() else {
            return None;
        };
        if !matches!(self.steps.last(), Some(CStep::Flush))
            || src.is_empty()
            || src.len() != acc.len()
            || !op.supports(dtype)
            || !acc.len().is_multiple_of(dtype.size())
            || src.overlaps(dst)
            || self.flushed.iter().any(|(_, d)| d.overlaps(dst))
        {
            return None;
        }
        self.flushed
            .iter()
            .find(|(_, d)| *d == src)
            .map(|(at, _)| *at)
    }

    fn send(&mut self, i: usize, to: Rank, tag: Tag, src: &SgList) {
        if self.pending_dsts.iter().any(|(_, d)| src.overlaps(d)) {
            self.flush();
        }
        self.read(src, Fault::Undefined);
        let src = self.intern(src, format_args!("step {i} send source"));
        self.steps.push(CStep::Send { to, tag, src });
        self.outstanding += 1;
    }

    fn recv(&mut self, i: usize, from: Rank, tag: Tag, dst: &'a SgList) {
        self.write(dst);
        let span = self.intern(dst, format_args!("step {i} receive destination"));
        self.pending_dsts.push((self.steps.len() as u32, dst));
        self.steps.push(CStep::Recv {
            from,
            tag,
            dst: span,
        });
        self.outstanding += 1;
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
    // Sized for one range per list and a flush before each step, the arenas
    // rarely grow: growing them was a third of the cost of a compile.
    let n = schedule.steps.len();
    let mut c = Compiler {
        ranges: Vec::with_capacity(2 * n + 2),
        steps: Vec::with_capacity(2 * n + 1),
        ..Compiler::default()
    };
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
                let fusable = match kind {
                    ComputeKind::Reduce { dtype, op } => c.fusable(*dtype, *op, src, dst),
                    ComputeKind::Copy => None,
                };
                c.read(src, Fault::Undefined);
                match kind {
                    // A short source fills a prefix of the destination.
                    ComputeKind::Copy if src.len() < dst.len() => c.write(&dst.slice(0, src.len())),
                    ComputeKind::Copy => c.write(dst),
                    ComputeKind::Reduce { .. } => c.read(dst, Fault::Undefined),
                }
                if let Some(recv) = fusable {
                    for r in src.ranges() {
                        c.watched.insert(r.start, (r.end, c.candidates.len()));
                    }
                    c.candidates.push(((recv, c.steps.len() as u32), true));
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
    c.read(&schedule.output, Fault::Unwritten);
    let unread = c.candidates.iter().filter(|(_, unread)| *unread);
    let fused: Vec<_> = match c.fault {
        None => unread.map(|(pair, _)| *pair).collect(),
        Some(_) => Vec::new(),
    };
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
        fault: c.fault,
        fused: fused.into_boxed_slice(),
        placement: Lazy::default(),
    }
}

/// One rank's scratch buffer plus the gather scratch its non-contiguous
/// copy/reduce paths need. The [`Executor`] and the world walker's byte
/// memory ([`super::eval`]) copy and reduce only through this type's
/// [`Staging`], so what `Copy` and `Reduce` do to a buffer is written once;
/// a receive is scattered ([`Regions::scatter`]) by the walker and by the
/// backend under the executor ([`Comm::waitall_into`]) alike. The walker's methods below
/// address the scratch buffer alone, every byte at its own address.
#[derive(Default)]
pub(super) struct RankMem {
    buf: Vec<u8>,
    staging: Staging,
}

impl RankMem {
    /// The first `plan.buf_len` bytes of the scratch buffer, ready for
    /// `plan`: it keeps its high-water length and only grows, new bytes
    /// zero, and every access goes through this slice, so a range past it
    /// panics as in a buffer of exactly that size. The bytes an earlier run
    /// left are zeroed only for a plan that may read a byte it did not write
    /// ([`CompiledSchedule::reads_unwritten`]): no other plan can observe
    /// them.
    fn scratch(&mut self, plan: &CompiledSchedule) -> &mut [u8] {
        if plan.reads_unwritten() {
            self.buf.clear();
        }
        if self.buf.len() < plan.buf_len {
            self.buf.resize(plan.buf_len, 0);
        }
        &mut self.buf[..plan.buf_len]
    }

    /// Make the scratch buffer ready for `plan`, with `input` in its input
    /// view. The caller has checked `input` fills the view; extra bytes are
    /// ignored.
    pub(super) fn load(&mut self, plan: &CompiledSchedule, input: &[u8]) {
        debug_assert!(input.len() >= plan.input_bytes());
        Regions::one(self.scratch(plan)).scatter(plan.ranges_of(plan.input), input);
    }

    /// The bytes `span` denotes, borrowed in payload order.
    pub(super) fn view<'a>(&'a self, plan: &'a CompiledSchedule, span: Span) -> SgView<'a> {
        SgView::new(&self.buf[..plan.buf_len], plan.ranges_of(span))
    }

    /// Write `data` into `dst`'s ranges in order. A short payload fills a
    /// prefix.
    pub(super) fn land(&mut self, plan: &CompiledSchedule, dst: Span, data: &[u8]) {
        Regions::one(&mut self.buf[..plan.buf_len]).scatter(plan.ranges_of(dst), data);
    }

    /// The plan's output bytes.
    pub(super) fn output(&self, plan: &CompiledSchedule) -> Vec<u8> {
        self.view(plan, plan.output).to_vec()
    }

    /// `dst = src`.
    pub(super) fn copy(&mut self, plan: &CompiledSchedule, src: Span, dst: Span) {
        let mut buf = Regions::one(&mut self.buf[..plan.buf_len]);
        (self.staging).copy(&mut buf, plan.ranges_of(src), plan.ranges_of(dst));
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
        let mut buf = Regions::one(&mut self.buf[..plan.buf_len]);
        (self.staging).reduce(
            &mut buf,
            dtype,
            op,
            plan.ranges_of(src),
            plan.ranges_of(dst),
        )
    }
}

/// The gather scratch of non-contiguous operands.
#[derive(Default)]
struct Staging {
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Staging {
    /// `d = s`. Disjoint contiguous operands copy directly, the source's
    /// length.
    fn copy(&mut self, mem: &mut Regions<'_>, s: &[Range<usize>], d: &[Range<usize>]) {
        if let ([s], [d]) = (s, d) {
            if let Some((from, to)) = mem.pair_mut(s, &(d.start..d.start + s.len())) {
                return to.copy_from_slice(from);
            }
        }
        gather(&mut self.src, mem, s);
        mem.scatter(d, &self.src);
    }

    /// `d = d ⊕ s` elementwise. Contiguous disjoint operands reduce in
    /// place — no gather, no scatter.
    fn reduce(
        &mut self,
        mem: &mut Regions<'_>,
        dtype: DType,
        op: ReduceOp,
        s: &[Range<usize>],
        d: &[Range<usize>],
    ) -> CommResult<()> {
        if let ([s], [d]) = (s, d) {
            if let Some((from, to)) = mem.pair_mut(s, d) {
                return reduce_into(dtype, op, to, from);
            }
        }
        gather(&mut self.src, mem, s);
        gather(&mut self.dst, mem, d);
        reduce_into(dtype, op, &mut self.dst, &self.src)?;
        mem.scatter(d, &self.dst);
        Ok(())
    }
}

/// Replace `out` with the bytes of `mem` that `ranges` denote, in order.
fn gather(out: &mut Vec<u8>, mem: &Regions<'_>, ranges: &[Range<usize>]) {
    out.clear();
    for r in ranges {
        out.extend_from_slice(mem.get(r));
    }
}

impl CompiledSchedule {
    /// See [`Lazy`].
    fn placement(&self) -> &Placement {
        self.placement.0.get_or_init(|| place(self))
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
    /// Per outstanding request, where its payload lands: the indices of a
    /// receive's placed destination ranges, empty for a send, and how.
    dsts: Vec<Range<usize>>,
    landings: Vec<Landing>,
}

impl Executor {
    /// A fresh executor with empty arenas.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Run `plan` on backend `c` with this rank's `input` bytes, returning
    /// the rank's output bytes.
    ///
    /// The run builds its output `Vec` first — zeroes, with the stretches
    /// that come from the input copied in — and runs in it, in `input` and
    /// in the scratch buffer (see the module docs).
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
        let pl = plan.placement();
        let (into_out, into_scratch) = pl.loads.split_at(pl.out_loads);
        let mut out = Vec::with_capacity(pl.out_len);
        for (at, from) in into_out {
            out.resize(at.start - pl.in_len, 0);
            out.extend_from_slice(&input[*from..][..at.len()]);
        }
        out.resize(pl.out_len, 0);
        self.mem.scratch(plan);
        let scratch = &mut self.mem.buf[..plan.buf_len];
        let mut mem = Regions::new(&input[..pl.in_len], &mut out, scratch);
        for (at, from) in into_scratch {
            mem.get_mut(at).copy_from_slice(&input[*from..][..at.len()]);
        }
        self.reqs.clear();
        self.dsts.clear();
        self.landings.clear();
        let staging = &mut self.mem.staging;
        // The next fused pair, by the step indices of its receive and reduce.
        let mut fused = pl.fused.iter().peekable();

        for (i, step) in plan.steps().iter().enumerate() {
            let i = i as u32;
            match step {
                CStep::Flush => {
                    let dests = SgDests::new(&pl.ranges, &self.dsts);
                    let dests = dests.landing_into(&self.landings);
                    c.waitall_into(&mut self.reqs, mem.reborrow(), dests)?;
                    self.dsts.clear();
                    self.landings.clear();
                }
                CStep::Mark { label, round } => c.mark(label, *round),
                CStep::Send { to, tag, src } => {
                    let req = c.send_sg(*to, *tag, mem.view(pl.ranges_of(*src)))?;
                    self.reqs.push(req);
                    self.dsts.push(0..0);
                    self.landings.push(Landing::Copy);
                }
                CStep::Recv { from, tag, dst } => {
                    let req = c.irecv(*from, *tag, dst.bytes())?;
                    let (dst, landing) = match fused.peek() {
                        Some(&&(recv, reduce)) if recv == i => plan.landing(reduce),
                        _ => (*dst, Landing::Copy),
                    };
                    self.reqs.push(req);
                    self.dsts.push(pl.indices(dst));
                    self.landings.push(landing);
                }
                CStep::Copy { src, dst } => {
                    staging.copy(&mut mem, pl.ranges_of(*src), pl.ranges_of(*dst));
                }
                CStep::Reduce {
                    dtype,
                    op,
                    src,
                    dst,
                } => {
                    // A fused reduce happened as its receive landed.
                    if fused.next_if(|&&(_, reduce)| reduce == i).is_none() {
                        let (s, d) = (pl.ranges_of(*src), pl.ranges_of(*dst));
                        staging.reduce(&mut mem, *dtype, *op, s, d)?;
                    }
                    c.compute(dst.bytes());
                }
            }
        }
        for (from, at) in &pl.finals {
            let to = *at..*at + from.len();
            staging.copy(
                &mut mem,
                std::slice::from_ref(from),
                std::slice::from_ref(&to),
            );
        }
        Ok(out)
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
        let mut buf = [5, 6, 7, 8, 1, 2, 3, 4];
        gather(&mut out, &Regions::one(&mut buf), &[4..8, 0..4]);
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

    /// [`CompiledSchedule::fault`] restated one flag per scratch byte: the
    /// oracle the interval walk in `compile` is checked against.
    fn first_fault_bytewise(s: &Schedule) -> Option<Fault> {
        /// `Some(fault)`: the list is read, and a byte nothing wrote there
        /// is `fault`; `None`: the list is written.
        type Access = Option<fn(Range<usize>) -> Fault>;
        let mut accesses: Vec<(Access, SgList)> = vec![(None, s.input.clone())];
        for step in &s.steps {
            match step {
                Step::Send { src, .. } => accesses.push((Some(Fault::Undefined), src.clone())),
                Step::Recv { dst, .. } => accesses.push((None, dst.clone())),
                Step::SendRecv { src, dst, .. } => {
                    accesses.push((Some(Fault::Undefined), src.clone()));
                    accesses.push((None, dst.clone()));
                }
                Step::Compute { kind, src, dst } => {
                    accesses.push((Some(Fault::Undefined), src.clone()));
                    accesses.push(match kind {
                        ComputeKind::Copy => (None, dst.slice(0, src.len().min(dst.len()))),
                        ComputeKind::Reduce { .. } => (Some(Fault::Undefined), dst.clone()),
                    });
                }
                Step::RoundMark { .. } => {}
            }
        }
        accesses.push((Some(Fault::Unwritten), s.output.clone()));
        let mut written = vec![false; s.buf_len];
        for (access, sg) in accesses {
            for r in sg.ranges() {
                let mut bytes = r.clone();
                match access {
                    Some(fault) if bytes.any(|b| !written[b]) => return Some(fault(r.clone())),
                    None if bytes.any(|b| written[b]) => return Some(Fault::Overwrite(r.clone())),
                    None => written[r.clone()].fill(true),
                    Some(_) => {}
                }
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The payload-carrying operations against one value per byte:
        /// after every `assign` (overwrite) or `define` (refuse overlap) the
        /// map is exactly the oracle's maximal runs of equal bytes — sorted,
        /// disjoint, equal neighbours merged and unequal ones kept apart —
        /// and `cover` answers for a range what the bytes under it say.
        #[test]
        fn valued_intervals_agree_with_a_value_per_byte(
            calls in collection::vec((0usize..3, 0usize..48, 1usize..9, 0u8..3), 1..40)
        ) {
            const LEN: usize = 48;
            let mut map = Intervals::<u8>::default();
            let mut oracle: Vec<Option<u8>> = vec![None; LEN];
            for (kind, start, len, v) in calls {
                let r = start..(start + len).min(LEN);
                match kind {
                    0 => {
                        let got = map.cover(&r).map(|pieces| {
                            let clip = |(iv, v): &(Range<usize>, u8)| {
                                vec![Some(*v); iv.end.min(r.end) - iv.start.max(r.start)]
                            };
                            pieces.iter().flat_map(clip).collect::<Vec<_>>()
                        });
                        let want = &oracle[r.clone()];
                        prop_assert_eq!(got, want.iter().all(Option::is_some).then(|| want.to_vec()));
                        continue;
                    }
                    1 => {
                        map.assign(r.clone(), v);
                        oracle[r].fill(Some(v));
                    }
                    _ => {
                        let free = oracle[r.clone()].iter().all(Option::is_none);
                        prop_assert_eq!(map.define(r.clone(), v), free);
                        if free {
                            oracle[r].fill(Some(v));
                        }
                    }
                }
                let runs: Vec<(Range<usize>, u8)> = oracle
                    .chunk_by(|a, b| a == b)
                    .scan(0, |at, run| {
                        *at += run.len();
                        Some((*at - run.len()..*at, run[0]))
                    })
                    .filter_map(|(iv, v)| Some((iv, v?)))
                    .collect();
                prop_assert_eq!(&map.0, &runs);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Random hand-built plans over a 24-byte scratch — lists that
        /// overlap, touch, come up empty, are read before anything writes
        /// them, write bytes twice and copy between operands of unequal
        /// length — compile to exactly the byte model's first fault.
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
            let plan = compile(&s);
            prop_assert_eq!(plan.fault(), first_fault_bytewise(&s).as_ref(), "{:?}", s);
            prop_assert_eq!(plan.reads_unwritten(), plan.fault().is_some());
        }
    }

    /// Rank 0 of two: receive 8 bytes into a temporary and fold them into
    /// the input, then whatever `more` adds.
    fn fold_plan(more: impl Fn(&mut ScheduleBuilder, &SgList, &SgList)) -> CompiledSchedule {
        let mut b = ScheduleBuilder::new(2, 0);
        let (acc, tmp) = (b.alloc(8), b.alloc(8));
        b.recv(1, 0, tmp.clone());
        b.reduce(DType::F64, ReduceOp::Sum, tmp.clone(), acc.clone());
        more(&mut b, &acc, &tmp);
        compile(&b.finish(acc.clone(), acc))
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn a_receive_fuses_only_when_its_temporary_dies_in_the_reduce_after_its_flush() {
        // Recv, Flush, Reduce.
        let plan = fold_plan(|_, _, _| {});
        assert_eq!(*plan.fused, [(0, 2)]);
        let (dtype, op) = (DType::F64, ReduceOp::Sum);
        let (acc, landing) = plan.landing(2);
        assert_eq!(plan.ranges_of(acc), [0..8]);
        assert_eq!(landing, Landing::Reduce { dtype, op });
        // The temporary is read again: by a send, or by a second reduce.
        let resent = fold_plan(|b, _, tmp| b.send(1, 1, tmp.clone()));
        let refolded = fold_plan(|b, acc, tmp| b.reduce(dtype, op, tmp.clone(), acc.clone()));
        // A byte of the plan is read before anything writes it.
        let faulty = fold_plan(|b, _, _| {
            let stray = b.alloc(1);
            b.send(1, 1, stray);
        });
        // A second receive of the same flush lands in the accumulator.
        let mut b = ScheduleBuilder::new(2, 0);
        let (acc, tmp) = (b.alloc(8), b.alloc(8));
        b.recv(1, 0, tmp.clone());
        b.recv(1, 1, acc.clone());
        b.reduce(dtype, op, tmp, acc.clone());
        let shared = compile(&b.finish(SgList::empty(), acc));
        // Another reduce comes between the flush and the temporary's.
        let mut b = ScheduleBuilder::new(2, 0);
        let (acc, own, tmp) = (b.alloc(8), b.alloc(8), b.alloc(8));
        b.recv(1, 0, tmp.clone());
        b.reduce(dtype, op, own.clone(), acc.clone());
        b.reduce(dtype, op, tmp, acc.clone());
        let late = compile(&b.finish(SgList::concat([&acc, &own]), acc));
        for (what, plan) in [
            ("resent", resent),
            ("refolded", refolded),
            ("faulty", faulty),
            ("shared", shared),
            ("late", late),
        ] {
            assert_eq!(plan.fused.len(), 0, "{what}: {:?}", plan.steps());
        }
    }

    #[test]
    fn every_ring_reduce_scatter_reduce_fuses() {
        use crate::registry::lower;
        use crate::{Algorithm, CollArgs, CollectiveOp};
        let shapes = [
            (CollectiveOp::Allreduce, Algorithm::Ring),
            (CollectiveOp::Allreduce, Algorithm::KRing { k: 2 }),
            (CollectiveOp::Allreduce, Algorithm::KRing { k: 3 }),
            (CollectiveOp::Allreduce, Algorithm::KRing { k: 4 }),
            (CollectiveOp::ReduceScatter, Algorithm::Ring),
        ];
        for p in 2..=16 {
            for (op, alg) in shapes {
                if alg.supports(op, p).is_err() {
                    continue;
                }
                let args = CollArgs {
                    dtype: DType::F64,
                    ..CollArgs::new(op, alg)
                };
                for rank in 0..p {
                    let plan = compile(&lower(&args, p, rank, 8 * 3 * p));
                    let fused: Vec<usize> = plan.fused.iter().map(|f| f.1 as usize).collect();
                    let mut phase = "";
                    let mut ring = 0;
                    for (i, step) in plan.steps().iter().enumerate() {
                        match step {
                            CStep::Mark { label, .. } => phase = label,
                            CStep::Reduce { .. } if phase == "rs-ring" => {
                                assert!(
                                    fused.contains(&i),
                                    "{op:?} {alg} p={p} rank {rank} step {i}"
                                );
                                ring += 1;
                            }
                            _ => {}
                        }
                    }
                    assert_eq!(ring, p - 1, "{op:?} {alg} p={p} rank {rank}");
                }
            }
        }
    }

    /// Whether a flush of `plan` lands receives both in Out and in scratch.
    fn lands_in_two_regions(plan: &CompiledSchedule) -> bool {
        let pl = plan.placement();
        let scratch = pl.in_len + pl.out_len;
        let mut flush = [false; 2];
        plan.steps().iter().enumerate().any(|(i, step)| match step {
            CStep::Flush => std::mem::take(&mut flush) == [true; 2],
            CStep::Recv { dst, .. } => {
                let fused = pl.fused.iter().find(|f| f.0 == i as u32);
                let dst = fused.map_or(*dst, |&(_, reduce)| plan.landing(reduce).0);
                for r in pl.ranges_of(dst) {
                    flush[usize::from(r.start >= scratch)] = true;
                }
                false
            }
            _ => false,
        })
    }

    #[test]
    fn fused_execution_is_bitwise_the_unfused_walk() {
        use super::super::eval::evaluate;
        use crate::registry::{candidates, lower, lower_v, unique_candidates_v};
        use crate::spec::CountsSpec;
        use crate::{Algorithm, CollArgs, CollectiveOp, Request};
        use CollectiveOp::{Allgather, Allreduce, Bcast, Reduce, ReduceScatter};
        // Finite f64s of mixed magnitudes, so a reordered sum shows.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut bytes = |dtype: DType, n: usize| -> Vec<u8> {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            match dtype {
                DType::F64 => (0..n / 8)
                    .flat_map(|_| {
                        let s = next();
                        let x = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                        (x * f64::powi(2.0, (s % 40) as i32 - 20)).to_le_bytes()
                    })
                    .collect(),
                _ => (0..n).map(|_| next() as u8).collect(),
            }
        };
        // Plans, plans with a flush landing in Out and in scratch, fused
        // pairs, fused pairs run unfused.
        let mut census = [0; 4];
        let mut check = |world: &[Schedule], dtype: DType, what: &str| {
            let inputs: Vec<Vec<u8>> = world.iter().map(|s| bytes(dtype, s.input.len())).collect();
            let plans: Vec<CompiledSchedule> = world.iter().map(compile).collect();
            for plan in &plans {
                let pl = plan.placement();
                census[0] += 1;
                census[1] += usize::from(lands_in_two_regions(plan));
                census[2] += plan.fused.len();
                census[3] += plan.fused.len() - pl.fused.len();
            }
            let want = evaluate(world, &inputs).expect("a registry plan walks");
            let got = run_ranks(world.len(), |c| {
                let rank = c.rank();
                execute_compiled(c, &plans[rank], &inputs[rank])
            });
            assert_eq!(got, want, "{what}");
        };
        for p in 1..=9 {
            for op in CollectiveOp::ALL {
                for alg in candidates(op, p, 8) {
                    for (dtype, root, tenants) in [
                        (DType::U8, 0, 1),
                        (DType::F64, p - 1, 1),
                        (DType::F64, 0, 2),
                    ] {
                        let args = CollArgs {
                            dtype,
                            root,
                            ..CollArgs::new(op, alg)
                        };
                        let Ok(req) = Request::uniform(args, p, 8 * 5 * p) else {
                            continue;
                        };
                        let req = req.with_tenants(tenants).expect("two tenants fit");
                        let world = req.merge(req.tenant_worlds(&req.lower_world()));
                        check(
                            &world,
                            dtype,
                            &format!("{op:?} {alg} root {root} {}", req.describe()),
                        );
                    }
                }
            }
            let counts = [
                vec![8; p],
                (0..p).map(|i| 24 * i % 40).collect(),
                (0..p).map(|i| 16 * (1 - i % 2)).collect(),
            ];
            for counts in counts {
                for op in [Allgather, ReduceScatter] {
                    for alg in unique_candidates_v(op, 8, &counts) {
                        let args = CollArgs {
                            dtype: DType::F64,
                            ..CollArgs::new(op, alg)
                        };
                        let Ok(req) =
                            Request::irregular(args, CountsSpec::new(counts.clone()).unwrap())
                        else {
                            continue;
                        };
                        check(
                            &req.lower_world(),
                            DType::F64,
                            &format!("{op:?} {alg} {counts:?}"),
                        );
                    }
                }
            }
        }
        assert!(census.iter().all(|&n| n > 0), "{census:?}");
        // The large cycle of the benchmark, at p = 4: every fused pair runs
        // fused, and only the k-nomial reduce's root, whose three partials
        // land in one flush, lands one flush in two regions.
        let shapes = [
            (Allreduce, Algorithm::Ring, DType::F64, 1 << 20),
            (
                Allreduce,
                Algorithm::RecursiveMultiplying { k: 2 },
                DType::F32,
                256 << 10,
            ),
            (Bcast, Algorithm::KnomialTree { k: 2 }, DType::U8, 1 << 20),
            (Allgather, Algorithm::KRing { k: 2 }, DType::U8, 64 << 10),
            (
                Reduce,
                Algorithm::KnomialTree { k: 4 },
                DType::I32,
                256 << 10,
            ),
        ];
        for (op, alg, dtype, n) in shapes {
            let args = CollArgs {
                dtype,
                ..CollArgs::new(op, alg)
            };
            for rank in 0..4 {
                let plan = compile(&lower(&args, 4, rank, n));
                let root_of_reduce = op == Reduce && rank == 0;
                let what = format!("{op:?} {alg} rank {rank}");
                assert_eq!(lands_in_two_regions(&plan), root_of_reduce, "{what}");
                assert_eq!(plan.placement().fused, plan.fused, "{what}");
            }
        }
        let ragged = [64 << 10, 0, 96 << 10, 96 << 10];
        for rank in 0..4 {
            let plan = compile(&lower_v(
                &CollArgs::new(Allgather, Algorithm::Ring),
                rank,
                &ragged,
            ));
            assert!(!lands_in_two_regions(&plan), "agv ring rank {rank}");
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
