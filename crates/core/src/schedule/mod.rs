//! The schedule IR: every collective lowers to a per-rank communication
//! plan before anything touches a [`Comm`](exacoll_comm::Comm).
//!
//! A [`Schedule`] is a straight-line program of [`Step`]s over one flat
//! per-rank scratch buffer. Buffer addresses are abstract: lowering never
//! copies payloads around to fix layouts — it allocates fresh regions for
//! incoming data and describes reorderings (Bruck rotations, v-rank
//! unshuffles, interleaved recursive-multiplying layouts) with scatter/
//! gather lists ([`SgList`]) on the schedule's `input`/`output` views and on
//! individual sends.
//!
//! A plan means what [`compile`] makes of it: the compiled `CStep` stream,
//! flushes included, is the only thing ever executed. Three things interpret
//! it, and one independent checker does not:
//! * [`Executor`] runs one rank's plan on any `Comm` backend — live threads
//!   and sockets, and the trace recorder,
//! * [`Schedule::to_trace`] reads the op stream the executor would issue
//!   straight off the instructions, moving no bytes, for the discrete-event
//!   simulator (`exacoll-sim`),
//! * the world walker of [`eval`] runs a whole communicator's plans in one
//!   thread. It is written once over two memories: bytes (the executor's
//!   own buffer code — replay's expected run, `exacoll verify`'s reference
//!   cross-check, the test oracle) and [`provenance`] (what every byte *is*,
//!   as an expression over the ranks' inputs — how the optimizer's gate
//!   proves a rewrite computes the same function, and how `exacoll verify`
//!   states that a lowering denotes its collective),
//! * [`verify`] statically checks matching, tags, and data flow against its
//!   own statement of the flush rule, and [`verify::ScheduleStats`] counts
//!   the α/β/γ terms the analytical models (`exacoll-models`) predict.
//!
//! `verify`, `to_trace` and the provenance walk — what a plan gets before it
//! is trusted or selected — cost O(steps) and are independent of the message
//! size.

pub mod compiled;
pub mod eval;
pub mod provenance;
pub mod verify;

pub use compiled::{compile, execute_compiled, CompiledSchedule, Executor};

use exacoll_comm::{DType, Rank, RankTrace, ReduceOp, Tag};
use std::ops::Range;

/// A scatter/gather list: an ordered sequence of byte ranges into the
/// rank's flat scratch buffer, denoting the logical byte string formed by
/// their concatenation.
///
/// Adjacent ranges are coalesced and empty ranges dropped on construction,
/// so two lists describing the same byte string compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SgList(Vec<Range<usize>>);

impl SgList {
    /// The empty byte string.
    pub fn empty() -> Self {
        SgList(Vec::new())
    }

    /// Total number of bytes the list denotes.
    pub fn len(&self) -> usize {
        self.0.iter().map(|r| r.len()).sum()
    }

    /// Whether the list denotes zero bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The underlying ranges, in logical order.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.0
    }

    /// Append a range, coalescing with the tail when contiguous.
    pub fn push(&mut self, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        if let Some(last) = self.0.last_mut() {
            if last.end == r.start {
                last.end = r.end;
                return;
            }
        }
        self.0.push(r);
    }

    /// Concatenate `parts` into one list.
    pub fn concat<'a, I: IntoIterator<Item = &'a SgList>>(parts: I) -> SgList {
        let mut out = SgList::empty();
        for part in parts {
            for r in &part.0 {
                out.push(r.clone());
            }
        }
        out
    }

    /// The sub-list denoting logical bytes `offset..offset+len`.
    pub fn slice(&self, offset: usize, len: usize) -> SgList {
        let mut out = SgList::empty();
        let (mut skip, mut want) = (offset, len);
        for r in &self.0 {
            if want == 0 {
                break;
            }
            if skip >= r.len() {
                skip -= r.len();
                continue;
            }
            let start = r.start + skip;
            let take = (r.len() - skip).min(want);
            out.push(start..start + take);
            skip = 0;
            want -= take;
        }
        assert!(want == 0, "slice {offset}+{len} out of bounds for {self:?}");
        out
    }

    /// Whether any byte is shared with `other`.
    pub fn overlaps(&self, other: &SgList) -> bool {
        self.0
            .iter()
            .any(|a| other.0.iter().any(|b| a.start < b.end && b.start < a.end))
    }
}

impl From<Range<usize>> for SgList {
    fn from(r: Range<usize>) -> Self {
        let mut s = SgList::empty();
        s.push(r);
        s
    }
}

/// What a [`Step::Compute`] does with its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeKind {
    /// `dst = src` — a pure data movement, no γ cost.
    Copy,
    /// `dst = dst ⊕ src` elementwise — charged `dst.len()` γ bytes.
    Reduce {
        /// Element type of both operands.
        dtype: DType,
        /// Combining operator.
        op: ReduceOp,
    },
}

/// One instruction of a rank's communication plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Step {
    /// Post a non-blocking send of the bytes `src` denotes.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload, gathered from the scratch buffer at post time.
        src: SgList,
    },
    /// Post a non-blocking receive of `dst.len()` bytes into `dst`.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Destination ranges, filled at the next flush.
        dst: SgList,
    },
    /// Post a send and a receive together (the classic ring exchange).
    SendRecv {
        /// Destination rank of the outgoing message.
        to: Rank,
        /// Outgoing tag.
        send_tag: Tag,
        /// Outgoing payload.
        src: SgList,
        /// Source rank of the incoming message.
        from: Rank,
        /// Incoming tag.
        recv_tag: Tag,
        /// Incoming destination ranges.
        dst: SgList,
    },
    /// Local data movement or reduction.
    Compute {
        /// Copy vs reduce.
        kind: ComputeKind,
        /// Right-hand operand.
        src: SgList,
        /// Destination (and left-hand operand for reductions).
        dst: SgList,
    },
    /// Round/phase boundary: completes every outstanding request, then
    /// annotates the timeline via [`Comm::mark`](exacoll_comm::Comm::mark).
    RoundMark {
        /// Phase label.
        label: &'static str,
        /// 0-based round index within the phase.
        round: u32,
    },
}

/// The complete communication plan of one rank for one collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Communicator size the plan was lowered for.
    pub p: usize,
    /// The rank this plan belongs to.
    pub rank: Rank,
    /// Scratch buffer size in bytes.
    pub buf_len: usize,
    /// Where the rank's input bytes land in the scratch buffer (in input
    /// order — the list's permutation encodes any initial reshuffle).
    pub input: SgList,
    /// Which scratch bytes form the rank's output, in output order.
    pub output: SgList,
    /// The instruction sequence.
    pub steps: Vec<Step>,
}

impl Schedule {
    /// The rank's [`RankTrace`] for discrete-event simulation:
    /// [`CompiledSchedule::to_trace`] of the compiled plan — a symbolic walk
    /// of the instructions the [`Executor`] runs, pinned equal to the
    /// executor's recorded op sequence by `exacoll-sim`'s
    /// `schedule_cost_equals_traced_execution_cost`.
    pub fn to_trace(&self) -> RankTrace {
        compile(self).to_trace()
    }
}

/// Incremental [`Schedule`] construction with bump allocation of scratch
/// regions.
///
/// Lowering code allocates a fresh region for every incoming message and
/// rebinds its logical blocks to the new bytes, so data never moves to
/// satisfy a layout — the `input`/`output` scatter/gather lists absorb all
/// permutations.
pub struct ScheduleBuilder {
    p: usize,
    rank: Rank,
    top: usize,
    steps: Vec<Step>,
}

impl ScheduleBuilder {
    /// Start a plan for `rank` of a size-`p` communicator.
    pub fn new(p: usize, rank: Rank) -> Self {
        assert!(rank < p, "rank {rank} out of range for size {p}");
        ScheduleBuilder {
            p,
            rank,
            top: 0,
            steps: Vec::new(),
        }
    }

    /// Communicator size.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The rank being lowered.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Reserve `len` fresh scratch bytes.
    pub fn alloc(&mut self, len: usize) -> SgList {
        let r = self.top..self.top + len;
        self.top += len;
        SgList::from(r)
    }

    /// Append a [`Step::Send`].
    pub fn send(&mut self, to: Rank, tag: Tag, src: SgList) {
        self.steps.push(Step::Send { to, tag, src });
    }

    /// Append a [`Step::Recv`].
    pub fn recv(&mut self, from: Rank, tag: Tag, dst: SgList) {
        self.steps.push(Step::Recv { from, tag, dst });
    }

    /// Append a [`Step::SendRecv`].
    pub fn sendrecv(
        &mut self,
        to: Rank,
        send_tag: Tag,
        src: SgList,
        from: Rank,
        recv_tag: Tag,
        dst: SgList,
    ) {
        self.steps.push(Step::SendRecv {
            to,
            send_tag,
            src,
            from,
            recv_tag,
            dst,
        });
    }

    /// Append a reducing [`Step::Compute`]: `dst = dst ⊕ src`.
    pub fn reduce(&mut self, dtype: DType, op: ReduceOp, src: SgList, dst: SgList) {
        debug_assert_eq!(src.len(), dst.len(), "reduce operands must match");
        self.steps.push(Step::Compute {
            kind: ComputeKind::Reduce { dtype, op },
            src,
            dst,
        });
    }

    /// Append a copying [`Step::Compute`]: `dst = src`.
    pub fn copy(&mut self, src: SgList, dst: SgList) {
        debug_assert_eq!(src.len(), dst.len(), "copy operands must match");
        self.steps.push(Step::Compute {
            kind: ComputeKind::Copy,
            src,
            dst,
        });
    }

    /// Append a [`Step::RoundMark`].
    pub fn mark(&mut self, label: &'static str, round: u32) {
        self.steps.push(Step::RoundMark { label, round });
    }

    /// Seal the plan, declaring where input bytes land and which bytes form
    /// the output.
    pub fn finish(self, input: SgList, output: SgList) -> Schedule {
        Schedule {
            p: self.p,
            rank: self.rank,
            buf_len: self.top,
            input,
            output,
            steps: self.steps,
        }
    }
}

/// The kernel modules' shared unit-test harness: lower this rank's plan
/// with `build` (which returns the plan's input and output views), compile
/// it, and run it on `c`.
#[cfg(test)]
pub(crate) fn run_built<C: exacoll_comm::Comm>(
    c: &mut C,
    input: &[u8],
    build: impl FnOnce(&mut ScheduleBuilder) -> (SgList, SgList),
) -> exacoll_comm::CommResult<Vec<u8>> {
    let mut b = ScheduleBuilder::new(c.size(), c.rank());
    let (input_view, output_view) = build(&mut b);
    execute_compiled(c, &compile(&b.finish(input_view, output_view)), input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sglist_coalesces_and_slices() {
        let mut s = SgList::empty();
        s.push(0..4);
        s.push(4..8); // contiguous: coalesce
        s.push(12..16);
        assert_eq!(s.ranges(), &[0..8, 12..16]);
        assert_eq!(s.len(), 12);
        assert_eq!(s.slice(6, 4).ranges(), &[6..8, 12..14]);
        assert_eq!(s.slice(0, 0).len(), 0);
        assert_eq!(s.slice(12, 0).len(), 0);
    }

    #[test]
    fn sglist_equality_is_layout_insensitive() {
        let mut a = SgList::empty();
        a.push(0..3);
        a.push(3..6);
        let b = SgList::from(0..6);
        assert_eq!(a, b);
    }

    #[test]
    fn overlap_detection() {
        let a = SgList::from(0..8);
        let b = SgList::from(8..16);
        let c = SgList::from(7..9);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        assert!(!SgList::empty().overlaps(&a));
    }

    #[test]
    fn builder_bump_allocates_disjoint_regions() {
        let mut b = ScheduleBuilder::new(4, 1);
        let x = b.alloc(16);
        let y = b.alloc(8);
        assert!(!x.overlaps(&y));
        let s = b.finish(x.clone(), y.clone());
        assert_eq!(s.buf_len, 24);
        assert_eq!(s.input, x);
        assert_eq!(s.output, y);
    }
}
