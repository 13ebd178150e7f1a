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
//! flushes included, is the only thing ever executed, and the only thing
//! anything interprets:
//! * [`Executor`] runs one rank's plan on any `Comm` backend — live threads
//!   and sockets, under any wrapper (timing, recording, fault injection),
//! * [`Schedule::to_trace`] reads the op stream the executor would issue
//!   straight off the instructions, moving no bytes, for the discrete-event
//!   simulator (`exacoll-sim`),
//! * the world walker of [`eval`] runs a whole communicator's plans in one
//!   thread. It is written once over three memories: bytes (the executor's
//!   own buffer code — replay's expected run, `exacoll verify`'s reference
//!   cross-check, the test oracle), [`provenance`] (what every byte *is*, as
//!   an expression over the ranks' inputs — how the optimizer's gate proves
//!   a rewrite computes the same function, and how `exacoll verify` states
//!   that a lowering denotes its collective) and definedness, with which
//!   [`verify`] proves matching, progress and data flow; it adds only what
//!   needs no walk (bounds, peers, tag hygiene), and
//!   [`verify::ScheduleStats`] counts the α/β/γ terms the analytical models
//!   (`exacoll-models`) predict.
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
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// A scatter/gather list: an ordered sequence of byte ranges into the
/// rank's flat scratch buffer, denoting the logical byte string formed by
/// their concatenation.
///
/// Adjacent ranges are coalesced and empty ranges dropped on construction,
/// so two lists describing the same byte string compare equal.
///
/// Nine lists in ten a lowering builds hold exactly one range, so that one
/// is stored inline: only a list of two or more ranges owns a heap vector,
/// and building, cloning or slicing a single-range list never allocates.
#[derive(Clone, Default)]
pub struct SgList(Ranges);

/// [`SgList`]'s storage. `Many` always holds two or more ranges, none empty
/// and none ending where the next begins.
#[derive(Clone, Default)]
enum Ranges {
    #[default]
    Empty,
    One(Range<usize>),
    Many(Vec<Range<usize>>),
}

impl SgList {
    /// The empty byte string.
    pub fn empty() -> Self {
        SgList(Ranges::Empty)
    }

    /// Total number of bytes the list denotes.
    pub fn len(&self) -> usize {
        self.ranges().iter().map(|r| r.len()).sum()
    }

    /// Whether the list denotes zero bytes.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Ranges::Empty)
    }

    /// The underlying ranges, in logical order.
    pub fn ranges(&self) -> &[Range<usize>] {
        match &self.0 {
            Ranges::Empty => &[],
            Ranges::One(r) => std::slice::from_ref(r),
            Ranges::Many(v) => v,
        }
    }

    /// Append a range, coalescing with the tail when contiguous.
    pub fn push(&mut self, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        self.0 = match std::mem::take(&mut self.0) {
            Ranges::Empty => Ranges::One(r),
            Ranges::One(last) if last.end == r.start => Ranges::One(last.start..r.end),
            Ranges::One(first) => Ranges::Many(vec![first, r]),
            Ranges::Many(mut v) => {
                match v.last_mut() {
                    Some(last) if last.end == r.start => last.end = r.end,
                    _ => v.push(r),
                }
                Ranges::Many(v)
            }
        };
    }

    /// Concatenate `parts` into one list.
    pub fn concat<'a, I: IntoIterator<Item = &'a SgList>>(parts: I) -> SgList {
        let mut out = SgList::empty();
        for part in parts {
            for r in part.ranges() {
                out.push(r.clone());
            }
        }
        out
    }

    /// The sub-list denoting logical bytes `offset..offset+len`.
    ///
    /// # Panics
    ///
    /// When `offset..offset+len` does not lie inside the list — like a Rust
    /// slice, an empty window may start at the end but not past it.
    pub fn slice(&self, offset: usize, len: usize) -> SgList {
        let total = self.len();
        assert!(
            offset <= total && len <= total - offset,
            "slice {offset}+{len} out of bounds for {self:?}"
        );
        let mut out = SgList::empty();
        let (mut skip, mut want) = (offset, len);
        for r in self.ranges() {
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
        out
    }

    /// Whether any byte is shared with `other`.
    pub fn overlaps(&self, other: &SgList) -> bool {
        self.ranges().iter().any(|a| {
            other
                .ranges()
                .iter()
                .any(|b| a.start < b.end && b.start < a.end)
        })
    }
}

// Equality, hashing and `Debug` go through `ranges()`, so they never depend
// on which variant holds the ranges.
impl PartialEq for SgList {
    fn eq(&self, other: &Self) -> bool {
        self.ranges() == other.ranges()
    }
}

impl Eq for SgList {}

impl Hash for SgList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ranges().hash(state);
    }
}

impl fmt::Debug for SgList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SgList").field(&self.ranges()).finish()
    }
}

impl From<Range<usize>> for SgList {
    fn from(r: Range<usize>) -> Self {
        SgList(if r.is_empty() {
            Ranges::Empty
        } else {
            Ranges::One(r)
        })
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
    /// of the instructions the [`Executor`] runs, pinned equal to the op
    /// sequence a live threaded run issues by
    /// `tests/observability.rs::symbolic_trace_equals_the_executed_trace`.
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
    use proptest::prelude::*;

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
    #[should_panic(expected = "slice 100+0 out of bounds")]
    fn sglist_empty_slice_past_the_end_panics() {
        let mut s = SgList::from(0..8);
        s.push(12..16);
        s.slice(100, 0);
    }

    /// The `Vec`-backed definition this representation replaced, whose
    /// derived `Debug` and `Hash` the hand-written ones must reproduce.
    mod vec_form {
        #[derive(Debug, Hash)]
        pub struct SgList(pub Vec<std::ops::Range<usize>>);
    }

    /// The former push rule: the model the inline list is checked against.
    fn model_push(v: &mut Vec<Range<usize>>, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        match v.last_mut() {
            Some(last) if last.end == r.start => last.end = r.end,
            _ => v.push(r),
        }
    }

    fn model_slice(v: &[Range<usize>], offset: usize, len: usize) -> Vec<Range<usize>> {
        let bytes: Vec<usize> = v.iter().flat_map(|r| r.clone()).collect();
        let mut out = Vec::new();
        for &b in &bytes[offset..offset + len] {
            model_push(&mut out, b..b + 1);
        }
        out
    }

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// Build a list and its model from `(kind, start, len)` pushes, checking
    /// their ranges agree after each: kind 0 is a range anywhere in a
    /// 32-byte scratch (disjoint, overlapping or touching by chance), 1
    /// touches the current tail, 2 is empty.
    fn build(pushes: &[(usize, usize, usize)]) -> (SgList, Vec<Range<usize>>) {
        let (mut s, mut m) = (SgList::empty(), Vec::new());
        for &(kind, start, len) in pushes {
            let r = match kind {
                0 => start..start + len,
                1 => {
                    let at = m.last().map_or(start, |r: &Range<usize>| r.end);
                    at..at + len
                }
                _ => start..start,
            };
            s.push(r.clone());
            model_push(&mut m, r);
            assert_eq!(s.ranges(), &m[..]);
        }
        (s, m)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Random push sequences, then `concat` and `slice`, on the inline
        /// list and on the `Vec` model: every observation agrees, `Debug`
        /// prints what the `Vec` form printed, and a list rebuilt from
        /// different pieces of the same byte string compares and hashes
        /// equal.
        #[test]
        fn sglist_agrees_with_the_vec_model(
            a in collection::vec((0usize..3, 0usize..32, 0usize..6), 0..8),
            b in collection::vec((0usize..3, 0usize..32, 0usize..6), 0..8),
            cut in 0usize..64,
            window in (0usize..64, 0usize..64),
        ) {
            let (sa, ma) = build(&a);
            let (sb, mb) = build(&b);
            for (s, m) in [(&sa, &ma), (&sb, &mb)] {
                prop_assert_eq!(s.len(), m.iter().map(|r| r.len()).sum::<usize>());
                prop_assert_eq!(s.is_empty(), m.is_empty());
                let old = vec_form::SgList(m.clone());
                prop_assert_eq!(format!("{s:?}"), format!("{old:?}"));
                prop_assert_eq!(format!("{s:#?}"), format!("{old:#?}"));
                prop_assert_eq!(hash_of(s), hash_of(&old));
            }
            let shared = ma.iter().any(|x| mb.iter().any(|y| x.start < y.end && y.start < x.end));
            prop_assert_eq!(sa.overlaps(&sb), shared);
            prop_assert_eq!(sb.overlaps(&sa), shared);

            let joined = SgList::concat([&sa, &sb]);
            let mut mj = ma.clone();
            for r in &mb {
                model_push(&mut mj, r.clone());
            }
            prop_assert_eq!(joined.ranges(), &mj[..]);

            let n = joined.len();
            let off = window.0 % (n + 1);
            let len = window.1 % (n - off + 1);
            prop_assert_eq!(joined.slice(off, len).ranges(), &model_slice(&mj, off, len)[..]);

            // The same byte string, cut at an arbitrary byte and rebuilt from
            // the two halves — and from single bytes with empty pushes
            // between them.
            let k = cut % (n + 1);
            let halves = SgList::concat([&joined.slice(0, k), &joined.slice(k, n - k)]);
            let mut bytes = SgList::empty();
            for b in mj.iter().flat_map(|r| r.clone()) {
                bytes.push(b..b + 1);
                bytes.push(b..b);
            }
            for rebuilt in [&halves, &bytes] {
                prop_assert_eq!(rebuilt, &joined);
                prop_assert_eq!(hash_of(rebuilt), hash_of(&joined));
            }
        }
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
