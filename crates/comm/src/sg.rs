//! Borrowed scatter-gather views over a caller's buffers.
//!
//! A [`SgView`] is the zero-copy counterpart of gathering an `SgList` into a
//! fresh `Vec<u8>`: an ordered list of byte ranges over borrowed bytes, for
//! the duration of one send. Backends that can feed segments straight to
//! the wire (vectored I/O) consume the segments in order; everything else
//! calls [`SgView::to_vec`] and falls back to the classic gather-copy, which
//! produces exactly the same payload bytes.
//!
//! A range addresses one buffer, or the [`Regions`] of a run: a read-only
//! buffer and two writable ones laid end to end and addressed as one. A
//! range lies in exactly one region; one that crosses from a region into
//! the next panics as a slice index past that region's end does, and one
//! that starts past every region indexes the last, so it panics as an index
//! into that buffer at the same offset would.
//!
//! [`SgDests`] is the receive side: where each request of one
//! [`Comm::waitall_into`](crate::Comm::waitall_into) lands in the caller's
//! writable regions, named as index spans into a range arena the caller
//! already owns, and whether it is written there or folded into what is
//! there ([`Landing`]).

use crate::reduce_ops::reduce_into;
use crate::types::{DType, ReduceOp};
use std::ops::Range;

/// Which of three buffers laid end to end, of lengths `lens`, range `r`
/// lies in, and where in it: the one holding its first byte, the last for a
/// range that starts past them all.
fn locate(lens: [usize; 3], r: &Range<usize>) -> (usize, Range<usize>) {
    let mut base = 0;
    for (i, len) in lens.into_iter().enumerate() {
        if r.start < base + len || i == 2 {
            return (i, r.start - base..r.end.saturating_sub(base));
        }
        base += len;
    }
    unreachable!("the last buffer takes every range left")
}

/// A borrowed, ordered scatter-gather view over one buffer or the three
/// [`Regions`] of a run.
///
/// Invariants (checked at construction): every range is well-formed
/// (`start <= end`) and lies within one buffer. Ranges are *not* required
/// to be disjoint or sorted — the logical payload is the ordered
/// concatenation of the segments, nothing more.
#[derive(Debug, Clone, Copy)]
pub struct SgView<'a> {
    /// The buffers laid end to end; a one-buffer view has its bytes last.
    bufs: [&'a [u8]; 3],
    ranges: &'a [Range<usize>],
}

impl<'a> SgView<'a> {
    /// Build a view of `ranges` over `buf`.
    ///
    /// # Panics
    ///
    /// Panics, as a slice index does, if any range is malformed or out of
    /// bounds — a malformed view is a lowering bug, not a runtime condition.
    pub fn new(buf: &'a [u8], ranges: &'a [Range<usize>]) -> Self {
        SgView::over([&[], &[], buf], ranges)
    }

    /// A view of `ranges` over `bufs` laid end to end, checked as
    /// [`new`](Self::new) checks one buffer.
    fn over(bufs: [&'a [u8]; 3], ranges: &'a [Range<usize>]) -> Self {
        let view = SgView { bufs, ranges };
        view.segments().for_each(drop);
        view
    }

    /// A view of one contiguous range.
    pub fn contiguous(buf: &'a [u8], range: &'a Range<usize>) -> Self {
        SgView::new(buf, std::slice::from_ref(range))
    }

    /// Total payload length in bytes (sum of segment lengths).
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }

    /// True when the view carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.ranges.iter().all(|r| r.start == r.end)
    }

    /// The bytes `r` addresses.
    fn segment(&self, r: &Range<usize>) -> &'a [u8] {
        let (i, at) = locate(self.bufs.map(<[u8]>::len), r);
        &self.bufs[i][at]
    }

    /// The segments, in payload order.
    pub fn segments(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.ranges.iter().map(|r| self.segment(r))
    }

    /// Number of segments (including empty ones).
    pub fn segment_count(&self) -> usize {
        self.ranges.len()
    }

    /// Gather-copy the view into an owned payload. This is the compatibility
    /// path: its output is byte-identical to what vectored backends put on
    /// the wire.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for seg in self.segments() {
            out.extend_from_slice(seg);
        }
        out
    }
}

/// The buffers one run reads and writes, laid end to end and addressed as
/// one (see the module docs): a read-only region, then two writable ones,
/// the only ones [`Comm::waitall_into`](crate::Comm::waitall_into) writes.
/// Every access panics as a slice index does when its range does not lie in
/// one region, and a write when it lies in the read-only one.
#[derive(Debug)]
pub struct Regions<'a> {
    read_only: &'a [u8],
    writable: [&'a mut [u8]; 2],
}

impl<'a> Regions<'a> {
    /// `read_only`, `first` and `second`, in that order.
    pub fn new(read_only: &'a [u8], first: &'a mut [u8], second: &'a mut [u8]) -> Self {
        Regions {
            read_only,
            writable: [first, second],
        }
    }

    /// One writable buffer, addressed as itself.
    pub fn one(buf: &'a mut [u8]) -> Self {
        Regions::new(&[], &mut [], buf)
    }

    /// The same regions, borrowed for a shorter time.
    pub fn reborrow(&mut self) -> Regions<'_> {
        let [first, second] = &mut self.writable;
        Regions::new(self.read_only, first, second)
    }

    /// A view of `ranges` over these regions.
    pub fn view<'s>(&'s self, ranges: &'s [Range<usize>]) -> SgView<'s> {
        let [first, second] = &self.writable;
        SgView::over([self.read_only, first, second], ranges)
    }

    /// The bytes `r` addresses.
    pub fn get(&self, r: &Range<usize>) -> &[u8] {
        self.view(&[]).segment(r)
    }

    fn lens(&self) -> [usize; 3] {
        let [first, second] = &self.writable;
        [self.read_only.len(), first.len(), second.len()]
    }

    /// Which writable region `r` lies in, and where in it.
    fn locate_mut(&self, r: &Range<usize>) -> (usize, Range<usize>) {
        match locate(self.lens(), r) {
            (0, _) => panic!("range {r:?} lies in the read-only region"),
            (i, at) => (i - 1, at),
        }
    }

    /// The bytes `r` addresses, to write.
    pub fn get_mut(&mut self, r: &Range<usize>) -> &mut [u8] {
        let (i, at) = self.locate_mut(r);
        &mut self.writable[i][at]
    }

    /// Whether `r` lies in one writable region, so that
    /// [`get_mut`](Self::get_mut) takes it.
    pub fn holds(&self, r: &Range<usize>) -> bool {
        let (i, at) = locate(self.lens(), r);
        i > 0 && at.start <= at.end && at.end <= self.writable[i - 1].len()
    }

    /// `s`'s bytes to read and `d`'s to write, at once; `None` when they
    /// overlap.
    pub fn pair_mut(&mut self, s: &Range<usize>, d: &Range<usize>) -> Option<(&[u8], &mut [u8])> {
        let ((i, s), (j, d)) = (locate(self.lens(), s), self.locate_mut(d));
        let [first, second] = &mut self.writable;
        let (from, to): (&[u8], &mut [u8]) = match (i, j) {
            (0, 0) => (self.read_only, first),
            (0, _) => (self.read_only, second),
            (2, 0) => (second, first),
            (1, 1) => (first, second),
            (_, 0) => return split_pair(first, s, d),
            _ => return split_pair(second, s, d),
        };
        Some((&from[s], &mut to[d]))
    }

    /// Write `data` into `ranges` in order, stopping when either runs out: a
    /// short payload fills a prefix, bytes past the last range are dropped.
    pub fn scatter(&mut self, ranges: &[Range<usize>], data: &[u8]) {
        let mut pos = 0;
        for r in ranges {
            if pos >= data.len() {
                break;
            }
            let take = r.len().min(data.len() - pos);
            self.get_mut(&(r.start..r.start + take))
                .copy_from_slice(&data[pos..pos + take]);
            pos += take;
        }
    }

    /// Zero the bytes of `ranges` past the first `filled`, in range order:
    /// what a message of `filled` bytes leaves of a longer destination then
    /// reads 0, whatever the buffer held before. [`scatter`](Self::scatter)
    /// followed by this is what a receive does to its destination.
    pub fn zero_tail(&mut self, ranges: &[Range<usize>], mut filled: usize) {
        for r in ranges {
            let keep = filled.min(r.len());
            self.get_mut(&(r.start + keep..r.end)).fill(0);
            filled -= keep;
        }
    }
}

/// `s`'s bytes and `d`'s of one buffer, at once; `None` when they overlap.
fn split_pair(buf: &mut [u8], s: Range<usize>, d: Range<usize>) -> Option<(&[u8], &mut [u8])> {
    if s.end <= d.start {
        let (lo, hi) = buf.split_at_mut(d.start);
        Some((&lo[s], &mut hi[..d.len()]))
    } else if d.end <= s.start {
        let (lo, hi) = buf.split_at_mut(s.start);
        Some((&hi[..s.len()], &mut lo[d]))
    } else {
        None
    }
}

/// What one request's payload does to the regions of a
/// [`Comm::waitall_into`](crate::Comm::waitall_into).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Landing {
    /// Written over the destination; what a shorter payload leaves of it is
    /// zeroed ([`Regions::scatter`] then [`Regions::zero_tail`]).
    Copy,
    /// Folded into the destination, one contiguous range of whole
    /// elements: `dst = dst ⊕ payload`, the payload zero-padded to its
    /// length.
    Reduce {
        /// Element type.
        dtype: DType,
        /// Combining operator.
        op: ReduceOp,
    },
}

/// The destinations of one [`Comm::waitall_into`](crate::Comm::waitall_into):
/// request `i`'s payload goes, in order, into the ranges `ranges[spans[i]]` of
/// the [`Regions`] passed beside it, or is folded into them
/// ([`landing_into`](Self::landing_into)). A send carries an empty span.
///
/// Both slices are borrowed — `ranges` is typically a compiled plan's own
/// range arena — so naming the destinations of a batch allocates nothing.
/// The destinations of one call must be pairwise disjoint: payloads land as
/// they arrive, not in request order.
#[derive(Debug, Clone, Copy)]
pub struct SgDests<'a> {
    ranges: &'a [Range<usize>],
    spans: &'a [Range<usize>],
    /// Empty when every request is [`Landing::Copy`].
    landings: &'a [Landing],
}

impl<'a> SgDests<'a> {
    /// One span of `ranges` per request, every payload copied.
    ///
    /// # Panics
    ///
    /// If a span does not lie within `ranges`. Whether a range fits the
    /// regions is checked when it is written to.
    pub fn new(ranges: &'a [Range<usize>], spans: &'a [Range<usize>]) -> Self {
        for s in spans {
            assert!(
                s.start <= s.end && s.end <= ranges.len(),
                "destination span {s:?} out of bounds for an arena of {} ranges",
                ranges.len()
            );
        }
        SgDests {
            ranges,
            spans,
            landings: &[],
        }
    }

    /// The same destinations with request `i` landing as `landings[i]`.
    ///
    /// # Panics
    ///
    /// Unless there is one landing per request and every `Reduce` names an
    /// operator its type supports and a destination of one range of whole
    /// elements: a malformed landing is a lowering bug.
    pub fn landing_into(self, landings: &'a [Landing]) -> Self {
        assert_eq!(landings.len(), self.len(), "one landing per request");
        for (i, landing) in landings.iter().enumerate() {
            if let Landing::Reduce { dtype, op } = landing {
                let dst = self.of(i);
                assert!(
                    op.supports(*dtype)
                        && dst.len() == 1
                        && dst[0].len().is_multiple_of(dtype.size()),
                    "request {i}: cannot fold into {dst:?} as {op:?} over {dtype:?}"
                );
            }
        }
        SgDests { landings, ..self }
    }

    /// The same destinations with every payload copied: what a wrapper that
    /// has to see payloads forwards.
    pub fn copies(self) -> Self {
        SgDests::new(self.ranges, self.spans)
    }

    /// Number of requests the destinations are for.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when there is no request.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Request `i`'s destination ranges, in payload order.
    pub fn of(&self, i: usize) -> &'a [Range<usize>] {
        &self.ranges[self.spans[i].clone()]
    }

    /// How request `i`'s payload lands.
    pub fn landing(&self, i: usize) -> &'a Landing {
        self.landings.get(i).unwrap_or(&Landing::Copy)
    }

    /// Land request `i`'s whole `payload` in `bufs`. Bytes past the
    /// destination are dropped.
    pub fn put(&self, bufs: &mut Regions<'_>, i: usize, payload: &[u8]) {
        match self.landing(i) {
            Landing::Copy => {
                bufs.scatter(self.of(i), payload);
                bufs.zero_tail(self.of(i), payload.len());
            }
            Landing::Reduce { dtype, op } => {
                let (acc, mut carry) = (bufs.get_mut(&self.of(i)[0]), [0; 8]);
                let payload = &payload[..payload.len().min(acc.len())];
                fold(*dtype, *op, acc, 0, &mut carry, payload);
                fold_tail(*dtype, *op, acc, payload.len(), &mut carry);
            }
        }
    }
}

/// Fold the next `bytes` of a message into `acc`, which holds its first
/// `filled` bytes already: whole elements are reduced as they come, a
/// trailing partial one waits in `carry` for the rest of its bytes.
pub(crate) fn fold(
    dtype: DType,
    op: ReduceOp,
    acc: &mut [u8],
    filled: usize,
    carry: &mut [u8; 8],
    mut bytes: &[u8],
) {
    let esz = dtype.size();
    let (mut at, part) = (filled - filled % esz, filled % esz);
    let checked = "a checked landing folds whole elements";
    if part > 0 {
        let take = (esz - part).min(bytes.len());
        carry[part..part + take].copy_from_slice(&bytes[..take]);
        bytes = &bytes[take..];
        if part + take < esz {
            return;
        }
        reduce_into(dtype, op, &mut acc[at..at + esz], &carry[..esz]).expect(checked);
        at += esz;
    }
    let whole = bytes.len() - bytes.len() % esz;
    reduce_into(dtype, op, &mut acc[at..at + whole], &bytes[..whole]).expect(checked);
    carry[..bytes.len() - whole].copy_from_slice(&bytes[whole..]);
}

/// A message of `len` bytes has been [`fold`]ed into `acc`: fold in the
/// zeros that pad it to `acc`'s length.
pub(crate) fn fold_tail(
    dtype: DType,
    op: ReduceOp,
    acc: &mut [u8],
    mut len: usize,
    carry: &mut [u8; 8],
) {
    const ZEROS: [u8; 64] = [0; 64];
    while len < acc.len() {
        let n = (acc.len() - len).min(ZEROS.len());
        fold(dtype, op, acc, len, carry, &ZEROS[..n]);
        len += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gathers_in_order() {
        let buf: Vec<u8> = (0..10).collect();
        let ranges = [7..10, 0..2, 4..4];
        let v = SgView::new(&buf, &ranges);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert_eq!(v.segment_count(), 3);
        assert_eq!(v.to_vec(), vec![7, 8, 9, 0, 1]);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn empty_view() {
        let buf = [1u8, 2, 3];
        let ranges = [1..1];
        let v = SgView::new(&buf, &ranges);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.to_vec(), Vec::<u8>::new());
    }

    #[test]
    fn scatter_follows_range_order_and_stops_with_the_shorter_side() {
        let mut buf = vec![0u8; 8];
        let ranges = [4..8, 0..4];
        Regions::one(&mut buf).scatter(&ranges, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(buf, vec![5, 6, 7, 8, 1, 2, 3, 4]);
        // A short payload fills a prefix and leaves the rest alone; a long
        // one loses its tail.
        let mut buf = vec![9u8; 6];
        Regions::one(&mut buf).scatter(std::slice::from_ref(&(0..6)), &[1, 2]);
        assert_eq!(buf, vec![1, 2, 9, 9, 9, 9]);
        Regions::one(&mut buf).scatter(std::slice::from_ref(&(4..6)), &[5, 6, 7]);
        assert_eq!(buf, vec![1, 2, 9, 9, 5, 6]);
    }

    #[test]
    fn zero_tail_clears_what_a_short_message_leaves_in_range_order() {
        let mut buf = vec![9u8; 8];
        let ranges = [6..8, 0..3, 4..5];
        Regions::one(&mut buf).zero_tail(&ranges, 3);
        assert_eq!(buf, vec![9, 0, 0, 9, 0, 9, 9, 9]);
        // A payload filling the destination leaves it alone; none zeroes it.
        let mut buf = vec![9u8; 8];
        Regions::one(&mut buf).zero_tail(&ranges, 6);
        assert_eq!(buf, vec![9; 8]);
        Regions::one(&mut buf).zero_tail(&ranges, 0);
        assert_eq!(buf, vec![0, 0, 0, 9, 0, 9, 0, 0]);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn destinations_are_spans_of_one_arena() {
        let ranges = [0..2, 6..8, 2..6];
        let spans = [0..2, 2..2, 2..3];
        let d = SgDests::new(&ranges, &spans);
        assert_eq!(d.len(), 3);
        assert_eq!(d.of(0), &[0..2, 6..8]);
        assert!(d.of(1).is_empty());
        assert_eq!(d.of(2), &[2..6]);
    }

    /// `landing_into` of one `Reduce` landing into `dst`.
    #[allow(clippy::single_range_in_vec_init)]
    fn fold_into(dst: &[Range<usize>], dtype: DType, op: ReduceOp) {
        let landings = [Landing::Reduce { dtype, op }];
        let _ = SgDests::new(dst, &[0..dst.len()]).landing_into(&landings);
    }

    #[test]
    #[should_panic(expected = "cannot fold into [0..8, 16..24]")]
    fn a_fold_into_two_ranges_is_refused() {
        fold_into(&[0..8, 16..24], DType::F64, ReduceOp::Sum);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    #[should_panic(expected = "cannot fold into [0..12]")]
    fn a_fold_into_part_of_an_element_is_refused() {
        fold_into(&[0..12], DType::F64, ReduceOp::Sum);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    #[should_panic(expected = "as BXor over F64")]
    fn a_fold_the_type_does_not_support_is_refused() {
        fold_into(&[0..16], DType::F64, ReduceOp::BXor);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    #[should_panic(expected = "range end index 5 out of range for slice of length 4")]
    fn out_of_bounds_range_panics() {
        let buf = [0u8; 4];
        let ranges = [2..5];
        let _ = SgView::new(&buf, &ranges);
    }
}
