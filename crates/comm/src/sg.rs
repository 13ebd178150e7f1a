//! Borrowed scatter-gather views over a caller's buffer.
//!
//! A [`SgView`] is the zero-copy counterpart of gathering an `SgList` into a
//! fresh `Vec<u8>`: an ordered list of byte ranges over a single backing
//! buffer, borrowed for the duration of one send. Backends that can feed
//! segments straight to the wire (vectored I/O) consume the segments in
//! order; everything else calls [`SgView::to_vec`] and falls back to the
//! classic gather-copy, which produces exactly the same payload bytes.
//!
//! [`SgDests`] is the receive side: where each request of one
//! [`Comm::waitall_into`](crate::Comm::waitall_into) lands in the caller's
//! buffer, named as index spans into a range arena the caller already owns.

use std::ops::Range;

/// A borrowed, ordered scatter-gather view over one backing buffer.
///
/// Invariants (checked at construction): every range lies within `buf` and
/// is well-formed (`start <= end`). Ranges are *not* required to be disjoint
/// or sorted — the logical payload is the ordered concatenation of the
/// segments, nothing more.
#[derive(Debug, Clone, Copy)]
pub struct SgView<'a> {
    buf: &'a [u8],
    ranges: &'a [Range<usize>],
}

impl<'a> SgView<'a> {
    /// Build a view of `ranges` over `buf`.
    ///
    /// # Panics
    ///
    /// Panics if any range is malformed or out of bounds — a malformed view
    /// is a lowering bug, not a runtime condition.
    pub fn new(buf: &'a [u8], ranges: &'a [Range<usize>]) -> Self {
        for r in ranges {
            assert!(
                r.start <= r.end && r.end <= buf.len(),
                "sg range {r:?} out of bounds for buffer of {} B",
                buf.len()
            );
        }
        SgView { buf, ranges }
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

    /// The segments, in payload order.
    pub fn segments(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.ranges.iter().map(|r| &self.buf[r.clone()])
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

/// Write `data` into `ranges` of `buf` in order, stopping when either runs
/// out: a short payload fills a prefix, bytes past the last range are dropped.
///
/// # Panics
///
/// If a range written to is malformed or out of bounds for `buf`.
pub fn scatter(buf: &mut [u8], ranges: &[Range<usize>], data: &[u8]) {
    let mut pos = 0;
    for r in ranges {
        if pos >= data.len() {
            break;
        }
        let take = r.len().min(data.len() - pos);
        buf[r.start..r.start + take].copy_from_slice(&data[pos..pos + take]);
        pos += take;
    }
}

/// Zero the bytes of `ranges` past the first `filled`, in range order: what
/// a message of `filled` bytes leaves of a longer destination then reads 0,
/// whatever the buffer held before. [`scatter`] followed by this is what a
/// receive does to its destination.
///
/// # Panics
///
/// If a range is malformed or out of bounds for `buf`.
pub fn zero_tail(buf: &mut [u8], ranges: &[Range<usize>], mut filled: usize) {
    for r in ranges {
        let keep = filled.min(r.len());
        buf[r.start + keep..r.end].fill(0);
        filled -= keep;
    }
}

/// The destinations of one [`Comm::waitall_into`](crate::Comm::waitall_into):
/// request `i`'s payload goes, in order, into the ranges `ranges[spans[i]]` of
/// the buffer passed beside it. A send carries an empty span.
///
/// Both slices are borrowed — `ranges` is typically a compiled plan's own
/// range arena — so naming the destinations of a batch allocates nothing.
/// The destinations of one call must be pairwise disjoint: payloads land as
/// they arrive, not in request order.
#[derive(Debug, Clone, Copy)]
pub struct SgDests<'a> {
    ranges: &'a [Range<usize>],
    spans: &'a [Range<usize>],
}

impl<'a> SgDests<'a> {
    /// One span of `ranges` per request.
    ///
    /// # Panics
    ///
    /// If a span does not lie within `ranges`. Whether a range fits the
    /// buffer is checked when it is written to.
    pub fn new(ranges: &'a [Range<usize>], spans: &'a [Range<usize>]) -> Self {
        for s in spans {
            assert!(
                s.start <= s.end && s.end <= ranges.len(),
                "destination span {s:?} out of bounds for an arena of {} ranges",
                ranges.len()
            );
        }
        SgDests { ranges, spans }
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
        scatter(&mut buf, &ranges, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(buf, vec![5, 6, 7, 8, 1, 2, 3, 4]);
        // A short payload fills a prefix and leaves the rest alone; a long
        // one loses its tail.
        let mut buf = vec![9u8; 6];
        scatter(&mut buf, std::slice::from_ref(&(0..6)), &[1, 2]);
        assert_eq!(buf, vec![1, 2, 9, 9, 9, 9]);
        scatter(&mut buf, std::slice::from_ref(&(4..6)), &[5, 6, 7]);
        assert_eq!(buf, vec![1, 2, 9, 9, 5, 6]);
    }

    #[test]
    fn zero_tail_clears_what_a_short_message_leaves_in_range_order() {
        let mut buf = vec![9u8; 8];
        let ranges = [6..8, 0..3, 4..5];
        zero_tail(&mut buf, &ranges, 3);
        assert_eq!(buf, vec![9, 0, 0, 9, 0, 9, 9, 9]);
        // A payload filling the destination leaves it alone; none zeroes it.
        let mut buf = vec![9u8; 8];
        zero_tail(&mut buf, &ranges, 6);
        assert_eq!(buf, vec![9; 8]);
        zero_tail(&mut buf, &ranges, 0);
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

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_range_panics() {
        let buf = [0u8; 4];
        let ranges = [2..5];
        let _ = SgView::new(&buf, &ranges);
    }
}
