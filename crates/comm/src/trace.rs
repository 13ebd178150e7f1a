//! Per-rank operation traces: the op stream a rank's plan issues, as the
//! discrete-event simulator replays it.
//!
//! The trace is the bridge between "algorithms as executable code" and
//! "algorithms as timed schedules". `exacoll-core`'s `Schedule::to_trace`
//! reads a [`RankTrace`] straight off a compiled plan: sends and receives
//! name their peer, tag and size, waits name the requests they complete, and
//! `Compute` charges reduction work. Collective control flow never depends on
//! payload contents, so that trace is exactly what a live backend is asked
//! to do.

use crate::types::{Rank, Tag};

/// One recorded operation in a rank's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Post a non-blocking send of `bytes` to `to`.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag (used for matching during replay).
        tag: Tag,
        /// Payload size.
        bytes: u64,
    },
    /// Post a non-blocking receive of `bytes` from `from`.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Expected payload size.
        bytes: u64,
    },
    /// Block until the listed prior operations (indices into this rank's
    /// `ops`) have completed.
    WaitAll {
        /// Indices of `Send`/`Recv` ops this wait covers.
        reqs: Vec<u32>,
    },
    /// Local reduction computation over `bytes` bytes (the γ term).
    Compute {
        /// Bytes combined.
        bytes: u64,
    },
    /// Round/phase boundary annotation emitted via [`crate::Comm::mark`]. Zero-cost
    /// in replay; carried through so timelines can attribute ops to phases.
    Mark {
        /// Phase label (static: algorithm code marks with string literals).
        label: &'static str,
        /// 0-based round index within the phase.
        round: u32,
    },
}

/// The recorded program of a single rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTrace {
    /// The rank this program belongs to.
    pub rank: Rank,
    /// Communicator size the trace was recorded for.
    pub size: usize,
    /// Operation sequence.
    pub ops: Vec<TraceOp>,
}

impl RankTrace {
    /// Total bytes this rank sends.
    pub fn bytes_sent(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Send { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Number of point-to-point messages this rank originates.
    pub fn messages_sent(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Send { .. }))
            .count()
    }
}

/// Global conservation check: across all ranks, every `Send` must have a
/// matching `Recv` with the same (src, dst, tag, bytes) multiplicity.
///
/// Replay would deadlock on an unmatched message; this names every one,
/// sorted by (src, dst, tag, bytes) so the diagnostic is the same on every
/// run.
pub fn check_conservation(traces: &[RankTrace]) -> Result<(), String> {
    use std::collections::BTreeMap;
    // (src, dst, tag, bytes) -> net count (sends minus recvs)
    let mut net: BTreeMap<(Rank, Rank, Tag, u64), i64> = BTreeMap::new();
    for t in traces {
        for op in &t.ops {
            match op {
                TraceOp::Send { to, tag, bytes } => {
                    *net.entry((t.rank, *to, *tag, *bytes)).or_default() += 1;
                }
                TraceOp::Recv { from, tag, bytes } => {
                    *net.entry((*from, t.rank, *tag, *bytes)).or_default() -= 1;
                }
                _ => {}
            }
        }
    }
    let unmatched: Vec<String> = net
        .iter()
        .filter(|(_, &c)| c != 0)
        .map(|((s, d, tag, b), c)| format!("{s}->{d} tag {tag} {b}B net {c}"))
        .collect();
    if unmatched.is_empty() {
        Ok(())
    } else {
        Err(format!("unmatched messages: {}", unmatched.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rank: Rank, ops: Vec<TraceOp>) -> RankTrace {
        RankTrace { rank, size: 3, ops }
    }

    fn send(to: Rank, bytes: u64) -> TraceOp {
        TraceOp::Send { to, tag: 0, bytes }
    }

    fn recv(from: Rank, bytes: u64) -> TraceOp {
        TraceOp::Recv {
            from,
            tag: 0,
            bytes,
        }
    }

    #[test]
    fn conservation_detects_mismatch() {
        let matched = [trace(0, vec![send(1, 8)]), trace(1, vec![recv(0, 8)])];
        assert_eq!(check_conservation(&matched), Ok(()));
        // A broken "collective": rank 0 sends, nobody receives.
        let broken = [trace(0, vec![send(1, 8)]), trace(1, vec![])];
        assert!(check_conservation(&broken).is_err());
    }

    #[test]
    fn unmatched_messages_are_listed_in_key_order() {
        // Posted in the reverse of key order, on ranks listed backwards.
        let traces = [
            trace(2, vec![recv(1, 16)]),
            trace(1, vec![send(0, 8), send(0, 4)]),
            trace(0, vec![recv(1, 4)]),
        ];
        assert_eq!(
            check_conservation(&traces),
            Err("unmatched messages: 1->0 tag 0 8B net 1, 1->2 tag 0 16B net -1".into())
        );
    }
}
