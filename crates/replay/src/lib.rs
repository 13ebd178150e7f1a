//! # exacoll-replay — deterministic record/replay with divergence detection
//!
//! The robustness counterpart to the observability stack: any run of a
//! collective can be captured as a **self-contained replay artifact** (the
//! recording half lives in [`exacoll_comm::RecordComm`]) and later
//! re-executed — on a different machine, with no network and no threads —
//! against the lowered [`Schedule`](exacoll_core::schedule::Schedule) IR.
//!
//! Replay is a *pure function*: [`evaluate::evaluate`] re-lowers the
//! recorded run's plans and runs them through the core world evaluator —
//! one deterministic single-threaded pass over the artifact's recorded
//! inputs, on the same compiled step streams the live engine executes —
//! deriving the exact per-rank event sequence and payload digests a
//! fault-free execution produces. [`replay::replay`]
//! then compares the recorded logs element by element and reports each
//! [`replay::Divergence`] as a (rank, step) pair with expected-vs-observed
//! digests and a one-line explanation. Replaying the same artifact twice
//! yields byte-identical reports.
//!
//! Integrity comes before divergence: an artifact whose event `seq` numbers
//! gap, or whose declared event count disagrees with the events present, is
//! **rejected** ([`ReplayError::SeqGap`] / [`ReplayError::Truncated`]) —
//! never silently replayed into a false "no divergence". This mirrors the
//! franken_node determinism contract (INV-TTR-STEP-ORDER, ERR_TTR_SEQ_GAP):
//! a log you cannot trust is an error, not a clean replay.

pub mod artifact;
pub mod evaluate;
pub mod record;
pub mod replay;

pub use artifact::{Artifact, RankLog, RankStatus};
pub use evaluate::evaluate;
pub use record::{record_request, record_thread_run};
pub use replay::{replay, Divergence, ReplayReport};

use std::fmt;

/// Why an artifact could not be replayed at all (as opposed to replaying
/// cleanly and *diverging*, which is a [`replay::ReplayReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The artifact is not syntactically valid JSON, or a field is missing
    /// or of the wrong type.
    Parse(String),
    /// The artifact declares a format this engine does not speak.
    Format {
        /// The `format` string found in the artifact.
        found: String,
    },
    /// The header is internally inconsistent (missing or duplicate rank
    /// logs, unknown algorithm spec, ...) or does not describe a valid
    /// [`Request`](exacoll_core::Request): an algorithm that cannot run the
    /// collective on that shape, a root that is not a rank, `counts` that
    /// disagree with `p` or `n`, too many tenants, a region of 4 GiB.
    Header(String),
    /// A rank's event `seq` numbers are not the contiguous run `0..count`:
    /// an event was dropped or reordered. Rejected, never replayed.
    SeqGap {
        /// The rank whose log gaps.
        rank: usize,
        /// The sequence number that should have come next.
        expected: usize,
        /// The sequence number actually found.
        found: usize,
    },
    /// A rank's log holds fewer (or more) events than its declared count:
    /// the artifact was cut off mid-write. Rejected, never replayed.
    Truncated {
        /// The rank whose log is cut off.
        rank: usize,
        /// The event count the log declared.
        declared: usize,
        /// The events actually present.
        found: usize,
    },
    /// The world evaluator deadlocked: some rank's schedule blocks on a
    /// message no other rank's schedule ever sends. This indicates a
    /// lowering bug, not a bad artifact.
    Stuck {
        /// Ranks still mid-schedule when no progress was possible.
        blocked: Vec<usize>,
    },
    /// The dataflow evaluator hit a reduction error (operator/dtype
    /// mismatch) while recomputing the fault-free run.
    Eval(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Parse(msg) => write!(f, "malformed artifact: {msg}"),
            ReplayError::Format { found } => write!(
                f,
                "unsupported artifact format `{found}` (expected `{}`)",
                artifact::FORMAT
            ),
            ReplayError::Header(msg) => write!(f, "inconsistent artifact header: {msg}"),
            ReplayError::SeqGap {
                rank,
                expected,
                found,
            } => write!(
                f,
                "gapped log: rank {rank} jumps from seq {expected} to {found} — an event is missing, refusing to replay"
            ),
            ReplayError::Truncated {
                rank,
                declared,
                found,
            } => write!(
                f,
                "truncated log: rank {rank} declares {declared} events but holds {found} — artifact cut off mid-write, refusing to replay"
            ),
            ReplayError::Stuck { blocked } => write!(
                f,
                "dataflow evaluator stuck with ranks {blocked:?} mid-schedule (lowering bug?)"
            ),
            ReplayError::Eval(msg) => write!(f, "dataflow evaluation failed: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Syntax and field-shape problems are [`ReplayError::Parse`].
impl From<String> for ReplayError {
    fn from(msg: String) -> ReplayError {
        ReplayError::Parse(msg)
    }
}
