//! # exacoll-comm — MPI-like communication layer
//!
//! This crate provides the point-to-point substrate that the generalized
//! collective algorithms in `exacoll-core` are written against. It mirrors
//! the subset of MPI semantics the paper's MPICH integration relies on:
//! non-blocking sends/receives with `(source, tag)` matching, `waitall`
//! completion, typed buffers, and reduction operators.
//!
//! The central abstraction is the [`Comm`] trait. Collective algorithms are
//! written **once** as generic functions over `Comm` and then executed on:
//!
//! * [`Engine`] — the one implementation of the semantics above (matching,
//!   ordering, requests, `waitall`, the error taxonomy, the hang-free
//!   guarantee) over a small [`Transport`]. [`ThreadComm`] is the engine over
//!   in-process mailboxes: every rank is an OS thread and messages are real
//!   byte buffers. The test suite uses it to prove the algorithms correct
//!   (data contents, reduction arithmetic, arbitrary roots, non-power-of-`k`
//!   process counts). `exacoll-net`'s `SocketComm` is the same engine over a
//!   TCP mesh.
//!
//! A rank's operation schedule (sends, receives, waits, reduction compute)
//! is a [`RankTrace`]. `exacoll-core` reads it symbolically off a compiled
//! plan, and the `exacoll-sim` crate replays it on a discrete-event model of
//! an exascale machine to produce virtual time. Because the collective
//! algorithms' control flow depends only on `(rank, size, radix, message
//! size)` — never on received data — that trace is exactly the schedule a
//! live backend executes.

pub mod buffer;
pub mod comm;
pub mod engine;
pub mod error;
pub mod fault;
pub mod record;
pub mod reduce_ops;
pub mod sg;
pub mod thread_rt;
pub mod trace;
pub mod types;

pub use buffer::TypedBuf;
pub use comm::{Comm, Req};
pub use engine::{Engine, Inbox, Payload, Posted, Transport};
pub use error::{CommError, CommResult};
pub use fault::{FaultComm, FaultEvent, FaultPlan, KillSpec};
pub use record::{fnv1a, RecordComm, RecordedEvent};
pub use reduce_ops::reduce_into;
pub use sg::{Landing, Regions, SgDests, SgView};
pub use thread_rt::{
    expect_all_ranks, run_ranks, run_scoped, try_run_ranks, try_run_ranks_with, AbortHandle,
    Mailbox, ThreadComm, WorldOptions,
};
pub use trace::{RankTrace, TraceOp};
pub use types::{DType, Rank, ReduceOp, Tag};
