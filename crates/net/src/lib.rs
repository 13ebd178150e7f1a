//! # exacoll-net — the distributed TCP backend
//!
//! [`SocketComm`] is `exacoll_comm`'s matching engine over a full mesh of TCP
//! connections, so every generalized kernel in `exacoll-core` runs
//! unmodified across OS **processes** (and across hosts): the `(source,
//! tag)` matching, non-overtaking guarantee and hang-free error taxonomy are
//! the very code `ThreadComm` runs — with real sockets, real serialization,
//! and real kernel scheduling underneath.
//!
//! The crate has three layers:
//!
//! - [`wire`]: the length-prefixed frame protocol every connection speaks.
//! - [`bootstrap`]: rendezvous (rank↔address table exchange) and mesh
//!   construction, all steps bounded by deadlines with connect retry +
//!   exponential backoff.
//! - [`socket_rt`]: the [`Mesh`] transport — nonblocking sockets driven by
//!   one `poll(2)` loop on the rank's own thread from inside
//!   `wait`/`waitall` (and from a send that meets a full socket), vectored
//!   eager sends, departure/abort propagation — plus an in-process test
//!   harness ([`run_socket_ranks`]) that drives the identical code path
//!   under `cargo test`. It owns no thread, so nothing is received while a
//!   rank computes.
//!
//! Multi-process execution is orchestrated by the `exacoll launch` CLI
//! subcommand, which hosts the rendezvous, forks one worker process per
//! rank, and verifies the collective's result against the sequential
//! reference.
//!
//! `poll(2)` is the crate's one foreign call, which makes it unix-only.

#[cfg(not(unix))]
compile_error!("exacoll-net drives its sockets through poll(2) and needs a unix target");

pub mod bootstrap;
mod poll;
pub mod socket_rt;
pub mod wire;

pub use bootstrap::{
    backoff_schedule, connect_with_retry, connect_with_retry_seeded, map_io, parse_table,
    serve_rendezvous, SocketOptions, TAG_BOOTSTRAP, TAG_MESH,
};
pub use socket_rt::{
    join, run_socket_ranks, try_run_socket_ranks, try_run_socket_ranks_with, Mesh, SocketComm,
};
