//! # exacoll-sim — discrete-event simulator for exascale-class machines
//!
//! The paper evaluates on Frontier (ORNL) and Polaris (ANL). Neither machine
//! is available here, so this crate implements the closest synthetic
//! equivalent: a discrete-event model of the hardware features the paper
//! identifies as performance-determining (§II-B):
//!
//! 1. **Dragonfly topology** — minimal routing; the only topological effect
//!    is a small extra latency for inter-group hops ([`Topology`]).
//! 2. **Multi-port nodes & message buffering** — each node owns a pool of
//!    full-duplex NIC ports; concurrent transfers stripe across the pool
//!    (multi-rail) or pin to a rank's port, and serialize once the pool is
//!    saturated ([`port::PortPool`]). Per-message posting overheads are
//!    asymmetric: sends traverse the full MPI software path (`o_send`),
//!    receives are pre-posted DMA landings (`o_recv`), which is what lets a
//!    k-nomial *reduce* root absorb ~`p` concurrent children while recursive
//!    multiplying — where every rank *sends* `k-1` messages per round — is
//!    punished in proportion to its radix.
//! 3. **Intranode links** — ranks on the same node communicate over a
//!    dedicated fabric (Infinity Fabric / NVLink) with its own latency,
//!    bandwidth and per-rank injection queues, distinct from the NIC path.
//!
//! The simulator consumes [`exacoll_comm::RankTrace`] operation streams —
//! read off lowered plans by [`cost`], which is how every sweep and figure
//! prices a collective — and replays them with an event queue, yielding
//! virtual completion times plus traffic statistics.

pub mod cost;
pub mod machine;
pub mod noise;
pub mod port;
pub mod replay;
pub mod report;
pub mod stats;
pub mod time;

pub use cost::{cost, CostError};
pub use machine::{CpuParams, IntranodeParams, LinkParams, Machine, PortAssignment, Topology};
pub use noise::NoiseModel;
pub use replay::{
    simulate, simulate_noisy, simulate_timed, BlockedRank, OpTiming, PendingOp, ReplayError,
    SimOutcome,
};
pub use report::Table;
pub use stats::{RankBreakdown, SimStats};
pub use time::SimTime;
