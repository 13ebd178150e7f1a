//! # exacoll-core — generalized collective algorithms
//!
//! The paper's primary contribution: three communication kernels whose radix
//! is exposed as a tunable parameter `k`, yielding ten generalized collective
//! implementations (Table I):
//!
//! | Base kernel        | Generalized kernel         | Collectives                          |
//! |--------------------|----------------------------|--------------------------------------|
//! | Binomial tree      | **k-nomial tree**          | Reduce, Bcast, Gather, Allgather     |
//! | Recursive doubling | **recursive multiplying**  | Bcast, Allgather, Allreduce          |
//! | Ring               | **k-ring**                 | Bcast, Allgather, Allreduce          |
//!
//! plus the classical baselines the paper compares against (linear, binomial
//! = k-nomial with `k = 2`, recursive doubling = recursive multiplying with
//! `k = 2`, ring = k-ring with `k = 1`, Bruck, reduce-scatter+allgather).
//!
//! Every algorithm *lowers* to a per-rank [`schedule::Schedule`] — a
//! verifiable list of send/recv/compute steps over abstract buffer views —
//! and one engine, [`schedule::compile`] + [`schedule::Executor`], runs any
//! schedule against any [`exacoll_comm::Comm`] backend. The same compiled
//! plan is executed with real data on the threaded and socket runtimes
//! (correctness tests), replayed on the machine simulator (performance),
//! walked a whole world at a time in one thread ([`schedule::eval`]: over
//! bytes for replay, over expressions for the optimizer gate), statically
//! verified for deadlock-freedom and
//! data-flow coverage ([`schedule::verify`]), and counted term-by-term
//! against the α-β-γ cost models.
//!
//! Five functions run a plan on a `Comm`, and nothing else does:
//! [`execute`] / [`execute_v`] (registry dispatch through the plan cache;
//! lowering lives in [`registry::lower`] / [`registry::lower_v`]),
//! [`execute_compiled`] / [`Executor::run`] for a plan already in hand, and
//! [`run_tenants`]. See [`registry`] for the algorithm/operation
//! compatibility matrix.

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod barrier;
pub mod bcast;
pub mod gather;
pub mod plan_cache;
pub mod reduce;
pub mod reduce_scatter;
pub mod reference;
pub mod registry;
pub mod request;
pub mod scatter;
pub mod schedule;
pub mod spec;
pub mod tags;
pub mod tenant;
pub mod topo;
pub mod util;

pub use plan_cache::{CacheMetrics, PlanCache, PlanKey};
pub use registry::{execute, execute_v, Algorithm, CollArgs, CollectiveOp};
pub use request::Request;
pub use schedule::{compile, execute_compiled, CompiledSchedule, Executor};
pub use tenant::{merge_tenants, run_tenants, Tenant, TENANT_TAG_STRIDE};
