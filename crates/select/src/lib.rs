//! # exacoll-select — the online algorithm-selection service
//!
//! The paper's §VI-G selection tables are built by exhaustive offline
//! benchmarking and then frozen. This crate turns selection into a living
//! subsystem, closing the loop between the schedule-IR cost model and the
//! measurement layer:
//!
//! * **Priors** — each (collective, p, size-bucket) is seeded by pricing
//!   every deduplicated candidate's lowered schedules with
//!   [`exacoll_sim::cost`], the same discrete-event model every sweep and
//!   figure reads. Candidates are *variants* (algorithm plus optimizer passes):
//!   wherever the `exacoll-opt` pipelining pass rewrites a plan, the
//!   optimized variant is priced alongside the plain one and competes for
//!   the bucket on equal terms.
//! * **Refinement** — observed makespans from real runs (TCP launches,
//!   threaded profiles) are folded into per-candidate running estimates;
//!   a deterministic UCB-style [`Policy`] blends prior and evidence so
//!   mispredicted priors get corrected and the winner flips when
//!   measurements disagree with the model.
//! * **Lock-free lookups** — winners are published as immutable
//!   [`Snapshot`]s behind an atomic pointer (RCU style). The hot path
//!   ([`SelectionService::lookup`]) is an acquire load, a binary search
//!   over rank counts, and an array index: no mutex, no allocation, no
//!   reference-count traffic.
//! * **Persistence** — the learned state serializes byte-stably through
//!   `exacoll-json` (versioned `exacoll-select/v1`), saves atomically
//!   (temp file + rename), and reloads on start, so tables keep improving
//!   across process lifetimes.
//! * **Accountability** — [`SelectionService::diff`] reports every bucket
//!   where learning overruled the model, rendered deterministically by
//!   [`diff::render`].
//!
//! Beside the table sit the two things it is judged against: [`vendor()`],
//! the fixed stand-in for Cray MPI's defaults, and [`Workload`], an
//! application's per-iteration collective mix timed under any selection
//! function.

pub mod diff;
pub mod policy;
pub mod service;
pub mod table;
pub mod vendor;
pub mod workload;

pub use diff::DiffRow;
pub use policy::{Cell, Policy};
pub use service::{SelectionService, FORMAT};
pub use table::{bucket_of_bytes, bucket_range, op_index, Snapshot, NUM_BUCKETS, NUM_OPS};
pub use vendor::vendor;
pub use workload::{variant_latency, Workload, WorkloadStep};
