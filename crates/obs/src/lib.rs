//! # exacoll-obs — observability for collective algorithms
//!
//! Everything needed to *see* what a collective did: per-rank timed event
//! timelines from either backend, a metrics registry, Chrome-trace export
//! for Perfetto, critical-path extraction, and model-vs-measured residual
//! analysis against the simulator's replay of the same plans.
//!
//! The subsystem is layered:
//!
//! 1. [`TimedComm`] wraps any [`exacoll_comm::Comm`] and records a
//!    [`RankTimeline`] of wall-clock events; [`timelines_from_sim`] builds
//!    the same structure from a recorded trace plus the simulator's per-op
//!    virtual timings. Round boundaries announced by the algorithms via
//!    `Comm::mark` become phase annotations on every event.
//! 2. [`Metrics`] aggregates runs into counters and log₂-bucketed
//!    [`Histogram`]s, snapshotable to JSON and restorable from it.
//! 3. [`chrome_trace`] renders timelines as a Chrome `trace_event` document
//!    (one process per backend, one thread track per rank);
//!    [`critical_path`] walks the send/recv dependency graph backwards from
//!    the last-finishing event; [`analyze_residuals`] attributes two runs'
//!    events to their round marks and compares each measured phase's span
//!    with its twin in the predicted run.
//! 4. [`profile_sim`] / [`profile_thread`] run one collective end-to-end
//!    under instrumentation on the chosen backend.

pub mod chrome;
pub mod critical_path;
pub mod metrics;
pub mod profile;
pub mod residual;
pub mod timeline;
pub mod timeline_json;

pub use chrome::{chrome_trace, rank_tracks};
pub use critical_path::{critical_path, CriticalPath, CriticalStep};
pub use metrics::{bucket_of, Histogram, Metrics, BUCKETS};
pub use profile::{profile_sim, profile_thread, BackendRun, ProfileSpec};
pub use residual::{analyze_residuals, PhaseResidual, ResidualReport};
pub use timeline::{
    makespan_ns, timelines_from_sim, EventKind, RankTimeline, TimedComm, TimedEvent,
};
pub use timeline_json::{timeline_from_json, timeline_to_json};
