//! End-to-end profiling: run one collective under instrumentation on either
//! backend and return its rank timelines.
//!
//! * [`profile_sim`] reads every rank's op stream off its compiled plan,
//!   replays it on the discrete-event simulator, and converts the per-op
//!   virtual timings into timelines.
//! * [`profile_thread`] runs the collective for real on the threaded
//!   runtime, each rank wrapped in a [`TimedComm`] sharing one epoch.
//!
//! Both produce the same [`RankTimeline`] structure, so the Chrome-trace
//! exporter, critical-path walker, and residual analyzer apply uniformly.

use crate::timeline::{makespan_ns, timelines_from_sim, RankTimeline, TimedComm};
use exacoll_comm::{try_run_ranks, Comm, ThreadComm};
use exacoll_core::request::DEFAULT_SEED;
use exacoll_core::schedule::{execute_compiled, CompiledSchedule};
use exacoll_core::Request;
use exacoll_opt::cached_world;
use exacoll_sim::{simulate_timed, Machine};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What to profile: one request — any shape, tenant count and optimizer
/// passes — on one machine model (α-β-γ parameters and placement for the
/// request's ranks).
#[derive(Debug, Clone)]
pub struct ProfileSpec {
    /// The call to run.
    pub request: Request,
    /// Machine model the simulator replays on and residuals compare with.
    pub machine: Machine,
}

/// One backend's profiled run.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Backend name: `"thread"` or `"sim"`.
    pub backend: &'static str,
    /// Per-rank timelines (index = rank).
    pub timelines: Vec<RankTimeline>,
    /// Collective makespan, ns (virtual for the simulator, wall for the
    /// threaded runtime).
    pub makespan_ns: f64,
}

impl ProfileSpec {
    /// Every rank's compiled plan, served from the process-wide plan cache
    /// (planning is deterministic, so all ranks — and any other process
    /// profiling the same request — agree on the plans, and repeated
    /// profiles of one shape share a single lowering). Without passes or
    /// tenants these are the very entries `registry::execute` would hit.
    fn plans(&self) -> Result<Vec<Arc<CompiledSchedule>>, String> {
        cached_world(&self.request).map_err(|e| format!("planning failed: {e}"))
    }
}

/// Profile on the simulator: read each rank's op stream off its plan,
/// replay, convert virtual timings.
pub fn profile_sim(spec: &ProfileSpec) -> Result<BackendRun, String> {
    let traces: Vec<_> = spec.plans()?.iter().map(|s| s.to_trace()).collect();
    let (outcome, timings) =
        simulate_timed(&spec.machine, &traces).map_err(|e| format!("replay failed: {e}"))?;
    let timelines = timelines_from_sim(&traces, &timings);
    Ok(BackendRun {
        backend: "sim",
        timelines,
        makespan_ns: outcome.makespan.as_nanos(),
    })
}

/// Profile on the threaded runtime: every rank's [`exacoll_comm::Comm`] is
/// wrapped in a [`TimedComm`] sharing one epoch, so timelines agree on
/// `t = 0`, and every rank's output is checked against the request's
/// sequential reference.
pub fn profile_thread(spec: &ProfileSpec) -> Result<BackendRun, String> {
    let req = &spec.request;
    let p = req.ranks();
    let plans = spec.plans()?;
    let inputs = req.inputs(DEFAULT_SEED);
    let expect = req.reference(&inputs).map_err(|e| e.to_string())?;
    let epoch = Instant::now();
    let slots: Mutex<Vec<Option<RankTimeline>>> = Mutex::new(vec![None; p]);
    let results = try_run_ranks(p, |c: &mut ThreadComm| {
        let rank = c.rank();
        let mut tc = TimedComm::with_epoch(&mut *c, epoch);
        let res = execute_compiled(&mut tc, &plans[rank], &inputs[rank]);
        let (_, timeline) = tc.into_parts();
        slots.lock().expect("timeline collector")[rank] = Some(timeline);
        res
    });
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok(out) if out == expect[rank] => {}
            Ok(_) => return Err(format!("rank {rank}: output differs from the reference")),
            Err(e) => return Err(format!("rank {rank} failed: {e}")),
        }
    }
    let timelines: Vec<RankTimeline> = slots
        .into_inner()
        .expect("timeline collector")
        .into_iter()
        .enumerate()
        .map(|(rank, tl)| tl.unwrap_or_else(|| panic!("rank {rank} recorded no timeline")))
        .collect();
    let makespan = makespan_ns(&timelines);
    Ok(BackendRun {
        backend: "thread",
        timelines,
        makespan_ns: makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::EventKind;
    use exacoll_core::spec::{CountsSpec, OptSpec};
    use exacoll_core::{Algorithm, CollArgs, CollectiveOp};

    fn spec(op: CollectiveOp, alg: Algorithm, p: usize, size: usize) -> ProfileSpec {
        ProfileSpec {
            request: Request::uniform(CollArgs::new(op, alg), p, size).unwrap(),
            machine: Machine::testbed(p, 1, 1),
        }
    }

    #[test]
    fn sim_profile_produces_per_rank_timelines() {
        let s = spec(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 4 },
            16,
            1 << 10,
        );
        let run = profile_sim(&s).expect("profile");
        assert_eq!(run.timelines.len(), 16);
        assert!(run.makespan_ns > 0.0);
        assert!((run.makespan_ns - makespan_ns(&run.timelines)).abs() < 1e-6);
        // Round marks survive into the timelines.
        assert!(run.timelines.iter().all(|tl| tl
            .events
            .iter()
            .any(|e| e.kind == EventKind::Mark && e.label == Some("ar-recmult"))));
    }

    #[test]
    fn thread_profile_produces_per_rank_timelines() {
        let s = spec(CollectiveOp::Allreduce, Algorithm::Ring, 4, 256);
        let run = profile_thread(&s).expect("profile");
        assert_eq!(run.timelines.len(), 4);
        assert!(run.makespan_ns > 0.0);
        for (r, tl) in run.timelines.iter().enumerate() {
            assert_eq!(tl.rank, r);
            assert!(tl.events.iter().any(|e| e.kind == EventKind::Send));
        }
    }

    #[test]
    fn irregular_and_tenant_requests_profile_like_any_other() {
        let ring = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let counts = CountsSpec::new(vec![96, 0, 24, 8]).unwrap();
        let mut s = spec(CollectiveOp::Alltoall, Algorithm::Pairwise, 4, 1000);
        for request in [
            s.request.clone(),
            Request::irregular(ring, counts).unwrap(),
            Request::uniform(ring, 4, 64)
                .and_then(|r| r.with_tenants(2))
                .unwrap(),
        ] {
            s.request = request;
            assert_eq!(profile_sim(&s).expect("sim").timelines.len(), 4);
            let run = profile_thread(&s).expect("thread run matches the reference");
            assert!(run.makespan_ns > 0.0, "{:?}", s.request);
        }
    }

    #[test]
    fn optimized_profiles_run_on_both_backends() {
        let mut s = spec(CollectiveOp::Allgather, Algorithm::Ring, 4, 4096);
        // 512 B forces chunking at this small test size.
        s.request = s.request.with_opt(OptSpec::PIPELINE, 512, 4096).unwrap();
        let sim = profile_sim(&s).expect("optimized sim profile");
        assert_eq!(sim.timelines.len(), 4);
        assert!(sim.makespan_ns > 0.0);
        let thread = profile_thread(&s).expect("optimized thread profile");
        assert_eq!(thread.timelines.len(), 4);
        // The pipelined plan posts more (smaller) sends than the stock one.
        let plain = profile_sim(&spec(CollectiveOp::Allgather, Algorithm::Ring, 4, 4096))
            .expect("plain sim profile");
        let sends = |run: &BackendRun| -> usize {
            run.timelines
                .iter()
                .map(|tl| {
                    tl.events
                        .iter()
                        .filter(|e| e.kind == EventKind::Send)
                        .count()
                })
                .sum()
        };
        assert!(sends(&sim) > sends(&plain));
    }
}
