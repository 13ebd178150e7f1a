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
use exacoll_core::schedule::{execute_compiled, CompiledSchedule};
use exacoll_core::spec::{OptSpec, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES};
use exacoll_core::{Algorithm, CollArgs, CollectiveOp};
use exacoll_models::NetParams;
use exacoll_opt::cached_world;
use exacoll_sim::{simulate_timed, Machine};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What to profile: one collective × algorithm × machine × message size,
/// optionally with optimizer passes applied to the lowered plan.
#[derive(Debug, Clone)]
pub struct ProfileSpec {
    /// The collective operation.
    pub op: CollectiveOp,
    /// The algorithm variant.
    pub alg: Algorithm,
    /// Machine model (supplies rank count and α-β-γ parameters).
    pub machine: Machine,
    /// Requested per-rank payload bytes (adjusted via [`ProfileSpec::input_len`]).
    pub size: usize,
    /// Optimizer passes to apply to the lowered plan before running;
    /// [`OptSpec::NONE`] is the stock lowering.
    pub opt: OptSpec,
    /// Pipelining chunk threshold (defaults to
    /// [`OPT_PIPELINE_CHUNK_BYTES`]).
    pub chunk_bytes: usize,
    /// Aggregation fuse ceiling (defaults to
    /// [`OPT_AGGREGATE_MAX_FUSE_BYTES`]).
    pub fuse_bytes: usize,
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
    /// Ranks the machine provides.
    pub fn ranks(&self) -> usize {
        self.machine.ranks()
    }

    /// Per-rank input length after op-specific adjustment: alltoall needs a
    /// multiple of `p` (one block per destination), everything else takes
    /// `size` as-is.
    pub fn input_len(&self) -> usize {
        let p = self.ranks();
        match self.op {
            CollectiveOp::Alltoall => {
                if self.size < p {
                    p
                } else {
                    self.size - self.size % p
                }
            }
            CollectiveOp::Barrier => 0,
            _ => self.size,
        }
    }

    /// A spec with no optimizer passes — the pre-optimizer behavior.
    pub fn plain(op: CollectiveOp, alg: Algorithm, machine: Machine, size: usize) -> ProfileSpec {
        ProfileSpec {
            op,
            alg,
            machine,
            size,
            opt: OptSpec::NONE,
            chunk_bytes: OPT_PIPELINE_CHUNK_BYTES,
            fuse_bytes: OPT_AGGREGATE_MAX_FUSE_BYTES,
        }
    }

    /// Every rank's compiled plan with this spec's optimizer passes
    /// applied, served from the process-wide plan cache (the pass
    /// application is deterministic, so all ranks — and any other process
    /// profiling the same spec — agree on the rewritten plans, and repeated
    /// profiles of one shape share a single lowering). Without passes these
    /// are the very entries `registry::execute` would hit.
    fn plans(&self) -> Result<Vec<Arc<CompiledSchedule>>, String> {
        cached_world(
            &CollArgs::new(self.op, self.alg),
            &self.opt,
            self.chunk_bytes,
            self.fuse_bytes,
            self.ranks(),
            self.input_len(),
        )
        .map_err(|e| format!("optimizer passes failed: {e}"))
    }
}

/// Internode α-β-γ parameters of a machine, for model comparisons.
pub fn net_of(machine: &Machine) -> NetParams {
    NetParams {
        alpha: machine.inter.alpha_ns,
        beta: machine.inter.beta_ns_per_byte,
        gamma: machine.cpu.gamma_ns_per_byte,
    }
}

/// Intranode equivalent of [`net_of`].
pub fn intra_net_of(machine: &Machine) -> NetParams {
    NetParams {
        alpha: machine.intra.alpha_ns,
        beta: machine.intra.beta_ns_per_byte,
        gamma: machine.cpu.gamma_ns_per_byte,
    }
}

/// Deterministic per-rank payload so instrumented runs are reproducible —
/// and so a verifier in *another process* (the TCP launcher's workers) can
/// reconstruct every rank's input without any data exchange.
pub fn payload(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((rank * 131 + i * 7) % 251) as u8)
        .collect()
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
/// `t = 0`.
pub fn profile_thread(spec: &ProfileSpec) -> Result<BackendRun, String> {
    let p = spec.ranks();
    let len = spec.input_len();
    let plans = spec.plans()?;
    let epoch = Instant::now();
    let slots: Mutex<Vec<Option<RankTimeline>>> = Mutex::new(vec![None; p]);
    let results = try_run_ranks(p, |c: &mut ThreadComm| {
        let rank = c.rank();
        let input = payload(rank, len);
        let mut tc = TimedComm::with_epoch(&mut *c, epoch);
        let res = execute_compiled(&mut tc, &plans[rank], &input).map(|_| ());
        let (_, timeline) = tc.into_parts();
        slots.lock().expect("timeline collector")[rank] = Some(timeline);
        res
    });
    for (rank, r) in results.iter().enumerate() {
        if let Err(e) = r {
            return Err(format!("rank {rank} failed: {e}"));
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

    fn spec(op: CollectiveOp, alg: Algorithm, p: usize, size: usize) -> ProfileSpec {
        ProfileSpec::plain(op, alg, Machine::testbed(p, 1, 1), size)
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
    fn alltoall_size_rounds_to_block_multiple() {
        let s = spec(CollectiveOp::Alltoall, Algorithm::Pairwise, 6, 1000);
        assert_eq!(s.input_len() % 6, 0);
        assert_eq!(s.input_len(), 996);
        let tiny = spec(CollectiveOp::Alltoall, Algorithm::Pairwise, 6, 2);
        assert_eq!(tiny.input_len(), 6);
        profile_sim(&s).expect("alltoall profiles");
    }

    #[test]
    fn barrier_ignores_size() {
        let s = spec(
            CollectiveOp::Barrier,
            Algorithm::Dissemination { k: 2 },
            8,
            4096,
        );
        assert_eq!(s.input_len(), 0);
        let run = profile_sim(&s).expect("barrier profiles");
        assert!(run.makespan_ns > 0.0);
    }

    #[test]
    fn optimized_profiles_run_on_both_backends() {
        let mut s = spec(CollectiveOp::Allgather, Algorithm::Ring, 4, 4096);
        s.opt = OptSpec::PIPELINE;
        s.chunk_bytes = 512; // force chunking at this small test size
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

    #[test]
    fn net_params_derive_from_machine() {
        let m = Machine::frontier(2, 8);
        let net = net_of(&m);
        assert_eq!(net.alpha, m.inter.alpha_ns);
        assert_eq!(net.beta, m.inter.beta_ns_per_byte);
        let intra = intra_net_of(&m);
        assert_eq!(intra.alpha, m.intra.alpha_ns);
    }
}
