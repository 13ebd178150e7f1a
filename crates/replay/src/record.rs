//! Convenience recorder: run a collective on the threaded backend under
//! [`RecordComm::for_replay`] and package the result as a self-contained [`Artifact`].
//!
//! This is the clean-record path (`exacoll record`, CI's replay smoke, the
//! property tests). Fault-injected recordings are assembled by
//! `exacoll-chaos`, which layers the recorder over its fault injector.

use crate::artifact::{Artifact, RankLog, RankStatus};
use exacoll_comm::{fnv1a, run_ranks, Comm, RecordComm, ThreadComm};
use exacoll_core::registry::CollArgs;
use exacoll_core::schedule::execute_compiled;
use exacoll_core::Request;
use exacoll_opt::cached_world;

/// Record one fault-free run of `args` on the threaded backend: `p` ranks,
/// `n` input bytes each (generated by [`Request::inputs`] from `seed`).
///
/// # Panics
///
/// Panics if `(args, p, n)` is not a valid [`Request`] or the run itself
/// errors — this is the *clean* path; faulty runs are recorded by the chaos
/// crate.
pub fn record_thread_run(args: &CollArgs, p: usize, n: usize, seed: u64) -> Artifact {
    Request::uniform(*args, p, n)
        .and_then(|req| record_request(&req, seed))
        .unwrap_or_else(|e| panic!("unsupported configuration: {e}"))
}

/// [`record_thread_run`] for any request: count vectors, tenants and
/// optimizer passes included. The artifact carries the request, so replay
/// plans identically before comparing event streams.
///
/// # Errors
///
/// Why `exacoll_opt::plan_world` refused the request.
///
/// # Panics
///
/// If the run itself errors.
pub fn record_request(req: &Request, seed: u64) -> Result<Artifact, String> {
    // Recordings execute cached compiled plans, so repeated recordings of
    // one shape (the property-test grids) plan once.
    let plans = cached_world(req).map_err(|e| e.to_string())?;
    let inputs = req.inputs(seed);
    let ranks = run_ranks(req.ranks(), |c: &mut ThreadComm| {
        let rank = c.rank();
        let mut rc = RecordComm::for_replay(&mut *c);
        let out = execute_compiled(&mut rc, &plans[rank], &inputs[rank])?;
        Ok(RankLog {
            rank,
            size: req.ranks(),
            status: RankStatus::Ok,
            input: inputs[rank].clone(),
            output_digest: Some(fnv1a(&out)),
            events: rc.finish().events,
        })
    });
    Ok(Artifact {
        case: None,
        backend: "thread".into(),
        fault_seed: None,
        request: req.clone(),
        ranks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::registry::{Algorithm, CollectiveOp};

    #[test]
    fn records_a_complete_artifact() {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Bruck);
        let a = record_thread_run(&args, 5, 6, 11);
        assert_eq!(a.ranks.len(), 5);
        for (r, log) in a.ranks.iter().enumerate() {
            assert_eq!(log.rank, r);
            assert_eq!(log.status, RankStatus::Ok);
            assert_eq!(log.input, exacoll_core::request::payload(11, r, 6));
            assert!(log.output_digest.is_some());
            assert!(!log.events.is_empty());
        }
    }
}
