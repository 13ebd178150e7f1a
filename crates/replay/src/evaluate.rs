//! The "expected" side of a replay comparison: the fault-free run.
//!
//! [`evaluate`] re-derives the plans a recorded run executed — lower every
//! rank, re-apply the recorded optimizer passes — and hands them to the core
//! world evaluator ([`exacoll_core::schedule::eval`]), which walks the same
//! compiled step streams the live engine ran and emits each rank's
//! canonical event log the way the recorder does. Nothing about step
//! semantics or flush placement lives here, so the expected log cannot drift
//! from what a fault-free live run records. The whole evaluation is a pure
//! function of `(request, inputs)`.

use crate::ReplayError;
use exacoll_core::schedule::eval::{evaluate_recorded, EvalError, Evaluated};
use exacoll_core::Request;
use exacoll_opt::plan_world;

/// Evaluate the plans `req` runs — lowered, rewritten by its passes, merged
/// across its tenants: what `exacoll_opt::plan_world` returns, so replaying
/// an optimized or multi-tenant artifact compares against the plan that
/// actually ran (chunked sends post different event sequences than the
/// stock lowering, even though the output bytes are identical).
///
/// `inputs[r]` is rank `r`'s raw input; it must be at least as long as the
/// plan's input view (extra bytes are ignored, matching the engine).
///
/// # Errors
///
/// [`ReplayError::Header`] if the passes refuse their thresholds, the
/// planned world fails its proofs, or the inputs do not fit the plans
/// (wrong count, too short), and [`ReplayError::Stuck`] /
/// [`ReplayError::Eval`] if the plans themselves deadlock or fail to reduce
/// (a lowering bug — lowered schedules are verified, so these should never
/// fire).
pub fn evaluate(req: &Request, inputs: &[Vec<u8>]) -> Result<Evaluated, ReplayError> {
    let plans = plan_world(req)
        .map_err(|e| ReplayError::Header(format!("the request cannot be planned: {e}")))?;
    evaluate_recorded(&plans, inputs).map_err(|e| match e {
        EvalError::Shape(why) => {
            ReplayError::Header(format!("recorded inputs do not fit the plan: {why}"))
        }
        EvalError::Deadlock { blocked } => ReplayError::Stuck {
            blocked: blocked.into_iter().map(|(rank, _, _)| rank).collect(),
        },
        EvalError::SizeMismatch { .. }
        | EvalError::UnmatchedSend { .. }
        | EvalError::Compute(_)
        | EvalError::Undefined { .. }
        | EvalError::Overwrite { .. }
        | EvalError::Unwritten { .. } => ReplayError::Eval(e.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_comm::{canonical, run_ranks, Comm, RecordComm, ThreadComm, TimedEvent};
    use exacoll_core::registry::{Algorithm, CollArgs, CollectiveOp};
    use exacoll_core::schedule::{compile, execute_compiled};
    use exacoll_core::spec::OptSpec;

    /// The evaluator must reproduce, event for event and digest for digest,
    /// what a live recorded run logs — that equivalence is the entire basis
    /// of replay. Cross-check a representative spread of algorithms, each as
    /// lowered and as rewritten by pipeline + aggregate: 12 B messages chunk
    /// into 4 + 4 + 4 and re-fuse into 8 + 4, so both passes leave a mark
    /// wherever a message is larger than a chunk.
    #[test]
    fn matches_live_recorded_runs() {
        let cases = [
            (CollectiveOp::Bcast, Algorithm::KnomialTree { k: 3 }),
            (CollectiveOp::Allgather, Algorithm::Ring),
            (CollectiveOp::Allgather, Algorithm::Bruck),
            (
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 2 },
            ),
            (
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 3 },
            ),
            (CollectiveOp::Allreduce, Algorithm::KRing { k: 2 }),
            (CollectiveOp::ReduceScatter, Algorithm::Ring),
            (CollectiveOp::Reduce, Algorithm::KnomialTree { k: 2 }),
            (CollectiveOp::Alltoall, Algorithm::GeneralizedBruck { r: 2 }),
            (CollectiveOp::Alltoall, Algorithm::Pairwise),
            (CollectiveOp::Alltoall, Algorithm::Linear),
            (CollectiveOp::Barrier, Algorithm::Dissemination { k: 2 }),
        ];
        let (p, n) = (6, 12);
        let rewritten = OptSpec {
            pipeline: true,
            aggregate: true,
        };
        let mut rewrites_that_bit = 0;
        for (op, alg) in cases {
            for (opt, chunk, fuse) in [(OptSpec::NONE, 1, 1), (rewritten, 4, 8)] {
                let req = Request::uniform(CollArgs::new(op, alg), p, n)
                    .and_then(|r| r.with_opt(opt, chunk, fuse))
                    .unwrap();
                let ins = req.inputs(1);
                let expected = evaluate(&req, &ins).unwrap();
                let plans = plan_world(&req).unwrap();
                rewrites_that_bit += usize::from(plans != req.lower_world());
                let live: Vec<(Vec<TimedEvent>, Vec<u8>)> = run_ranks(p, |c: &mut ThreadComm| {
                    let r = c.rank();
                    let mut rc = RecordComm::for_replay(&mut *c);
                    let out = execute_compiled(&mut rc, &compile(&plans[r]), &ins[r])?;
                    Ok((canonical(&rc.finish().events), out))
                });
                for (r, (events, out)) in live.iter().enumerate() {
                    assert_eq!(
                        &expected.events[r], events,
                        "{op} {alg:?} {opt:?} rank {r}: event streams differ"
                    );
                    assert_eq!(
                        &expected.outputs[r], out,
                        "{op} {alg:?} {opt:?} rank {r}: outputs differ"
                    );
                }
            }
        }
        assert!(
            rewrites_that_bit >= 7,
            "only {rewrites_that_bit} rewritten plan sets differ from stock"
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let args = CollArgs::new(CollectiveOp::Allreduce, Algorithm::KRing { k: 3 });
        let req = Request::uniform(args, 6, 24).unwrap();
        let ins = req.inputs(1);
        assert_eq!(evaluate(&req, &ins).unwrap(), evaluate(&req, &ins).unwrap());
    }
}
