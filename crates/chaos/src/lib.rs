//! # exacoll-chaos — fault-injection campaign runner
//!
//! Drives every registered algorithm × collective through every fault class
//! on the threaded runtime and classifies the outcome. The contract under
//! test is the **hang-free guarantee**: under any fault, a collective either
//! completes with correct data or every rank returns a clean error within
//! the deadline — it never hangs and never partially succeeds.
//!
//! Each case runs the collective through a
//! [`FaultComm`](exacoll_comm::FaultComm) wrapper and then a closing
//! dissemination barrier on the raw communicator. The barrier is what makes
//! errors collective: a rank that failed never enters it, so no surviving
//! rank can pass it either — survivors fail via the abort flag, the departed
//! rank's poison, or the deadline. A mixed Ok/Err outcome is therefore a
//! runtime bug, and the campaign reports it as [`Outcome::Mixed`].

use exacoll_comm::{
    fnv1a, try_run_ranks_with, Comm, CommResult, DType, FaultComm, FaultEvent, FaultPlan,
    RecordComm, RecordedEvent, ReduceOp, ThreadComm, WorldOptions,
};
use exacoll_core::registry::candidates;
use exacoll_core::spec::alg_to_spec;
use exacoll_core::{execute, Algorithm, CollArgs, CollectiveOp, Request};
use exacoll_obs::{RankTimeline, TimedComm};
use exacoll_replay::{Artifact, RankLog, RankStatus};
use std::time::{Duration, Instant};

pub use exacoll_core::registry::candidates as algorithm_candidates;

/// The fault classes a campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Baseline: no injection (must be `Correct`).
    None,
    /// Every message is discarded: receivers must time out cleanly.
    Drop,
    /// Random sub-millisecond delays: must still complete correctly.
    Delay,
    /// Random duplicated messages.
    Duplicate,
    /// Random single-byte payload corruption.
    Corrupt,
    /// One rank dies at its first operation.
    Kill,
}

impl FaultClass {
    /// Every fault class, sweep order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::None,
        FaultClass::Drop,
        FaultClass::Delay,
        FaultClass::Duplicate,
        FaultClass::Corrupt,
        FaultClass::Kill,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::Drop => "drop",
            FaultClass::Delay => "delay",
            FaultClass::Duplicate => "dup",
            FaultClass::Corrupt => "corrupt",
            FaultClass::Kill => "kill",
        }
    }

    /// The concrete plan this class injects at size `p`.
    pub fn plan(&self, seed: u64, p: usize) -> FaultPlan {
        let base = FaultPlan::none(seed);
        match self {
            FaultClass::None => base,
            // Total loss: every receiver must hit its deadline, in parallel,
            // so a case costs ~one deadline rather than one per message.
            FaultClass::Drop => base.drops(1.0),
            FaultClass::Delay => base.delays(0.5, Duration::from_millis(2)),
            FaultClass::Duplicate => base.duplicates(0.3),
            FaultClass::Corrupt => base.corrupts(0.5),
            // Rank 1 (0 must stay valid for p = 1 worlds) dies before its
            // first operation.
            FaultClass::Kill => base.kills(1 % p, 0),
        }
    }

    /// Receive deadline appropriate for the class: tight where the fault
    /// guarantees missing messages, generous where a timeout would be a
    /// false positive.
    pub fn deadline(&self) -> Duration {
        match self {
            FaultClass::Drop => Duration::from_millis(400),
            FaultClass::Kill => Duration::from_secs(5),
            _ => Duration::from_secs(30),
        }
    }

    /// Which outcomes this class accepts (beyond never hanging).
    pub fn acceptable(&self, outcome: Outcome) -> bool {
        match self {
            FaultClass::None | FaultClass::Delay => outcome == Outcome::Correct,
            // Duplicates/corruption may shift or damage payloads (the
            // algorithms' control flow is data-independent, so they still
            // terminate); drops and kills must fail cleanly everywhere.
            FaultClass::Duplicate | FaultClass::Corrupt => {
                matches!(
                    outcome,
                    Outcome::Correct | Outcome::WrongData | Outcome::CleanError
                )
            }
            FaultClass::Drop | FaultClass::Kill => outcome == Outcome::CleanError,
        }
    }
}

/// How one case ended. `Hang` cannot be produced by the runner — the
/// deadline converts would-be hangs into `CleanError` — but a wedged thread
/// would stop the campaign from returning at all, which is what the chaos
/// test suite's own completion asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every rank completed with the reference output.
    Correct,
    /// Every rank completed, but some output diverged from the reference.
    WrongData,
    /// Every rank returned an error.
    CleanError,
    /// Some ranks succeeded while others failed — a broken error protocol.
    Mixed,
}

impl Outcome {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Correct => "ok",
            Outcome::WrongData => "wrong-data",
            Outcome::CleanError => "clean-err",
            Outcome::Mixed => "MIXED",
        }
    }
}

/// One campaign entry.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The collective.
    pub op: CollectiveOp,
    /// The algorithm.
    pub alg: Algorithm,
    /// Rank count.
    pub p: usize,
    /// Fault class injected.
    pub fault: FaultClass,
    /// How it ended.
    pub outcome: Outcome,
    /// Whether [`FaultClass::acceptable`] holds.
    pub survived: bool,
    /// The judged run as a self-contained replay [`Artifact`] (backend
    /// `thread`, the fault plan's seed in the header) that `exacoll replay`
    /// re-executes against the schedule IR to pinpoint the first divergent
    /// (rank, step).
    pub artifact: Artifact,
}

/// The request a case runs: `alg` doing `op` on `p` ranks of `payload`
/// bytes, reduced with `max` so corrupted bytes stay visible.
///
/// # Panics
///
/// If the registry rejects the combination.
fn case_request(op: CollectiveOp, alg: Algorithm, p: usize, payload: usize) -> Request {
    let args = CollArgs {
        op,
        alg,
        root: 0,
        dtype: DType::U8,
        rop: ReduceOp::Max,
    };
    Request::uniform(args, p, payload).unwrap_or_else(|e| panic!("unsupported chaos case: {e}"))
}

/// One rank of a chaos run: the collective's result plus everything the
/// instrumentation around the fault layer saw.
#[derive(Debug)]
pub struct CaseRank {
    /// The rank's collective result (after the closing barrier).
    pub result: CommResult<Vec<u8>>,
    /// Timed event timeline recorded around the fault layer, so injected
    /// delays show up as inflated send spans.
    pub timeline: RankTimeline,
    /// Faults the injector actually fired on this rank.
    pub faults: Vec<FaultEvent>,
    /// The canonical event log, recorded outside the fault injector: send
    /// events digest what the algorithm intended to transmit, receive
    /// events what actually arrived.
    pub events: Vec<RecordedEvent>,
}

/// Run one collective under one fault plan; inputs are the request's,
/// seeded by the plan.
///
/// The run is deadline-bounded and abort-coupled, so it returns within
/// ~2× the deadline in the worst case — never hangs. Each rank's [`Comm`]
/// stack is `RecordComm<TimedComm<FaultComm<ThreadComm>>>` — all three are
/// transparent when idle — and a closing barrier on the raw communicator,
/// outside the stack so it appears in no log, makes any rank's failure
/// visible to every rank.
pub fn run_case_results(
    op: CollectiveOp,
    alg: Algorithm,
    p: usize,
    plan: FaultPlan,
    deadline: Duration,
    payload: usize,
) -> Vec<CaseRank> {
    let req = case_request(op, alg, p, payload);
    let opts = WorldOptions { deadline };
    let epoch = Instant::now();
    let out = try_run_ranks_with(p, opts, |c: &mut ThreadComm| {
        let input = req.input(plan.seed, 0, c.rank());
        let abort = c.abort_handle();
        let (res, timeline, faults, events) = {
            let fc = FaultComm::new(&mut *c, plan).with_abort(abort);
            let mut rc = RecordComm::new(TimedComm::with_epoch(fc, epoch));
            let res = execute(&mut rc, req.args(), &input);
            let (tc, events) = rc.into_parts();
            let (fc, timeline) = tc.into_parts();
            (res, timeline, fc.into_events(), events)
        };
        // Closing barrier, entered only on success: a failed rank skips it
        // and drops its endpoint, so no successful rank can pass either
        // (poison, abort, or deadline frees it) — errors become collective,
        // not partial.
        let bar = match &res {
            Ok(_) if p > 1 => execute(
                &mut *c,
                &CollArgs::new(CollectiveOp::Barrier, Algorithm::Dissemination { k: 2 }),
                &[],
            )
            .map(|_| ()),
            _ => Ok(()),
        };
        let result = match (res, bar) {
            (Ok(v), Ok(())) => Ok(v),
            (Err(e), _) | (Ok(_), Err(e)) => Err(e),
        };
        Ok(CaseRank {
            result,
            timeline,
            faults,
            events,
        })
    });
    out.into_iter()
        .enumerate()
        // A rank that never returned (harness-level failure) has no record.
        .map(|(rank, r)| {
            r.unwrap_or_else(|e| CaseRank {
                result: Err(e),
                timeline: RankTimeline {
                    rank,
                    size: p,
                    events: Vec::new(),
                },
                faults: Vec::new(),
                events: Vec::new(),
            })
        })
        .collect()
}

/// The campaign's pass/fail verdict: `Err` (with a one-line summary) when
/// any case failed its fault class's acceptance criterion. This is what
/// makes `exacoll chaos` exit nonzero on failure.
pub fn verdict(results: &[CaseResult]) -> Result<(), String> {
    let failed = results.iter().filter(|r| !r.survived).count();
    if failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "{failed}/{} chaos cases failed their fault class's acceptance criterion",
            results.len()
        ))
    }
}

/// Classify per-rank results against the reference outputs.
pub fn classify(results: &[CommResult<Vec<u8>>], expected: &[Vec<u8>]) -> Outcome {
    let errs = results.iter().filter(|r| r.is_err()).count();
    if errs == results.len() {
        return Outcome::CleanError;
    }
    if errs > 0 {
        return Outcome::Mixed;
    }
    let correct = results
        .iter()
        .zip(expected)
        .all(|(r, e)| r.as_ref().expect("no errs") == e);
    if correct {
        Outcome::Correct
    } else {
        Outcome::WrongData
    }
}

/// Run one case end-to-end: inputs, execution, classification, and the
/// run's recorded logs.
pub fn run_case(
    op: CollectiveOp,
    alg: Algorithm,
    p: usize,
    fault: FaultClass,
    seed: u64,
    payload: usize,
) -> CaseResult {
    let request = case_request(op, alg, p, payload);
    let expected = request
        .reference(&request.inputs(seed))
        .expect("u8/max reference is always defined");
    let ranks = run_case_results(op, alg, p, fault.plan(seed, p), fault.deadline(), payload);
    let logs = ranks
        .iter()
        .enumerate()
        .map(|(rank, r)| RankLog {
            rank,
            status: match &r.result {
                Ok(_) => RankStatus::Ok,
                Err(e) => RankStatus::Error(e.to_string()),
            },
            input: request.input(seed, 0, rank),
            output_digest: r.result.as_ref().ok().map(|v| fnv1a(v)),
            events: r.events.clone(),
        })
        .collect();
    let results: Vec<_> = ranks.into_iter().map(|r| r.result).collect();
    let outcome = classify(&results, &expected);
    // A single-rank world exchanges no messages, so fault classes that
    // demand a failure (drop, kill-at-op-0) cannot trigger: correct
    // completion is the right outcome there.
    let survived = fault.acceptable(outcome) || (p == 1 && outcome == Outcome::Correct);
    CaseResult {
        op,
        alg,
        p,
        fault,
        outcome,
        survived,
        artifact: Artifact {
            case: Some(format!("{op}/{}/p{p}/{}", alg_to_spec(&alg), fault.name())),
            backend: "thread".into(),
            fault_seed: Some(seed),
            request,
            ranks: logs,
        },
    }
}

/// Sweep every evaluated collective × registered algorithm × fault class at
/// size `p`, radixes up to `max_k`.
pub fn campaign(p: usize, max_k: usize, seed: u64, payload: usize) -> Vec<CaseResult> {
    let mut out = Vec::new();
    for op in CollectiveOp::EVALUATED {
        for alg in candidates(op, p, max_k) {
            for fault in FaultClass::ALL {
                out.push(run_case(op, alg, p, fault, seed, payload));
            }
        }
    }
    out
}

/// Render a campaign as the `exacoll chaos` survival table.
pub fn survival_table(results: &[CaseResult]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<10} {:<14} {:>3}  {:<8} {:<10} {}\n",
        "op", "alg", "p", "fault", "outcome", "verdict"
    ));
    let mut survived = 0usize;
    for r in results {
        if r.survived {
            survived += 1;
        }
        s.push_str(&format!(
            "{:<10} {:<14} {:>3}  {:<8} {:<10} {}\n",
            format!("{:?}", r.op).to_lowercase(),
            r.alg.to_string(),
            r.p,
            r.fault.name(),
            r.outcome.name(),
            if r.survived { "survived" } else { "FAILED" },
        ));
    }
    s.push_str(&format!(
        "\n{survived}/{} cases survived ({} fault classes, zero hangs by construction)\n",
        results.len(),
        FaultClass::ALL.len(),
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_case_is_correct() {
        let r = run_case(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
            4,
            FaultClass::None,
            7,
            32,
        );
        assert_eq!(r.outcome, Outcome::Correct);
        assert!(r.survived);
    }

    #[test]
    fn kill_case_is_a_clean_collective_error() {
        let r = run_case(
            CollectiveOp::Bcast,
            Algorithm::KnomialTree { k: 2 },
            4,
            FaultClass::Kill,
            7,
            32,
        );
        assert_eq!(r.outcome, Outcome::CleanError);
        assert!(r.survived);
    }

    #[test]
    fn recorded_corrupt_case_replays_to_a_receive_divergence() {
        let artifact = run_case(
            CollectiveOp::Allreduce,
            Algorithm::Ring,
            4,
            FaultClass::Corrupt,
            3,
            64,
        )
        .artifact;
        assert_eq!(artifact.ranks.len(), 4);
        // Round-trip through the on-disk format, then replay: corruption
        // happened in flight, so the first divergence must be a receive
        // whose digest disagrees with the fault-free dataflow.
        let parsed = Artifact::from_json(&artifact.to_json()).unwrap();
        let report = exacoll_replay::replay(&parsed).unwrap();
        assert!(!report.is_clean(), "corrupt case must diverge");
        let h = report.headline().unwrap();
        assert!(
            h.explanation.contains("in-flight corruption"),
            "headline should blame the receive: {h:?}"
        );
        // Determinism: replaying again renders the identical report.
        assert_eq!(
            report.render(),
            exacoll_replay::replay(&parsed).unwrap().render()
        );
    }

    #[test]
    fn recorded_baseline_case_replays_clean() {
        let r = run_case(
            CollectiveOp::Bcast,
            Algorithm::KnomialTree { k: 3 },
            5,
            FaultClass::None,
            9,
            32,
        );
        assert_eq!(r.outcome, Outcome::Correct);
        let report = exacoll_replay::replay(&r.artifact).unwrap();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn recorded_kill_case_truncates_the_victim_log() {
        let artifact = run_case(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
            4,
            FaultClass::Kill,
            5,
            32,
        )
        .artifact;
        // Victim is rank 1 (kills(1 % p, 0)): it dies at its first
        // communication op, so its log holds no sends or receives — only
        // the infallible leading round mark — and its status is an error.
        assert!(matches!(artifact.ranks[1].status, RankStatus::Error(_)));
        assert!(artifact.ranks[1]
            .events
            .iter()
            .all(|e| matches!(e, exacoll_comm::RecordedEvent::Mark { .. })));
        // The victim's own divergence is where its log ends. Who the
        // headline names is a race: a survivor that sees the abort before
        // posting anything stops at the same step and wins the (step, rank)
        // tie, so only "nobody diverged before the victim" is asserted.
        let report = exacoll_replay::replay(&artifact).unwrap();
        let victim = report
            .divergences
            .iter()
            .find(|d| d.rank == 1)
            .expect("the victim diverges");
        assert_eq!(victim.step, artifact.ranks[1].events.len());
        assert!(victim.explanation.contains("rank aborted"), "{victim:?}");
        assert!(
            report.divergences.iter().all(|d| d.step >= victim.step),
            "no rank may diverge before the victim: {}",
            report.render()
        );
    }

    #[test]
    fn verdict_is_nonzero_on_any_failed_case() {
        let ok = run_case(
            CollectiveOp::Reduce,
            Algorithm::KnomialTree { k: 2 },
            4,
            FaultClass::None,
            7,
            16,
        );
        assert!(verdict(std::slice::from_ref(&ok)).is_ok());
        let mut bad = ok;
        bad.survived = false;
        let err = verdict(&[bad]).unwrap_err();
        assert!(err.contains("1/1"), "summary names the count: {err}");
    }

    #[test]
    fn table_renders() {
        let r = run_case(
            CollectiveOp::Reduce,
            Algorithm::KnomialTree { k: 3 },
            4,
            FaultClass::None,
            7,
            16,
        );
        let t = survival_table(&[r]);
        assert!(t.contains("reduce"));
        assert!(t.contains("survived"));
        assert!(t.contains("1/1 cases survived"));
    }
}
