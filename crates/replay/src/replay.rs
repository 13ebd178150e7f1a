//! The replayer: recorded logs vs recomputed dataflow, step by step.
//!
//! [`replay`] re-lowers the artifact's (collective, algorithm, p, n) to the
//! per-rank schedule IR, evaluates the fault-free dataflow over the
//! artifact's recorded inputs, and walks each rank's recorded log against
//! the expected event sequence. The first mismatch per rank becomes a
//! [`Divergence`]; the report's headline is the globally first divergence
//! by `(step, rank)` — deterministic, so replaying an artifact twice
//! renders byte-identical reports.

use crate::artifact::{hex_digest, Artifact, RankStatus};
use crate::evaluate::evaluate;
use crate::ReplayError;
use exacoll_comm::{fnv1a, RecordedEvent};

/// One step where a rank's recorded behavior departs from the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The diverging rank.
    pub rank: usize,
    /// 0-based index into the rank's expected event sequence. A value equal
    /// to the expected event count denotes the output check.
    pub step: usize,
    /// What the schedule dataflow expects at this step.
    pub expected: String,
    /// What the recorded log holds.
    pub observed: String,
    /// One-line diagnosis.
    pub explanation: String,
}

/// Outcome of replaying one artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// One-line description of the replayed run.
    pub run: String,
    /// Communicator size.
    pub p: usize,
    /// Recorded events compared across all ranks.
    pub events_checked: usize,
    /// First divergence of each diverging rank, ordered by rank.
    pub divergences: Vec<Divergence>,
}

impl ReplayReport {
    /// Whether every rank's log matches the schedule dataflow exactly.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// The globally first divergence by `(step, rank)`, if any.
    pub fn headline(&self) -> Option<&Divergence> {
        self.divergences.iter().min_by_key(|d| (d.step, d.rank))
    }

    /// Deterministic human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!("replay: {}\n", self.run);
        if self.is_clean() {
            out.push_str(&format!(
                "PASS: {} recorded events across {} ranks match the schedule dataflow\n",
                self.events_checked, self.p
            ));
            return out;
        }
        let h = self.headline().expect("non-clean report has a headline");
        out.push_str(&format!(
            "DIVERGED: first at rank {} step {}\n  expected: {}\n  observed: {}\n  why: {}\n",
            h.rank, h.step, h.expected, h.observed, h.explanation
        ));
        if self.divergences.len() > 1 {
            out.push_str("all diverging ranks:\n");
            for d in &self.divergences {
                out.push_str(&format!(
                    "  rank {} step {}: {} (expected {}, observed {})\n",
                    d.rank, d.step, d.explanation, d.expected, d.observed
                ));
            }
        }
        out
    }
}

/// Replay `artifact` against the schedule IR.
///
/// # Errors
///
/// Any [`ReplayError`] from re-lowering or evaluating — including
/// [`ReplayError::Header`] when a rank's recorded input is shorter than the
/// plan consumes; integrity errors (gaps, truncation) were already rejected
/// at parse time.
pub fn replay(artifact: &Artifact) -> Result<ReplayReport, ReplayError> {
    let req = &artifact.request;
    let p = req.ranks();
    let inputs: Vec<Vec<u8>> = artifact.ranks.iter().map(|l| l.input.clone()).collect();
    let expected = evaluate(req, &inputs)?;

    let mut divergences = Vec::new();
    let mut events_checked = 0usize;
    for (rank, log) in artifact.ranks.iter().enumerate() {
        let exp = &expected.events[rank];
        let obs = &log.events;
        events_checked += obs.len();
        let mut diverged = false;
        for step in 0..exp.len().max(obs.len()) {
            let d = match (exp.get(step), obs.get(step)) {
                (Some(e), None) => Some(Divergence {
                    rank,
                    step,
                    expected: e.describe(),
                    observed: format!("log ended after {} events", obs.len()),
                    explanation: match &log.status {
                        RankStatus::Error(err) => format!("rank aborted: {err}"),
                        RankStatus::Ok => {
                            "log ends before the schedule does (missing events)".into()
                        }
                    },
                }),
                (None, Some(o)) => Some(Divergence {
                    rank,
                    step,
                    expected: "end of schedule".into(),
                    observed: o.describe(),
                    explanation: "rank performed events beyond its schedule".into(),
                }),
                (Some(e), Some(o)) => compare(rank, step, e, o),
                (None, None) => unreachable!("step bounded by max of both lengths"),
            };
            if let Some(d) = d {
                divergences.push(d);
                diverged = true;
                break;
            }
        }
        // Only check the output digest for ranks whose event stream matched
        // end to end: a diverged stream makes the output moot, and a
        // matching stream with a differing output pinpoints local
        // corruption after the last communication step.
        if !diverged {
            if let Some(observed) = log.output_digest {
                let want = fnv1a(&expected.outputs[rank]);
                if observed != want {
                    divergences.push(Divergence {
                        rank,
                        step: exp.len(),
                        expected: format!(
                            "output digest {} ({} B)",
                            hex_digest(want),
                            expected.outputs[rank].len()
                        ),
                        observed: format!("output digest {}", hex_digest(observed)),
                        explanation:
                            "all events match but the final output differs (local corruption)"
                                .into(),
                    });
                }
            }
        }
    }

    let run = format!(
        "{} {} p={} n={}{} backend={}{}{}",
        req.args().op,
        req.variant().spec(),
        p,
        req.bytes(),
        match (req.counts(), req.tenants()) {
            (None, 1) => String::new(),
            _ => format!(" ({})", req.describe()),
        },
        artifact.backend,
        match artifact.fault_seed {
            Some(s) => format!(" fault_seed={}", hex_digest(s)),
            None => String::new(),
        },
        match &artifact.case {
            Some(c) => format!(" case={c}"),
            None => String::new(),
        },
    );
    Ok(ReplayReport {
        run,
        p,
        events_checked,
        divergences,
    })
}

/// Compare one expected/observed event pair; `None` means they match.
fn compare(rank: usize, step: usize, e: &RecordedEvent, o: &RecordedEvent) -> Option<Divergence> {
    let explanation = match (e, o) {
        (
            RecordedEvent::Send {
                to: et,
                tag: etag,
                bytes: eb,
                digest: ed,
            },
            RecordedEvent::Send {
                to: ot,
                tag: otag,
                bytes: ob,
                digest: od,
            },
        ) if et == ot && etag == otag && eb == ob => {
            if ed == od {
                return None;
            }
            "send payload differs from the fault-free dataflow (corrupted local state)"
        }
        (
            RecordedEvent::Recv {
                from: ef,
                tag: etag,
                bytes: eb,
                digest: ed,
            },
            RecordedEvent::Recv {
                from: of,
                tag: otag,
                bytes: ob,
                digest: od,
            },
        ) if ef == of && etag == otag => match od {
            None => "receive was posted but never completed (message lost or peer dead)",
            Some(od) if eb == ob && ed == &Some(*od) => return None,
            Some(_) if eb == ob => {
                "delivered payload differs from the fault-free dataflow (in-flight corruption)"
            }
            Some(_) => "delivered payload has the wrong length",
        },
        (RecordedEvent::Compute { bytes: eb }, RecordedEvent::Compute { bytes: ob })
            if eb == ob =>
        {
            return None;
        }
        (
            RecordedEvent::Mark {
                label: el,
                round: er,
            },
            RecordedEvent::Mark {
                label: ol,
                round: or,
            },
        ) if el == ol && er == or => return None,
        _ => "event does not match the schedule's step sequence",
    };
    Some(Divergence {
        rank,
        step,
        expected: e.describe(),
        observed: o.describe(),
        explanation: explanation.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::record_thread_run;
    use exacoll_core::registry::{Algorithm, CollArgs, CollectiveOp};

    fn clean_artifact() -> Artifact {
        let args = CollArgs::new(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        );
        record_thread_run(&args, 4, 8, 42)
    }

    #[test]
    fn clean_run_replays_clean() {
        let report = replay(&clean_artifact()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.events_checked > 0);
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn pipelined_record_replays_clean_and_unoptimized_expectation_diverges() {
        use exacoll_core::spec::OptSpec;
        use exacoll_core::Request;
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let plain = Request::uniform(args, 4, 64).unwrap();
        // 16 B is far below the 64 B blocks: every send chunks.
        let piped = plain.clone().with_opt(OptSpec::PIPELINE, 16, 4096).unwrap();
        let a = crate::record::record_request(&piped, 7).unwrap();
        let report = replay(&a).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.run.contains("ring@pipeline"), "{}", report.run);
        // Dropping the recorded pass settings makes the expected stream the
        // stock lowering's — which the chunked log must NOT match, proving
        // the optimizer really changed the wire behavior.
        let stripped = Artifact {
            request: plain,
            ..a
        };
        let report = replay(&stripped).unwrap();
        assert!(!report.is_clean());
    }

    #[test]
    fn flipped_recv_digest_pinpoints_rank_and_step() {
        let mut a = clean_artifact();
        // Corrupt the digest of rank 2's second receive.
        let (victim_rank, victim_step) = (2usize, {
            let mut step = None;
            let mut seen = 0;
            for (i, ev) in a.ranks[2].events.iter().enumerate() {
                if matches!(ev, RecordedEvent::Recv { .. }) {
                    seen += 1;
                    if seen == 2 {
                        step = Some(i);
                        break;
                    }
                }
            }
            step.expect("allreduce rank has at least two receives")
        });
        if let RecordedEvent::Recv { digest, .. } = &mut a.ranks[victim_rank].events[victim_step] {
            *digest = digest.map(|d| d ^ 0xff);
        }
        let report = replay(&a).unwrap();
        let h = report.headline().expect("must diverge");
        assert_eq!((h.rank, h.step), (victim_rank, victim_step));
        assert!(h.explanation.contains("in-flight corruption"), "{h:?}");
        assert_eq!(report.divergences.len(), 1, "only rank 2 diverges");
    }

    #[test]
    fn truncated_rank_log_reports_abort_point() {
        let mut a = clean_artifact();
        let cut = a.ranks[1].events.len() - 2;
        a.ranks[1].events.truncate(cut);
        a.ranks[1].status = RankStatus::Error("killed at op 7".into());
        a.ranks[1].output_digest = None;
        let report = replay(&a).unwrap();
        let h = report.headline().unwrap();
        assert_eq!((h.rank, h.step), (1, cut));
        assert!(h.explanation.contains("killed at op 7"));
    }

    #[test]
    fn corrupted_output_digest_is_caught_after_clean_events() {
        let mut a = clean_artifact();
        a.ranks[3].output_digest = a.ranks[3].output_digest.map(|d| d ^ 1);
        let report = replay(&a).unwrap();
        let h = report.headline().unwrap();
        assert_eq!(h.rank, 3);
        assert_eq!(h.step, a.ranks[3].events.len());
        assert!(h.explanation.contains("final output differs"));
    }

    #[test]
    fn replaying_twice_renders_identical_reports() {
        let mut a = clean_artifact();
        if let RecordedEvent::Recv { digest, .. } = &mut a.ranks[0].events[2] {
            *digest = digest.map(|d| d.wrapping_add(1));
        }
        if let RecordedEvent::Send { digest, .. } = &mut a.ranks[1].events[0] {
            *digest ^= 0x10;
        }
        let r1 = replay(&a).unwrap().render();
        let r2 = replay(&a).unwrap().render();
        assert_eq!(r1, r2);
        assert!(r1.contains("DIVERGED"));
    }
}
