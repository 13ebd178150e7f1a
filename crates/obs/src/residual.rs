//! Model-vs-measured analysis: attribute recorded events to the algorithm
//! phases announced via [`exacoll_comm::Comm::mark`], take each phase's span
//! across ranks, and compare a measured run with a predicted one — the
//! simulator's replay of the same plans (`profile_sim`).
//!
//! A phase's span is `max(done) − min(begin)` over every event attributed to
//! it on any rank — the global span of that round. Both sides go through the
//! same attribution, so the report knows nothing about collectives,
//! algorithms or cost formulas: a phase has a prediction whenever the
//! predicted run has a phase with the same (label, round).

use crate::timeline::{makespan_ns, RankTimeline};
use std::collections::HashMap;

/// One phase's measured span and its predicted twin.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResidual {
    /// Phase label (e.g. `rs-ring`).
    pub label: String,
    /// Round index within the phase.
    pub round: u32,
    /// Global span of the phase across ranks, ns.
    pub measured_ns: f64,
    /// The same phase's span in the predicted run, ns (`None` when the
    /// predicted run has no such phase).
    pub predicted_ns: Option<f64>,
}

impl PhaseResidual {
    /// Relative residual `(measured − predicted) / predicted`.
    pub fn relative(&self) -> Option<f64> {
        self.predicted_ns
            .filter(|&p| p > 0.0)
            .map(|p| (self.measured_ns - p) / p)
    }
}

/// The full model-vs-measured report for one recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualReport {
    /// Per-phase rows in the measured run's order of first occurrence.
    pub phases: Vec<PhaseResidual>,
    /// Measured makespan, ns.
    pub measured_total_ns: f64,
    /// Predicted makespan, ns.
    pub predicted_total_ns: f64,
}

/// Each (label, round) phase's global span, ns, in order of first begin.
fn phase_spans(timelines: &[RankTimeline]) -> Vec<((&'static str, u32), f64)> {
    // (label, round) -> (first begin, last done)
    let mut spans: HashMap<(&'static str, u32), (f64, f64)> = HashMap::new();
    for tl in timelines {
        for e in &tl.events {
            if let (Some(label), Some(round)) = (e.label, e.round) {
                let entry = spans
                    .entry((label, round))
                    .or_insert((f64::INFINITY, f64::NEG_INFINITY));
                entry.0 = entry.0.min(e.begin_ns);
                entry.1 = entry.1.max(e.done_ns);
            }
        }
    }
    let mut rows: Vec<_> = spans.into_iter().collect();
    rows.sort_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.0.cmp(&b.0)));
    rows.into_iter()
        .map(|(key, (begin, done))| (key, (done - begin).max(0.0)))
        .collect()
}

/// Attribute both runs' events to phases and join them on (label, round).
pub fn analyze_residuals(measured: &[RankTimeline], predicted: &[RankTimeline]) -> ResidualReport {
    let twins: HashMap<_, _> = phase_spans(predicted).into_iter().collect();
    let phases = phase_spans(measured)
        .into_iter()
        .map(|(key @ (label, round), span)| PhaseResidual {
            label: label.to_string(),
            round,
            measured_ns: span,
            predicted_ns: twins.get(&key).copied(),
        })
        .collect();
    ResidualReport {
        phases,
        measured_total_ns: makespan_ns(measured),
        predicted_total_ns: makespan_ns(predicted),
    }
}

/// Render the report as a plain-text table.
pub fn render(report: &ResidualReport) -> String {
    let mut out = String::new();
    out.push_str("measured vs simulated (us):\n");
    out.push_str("  phase                 measured   simulated   residual\n");
    for ph in &report.phases {
        let name = format!("{}[{}]", ph.label, ph.round);
        match ph.predicted_ns {
            Some(pred) => {
                let rel = ph.relative().map_or(f64::NAN, |r| r * 100.0);
                out.push_str(&format!(
                    "  {:<20} {:>9.3} {:>11.3} {:>+9.1}%\n",
                    name,
                    ph.measured_ns / 1000.0,
                    pred / 1000.0,
                    rel
                ));
            }
            None => {
                out.push_str(&format!(
                    "  {:<20} {:>9.3}   (no predicted twin)\n",
                    name,
                    ph.measured_ns / 1000.0
                ));
            }
        }
    }
    out.push_str(&format!(
        "  total                {:>9.3} {:>11.3}\n",
        report.measured_total_ns / 1000.0,
        report.predicted_total_ns / 1000.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_sim, profile_thread, ProfileSpec};
    use exacoll_core::spec::{CountsSpec, OptSpec};
    use exacoll_core::{Algorithm, CollArgs, CollectiveOp, Request};
    use exacoll_sim::Machine;

    fn spec(request: Request) -> ProfileSpec {
        let machine = Machine::testbed(request.ranks(), 1, 1);
        ProfileSpec { request, machine }
    }

    fn uniform(op: CollectiveOp, alg: Algorithm, p: usize, n: usize) -> Request {
        Request::uniform(CollArgs::new(op, alg), p, n).unwrap()
    }

    #[test]
    fn a_run_against_itself_predicts_every_phase_exactly() {
        // Each case pins the lowering's per-round marks, which attribution
        // relies on: ring runs p-1 reduce-scatter rounds then p-1 allgather
        // rounds; recmult:4 at p = 16 = 4 × 4 runs two multiply rounds.
        let cases = [
            (
                uniform(CollectiveOp::Allreduce, Algorithm::Ring, 8, 1 << 12),
                &[("rs-ring", 7), ("ag-ring", 7)][..],
            ),
            (
                uniform(
                    CollectiveOp::Allreduce,
                    Algorithm::RecursiveMultiplying { k: 4 },
                    16,
                    1024,
                ),
                &[("ar-recmult", 2)][..],
            ),
        ];
        for (request, rounds) in cases {
            let run = profile_sim(&spec(request)).unwrap();
            let rep = analyze_residuals(&run.timelines, &run.timelines);
            for &(label, n) in rounds {
                let rows = rep.phases.iter().filter(|ph| ph.label == label).count();
                assert_eq!(rows, n, "{label}");
            }
            for ph in &rep.phases {
                assert!(ph.measured_ns > 0.0, "{ph:?}");
                assert_eq!(ph.predicted_ns, Some(ph.measured_ns), "{ph:?}");
            }
            assert!(rep.measured_total_ns > 0.0);
            assert_eq!(rep.predicted_total_ns, rep.measured_total_ns);
            let text = render(&rep);
            assert!(text.contains(&format!("{}[0]", rounds[0].0)) && text.contains("total"));
            assert!(!text.contains("no predicted twin"));
        }
    }

    /// Every phase a thread run records has a twin in the simulator's
    /// replay of the same plans — whatever shape the request has.
    #[test]
    fn every_measured_phase_has_a_predicted_twin() {
        let ring = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let requests = [
            uniform(CollectiveOp::Allreduce, Algorithm::Ring, 4, 1 << 12),
            uniform(
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 4 },
                16,
                1024,
            ),
            uniform(
                CollectiveOp::Allreduce,
                Algorithm::Hierarchical { ppn: 4, k: 2 },
                8,
                256,
            ),
            Request::irregular(ring, CountsSpec::new(vec![4096, 0, 64, 256]).unwrap()).unwrap(),
            uniform(
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 2 },
                4,
                4096,
            )
            .with_tenants(2)
            .unwrap(),
            Request::uniform(ring, 4, 4096)
                .and_then(|r| r.with_opt(OptSpec::PIPELINE, 512, 4096))
                .unwrap(),
        ];
        for request in requests {
            let s = spec(request);
            let measured = profile_thread(&s).expect("thread run");
            let predicted = profile_sim(&s).expect("sim replay");
            let rep = analyze_residuals(&measured.timelines, &predicted.timelines);
            assert!(!rep.phases.is_empty(), "{:?}", s.request);
            for ph in &rep.phases {
                assert!(ph.predicted_ns.is_some(), "{:?}: {ph:?}", s.request);
            }
            assert_eq!(rep.predicted_total_ns, predicted.makespan_ns);
            assert!(!render(&rep).contains("no predicted twin"));
        }
    }
}
