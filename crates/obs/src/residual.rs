//! Model-vs-measured analysis: attribute recorded events to the algorithm
//! phases announced via [`exacoll_comm::Comm::mark`], measure each phase's
//! wall (or virtual) span across ranks, and compare against the α-β-γ
//! per-round predictions of `exacoll_models` (paper Eqs. 1–14).
//!
//! A phase's *measured* time is `max(done) − min(begin)` over every event
//! attributed to it on any rank — the global span of that round. Phases the
//! model family doesn't cover (e.g. the hierarchical composition's stages or
//! the recursive-multiplying fold) report `predicted = None` and are listed
//! measured-only.

use crate::timeline::RankTimeline;
use exacoll_core::registry::lower;
use exacoll_core::schedule::verify::verify;
use exacoll_core::topo::{factorize, largest_smooth_leq};
use exacoll_core::{Algorithm, CollArgs, CollectiveOp};
use exacoll_json::Value;
use exacoll_models::{
    alltoall, barrier, knomial, kring, predict_from_stats, recursive, ring, rounds, NetParams,
};
use std::collections::HashMap;

/// One phase's measured span and model prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResidual {
    /// Phase label (e.g. `rs-ring`).
    pub label: String,
    /// Round index within the phase.
    pub round: u32,
    /// Global span of the phase across ranks, ns.
    pub measured_ns: f64,
    /// α-β-γ prediction for the round, ns (`None` when unmodeled).
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
    /// Per-phase rows in order of first occurrence.
    pub phases: Vec<PhaseResidual>,
    /// Measured makespan, ns.
    pub measured_total_ns: f64,
    /// End-to-end model prediction, ns (`None` when unmodeled).
    pub predicted_total_ns: Option<f64>,
    /// End-to-end prediction priced off the lowered schedule IR's verified
    /// α/β/γ term counts, ns. Unlike [`predicted_total_ns`] this exists for
    /// *every* algorithm the registry can lower — including compositions
    /// (hierarchical, fold phases) the closed-form tables skip — because it
    /// counts the plan that actually ran rather than a formula about it.
    ///
    /// [`predicted_total_ns`]: ResidualReport::predicted_total_ns
    pub schedule_predicted_ns: Option<f64>,
}

/// Lower every rank's plan for this configuration, statically verify it,
/// and price its term counts. `None` when the configuration cannot be
/// lowered (unsupported combination, alltoall with ragged blocks).
fn schedule_prediction(
    op: CollectiveOp,
    alg: Algorithm,
    input_bytes: usize,
    p: usize,
    net: &NetParams,
) -> Option<f64> {
    if p == 0 || alg.supports(op, p).is_err() {
        return None;
    }
    if op == CollectiveOp::Alltoall && !input_bytes.is_multiple_of(p) {
        return None;
    }
    let args = CollArgs::new(op, alg);
    let plans: Vec<_> = (0..p).map(|r| lower(&args, p, r, input_bytes)).collect();
    let stats = verify(&plans).ok()?;
    Some(predict_from_stats(net, &stats))
}

/// The recursive-multiplying factor schedule actually executed for `p`
/// ranks at radix bound `k` (non-smooth counts fold to the largest
/// `k`-smooth `q ≤ p` first).
fn recmult_schedule(p: usize, k: usize) -> (usize, Vec<usize>) {
    let q = if factorize(p, k).is_some() {
        p
    } else {
        largest_smooth_leq(p, k)
    };
    let factors = factorize(q, k).expect("q is k-smooth");
    (q, factors)
}

/// Bytes the full allgather-style phase of `op` redistributes, given the
/// per-rank input size: allgather grows the vector `p`-fold, while the
/// allgather inside allreduce/bcast reassembles the original `n`.
fn allgather_total(op: CollectiveOp, input_bytes: usize, p: usize) -> usize {
    match op {
        CollectiveOp::Allgather | CollectiveOp::Gather => input_bytes * p,
        _ => input_bytes,
    }
}

/// Everything phase prediction needs besides the phase identity itself.
struct Ctx<'a> {
    op: CollectiveOp,
    alg: Algorithm,
    input_bytes: usize,
    p: usize,
    net: &'a NetParams,
    intra: Option<&'a NetParams>,
}

fn predict_phase(ctx: &Ctx<'_>, label: &str, round: u32) -> Option<f64> {
    let &Ctx {
        op,
        alg,
        input_bytes,
        p,
        net,
        intra,
    } = ctx;
    let k = alg.radix().unwrap_or(2);
    let n_ag = allgather_total(op, input_bytes, p);
    let n = input_bytes;
    match label {
        "rs-ring" => Some(ring::allreduce_round(net, n, p)),
        "ag-ring" => Some(ring::allgather_round(net, n_ag, p)),
        "ar-recmult" => {
            let (_, factors) = recmult_schedule(p, k);
            factors
                .get(round as usize)
                .map(|&f| recursive::allreduce_round(net, n, f))
        }
        "ag-recmult" => {
            let (q, factors) = recmult_schedule(p, k);
            let f = *factors.get(round as usize)?;
            let cur: usize = factors[..round as usize].iter().product();
            Some(recursive::allgather_round_general(net, n_ag, q, f, cur))
        }
        "bc-knomial" => Some(knomial::bcast(net, n, p, k) / rounds(p, k).max(1.0)),
        "red-knomial" => Some(knomial::reduce(net, n, p, k) / rounds(p, k).max(1.0)),
        "gat-knomial" => Some(knomial::gather(net, n_ag, p, k) / rounds(p, k).max(1.0)),
        // Scatter is gather run in reverse; inside bcast it moves `n` total.
        "sc-knomial" | "bc-scatter" => Some(knomial::gather(net, n, p, k) / rounds(p, k).max(1.0)),
        "bar-dissem" => Some(barrier::barrier(net, p, k) / barrier::rounds(p, k).max(1.0)),
        // Alltoall models take the per-destination block size (OSU
        // convention); `n` here is the whole p-block buffer.
        "a2a-pairwise" => Some(alltoall::pairwise(net, n / p.max(1), p) / (p - 1).max(1) as f64),
        "a2a-bruck" => {
            let r = alltoall::bruck_rounds(p, k);
            Some(alltoall::bruck(net, n / p.max(1), p, k) / r.max(1) as f64)
        }
        "ag-kring-intra" => {
            let link = intra.unwrap_or(net);
            Some(link.alpha + link.beta * n_ag as f64 / p as f64)
        }
        "ag-kring-inter" => Some(net.alpha + net.beta * n_ag as f64 / p as f64),
        "ag-bruck" => {
            let sent = (1usize << round.min(62)).min(p.saturating_sub(1 << round.min(62)).max(1));
            Some(net.alpha + net.beta * sent as f64 * n_ag as f64 / p as f64)
        }
        // Fold/unfold corrections and hierarchical composition stages have
        // no closed-form row in the paper's model tables.
        _ => None,
    }
}

fn predict_total(
    op: CollectiveOp,
    alg: Algorithm,
    input_bytes: usize,
    p: usize,
    net: &NetParams,
) -> Option<f64> {
    use Algorithm as A;
    use CollectiveOp as O;
    let n = input_bytes;
    let n_ag = allgather_total(op, input_bytes, p);
    let k = alg.radix().unwrap_or(2);
    match (op, alg) {
        (O::Allreduce, A::RecursiveMultiplying { k }) => {
            let (q, _) = recmult_schedule(p, k);
            Some(recursive::allreduce(net, n, q, k))
        }
        (O::Allreduce, A::Ring | A::KRing { .. }) => Some(ring::allreduce(net, n, p)),
        (O::Allreduce, A::ReduceBcast { k }) => Some(knomial::allreduce(net, n, p, k)),
        (O::Allgather, A::RecursiveMultiplying { k }) => {
            let (q, _) = recmult_schedule(p, k);
            Some(recursive::allgather(net, n_ag, q, k))
        }
        (O::Allgather, A::Ring) => Some(ring::allgather(net, n_ag, p)),
        (O::Allgather, A::KRing { .. }) => Some(kring::allgather_homogeneous(net, n_ag, p)),
        (O::Allgather, A::Bruck) => Some(recursive::allgather(net, n_ag, p, 2)),
        (O::Allgather, A::KnomialTree { k }) => Some(knomial::allgather(net, n, p, k)),
        (O::Bcast, A::KnomialTree { k }) => Some(knomial::bcast(net, n, p, k)),
        (O::Bcast, A::Ring) => Some(knomial::gather(net, n, p, 2) + ring::allgather(net, n, p)),
        (O::Bcast, A::RecursiveMultiplying { k }) => {
            let (q, _) = recmult_schedule(p, k);
            Some(knomial::gather(net, n, p, 2) + recursive::allgather(net, n, q, k))
        }
        (O::Bcast, A::KRing { .. }) => {
            Some(knomial::gather(net, n, p, 2) + kring::allgather_homogeneous(net, n, p))
        }
        (O::Reduce, A::KnomialTree { k }) => Some(knomial::reduce(net, n, p, k)),
        (O::Reduce | O::Gather | O::Bcast, A::Linear) => Some(knomial::linear(net, n, p)),
        (O::Gather, A::KnomialTree { k }) => Some(knomial::gather(net, n_ag, p, k)),
        (O::Barrier, A::Dissemination { k }) => Some(barrier::barrier(net, p, k)),
        (O::Alltoall, A::Pairwise) => Some(alltoall::pairwise(net, n / p.max(1), p)),
        (O::Alltoall, A::Linear) => Some(alltoall::spread(net, n / p.max(1), p)),
        (O::Alltoall, A::GeneralizedBruck { r }) => Some(alltoall::bruck(net, n / p.max(1), p, r)),
        (O::ReduceScatter, A::Ring) => {
            Some((p.saturating_sub(1)) as f64 * ring::allreduce_round(net, n, p))
        }
        (O::ReduceScatter, A::RecursiveMultiplying { .. }) => {
            let (_, factors) = recmult_schedule(p, k);
            Some(
                factors
                    .iter()
                    .map(|&f| recursive::allreduce_round(net, n, f))
                    .sum(),
            )
        }
        _ => None,
    }
}

/// Attribute events to phases and compare each against the model.
///
/// `input_bytes` is the per-rank input size `execute` was called with;
/// `intra` supplies separate intranode link parameters for hierarchy-aware
/// phases (k-ring intra rounds) when available.
pub fn analyze_residuals(
    timelines: &[RankTimeline],
    op: CollectiveOp,
    alg: Algorithm,
    input_bytes: usize,
    net: &NetParams,
    intra: Option<&NetParams>,
) -> ResidualReport {
    let p = timelines.len();
    let ctx = Ctx {
        op,
        alg,
        input_bytes,
        p,
        net,
        intra,
    };
    // (label, round) -> (first begin, last done)
    type PhaseSpan = ((&'static str, u32), (f64, f64));
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
    let mut rows: Vec<PhaseSpan> = spans.into_iter().collect();
    rows.sort_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.0.cmp(&b.0)));
    let phases = rows
        .into_iter()
        .map(|((label, round), (begin, done))| PhaseResidual {
            label: label.to_string(),
            round,
            measured_ns: (done - begin).max(0.0),
            predicted_ns: predict_phase(&ctx, label, round),
        })
        .collect();
    ResidualReport {
        phases,
        measured_total_ns: crate::timeline::makespan_ns(timelines),
        predicted_total_ns: predict_total(op, alg, input_bytes, p, net),
        schedule_predicted_ns: schedule_prediction(op, alg, input_bytes, p, net),
    }
}

impl ResidualReport {
    /// JSON form of the report.
    pub fn to_json(&self) -> Value {
        let phases: Vec<Value> = self
            .phases
            .iter()
            .map(|ph| {
                Value::obj(vec![
                    ("label", Value::Str(ph.label.clone())),
                    ("round", Value::Num(ph.round as f64)),
                    ("measured_ns", Value::Num(ph.measured_ns)),
                    (
                        "predicted_ns",
                        ph.predicted_ns.map_or(Value::Null, Value::Num),
                    ),
                ])
            })
            .collect();
        Value::obj(vec![
            ("phases", Value::Arr(phases)),
            ("measured_total_ns", Value::Num(self.measured_total_ns)),
            (
                "predicted_total_ns",
                self.predicted_total_ns.map_or(Value::Null, Value::Num),
            ),
            (
                "schedule_predicted_ns",
                self.schedule_predicted_ns.map_or(Value::Null, Value::Num),
            ),
        ])
    }
}

/// Render the report as a plain-text table.
pub fn render(report: &ResidualReport) -> String {
    let mut out = String::new();
    out.push_str("model vs measured (us):\n");
    out.push_str("  phase                 measured       model   residual\n");
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
                    "  {:<20} {:>9.3}   (unmodeled)\n",
                    name,
                    ph.measured_ns / 1000.0
                ));
            }
        }
    }
    match report.predicted_total_ns {
        Some(pred) => out.push_str(&format!(
            "  total                {:>9.3} {:>11.3}\n",
            report.measured_total_ns / 1000.0,
            pred / 1000.0
        )),
        None => out.push_str(&format!(
            "  total                {:>9.3}   (unmodeled)\n",
            report.measured_total_ns / 1000.0
        )),
    }
    if let Some(pred) = report.schedule_predicted_ns {
        out.push_str(&format!(
            "  total (schedule IR)  {:>9.3} {:>11.3}\n",
            report.measured_total_ns / 1000.0,
            pred / 1000.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::timelines_from_sim;
    use exacoll_core::registry::lower;
    use exacoll_core::CollArgs;
    use exacoll_sim::{simulate_timed, Machine};

    fn sim_timelines(op: CollectiveOp, alg: Algorithm, p: usize, n: usize) -> Vec<RankTimeline> {
        let args = CollArgs::new(op, alg);
        let traces: Vec<_> = (0..p).map(|r| lower(&args, p, r, n).to_trace()).collect();
        let m = Machine::testbed(p, 1, 1);
        let (_, timings) = simulate_timed(&m, &traces).expect("replay");
        timelines_from_sim(&traces, &timings)
    }

    fn net() -> NetParams {
        NetParams {
            alpha: 2000.0,
            beta: 0.04,
            gamma: 0.005,
        }
    }

    #[test]
    fn ring_allreduce_phases_are_modeled() {
        let p = 8;
        let tls = sim_timelines(CollectiveOp::Allreduce, Algorithm::Ring, p, 1 << 12);
        let rep = analyze_residuals(
            &tls,
            CollectiveOp::Allreduce,
            Algorithm::Ring,
            1 << 12,
            &net(),
            None,
        );
        // p-1 reduce-scatter rounds then p-1 allgather rounds.
        let rs: Vec<_> = rep
            .phases
            .iter()
            .filter(|ph| ph.label == "rs-ring")
            .collect();
        let ag: Vec<_> = rep
            .phases
            .iter()
            .filter(|ph| ph.label == "ag-ring")
            .collect();
        assert_eq!(rs.len(), p - 1);
        assert_eq!(ag.len(), p - 1);
        for ph in rep.phases.iter() {
            assert!(ph.predicted_ns.is_some(), "phase {} unmodeled", ph.label);
            assert!(ph.measured_ns > 0.0);
        }
        assert!(rep.predicted_total_ns.is_some());
        assert!(rep.measured_total_ns > 0.0);
        // On p | n the IR term counts reproduce the ring closed form
        // exactly, so the two end-to-end predictions must agree.
        let (closed, ir) = (
            rep.predicted_total_ns.unwrap(),
            rep.schedule_predicted_ns.unwrap(),
        );
        assert!(
            (closed - ir).abs() < 1e-9 * closed.max(1.0),
            "closed form {closed} vs schedule IR {ir}"
        );
        let text = render(&rep);
        assert!(text.contains("rs-ring[0]"));
        assert!(text.contains("total"));
        assert!(text.contains("total (schedule IR)"));
    }

    #[test]
    fn recmult_allreduce_rounds_match_factor_schedule() {
        let (p, k) = (16, 4);
        let tls = sim_timelines(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k },
            p,
            1024,
        );
        let rep = analyze_residuals(
            &tls,
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k },
            1024,
            &net(),
            None,
        );
        let ar: Vec<_> = rep
            .phases
            .iter()
            .filter(|ph| ph.label == "ar-recmult")
            .collect();
        // 16 = 4 × 4: two multiply rounds.
        assert_eq!(ar.len(), 2);
        for ph in ar {
            assert!(ph.predicted_ns.is_some());
        }
    }

    #[test]
    fn hierarchical_phases_report_measured_only() {
        let alg = Algorithm::Hierarchical { ppn: 4, k: 2 };
        let tls = sim_timelines(CollectiveOp::Allreduce, alg, 8, 256);
        let rep = analyze_residuals(&tls, CollectiveOp::Allreduce, alg, 256, &net(), None);
        assert!(rep
            .phases
            .iter()
            .any(|ph| ph.label.starts_with("hier-") && ph.predicted_ns.is_none()));
        assert!(rep.predicted_total_ns.is_none());
        // No closed-form row exists for the composition, but the schedule
        // IR still prices the plan that actually ran.
        assert!(rep.schedule_predicted_ns.is_some());
        // Render must not choke on unmodeled rows.
        assert!(render(&rep).contains("(unmodeled)"));
    }

    #[test]
    fn report_json_shape() {
        let tls = sim_timelines(
            CollectiveOp::Barrier,
            Algorithm::Dissemination { k: 2 },
            4,
            0,
        );
        let rep = analyze_residuals(
            &tls,
            CollectiveOp::Barrier,
            Algorithm::Dissemination { k: 2 },
            0,
            &net(),
            None,
        );
        let j = rep.to_json();
        let back = exacoll_json::parse(&j.pretty()).unwrap();
        let phases = back.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases.len(), rep.phases.len());
        assert!(back.get("measured_total_ns").unwrap().as_f64().unwrap() > 0.0);
    }
}
