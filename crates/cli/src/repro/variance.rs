//! §VI-H: run-to-run variance study.
//!
//! The paper reports that re-running experiments on Frontier changes the
//! optimal algorithm selections and parameter values, and argues this makes
//! its conclusions "guidelines or heuristics" best consumed by autotuners.
//! Here the seeded congestion-noise model makes that observation precise:
//! across noisy trials, how often does the noiseless winner stay optimal,
//! and how much is lost by sticking with it?

use exacoll_core::{Algorithm, CollectiveOp};
use exacoll_sim::cost::traces;
use exacoll_sim::report::fmt_size;
use exacoll_sim::{simulate, simulate_noisy, Machine, NoiseModel, SimTime, Table};

/// For one (op, size), compare radixes across noisy trials.
fn variance_rows(
    machine: &Machine,
    op: CollectiveOp,
    alg_of_k: impl Fn(usize) -> Algorithm,
    ks: &[usize],
    n: usize,
    trials: u64,
    table: &mut Table,
) {
    let p = machine.ranks();
    let ks: Vec<usize> = ks
        .iter()
        .copied()
        .filter(|&k| alg_of_k(k).supports(op, p).is_ok())
        .collect();
    let traces: Vec<_> = ks
        .iter()
        .map(|&k| traces(p, op, alg_of_k(k), n, 0).expect("lowers"))
        .collect();
    // Noiseless winner.
    let clean: Vec<SimTime> = traces
        .iter()
        .map(|t| simulate(machine, t).unwrap().makespan)
        .collect();
    let clean_best = (0..ks.len()).min_by_key(|&i| clean[i]).unwrap();
    // Noisy trials: per-trial winner and regret of the clean winner.
    let mut wins = vec![0usize; ks.len()];
    let mut total_regret = 0.0f64;
    for seed in 0..trials {
        let lats: Vec<SimTime> = traces
            .iter()
            .map(|t| {
                // Uniform jitter plus heavy-tail congestion hotspots (a 2%
                // chance any transfer takes 15x its latency) — the spikes
                // are what flip close selections between runs.
                let mut noise = NoiseModel::new(seed, 0.3, 0.3).with_spikes(0.02, 15.0);
                simulate_noisy(machine, t, &mut noise).unwrap().makespan
            })
            .collect();
        let best = (0..ks.len()).min_by_key(|&i| lats[i]).unwrap();
        wins[best] += 1;
        total_regret += lats[clean_best] / lats[best] - 1.0;
    }
    let stability = wins[clean_best] as f64 / trials as f64 * 100.0;
    table.row(vec![
        op.to_string(),
        fmt_size(n),
        format!("k={}", ks[clean_best]),
        format!("{stability:.0}%"),
        format!("{:.2}%", 100.0 * total_regret / trials as f64),
    ]);
}

/// The variance study table.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 8 } else { 32 };
    let trials = if quick { 5 } else { 15 };
    let m = Machine::frontier(nodes, 1);
    let mut t = Table::new(
        format!(
            "Variance study (SVI-H): 30% jitter + 2% hotspot spikes, {trials} trials, {}",
            m.name
        ),
        &[
            "collective",
            "size",
            "clean winner",
            "stays optimal",
            "avg regret",
        ],
    );
    let knomial: fn(usize) -> Algorithm = |k| Algorithm::KnomialTree { k };
    let recmult: fn(usize) -> Algorithm = |k| Algorithm::RecursiveMultiplying { k };
    for (op, alg_of_k, ks) in [
        (CollectiveOp::Reduce, knomial, &[2, 4, 8, 16, 32][..]),
        (CollectiveOp::Allreduce, recmult, &[2, 4, 8, 16][..]),
    ] {
        for n in [8, 64 * 1024] {
            variance_rows(&m, op, alg_of_k, ks, n, trials, &mut t);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variance_table_builds() {
        let tables = run(true);
        assert_eq!(tables[0].len(), 4);
        // Regret is a percentage >= 0 for every row.
        for row in tables[0].rows() {
            let regret: f64 = row.last().unwrap().trim_end_matches('%').parse().unwrap();
            assert!(regret >= 0.0);
        }
    }
}
