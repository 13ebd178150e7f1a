//! Eqs. 1–14: analytical model predictions vs the simulator.
//!
//! The paper's evaluation summary (§VI-F): the models are fairly accurate
//! for k-nomial (software features dominate) but are contradicted for
//! recursive multiplying and k-ring, where hardware (ports, intranode
//! links) dominates. This harness prints both predictions side by side so
//! that agreement and divergence are visible.

use exacoll_core::{Algorithm, CollectiveOp};
use exacoll_models::{knomial, kring, recursive, ring, NetParams};
use exacoll_sim::cost::latency;
use exacoll_sim::report::fmt_size;
use exacoll_sim::{Machine, Table};

/// Model-vs-simulated latency for the three kernels.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 16 } else { 64 };
    let m = Machine::frontier(nodes, 1);
    let p = m.ranks();
    let net = NetParams::frontier_like();

    let mut kn = Table::new(
        format!("Model vs simulator: k-nomial reduce, {} (us)", m.name),
        &["size", "k", "model (Eq.3)", "simulated", "ratio"],
    );
    for &n in &[8usize, 1024, 1 << 20] {
        for &k in &[2usize, 4, 16] {
            let model = knomial::reduce(&net, n, p, k) / 1e3;
            let sim = latency(&m, CollectiveOp::Reduce, Algorithm::KnomialTree { k }, n)
                .unwrap()
                .as_micros();
            kn.row(vec![
                fmt_size(n),
                k.to_string(),
                format!("{model:.1}"),
                format!("{sim:.1}"),
                format!("{:.2}", sim / model),
            ]);
        }
    }

    let mut rm = Table::new(
        format!(
            "Model vs simulator: recursive-multiplying allreduce, {} (us)",
            m.name
        ),
        &[
            "size",
            "k",
            "model (Eq.6)",
            "simulated",
            "model-optimal?",
            "hw-optimal?",
        ],
    );
    let model_best = exacoll_models::optimal_k(16, |k| recursive::allreduce(&net, 8, p, k));
    for &k in &[2usize, 4, 8, 16] {
        let model = recursive::allreduce(&net, 8, p, k) / 1e3;
        let sim = latency(
            &m,
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k },
            8,
        )
        .unwrap()
        .as_micros();
        rm.row(vec![
            "8B".into(),
            k.to_string(),
            format!("{model:.1}"),
            format!("{sim:.1}"),
            (k == model_best).to_string(),
            (k == 4).to_string(),
        ]);
    }

    let mut kr = Table::new(
        "Model: k-ring round structure (Eq. 11-14)",
        &[
            "p",
            "k",
            "intra rounds",
            "inter rounds",
            "inter-group data vs ring",
        ],
    );
    for (pp, k) in [(1024usize, 8usize), (1024, 16), (512, 4)] {
        kr.row(vec![
            pp.to_string(),
            k.to_string(),
            kring::intra_rounds(pp, k).to_string(),
            kring::inter_rounds(pp, k).to_string(),
            format!(
                "{:.3}",
                kring::inter_group_data(1 << 20, pp, k) / kring::ring_inter_group_data(1 << 20, pp)
            ),
        ]);
    }

    let mut rg = Table::new(
        format!("Model vs simulator: ring allgather, {} (us)", m.name),
        &["size", "model (Eq.8)", "simulated", "ratio"],
    );
    for &n in &[1024usize, 65536, 1 << 20] {
        let model = ring::allgather(&net, n * p, p) / 1e3;
        let sim = latency(&m, CollectiveOp::Allgather, Algorithm::Ring, n)
            .unwrap()
            .as_micros();
        rg.row(vec![
            fmt_size(n),
            format!("{model:.1}"),
            format!("{sim:.1}"),
            format!("{:.2}", sim / model),
        ]);
    }

    vec![kn, rm, kr, rg]
}
