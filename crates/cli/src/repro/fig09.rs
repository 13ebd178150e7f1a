//! Fig. 9: speedup of the best generalized algorithm per message size over
//! (a) the same kernel at its default radix and (b) the vendor baseline,
//! 128 nodes × 1 PPN on Frontier. Four panels: Reduce, Bcast, Allgather,
//! Allreduce.
//!
//! Expected shapes (§VI-C): Reduce starts >2× over the default and erodes
//! with size, with a >4.5× outlier over the vendor where it mis-switches;
//! Bcast sees small gains for <256 KB and up to ~2× for large messages;
//! Allgather sees 1.4–2.0× nearly everywhere; Allreduce 1.2–1.8× with the
//! gain tailing off at the largest sizes.

use exacoll_core::{Algorithm, CollectiveOp};
use exacoll_select::vendor;
use exacoll_sim::cost::latency;
use exacoll_sim::report::fmt_size;
use exacoll_sim::{Machine, SimTime, Table};

/// Generalized candidates for one collective (the paper tunes only its own
/// kernels here; fixed baselines are the comparison, not the candidate).
/// K-ring is only distinctive with multiple ranks per node; it stays in the
/// 1-PPN sweep to mirror the paper, which found it never optimal there.
fn generalized_candidates(op: CollectiveOp, p: usize) -> Vec<Algorithm> {
    let radixes = [2usize, 3, 4, 5, 8, 16, 32, 64, 128];
    let mut out = Vec::new();
    for &k in radixes.iter().filter(|&&k| k <= p) {
        for alg in [
            Algorithm::KnomialTree { k },
            Algorithm::RecursiveMultiplying { k },
            Algorithm::KRing { k },
        ] {
            if alg.supports(op, p).is_ok() {
                out.push(alg);
            }
        }
    }
    out
}

/// One Fig. 9 panel.
pub fn panel(machine: &Machine, op: CollectiveOp, sizes: &[usize]) -> Table {
    let p = machine.ranks();
    let mut t = Table::new(
        format!(
            "Fig 9  {} best-generalized speedup, {} (vs default radix | vs vendor)",
            op, machine.name
        ),
        &["size", "best alg", "latency(us)", "vs default", "vs vendor"],
    );
    for &n in sizes {
        let mut best: Option<(Algorithm, SimTime)> = None;
        for alg in generalized_candidates(op, p) {
            let lat = latency(machine, op, alg, n).expect("simulates");
            if best.is_none_or(|(_, b)| lat < b) {
                best = Some((alg, lat));
            }
        }
        let (alg, lat) = best.expect("candidates nonempty");
        let t_default = latency(machine, op, alg.base(), n).expect("default simulates");
        let vendor_alg = vendor(op, n, p);
        let t_vendor = latency(machine, op, vendor_alg, n).expect("vendor simulates");
        t.row(vec![
            fmt_size(n),
            alg.to_string(),
            format!("{:.1}", lat.as_micros()),
            format!("{:.2}x", t_default / lat),
            format!("{:.2}x", t_vendor / lat),
        ]);
    }
    t
}

/// All four panels.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 16 } else { 128 };
    let m = Machine::frontier(nodes, 1);
    // OSU ladder in x4 steps (OSU reports per-rank sizes: the 2 MB
    // allgather row gathers 256 MB).
    let sizes: Vec<usize> = (3..=22).step_by(2).map(|e| 1usize << e).collect();
    vec![
        panel(&m, CollectiveOp::Reduce, &sizes),
        panel(&m, CollectiveOp::Bcast, &sizes),
        panel(&m, CollectiveOp::Allgather, &sizes),
        panel(&m, CollectiveOp::Allreduce, &sizes),
    ]
}
