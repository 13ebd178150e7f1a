//! Fig. 7: message size vs slowdown of the generalized implementation at
//! its default radix versus the non-generalized base algorithm, 128 nodes
//! with 1 or 8 processes per node.
//!
//! The paper's point: "generalization does not result in slowdown" — the
//! `k = 2` k-nomial equals binomial, `k = 2` recursive multiplying equals
//! recursive doubling, and `k = 1` k-ring equals ring, so the generalized
//! code paths cost nothing when not tuned.

use exacoll_core::{Algorithm, CollectiveOp};
use exacoll_sim::cost::latency;
use exacoll_sim::report::fmt_size;
use exacoll_sim::{Machine, Table};

/// The (collective, generalized-at-default, base, label) tuples Fig. 7
/// compares.
fn pairs() -> Vec<(CollectiveOp, Algorithm, Algorithm, &'static str)> {
    vec![
        (
            CollectiveOp::Reduce,
            Algorithm::KnomialTree { k: 2 },
            Algorithm::KnomialTree { k: 2 },
            "knomial(2)/binomial reduce",
        ),
        (
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
            Algorithm::RecursiveMultiplying { k: 2 },
            "recmult(2)/recdoubling allreduce",
        ),
        (
            CollectiveOp::Bcast,
            Algorithm::KRing { k: 1 },
            Algorithm::Ring,
            "kring(1)/ring bcast",
        ),
        (
            CollectiveOp::Allgather,
            Algorithm::KRing { k: 1 },
            Algorithm::Ring,
            "kring(1)/ring allgather",
        ),
    ]
}

/// One slowdown table for a machine configuration.
pub fn panel(machine: &Machine, sizes: &[usize]) -> Table {
    let mut header: Vec<String> = vec!["kernel (general/base)".into()];
    header.extend(sizes.iter().map(|&n| fmt_size(n)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Fig 7  slowdown of generalized @ default radix vs base, {} (1.00 = no slowdown)",
            machine.name
        ),
        &header_refs,
    );
    for (op, general, base, label) in pairs() {
        if general.supports(op, machine.ranks()).is_err() {
            continue;
        }
        let mut cells = vec![label.to_string()];
        for &n in sizes {
            // OSU reports *per-rank* sizes for allgather; cap them so the
            // p·n result of 1024 ranks stays inside one compiled span
            // (4 GiB at 4 MB per rank).
            let n = if op == CollectiveOp::Allgather {
                n.min(64 * 1024)
            } else {
                n
            };
            let tg = latency(machine, op, general, n).expect("general simulates");
            let tb = latency(machine, op, base, n).expect("base simulates");
            cells.push(format!("{:.3}", tg / tb));
        }
        t.row(cells);
    }
    t
}

/// Both PPN configurations of Fig. 7.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 8 } else { 128 };
    let sizes = [8usize, 1024, 65536, 1 << 20, 4 << 20];
    vec![
        panel(&Machine::frontier(nodes, 1), &sizes),
        panel(&Machine::frontier(nodes, 8), &sizes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generalized_defaults_never_slow_down() {
        // The quantitative claim of Fig. 7, checked on a small machine.
        let m = Machine::frontier(8, 2);
        for (op, general, base, label) in pairs() {
            for n in [64usize, 65536] {
                let tg = latency(&m, op, general, n).unwrap();
                let tb = latency(&m, op, base, n).unwrap();
                let slowdown = tg / tb;
                assert!(
                    (slowdown - 1.0).abs() < 1e-9,
                    "{label} n={n}: slowdown {slowdown}"
                );
            }
        }
    }
}
