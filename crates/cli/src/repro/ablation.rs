//! Ablation study: turn each modeled hardware mechanism off (or sweep it)
//! and show which paper finding it is responsible for.
//!
//! | mechanism ablated            | finding it carries                       |
//! |------------------------------|------------------------------------------|
//! | NIC ports per node           | recursive-multiplying optimum = 4 (§VI-C)|
//! | message buffering depth      | k-nomial small-message optimum ≈ p (§III)|
//! | rendezvous round coupling    | k-ring large-message win (§V-C)          |
//! | intranode/internode α gap    | k-ring vs Polaris divergence (§VI-E)     |

use exacoll_core::{Algorithm, CollectiveOp};
use exacoll_sim::cost::latency;
use exacoll_sim::{Machine, Table};

/// Best radix of `alg_of_k` for `op` at size `n` on `machine`.
fn best_k(
    machine: &Machine,
    op: CollectiveOp,
    alg_of_k: impl Fn(usize) -> Algorithm,
    ks: &[usize],
    n: usize,
) -> usize {
    ks.iter()
        .copied()
        .filter(|&k| alg_of_k(k).supports(op, machine.ranks()).is_ok())
        .min_by_key(|&k| latency(machine, op, alg_of_k(k), n).expect("simulates"))
        .expect("at least one radix")
}

/// Ablation 1: the recursive-multiplying optimum tracks the port count.
pub fn ports_ablation(nodes: usize) -> Table {
    let mut t = Table::new(
        "Ablation: NIC ports per node vs optimal recursive-multiplying radix (64KB allreduce)",
        &["ports", "optimal k"],
    );
    let ks = [2usize, 3, 4, 5, 6, 8, 12, 16];
    for ports in [1usize, 2, 4, 8] {
        let mut m = Machine::frontier(nodes, 1);
        m.ports_per_node = ports;
        let k = best_k(
            &m,
            CollectiveOp::Allreduce,
            |k| Algorithm::RecursiveMultiplying { k },
            &ks,
            64 * 1024,
        );
        t.row(vec![ports.to_string(), k.to_string()]);
    }
    t
}

/// Ablation 2: restricting the message-buffer depth collapses the k-nomial
/// broadcast advantage — with depth 1 every one of the root's k-1 sends
/// must be delivered before the next can post, so overlap (the §II-B2
/// software feature) disappears.
pub fn buffering_ablation(nodes: usize) -> Table {
    let mut t = Table::new(
        "Ablation: send-buffer depth vs optimal k-nomial radix (8B bcast)",
        &[
            "buffer depth",
            "optimal k",
            "k=2 latency (us)",
            "best latency (us)",
        ],
    );
    let base = Machine::frontier(nodes, 1);
    let p = base.ranks();
    let ks: Vec<usize> = [2usize, 3, 4, 5, 8, 16, 32, 64]
        .into_iter()
        .filter(|&k| k <= p)
        .collect();
    for depth in [1usize, 2, 4, usize::MAX] {
        let mut m = base.clone();
        m.send_buffer_depth = depth;
        let k = best_k(
            &m,
            CollectiveOp::Bcast,
            |k| Algorithm::KnomialTree { k },
            &ks,
            8,
        );
        let t2 = latency(&m, CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }, 8).unwrap();
        let tb = latency(&m, CollectiveOp::Bcast, Algorithm::KnomialTree { k }, 8).unwrap();
        let label = if depth == usize::MAX {
            "unlimited".into()
        } else {
            depth.to_string()
        };
        t.row(vec![
            label,
            k.to_string(),
            format!("{:.2}", t2.as_micros()),
            format!("{:.2}", tb.as_micros()),
        ]);
    }
    t
}

/// Ablation 3: disabling rendezvous (pure eager) removes the k-ring win.
pub fn rendezvous_ablation(nodes: usize) -> Table {
    let mut t = Table::new(
        "Ablation: rendezvous protocol vs k-ring speedup over ring (16MB bcast, 8 PPN)",
        &["protocol", "ring (us)", "kring(8) (us)", "kring speedup"],
    );
    for (label, threshold) in [("rendezvous >= 4KB", 4096usize), ("eager only", usize::MAX)] {
        let mut m = Machine::frontier(nodes, 8);
        m.rendezvous_threshold = threshold;
        let ring = latency(&m, CollectiveOp::Bcast, Algorithm::Ring, 16 << 20).unwrap();
        let kring = latency(&m, CollectiveOp::Bcast, Algorithm::KRing { k: 8 }, 16 << 20).unwrap();
        t.row(vec![
            label.to_string(),
            format!("{:.0}", ring.as_micros()),
            format!("{:.0}", kring.as_micros()),
            format!("{:.2}x", ring / kring),
        ]);
    }
    t
}

/// Ablation 4: shrinking the intranode latency advantage flattens k-ring —
/// the Frontier → Polaris divergence in one knob.
pub fn fabric_gap_ablation(nodes: usize) -> Table {
    let mut t = Table::new(
        "Ablation: intranode alpha vs k-ring speedup over ring (16MB bcast, 8 PPN)",
        &["intranode alpha (ns)", "kring(8) speedup over ring"],
    );
    for alpha in [250.0f64, 500.0, 1000.0, 2000.0] {
        let mut m = Machine::frontier(nodes, 8);
        m.intra.alpha_ns = alpha;
        let ring = latency(&m, CollectiveOp::Bcast, Algorithm::Ring, 16 << 20).unwrap();
        let kring = latency(&m, CollectiveOp::Bcast, Algorithm::KRing { k: 8 }, 16 << 20).unwrap();
        t.row(vec![format!("{alpha:.0}"), format!("{:.2}x", ring / kring)]);
    }
    t
}

/// All ablations.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 8 } else { 32 };
    vec![
        ports_ablation(nodes),
        buffering_ablation(nodes * 2),
        rendezvous_ablation(nodes),
        fabric_gap_ablation(nodes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_what_powers_kring() {
        // With eager-only transport the kring/ring gap must shrink
        // substantially relative to the rendezvous configuration.
        let t = rendezvous_ablation(16);
        assert_eq!(t.len(), 2);
        let speedups: Vec<f64> = t
            .rows()
            .iter()
            .map(|r| r.last().unwrap().trim_end_matches('x').parse().unwrap())
            .collect();
        assert!(
            speedups[0] > speedups[1] + 0.1,
            "rendezvous {0} should beat eager {1} clearly",
            speedups[0],
            speedups[1]
        );
    }

    #[test]
    fn port_count_moves_the_recmult_optimum() {
        let t = ports_ablation(16);
        let ks: Vec<usize> = t
            .rows()
            .iter()
            .map(|r| r.last().unwrap().parse().unwrap())
            .collect();
        // More ports must never shrink the optimal radix.
        assert!(
            ks.windows(2).all(|w| w[0] <= w[1]),
            "optima {ks:?} not monotone"
        );
        assert!(ks[0] <= 3, "1-port optimum should be small, got {}", ks[0]);
    }
}
