//! Extension bench: radix-generalized Bruck alltoall (the §VII Fan et al.
//! direction, built with the same radix-knob philosophy as the paper's
//! kernels).
//!
//! Rows sweep the Bruck radix plus the pairwise and spread-out baselines;
//! columns are per-destination block sizes. Expected shape: classic Bruck
//! (r=2) owns tiny blocks, pairwise owns large blocks, and intermediate
//! radixes win in between — a latency/bandwidth dial, exactly like k.

use super::fig08::starred_panel;
use exacoll_core::{Algorithm, CollectiveOp};
use exacoll_sim::{Machine, Table};

/// The radix-sweep panel.
pub fn panel(machine: &Machine, sizes: &[usize]) -> Table {
    let mut algs: Vec<(String, Algorithm)> = vec![
        ("pairwise".into(), Algorithm::Pairwise),
        ("spread".into(), Algorithm::Linear),
    ];
    for r in [2usize, 3, 4, 8, 16] {
        if r <= machine.ranks() {
            algs.push((format!("gbruck({r})"), Algorithm::GeneralizedBruck { r }));
        }
    }
    let title = format!(
        "Extension: alltoall radix sweep, {} (us, * = best)",
        machine.name
    );
    let op = CollectiveOp::Alltoall;
    starred_panel(&title, "algorithm", machine, op, &algs, sizes)
}

/// Run the extension panel.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 16 } else { 64 };
    let m = Machine::frontier(nodes, 1);
    vec![panel(&m, &[8, 512, 8192, 65536])]
}
