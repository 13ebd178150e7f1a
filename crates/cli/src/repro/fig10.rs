//! Fig. 10: large-scale (1024-node) Frontier results for the most promising
//! configurations from the 128-node study.
//!
//! * (a) k-nomial `MPI_Reduce`: latency vs size for k ∈ {2, 32, 128, 1024}
//!   plus the vendor line. The paper's finding: large radixes win for small
//!   messages but k = p (1024) is *always worse* than k = 128 — the radix
//!   has an upper bound at scale.
//! * (b) recursive-multiplying `MPI_Allgather` and (c) `MPI_Allreduce`:
//!   k ∈ {2, 4, 8} plus vendor; k = 4/8 hold their advantage until large
//!   sizes.

use exacoll_core::{Algorithm, CollectiveOp};
use exacoll_select::vendor;
use exacoll_sim::cost::latency;
use exacoll_sim::report::fmt_size;
use exacoll_sim::{Machine, Table};

/// Latency-vs-size lines for a set of radixes plus the vendor baseline.
fn lines_panel(
    title: &str,
    machine: &Machine,
    op: CollectiveOp,
    alg_of_k: impl Fn(usize) -> Algorithm,
    ks: &[usize],
    sizes: &[usize],
) -> Table {
    let p = machine.ranks();
    let mut header: Vec<String> = vec!["size".into()];
    header.extend(ks.iter().map(|k| format!("k={k}")));
    header.push("vendor".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    for &n in sizes {
        let mut cells = vec![fmt_size(n)];
        for &k in ks {
            let alg = alg_of_k(k);
            if alg.supports(op, p).is_err() {
                cells.push("-".into());
                continue;
            }
            let lat = latency(machine, op, alg, n).expect("simulates");
            cells.push(format!("{:.1}", lat.as_micros()));
        }
        let lat = latency(machine, op, vendor(op, n, p), n).expect("vendor simulates");
        cells.push(format!("{:.1}", lat.as_micros()));
        t.row(cells);
    }
    t
}

/// All three panels.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 64 } else { 1024 };
    let m = Machine::frontier(nodes, 1);
    let p = m.ranks();
    let sizes: Vec<usize> = (3..=20).step_by(2).map(|e| 1usize << e).collect();
    let knomial_ks: Vec<usize> = [2usize, 32, 128, 1024]
        .into_iter()
        .filter(|&k| k <= p)
        .collect();
    let recmult_ks = [2usize, 4, 8];
    vec![
        lines_panel(
            &format!(
                "Fig 10(a)  k-nomial MPI_Reduce latency (us), {nodes} nodes x 1 PPN, Frontier"
            ),
            &m,
            CollectiveOp::Reduce,
            |k| Algorithm::KnomialTree { k },
            &knomial_ks,
            &sizes,
        ),
        lines_panel(
            &format!(
                "Fig 10(b)  recursive-multiplying MPI_Allgather latency (us), {nodes} nodes x 1 PPN"
            ),
            &m,
            CollectiveOp::Allgather,
            |k| Algorithm::RecursiveMultiplying { k },
            &recmult_ks,
            &sizes,
        ),
        lines_panel(
            &format!(
                "Fig 10(c)  recursive-multiplying MPI_Allreduce latency (us), {nodes} nodes x 1 PPN"
            ),
            &m,
            CollectiveOp::Allreduce,
            |k| Algorithm::RecursiveMultiplying { k },
            &recmult_ks,
            &sizes,
        ),
    ]
}
