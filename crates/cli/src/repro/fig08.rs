//! Fig. 8: parameter value (k) vs latency, 128 nodes on Frontier.
//!
//! * (a) k-nomial `MPI_Reduce`, 1 PPN — message buffering dominates: the
//!   optimal k for tiny messages is large (near p) and shrinks with size.
//! * (b) recursive-multiplying `MPI_Allreduce`, 1 PPN — the NIC port count
//!   dominates: k at/near 4 wins for all sizes.
//! * (c) k-ring `MPI_Bcast`, 8 PPN — the intranode links dominate: k equal
//!   to the processes-per-node (8) wins for large messages.

use exacoll_core::{Algorithm, CollectiveOp};
use exacoll_sim::cost::latency;
use exacoll_sim::report::fmt_size;
use exacoll_sim::{Machine, SimTime, Table};

/// One "algorithm vs latency" panel: rows = the labelled algorithms,
/// columns = message sizes, the best of each column starred (the first of
/// equals keeps the star).
pub fn starred_panel(
    title: &str,
    label: &str,
    machine: &Machine,
    op: CollectiveOp,
    algs: &[(String, Algorithm)],
    sizes: &[usize],
) -> Table {
    let mut header = vec![label.to_string()];
    header.extend(sizes.iter().map(|&n| fmt_size(n)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    let price = |alg: Algorithm, n| latency(machine, op, alg, n).expect("simulates");
    let rows: Vec<Vec<SimTime>> = algs
        .iter()
        .map(|&(_, alg)| sizes.iter().map(|&n| price(alg, n)).collect())
        .collect();
    let best = |col: usize| (0..rows.len()).min_by_key(|&r| rows[r][col]);
    for (r, (name, _)) in algs.iter().enumerate() {
        let mut cells = vec![name.clone()];
        for (col, t) in rows[r].iter().enumerate() {
            let marker = if best(col) == Some(r) { "*" } else { "" };
            cells.push(format!("{:.1}{}", t.as_micros(), marker));
        }
        table.row(cells);
    }
    table
}

/// Build one "k vs latency" panel: rows = the radixes up to p that `op`
/// supports on this machine, columns = message sizes.
pub fn k_sweep_panel(
    title: &str,
    machine: &Machine,
    op: CollectiveOp,
    alg_of_k: impl Fn(usize) -> Algorithm,
    ks: &[usize],
    sizes: &[usize],
) -> Table {
    let p = machine.ranks();
    let algs: Vec<(String, Algorithm)> = ks
        .iter()
        .filter(|&&k| k <= p)
        .map(|&k| (k.to_string(), alg_of_k(k)))
        .filter(|(_, alg)| alg.supports(op, p).is_ok())
        .collect();
    starred_panel(title, "k", machine, op, &algs, sizes)
}

/// The three panels on one system: (a) k-nomial reduce and (b)
/// recursive-multiplying allreduce at 1 PPN, (c) k-ring bcast at `ring_ppn`
/// processes per node over the group sizes of `ring_ks` that divide p
/// (`k = 1` is the classic ring baseline). Fig. 11 repeats them on Polaris.
pub fn panels(
    fig: u32,
    system: &str,
    machine: fn(usize, usize) -> Machine,
    nodes: usize,
    (ring_ppn, ring_ks, ring_sizes): (usize, &[usize], &[usize]),
) -> Vec<Table> {
    let title = |panel: &str, what: &str, ppn: usize| {
        format!("Fig {fig}({panel})  {what}, {nodes} nodes x {ppn} PPN, {system} (us, * = best)")
    };
    let flat = machine(nodes, 1);
    let ring = machine(nodes, ring_ppn);
    let small = [8, 1024, 65536, 1 << 20];
    let ring_ks: Vec<usize> = ring_ks
        .iter()
        .copied()
        .filter(|&k| ring.ranks().is_multiple_of(k))
        .collect();
    vec![
        k_sweep_panel(
            &title("a", "k-nomial MPI_Reduce", 1),
            &flat,
            CollectiveOp::Reduce,
            |k| Algorithm::KnomialTree { k },
            &[2, 3, 4, 8, 16, 32, 64, 128],
            &small,
        ),
        k_sweep_panel(
            &title("b", "recursive-multiplying MPI_Allreduce", 1),
            &flat,
            CollectiveOp::Allreduce,
            |k| Algorithm::RecursiveMultiplying { k },
            &[2, 3, 4, 5, 6, 8, 12, 16, 32],
            &small,
        ),
        k_sweep_panel(
            &title("c", "k-ring MPI_Bcast", ring_ppn),
            &ring,
            CollectiveOp::Bcast,
            |k| match k {
                1 => Algorithm::Ring,
                k => Algorithm::KRing { k },
            },
            &ring_ks,
            ring_sizes,
        ),
    ]
}

/// All three panels.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 16 } else { 128 };
    let ring_sizes = [1 << 20, 4 << 20, 16 << 20, 64 << 20];
    let ring = (8, &[1, 2, 4, 8, 16, 32][..], &ring_sizes[..]);
    panels(8, "Frontier", Machine::frontier, nodes, ring)
}
