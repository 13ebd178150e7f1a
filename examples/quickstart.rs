//! Quickstart: time generalized collectives on a simulated Frontier
//! partition and see radix tuning pay off.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use exacoll::collectives::{Algorithm, CollectiveOp};
use exacoll::sim::cost::latency;
use exacoll::sim::{Machine, Table};

fn main() {
    // 128 Frontier nodes, one MPI rank per node (the MPI+X model).
    let machine = Machine::frontier(128, 1);
    println!(
        "machine: {} ({} ranks, {} NIC ports/node)\n",
        machine.name,
        machine.ranks(),
        machine.ports_per_node
    );

    let mut t = Table::new(
        "8-byte MPI_Reduce: binomial vs k-nomial radix sweep",
        &["algorithm", "latency (us)", "speedup vs binomial"],
    );
    let base = latency(
        &machine,
        CollectiveOp::Reduce,
        Algorithm::KnomialTree { k: 2 },
        8,
    )
    .expect("simulation runs");
    for k in [2usize, 4, 16, 64, 128] {
        let alg = Algorithm::KnomialTree { k };
        let lat = latency(&machine, CollectiveOp::Reduce, alg, 8).expect("simulation runs");
        t.row(vec![
            alg.to_string(),
            format!("{:.2}", lat.as_micros()),
            format!("{:.2}x", base / lat),
        ]);
    }
    t.print();

    let mut t = Table::new(
        "1 MB MPI_Allreduce: recursive doubling vs multiplying",
        &["algorithm", "latency (us)", "speedup vs k=2"],
    );
    let base = latency(
        &machine,
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 2 },
        1 << 20,
    )
    .expect("simulation runs");
    for k in [2usize, 4, 8] {
        let alg = Algorithm::RecursiveMultiplying { k };
        let lat = latency(&machine, CollectiveOp::Allreduce, alg, 1 << 20).expect("runs");
        t.row(vec![
            alg.to_string(),
            format!("{:.1}", lat.as_micros()),
            format!("{:.2}x", base / lat),
        ]);
    }
    t.print();

    println!("The optimal k-nomial radix for tiny messages sits near p; the");
    println!("optimal recursive-multiplying radix sits at the NIC port count (4).");
}
