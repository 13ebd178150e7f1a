//! Frontier vs Polaris: how the same generalized algorithm behaves on two
//! different (pre-)exascale architectures — the paper's §VI-E comparison.
//!
//! The headline divergence: k-ring thrives on Frontier's two-tier fabric
//! (dedicated Infinity Fabric intranode links) but is flat on Polaris,
//! whose intranode MPI latency is close to the network's.
//!
//! ```text
//! cargo run --release --example machine_compare
//! ```

use exacoll::collectives::{Algorithm, CollectiveOp};
use exacoll::sim::cost::latency;
use exacoll::sim::{Machine, Table};

fn kring_panel(machine: &Machine, ks: &[usize]) -> Table {
    let n = 16 << 20; // 16 MB broadcast
    let mut t = Table::new(
        format!("16 MB MPI_Bcast k-ring sweep on {}", machine.name),
        &["k", "latency (us)", "vs ring"],
    );
    let ring = latency(machine, CollectiveOp::Bcast, Algorithm::Ring, n).expect("runs");
    for &k in ks {
        let alg = if k == 1 {
            Algorithm::Ring
        } else {
            Algorithm::KRing { k }
        };
        if alg.supports(CollectiveOp::Bcast, machine.ranks()).is_err() {
            continue;
        }
        let lat = latency(machine, CollectiveOp::Bcast, alg, n).expect("runs");
        t.row(vec![
            k.to_string(),
            format!("{:.0}", lat.as_micros()),
            format!("{:.2}x", ring / lat),
        ]);
    }
    t
}

fn main() {
    // 32 nodes each, one rank per GPU: 8 PPN on Frontier, 4 on Polaris.
    let frontier = Machine::frontier(32, 8);
    let polaris = Machine::polaris(32, 4);

    kring_panel(&frontier, &[1, 2, 4, 8, 16]).print();
    kring_panel(&polaris, &[1, 2, 4, 8]).print();

    // Recursive multiplying carries over: optimal radix tracks the port
    // count on every system (4 ports on Frontier, 2 on Polaris, 8 on a
    // projected Aurora).
    for (m, label) in [
        (Machine::frontier(32, 1), "4 ports"),
        (Machine::polaris(32, 1), "2 ports"),
        (Machine::aurora(32, 1), "8 ports"),
    ] {
        let mut t = Table::new(
            format!(
                "64 KB MPI_Allreduce recursive multiplying on {} ({label})",
                m.name
            ),
            &["k", "latency (us)"],
        );
        for k in [2usize, 4, 8, 16] {
            let lat = latency(
                &m,
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k },
                64 * 1024,
            )
            .expect("runs");
            t.row(vec![k.to_string(), format!("{:.1}", lat.as_micros())]);
        }
        t.print();
    }
}
