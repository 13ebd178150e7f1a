//! Tune a simulated machine and emit the §VI-G selection configuration.
//!
//! "Just by changing one environment variable to point to our new
//! configuration, MPICH users can automatically and transparently leverage
//! the speedups we uncover in this work."
//!
//! The configuration is an `exacoll-select/v1` table: the file `exacoll
//! select seed` writes and `launch|profile --select auto --table FILE` read.
//!
//! ```text
//! cargo run --release --example autotune
//! ```

use exacoll::collectives::CollectiveOp;
use exacoll::select::{variant_latency, Policy, SelectionService};
use exacoll::sim::cost::latency;
use exacoll::sim::report::fmt_size;
use exacoll::sim::{Machine, Table};

fn main() {
    let machine = Machine::frontier(32, 1);
    let sizes: Vec<usize> = (3..=20).step_by(2).map(|e| 1usize << e).collect();
    println!(
        "pricing every candidate on {} at {} sizes ...",
        machine.name,
        sizes.len()
    );
    let table = SelectionService::new(Policy::default());
    let priced = table
        .seed_priors(&machine, &CollectiveOp::EVALUATED, &sizes, 16)
        .expect("every probed point prices");
    table.publish();

    let path = format!("/tmp/exacoll_selection_{}.json", machine.name);
    table.save(&path).expect("table written");
    println!("{priced} priors -> selection table written to {path}\n");

    let mut t = Table::new(
        "What the tuned selection picks (and buys vs MPICH defaults)",
        &["collective", "size", "selected", "speedup vs default"],
    );
    for op in CollectiveOp::EVALUATED {
        // Probed sizes only: an unseeded bucket answers the default.
        for &n in &[8usize, 32 * 1024, 512 * 1024] {
            let tuned = table.lookup(op, machine.ranks(), n).expect("seeded");
            let t_tuned = variant_latency(&machine, op, tuned, n).expect("runs");
            let base = latency(&machine, op, tuned.alg.base(), n).expect("runs");
            t.row(vec![
                op.to_string(),
                fmt_size(n),
                tuned.to_string(),
                format!("{:.2}x", base / t_tuned),
            ]);
        }
    }
    t.print();
}
