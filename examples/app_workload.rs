//! What radix tuning buys a whole application.
//!
//! §II-A: collectives consume 25–50% of production application runtime.
//! This example times three application-style communication mixes on a
//! simulated Frontier partition under (a) MPICH-style fixed defaults and
//! (b) a selection table seeded at the sizes the applications issue, and
//! reports the end-to-end iteration speedup.
//!
//! ```text
//! cargo run --release --example app_workload
//! ```

use exacoll::collectives::CollectiveOp;
use exacoll::select::{Policy, SelectionService, Workload};
use exacoll::sim::{Machine, Table};

fn main() {
    let machine = Machine::frontier(32, 1);
    let workloads = [
        Workload::cg_like(),
        Workload::training_like(),
        Workload::proxy_like(),
    ];
    let mut sizes: Vec<usize> = workloads
        .iter()
        .flat_map(|w| w.steps.iter().map(|s| s.bytes))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    println!("seeding {} at {} sizes ...", machine.name, sizes.len());
    let table = SelectionService::new(Policy::default());
    table
        .seed_priors(&machine, &CollectiveOp::EVALUATED, &sizes, 16)
        .expect("every probed point prices");
    table.publish();

    let mut t = Table::new(
        "Per-iteration communication time: fixed defaults vs tuned selection",
        &["workload", "defaults (us)", "tuned (us)", "speedup"],
    );
    for w in workloads {
        let default = w.time_defaults(&machine).expect("runs");
        let tuned = w
            .time_with(&machine, |op, n| table.select(op, machine.ranks(), n))
            .expect("runs");
        t.row(vec![
            w.name.clone(),
            format!("{:.1}", default.as_micros()),
            format!("{:.1}", tuned.as_micros()),
            format!("{:.2}x", default / tuned),
        ]);
    }
    t.print();
    println!("With collectives at 25-50% of application runtime (SII-A), these");
    println!("communication speedups translate directly into application gains.");
}
