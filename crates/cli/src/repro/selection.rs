//! §VI-G: generate the machine's selection table by pricing every candidate
//! at every probed size, print it, and quantify what the tuned selection
//! buys over the vendor baseline.

use exacoll_core::CollectiveOp;
use exacoll_select::policy::winner;
use exacoll_select::{bucket_range, variant_latency, vendor, Policy, SelectionService};
use exacoll_sim::cost::latency;
use exacoll_sim::report::fmt_size;
use exacoll_sim::{Machine, Table};

/// Sizes the gains table reports on. Each must be seeded: an empty bucket
/// would answer the MPICH default and report that as "tuned".
const GAIN_SIZES: [usize; 3] = [8, 32 * 1024, 1 << 20];

/// Seed a machine's table and report it + its speedups.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 8 } else { 32 };
    let m = Machine::frontier(nodes, 1);
    let p = m.ranks();
    // The OSU ladder in x4 steps (8 B .. 512 KB) passes through the first
    // two gains sizes; 1 MB is the one it stops short of.
    let mut sizes: Vec<usize> = (3..=20).step_by(2).map(|e| 1usize << e).collect();
    sizes.push(1 << 20);
    let svc = SelectionService::new(Policy::default());
    svc.seed_priors(&m, &CollectiveOp::EVALUATED, &sizes, 16.min(p))
        .expect("every candidate prices at every probed size");
    svc.publish();

    let mut rules = Table::new(
        format!("Selection table (seeded priors), {}", m.name),
        &["collective", "size bucket", "algorithm"],
    );
    let policy = svc.policy();
    svc.for_each_bucket(|op, _, bucket, cells| {
        let winner = winner(cells, &policy).expect("seeded buckets have priors");
        rules.row(vec![
            op.to_string(),
            bucket_range(bucket),
            winner.to_string(),
        ]);
    });

    let mut gains = Table::new(
        "Tuned selection vs vendor baseline",
        &["collective", "size", "tuned alg", "speedup vs vendor"],
    );
    for op in CollectiveOp::EVALUATED {
        for &n in &GAIN_SIZES {
            let tuned = svc.lookup(op, p, n).expect("gains sizes are seeded");
            let t_tuned = variant_latency(&m, op, tuned, n).expect("tuned simulates");
            let t_vendor = latency(&m, op, vendor(op, n, p), n).expect("vendor simulates");
            gains.row(vec![
                op.to_string(),
                fmt_size(n),
                tuned.to_string(),
                format!("{:.2}x", t_vendor / t_tuned),
            ]);
        }
    }
    vec![rules, gains]
}
