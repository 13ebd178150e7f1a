//! Integration tests for the beyond-the-paper extensions: hierarchical
//! allreduce, the k-dissemination barrier, and application workloads under
//! a seeded selection table.

use exacoll::collectives::{Algorithm, CollectiveOp};
use exacoll::select::{Policy, SelectionService, Workload};
use exacoll::sim::cost::{latency, traces};
use exacoll::sim::{simulate, Machine};

#[test]
fn hierarchical_allreduce_beats_flat_doubling_on_smp_nodes() {
    // 16 nodes x 8 ranks: the hierarchy keeps 7/8 of the participants off
    // the network entirely, so for small messages it must beat flat
    // recursive doubling (which pays log2(128) rounds, four of them
    // internode).
    let m = Machine::frontier(16, 8);
    let n = 64;
    let hier = latency(
        &m,
        CollectiveOp::Allreduce,
        Algorithm::Hierarchical { ppn: 8, k: 4 },
        n,
    )
    .unwrap();
    let flat = latency(
        &m,
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 2 },
        n,
    )
    .unwrap();
    assert!(
        hier < flat,
        "hierarchical {hier} should beat flat recursive doubling {flat}"
    );
}

#[test]
fn hierarchical_traffic_stays_mostly_intranode() {
    let m = Machine::frontier(4, 8);
    let traces = traces(
        m.ranks(),
        CollectiveOp::Allreduce,
        Algorithm::Hierarchical { ppn: 8, k: 4 },
        1024,
        0,
    )
    .unwrap();
    let out = simulate(&m, &traces).unwrap();
    // Phases 1 and 3 are intranode (7 messages each per node x 2), phase 2
    // is internode among 4 leaders.
    assert!(out.stats.intra_messages > out.stats.inter_messages);
    assert!(out.stats.inter_messages > 0);
}

#[test]
fn barrier_latency_shrinks_with_radix_until_port_limits() {
    let m = Machine::frontier(64, 1);
    let t2 = latency(
        &m,
        CollectiveOp::Barrier,
        Algorithm::Dissemination { k: 2 },
        0,
    )
    .unwrap();
    let t4 = latency(
        &m,
        CollectiveOp::Barrier,
        Algorithm::Dissemination { k: 4 },
        0,
    )
    .unwrap();
    let t8 = latency(
        &m,
        CollectiveOp::Barrier,
        Algorithm::Dissemination { k: 8 },
        0,
    )
    .unwrap();
    // ceil(log_k 64): 6 -> 3 -> 2 rounds. Fewer rounds means less alpha,
    // but each round posts k-1 sends, so k=8's two rounds land close to
    // k=4's three — the same per-message-cost ceiling the paper finds for
    // recursive multiplying.
    assert!(t4 < t2, "k=4 ({t4}) should beat k=2 ({t2})");
    assert!(t8 < t2, "k=8 ({t8}) should beat k=2 ({t2})");
    assert!(t8 < t4 * 1.2, "k=8 ({t8}) should stay near k=4 ({t4})");
}

#[test]
fn barrier_makespan_covers_the_latest_entrant() {
    // A barrier's makespan must not be shorter than a single network
    // latency even when most ranks enter instantly.
    let m = Machine::frontier(16, 1);
    let t = latency(
        &m,
        CollectiveOp::Barrier,
        Algorithm::Dissemination { k: 16 },
        0,
    )
    .unwrap();
    assert!(t.as_nanos() >= m.inter.alpha_ns);
}

#[test]
fn tuned_selector_improves_application_workloads() {
    let m = Machine::frontier(8, 1);
    let workloads = [
        Workload::cg_like(),
        Workload::training_like(),
        Workload::proxy_like(),
    ];
    // Seed the table at the sizes the applications issue, so no step falls
    // back to the default through an empty bucket.
    let mut sizes: Vec<usize> = workloads
        .iter()
        .flat_map(|w| w.steps.iter().map(|s| s.bytes))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    let sel = SelectionService::new(Policy::default());
    sel.seed_priors(&m, &CollectiveOp::EVALUATED, &sizes, 8)
        .unwrap();
    sel.publish();
    for w in workloads {
        let tuned = w
            .time_with(&m, |op, n| sel.lookup(op, m.ranks(), n).expect("seeded"))
            .unwrap();
        let default = w.time_defaults(&m).unwrap();
        assert!(
            tuned <= default,
            "{}: tuned {tuned} worse than defaults {default}",
            w.name
        );
    }
}

#[test]
fn breakdown_shows_ring_is_blocked_dominated() {
    // The ring's rendezvous coupling shows up as blocked time, not posting
    // or compute — the observability the RankBreakdown instrumentation adds.
    let m = Machine::frontier(8, 8);
    let traces = traces(m.ranks(), CollectiveOp::Bcast, Algorithm::Ring, 4 << 20, 0).unwrap();
    let out = simulate(&m, &traces).unwrap();
    let worst = out
        .breakdown
        .iter()
        .filter_map(|b| b.blocked_fraction())
        .fold(0.0f64, f64::max);
    assert!(worst > 0.5, "ring should be blocked-dominated, got {worst}");
}

#[test]
fn aurora_recmult_optimum_is_eight_ports() {
    // The projected Aurora preset has 8 NICs: the recursive-multiplying
    // optimum should track them, extending the ports finding to a third
    // machine.
    let m = Machine::aurora(32, 1);
    let best = [2usize, 4, 8, 16]
        .into_iter()
        .min_by_key(|&k| {
            latency(
                &m,
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k },
                64 * 1024,
            )
            .unwrap()
        })
        .unwrap();
    assert_eq!(best, 8, "Aurora's 8 ports should pin the optimum at k=8");
}
