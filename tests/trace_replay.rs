//! Structural integration tests: every algorithm's op stream is
//! conservative (every send matched by a receive) and replays to completion
//! on the simulator — across machines, PPNs, and port assignments.

use exacoll::collectives::{registry::candidates, Algorithm, CollectiveOp};
use exacoll::comm::trace::check_conservation;
use exacoll::sim::cost::{measure, traces};
use exacoll::sim::{simulate, Machine};

#[test]
fn all_schedules_conserve_messages() {
    for p in [2usize, 6, 8, 13] {
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                let traces = traces(p, op, alg, 256, 0).unwrap();
                check_conservation(&traces).unwrap_or_else(|e| panic!("{op} {alg} p={p}: {e}"));
            }
        }
    }
}

#[test]
fn all_schedules_replay_without_deadlock_all_machines() {
    let machines = [
        Machine::frontier(8, 1),
        Machine::frontier(2, 4),
        Machine::frontier(1, 8),
        Machine::polaris(4, 2),
        Machine::testbed(8, 1, 2),
    ];
    for m in &machines {
        let p = m.ranks();
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                let out = measure(m, op, alg, 2048, 0);
                let out = out.unwrap_or_else(|e| panic!("{} {op} {alg}: {e}", m.name));
                assert!(out.makespan.as_nanos() > 0.0);
                assert!(out.finish.iter().all(|t| t.is_valid()));
            }
        }
    }
}

#[test]
fn traffic_statistics_match_schedule_totals() {
    let m = Machine::frontier(4, 2); // p = 8
    let n = 4096usize;
    let traces = traces(8, CollectiveOp::Allgather, Algorithm::Ring, n, 0).unwrap();
    let total_sent: u64 = traces.iter().map(|t| t.bytes_sent()).sum();
    let out = simulate(&m, &traces).unwrap();
    assert_eq!(out.stats.total_bytes(), total_sent);
    // Ring allgather moves (p-1) blocks of n bytes per rank.
    assert_eq!(total_sent, (8 * 7 * n) as u64);
    // With 2 ranks per node, 2 of every 8 ring hops stay intranode...
    // ranks 0-1, 2-3, ... are co-located; hops 0->1, 2->3, 4->5, 6->7 are
    // intranode: exactly half the hops.
    assert_eq!(out.stats.intra_bytes, out.stats.inter_bytes);
}

#[test]
fn kring_inter_group_traffic_matches_eq13() {
    // Eq. (13): with groups aligned to nodes, internode bytes per group are
    // 2n(p-k)/p; the simulator's counters must agree exactly.
    let nodes = 4;
    let ppn = 4;
    let m = Machine::frontier(nodes, ppn);
    let p = m.ranks();
    let k = ppn;
    let block = 1024usize;
    let n = block * p; // total allgather payload
    let traces = traces(p, CollectiveOp::Allgather, Algorithm::KRing { k }, block, 0).unwrap();
    let out = simulate(&m, &traces).unwrap();
    let per_group_model = exacoll::models::kring::inter_group_data(n, p, k);
    let groups = (p / k) as f64;
    // Every inter-group byte is sent once and received once; the counter
    // counts each message once, so total internode bytes = groups * D / 2.
    assert_eq!(
        out.stats.inter_bytes as f64,
        groups * per_group_model / 2.0,
        "internode traffic disagrees with Eq. 13"
    );
}

#[test]
fn one_ppn_has_no_intranode_traffic() {
    let m = Machine::frontier(8, 1);
    let out = measure(
        &m,
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 4 },
        4096,
        0,
    )
    .unwrap();
    assert_eq!(out.stats.intra_messages, 0);
    assert!(out.stats.inter_messages > 0);
}

#[test]
fn single_node_has_no_internode_traffic() {
    let m = Machine::frontier(1, 8);
    let out = measure(
        &m,
        CollectiveOp::Allgather,
        Algorithm::KRing { k: 8 },
        4096,
        0,
    )
    .unwrap();
    assert_eq!(out.stats.inter_messages, 0);
    assert!(out.stats.intra_messages > 0);
}

#[test]
fn compute_bytes_accounted_for_reductions_only() {
    let m = Machine::frontier(8, 1);
    let red = measure(
        &m,
        CollectiveOp::Reduce,
        Algorithm::KnomialTree { k: 2 },
        1024,
        0,
    )
    .unwrap();
    assert!(red.stats.compute_bytes > 0);
    let bc = measure(
        &m,
        CollectiveOp::Bcast,
        Algorithm::KnomialTree { k: 2 },
        1024,
        0,
    )
    .unwrap();
    assert_eq!(bc.stats.compute_bytes, 0);
}
