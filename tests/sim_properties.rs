//! Property-based integration tests over the simulator and schedules.

use exacoll::collectives::{registry::candidates, Algorithm, CollectiveOp};
use exacoll::sim::cost::{latency, traces};
use exacoll::sim::{simulate, Machine, NoiseModel};
use proptest::prelude::*;

/// Strategy: a supported (op, alg, p) triple on small communicators.
fn arb_config() -> impl Strategy<Value = (CollectiveOp, Algorithm, usize)> {
    (2usize..14, 0usize..CollectiveOp::ALL.len()).prop_flat_map(|(p, op_idx)| {
        let op = CollectiveOp::ALL[op_idx];
        let cands = candidates(op, p, 5);
        (0..cands.len()).prop_map(move |i| (op, cands[i], p))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Simulated latency is monotone (non-decreasing) in message size.
    #[test]
    fn latency_monotone_in_size((op, alg, p) in arb_config()) {
        let m = Machine::frontier(p, 1);
        let t1 = latency(&m, op, alg, 64).unwrap();
        let t2 = latency(&m, op, alg, 8192).unwrap();
        let t3 = latency(&m, op, alg, 262_144).unwrap();
        prop_assert!(t1 <= t2, "{op} {alg} p={p}: {t1} > {t2}");
        prop_assert!(t2 <= t3, "{op} {alg} p={p}: {t2} > {t3}");
    }

    /// The simulator is a pure function of (machine, trace).
    #[test]
    fn replay_is_deterministic((op, alg, p) in arb_config()) {
        let m = Machine::frontier(p, 1);
        let traces = traces(p, op, alg, 1024, 0).unwrap();
        let a = simulate(&m, &traces).unwrap();
        let b = simulate(&m, &traces).unwrap();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.finish, b.finish);
    }

    /// Congestion noise can only slow things down, and identical seeds give
    /// identical noisy results.
    #[test]
    fn noise_monotone_and_reproducible((op, alg, p) in arb_config()) {
        let m = Machine::frontier(p, 1);
        let traces = traces(p, op, alg, 65_536, 0).unwrap();
        let base = simulate(&m, &traces).unwrap().makespan;
        let mut n1 = NoiseModel::new(7, 0.15, 0.15);
        let mut n2 = NoiseModel::new(7, 0.15, 0.15);
        let t1 = exacoll::sim::replay::simulate_noisy(&m, &traces, &mut n1).unwrap().makespan;
        let t2 = exacoll::sim::replay::simulate_noisy(&m, &traces, &mut n2).unwrap().makespan;
        prop_assert!(t1 >= base);
        prop_assert_eq!(t1, t2);
    }

    /// More NIC ports never hurt.
    #[test]
    fn more_ports_never_slower((op, alg, p) in arb_config(), n in 64usize..65_536) {
        let mut narrow = Machine::frontier(p, 1);
        narrow.ports_per_node = 1;
        let wide = Machine::frontier(p, 1); // 4 ports
        let t_narrow = latency(&narrow, op, alg, n).unwrap();
        let t_wide = latency(&wide, op, alg, n).unwrap();
        prop_assert!(t_wide <= t_narrow, "{op} {alg} p={p} n={n}: wide {t_wide} > narrow {t_narrow}");
    }

    /// A faster intranode fabric never hurts on multi-PPN machines.
    #[test]
    fn faster_fabric_never_slower(ppn_pow in 1u32..4, n in 512usize..32_768) {
        let ppn = 1usize << ppn_pow;
        let nodes = 4;
        let fast = Machine::frontier(nodes, ppn);
        let mut slow = fast.clone();
        slow.intra.alpha_ns *= 4.0;
        slow.intra.beta_ns_per_byte *= 4.0;
        let p = fast.ranks();
        for alg in [Algorithm::Ring, Algorithm::KRing { k: ppn }] {
            if alg.supports(CollectiveOp::Allgather, p).is_err() { continue; }
            let t_fast = latency(&fast, CollectiveOp::Allgather, alg, n).unwrap();
            let t_slow = latency(&slow, CollectiveOp::Allgather, alg, n).unwrap();
            prop_assert!(t_fast <= t_slow, "{alg}: {t_fast} > {t_slow}");
        }
    }

    /// The k-ring with k = 1 produces exactly the ring's timing.
    #[test]
    fn kring1_equals_ring(p in 2usize..12, n in 64usize..16_384) {
        let m = Machine::frontier(p, 1);
        for op in [CollectiveOp::Allgather, CollectiveOp::Bcast, CollectiveOp::Allreduce] {
            let t_ring = latency(&m, op, Algorithm::Ring, n).unwrap();
            let t_k1 = latency(&m, op, Algorithm::KRing { k: 1 }, n).unwrap();
            prop_assert!((t_ring.as_nanos() - t_k1.as_nanos()).abs() < 1e-6,
                "{op} p={p} n={n}: ring {t_ring} vs kring(1) {t_k1}");
        }
    }

    /// Message-buffer depth: unlimited buffering is never slower than a
    /// depth-1 buffer (Fig. 2's overlap argument).
    #[test]
    fn buffering_never_hurts((op, alg, p) in arb_config()) {
        let unlimited = Machine::frontier(p, 1);
        let mut depth1 = unlimited.clone();
        depth1.send_buffer_depth = 1;
        let t_unl = latency(&unlimited, op, alg, 4096).unwrap();
        let t_1 = latency(&depth1, op, alg, 4096).unwrap();
        prop_assert!(t_unl <= t_1, "{op} {alg} p={p}: {t_unl} > {t_1}");
    }
}

#[test]
fn port_cap_limits_knomial_overlap() {
    // §III-D: "it is possible that the physical number of network ports
    // caps the number of overlapping communications per endpoint, lowering
    // the optimal k." Restricting ports must hurt large radixes more than
    // binomial for bandwidth-relevant sizes.
    let p = 32;
    let mut one_port = Machine::frontier(p, 1);
    one_port.ports_per_node = 1;
    let four_ports = Machine::frontier(p, 1);
    let n = 1 << 20;
    let penalty = |m: &Machine, k: usize| {
        latency(m, CollectiveOp::Reduce, Algorithm::KnomialTree { k }, n)
            .unwrap()
            .as_nanos()
    };
    let slowdown_k2 = penalty(&one_port, 2) / penalty(&four_ports, 2);
    let slowdown_k16 = penalty(&one_port, 16) / penalty(&four_ports, 16);
    assert!(
        slowdown_k16 > slowdown_k2,
        "port cap should hurt k=16 ({slowdown_k16:.2}x) more than k=2 ({slowdown_k2:.2}x)"
    );
}
