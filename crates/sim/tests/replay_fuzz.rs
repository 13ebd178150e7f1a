//! Fuzzing the replay engine with randomly generated *valid* schedules:
//! arbitrary matched send/receive patterns with arbitrary wait placement
//! must always replay to completion, deterministically, with exact traffic
//! accounting — independent of the collective algorithms.

use exacoll_comm::{RankTrace, TraceOp};
use exacoll_sim::{simulate, Machine};
use proptest::prelude::*;

/// A random communication script: a list of (sender, receiver, tag, bytes)
/// messages. Every rank posts its sends/recvs in script order (which keeps
/// per-pair tag order consistent on both sides) and waits everything at a
/// random cut point plus at the end.
#[derive(Debug, Clone)]
struct Script {
    p: usize,
    msgs: Vec<(usize, usize, u32, usize)>,
    /// Fraction of each rank's requests waited at the mid-point.
    cut: f64,
}

fn arb_script() -> impl Strategy<Value = Script> {
    (2usize..10)
        .prop_flat_map(|p| {
            let msg = (0..p, 0..p, 0u32..4, 0usize..4096)
                .prop_filter_map("no self messages", |(a, b, tag, bytes)| {
                    (a != b).then_some((a, b, tag, bytes))
                });
            (Just(p), proptest::collection::vec(msg, 1..40), 0.0f64..1.0)
        })
        .prop_map(|(p, msgs, cut)| Script { p, msgs, cut })
}

/// Every rank's ops for the script: its sends and receives in script
/// order, one wait over the first `cut` fraction of them and one over the
/// rest.
fn record(script: &Script) -> Vec<RankTrace> {
    (0..script.p)
        .map(|me| {
            let posts: Vec<TraceOp> = (script.msgs.iter())
                .filter_map(|&(src, dst, tag, bytes)| {
                    let bytes = bytes as u64;
                    if src == me {
                        Some(TraceOp::Send {
                            to: dst,
                            tag,
                            bytes,
                        })
                    } else {
                        (dst == me).then_some(TraceOp::Recv {
                            from: src,
                            tag,
                            bytes,
                        })
                    }
                })
                .collect();
            let cut = ((posts.len() as f64) * script.cut) as usize;
            let mut ops = Vec::new();
            for batch in [&posts[..cut], &posts[cut..]] {
                if !batch.is_empty() {
                    let first = ops.len() as u32;
                    ops.extend_from_slice(batch);
                    let reqs = (first..first + batch.len() as u32).collect();
                    ops.push(TraceOp::WaitAll { reqs });
                }
            }
            RankTrace {
                rank: me,
                size: script.p,
                ops,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_valid_schedules_always_complete(script in arb_script()) {
        let traces = record(&script);
        exacoll_comm::trace::check_conservation(&traces).expect("script is matched");
        for machine in [
            Machine::frontier(script.p, 1),
            Machine::frontier(1, script.p),
            Machine::testbed(script.p, 1, 1),
        ] {
            let out = simulate(&machine, &traces)
                .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            // Exact traffic accounting.
            let sent: u64 = script.msgs.iter().map(|(_, _, _, b)| *b as u64).sum();
            prop_assert_eq!(out.stats.total_bytes(), sent);
            prop_assert_eq!(out.stats.total_messages() as usize, script.msgs.len());
            // Determinism.
            let again = simulate(&machine, &traces).unwrap();
            prop_assert_eq!(out.makespan, again.makespan);
            prop_assert!(out.makespan.is_valid());
        }
    }

    #[test]
    fn placement_on_fewer_nodes_is_never_slower_than_one_port_total(script in arb_script()) {
        // Sanity cross-machine relation: a machine with everything intranode
        // (1 node) can only be faster than a 1-port-per-node spread when the
        // fabric is strictly faster per message, as in the frontier preset.
        let traces = record(&script);
        let spread = {
            let mut m = Machine::frontier(script.p, 1);
            m.ports_per_node = 1;
            m
        };
        let packed = Machine::frontier(1, script.p);
        let t_spread = simulate(&spread, &traces).unwrap().makespan;
        let t_packed = simulate(&packed, &traces).unwrap().makespan;
        prop_assert!(
            t_packed <= t_spread,
            "packed {t_packed} slower than spread {t_spread}"
        );
    }
}
