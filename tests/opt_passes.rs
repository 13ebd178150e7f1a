//! Integration tests for the schedule-IR optimizer: whatever the
//! configuration, optimizer-rewritten plans executed on the *real*
//! threaded runtime must produce byte-identical outputs to the sequential
//! reference — the property the whole pass framework stands on.

mod support;

use exacoll::collectives::reference::expected_outputs;
use exacoll::collectives::request::payload;
use exacoll::collectives::schedule::{compile, execute_compiled};
use exacoll::collectives::spec::OptSpec;
use exacoll::collectives::{Algorithm, CollArgs, CollectiveOp, Request};
use exacoll::comm::{run_ranks, Comm};
use exacoll::opt::apply_opt_spec;
use proptest::prelude::*;
use support::{arb_config, lower_all};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For a random configuration, pass selection, and thresholds, the
    /// rewritten plans run on ThreadComm byte-identical to the reference.
    #[test]
    fn optimized_plans_match_the_reference_on_threads(
        (op, alg, p) in arb_config(&[4, 6, 8, 9], 4),
        n in 8usize..96,
        chunk in 1usize..64,
        fuse in 1usize..256,
        which in 0usize..3,
    ) {
        let opt = [
            OptSpec::PIPELINE,
            OptSpec { pipeline: false, aggregate: true },
            OptSpec { pipeline: true, aggregate: true },
        ][which];
        let len = Request::uniform(CollArgs::new(op, alg), p, n).unwrap().bytes();
        let args = CollArgs::new(op, alg);
        let plans = lower_all(&args, p, len);
        let rewritten = apply_opt_spec(&plans, &opt, chunk, fuse).expect("passes run");
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(1, r, len)).collect();
        let expect = expected_outputs(op, args.root, args.dtype, args.rop, &inputs)
            .expect("reference computes");
        let out = run_ranks(p, |c| {
            execute_compiled(c, &compile(&rewritten[c.rank()]), &inputs[c.rank()])
        });
        for r in 0..p {
            prop_assert_eq!(
                &out[r], &expect[r],
                "{}/{} p={} n={} chunk={} fuse={} rank {}",
                op, alg, p, n, chunk, fuse, r
            );
        }
    }
}

/// The full three-pass pipeline through the `PassManager` gate on a
/// hierarchical machine: no pass is refused on a stock lowering, and the
/// final plan set still runs on the threaded runtime byte-identical to the
/// reference.
#[test]
fn full_pass_pipeline_survives_the_manager_gate_and_runs() {
    use exacoll::opt::{layout_for, PassKind, PassManager, TopoDesc};
    use exacoll::sim::Machine;

    let p = 8;
    let op = CollectiveOp::Allgather;
    let alg = Algorithm::RecursiveMultiplying { k: 2 };
    let len = 4096;
    let args = CollArgs::new(op, alg);
    let plans = lower_all(&args, p, len);
    let report = PassManager::new(Machine::frontier(2, 4))
        .with_pass(PassKind::Pipeline { chunk_bytes: 512 })
        .with_pass(PassKind::Aggregate {
            max_fuse_bytes: 4096,
        })
        .with_pass(PassKind::Remap {
            topo: TopoDesc { nodes: 2, ppn: 4 },
            layout: layout_for(op),
        })
        .run(&plans)
        .expect("manager runs");
    for o in &report.outcomes {
        assert!(o.refused.is_none(), "{} refused: {:?}", o.pass, o.refused);
    }
    let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(1, r, len)).collect();
    let expect =
        expected_outputs(op, args.root, args.dtype, args.rop, &inputs).expect("reference computes");
    let out = run_ranks(p, |c| {
        execute_compiled(c, &compile(&report.schedules[c.rank()]), &inputs[c.rank()])
    });
    for r in 0..p {
        assert_eq!(out[r], expect[r], "optimized run diverged at rank {r}");
    }
}
