//! Helpers the integration tests share: registry cases, a proptest strategy
//! over them, and the one oracle checking `to_trace()` against a live run.
#![allow(dead_code)]

use exacoll::collectives::registry::{candidates, lower};
use exacoll::collectives::request::payload;
use exacoll::collectives::schedule::{compile, execute_compiled, Schedule};
use exacoll::collectives::{Algorithm, CollArgs, CollectiveOp};
use exacoll::comm::{
    run_ranks, Comm, EventKind, RankTimeline, RankTrace, RecordComm, ThreadComm, TraceOp,
};
use proptest::prelude::*;
use std::fmt::Display;

/// Per-rank input length for one registry case.
pub fn input_len(op: CollectiveOp, p: usize, size: usize) -> usize {
    match op {
        CollectiveOp::Alltoall => size * p,
        CollectiveOp::Barrier => 0,
        _ => size,
    }
}

/// Every rank's plan for one registry case.
pub fn lower_all(args: &CollArgs, p: usize, n: usize) -> Vec<Schedule> {
    (0..p).map(|r| lower(args, p, r, n)).collect()
}

/// A random registry case: a rank count from `ps`, a collective, and one of
/// its candidates with radix at most `max_k`.
pub fn arb_config(
    ps: &'static [usize],
    max_k: usize,
) -> impl Strategy<Value = (CollectiveOp, Algorithm, usize)> {
    (0..ps.len(), 0..CollectiveOp::ALL.len()).prop_flat_map(move |(p_idx, op_idx)| {
        let (p, op) = (ps[p_idx], CollectiveOp::ALL[op_idx]);
        let cands = candidates(op, p, max_k);
        (0..cands.len()).prop_map(move |i| (op, cands[i], p))
    })
}

/// A timeline read back as the op stream the timed backend was asked for:
/// one op per event, each wait covering what was posted since the last.
fn executed_trace(tl: &RankTimeline, size: usize) -> RankTrace {
    let ops = (tl.events.iter())
        .map(|e| match e.kind {
            EventKind::Send => TraceOp::Send {
                to: e.peer.expect("send peer"),
                tag: e.tag.expect("send tag"),
                bytes: e.bytes,
            },
            EventKind::Recv => TraceOp::Recv {
                from: e.peer.expect("recv peer"),
                tag: e.tag.expect("recv tag"),
                bytes: e.bytes,
            },
            EventKind::Wait => TraceOp::WaitAll {
                reqs: e.covers.clone(),
            },
            EventKind::Compute => TraceOp::Compute { bytes: e.bytes },
            EventKind::Mark => TraceOp::Mark {
                label: e.label.expect("mark label"),
                round: e.round.expect("mark round"),
            },
        })
        .collect();
    RankTrace {
        rank: tl.rank,
        size,
        ops,
    }
}

/// Run `world` on threaded ranks, each under `RecordComm`. Returns every
/// rank's output and the op stream it drove the backend with.
pub fn run_live(world: &[Schedule]) -> Vec<(Vec<u8>, RankTrace)> {
    let p = world.len();
    let plans: Vec<_> = world.iter().map(compile).collect();
    let ran = run_ranks(p, |c: &mut ThreadComm| {
        let plan = &plans[c.rank()];
        let mut tc = RecordComm::new(&mut *c);
        let out = execute_compiled(&mut tc, plan, &payload(1, plan.rank, plan.input_bytes()))?;
        Ok((out, tc.finish()))
    });
    (ran.into_iter())
        .map(|(out, timeline)| (out, executed_trace(&timeline, p)))
        .collect()
}

/// The executed-trace oracle: run `world` live and check every rank's op
/// stream equals its plan's symbolic `to_trace()` op for op. Returns every
/// rank's output.
pub fn run_traced(world: &[Schedule], what: &dyn Display) -> Vec<Vec<u8>> {
    (run_live(world).into_iter().zip(world))
        .map(|((out, executed), plan)| {
            assert_eq!(executed, plan.to_trace(), "{what} rank {}", plan.rank);
            out
        })
        .collect()
}
