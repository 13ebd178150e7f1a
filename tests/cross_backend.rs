//! Cross-backend conformance: the TCP socket runtime must be
//! indistinguishable from the threaded runtime to every collective.
//!
//! The grid runs every (collective × candidate algorithm × radix) case on
//! both backends with identical deterministic inputs and asserts
//! byte-identical agreement with the sequential reference — so a matching
//! bug, framing bug, or ordering bug in the wire layer shows up as a
//! payload diff, not a flaky hang. The pointwise tests then pin the
//! semantics the grid relies on: non-overtaking same-tag delivery,
//! out-of-order `waitall` completion in posting order, fault-wrapper and
//! instrumentation transparency over real sockets.

mod support;

use exacoll::collectives::reference::expected_outputs;
use exacoll::collectives::request::payload;
use exacoll::collectives::{execute, registry::candidates, CollArgs, CollectiveOp};
use exacoll::comm::{
    run_ranks, Comm, CommError, CommResult, FaultComm, FaultPlan, RecordComm, Req,
};
use exacoll::net::{run_socket_ranks, try_run_socket_ranks_with};
use std::time::Duration;
use support::{input_len, lower_all};

/// Inputs for one grid case: the shared deterministic pattern every process
/// of the TCP backend can reconstruct locally.
fn grid_inputs(op: CollectiveOp, p: usize, size: usize) -> Vec<Vec<u8>> {
    let len = input_len(op, p, size);
    (0..p).map(|r| payload(1, r, len)).collect()
}

fn check_case(op: CollectiveOp, alg: exacoll::collectives::Algorithm, p: usize, size: usize) {
    let inputs = grid_inputs(op, p, size);
    let args = CollArgs::new(op, alg);
    let expect =
        expected_outputs(op, args.root, args.dtype, args.rop, &inputs).expect("reference computes");

    let thread_out = run_ranks(p, |c| execute(c, &args, &inputs[c.rank()]));
    let socket_out = run_socket_ranks(p, |c| execute(c, &args, &inputs[c.rank()]));
    for r in 0..p {
        assert_eq!(
            thread_out[r], expect[r],
            "thread mismatch: {op} {alg} p={p} rank={r}"
        );
        assert_eq!(
            socket_out[r], expect[r],
            "socket mismatch: {op} {alg} p={p} rank={r}"
        );
    }
}

#[test]
fn every_candidate_agrees_on_both_backends() {
    use exacoll::collectives::Algorithm::Hierarchical;

    let mut cases = 0;
    for p in [4usize, 6] {
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                check_case(op, alg, p, 48);
                cases += 1;
            }
        }
    }
    // Not a candidate, but its leader phase runs the recursive-multiplying
    // builder: hier(2,2) at p = 6 has 3 leaders, so it takes the pre-fold.
    for alg in [Hierarchical { ppn: 2, k: 2 }, Hierarchical { ppn: 3, k: 2 }] {
        check_case(CollectiveOp::Allreduce, alg, 6, 48);
        cases += 1;
    }
    assert!(cases > 60, "grid should be dense, got {cases} cases");
}

#[test]
fn pre_lowered_schedules_execute_over_real_sockets() {
    // The schedule IR is transport-agnostic: plans lowered once, ahead of
    // time, must compile and run unmodified on the TCP runtime and still
    // match the sequential reference.
    use exacoll::collectives::schedule::{compile, execute_compiled};
    use exacoll::collectives::Algorithm;

    let p = 4;
    for (op, alg) in [
        (
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        ),
        (CollectiveOp::Allgather, Algorithm::KRing { k: 2 }),
        (CollectiveOp::Bcast, Algorithm::KnomialTree { k: 3 }),
        (CollectiveOp::Alltoall, Algorithm::GeneralizedBruck { r: 2 }),
        (CollectiveOp::Barrier, Algorithm::Dissemination { k: 2 }),
    ] {
        let inputs = grid_inputs(op, p, 24);
        let args = CollArgs::new(op, alg);
        let expect = expected_outputs(op, args.root, args.dtype, args.rop, &inputs)
            .expect("reference computes");
        let n = inputs[0].len();
        let plans = lower_all(&args, p, n);
        let out = run_socket_ranks(p, |c| {
            execute_compiled(c, &compile(&plans[c.rank()]), &inputs[c.rank()])
        });
        for r in 0..p {
            assert_eq!(
                out[r], expect[r],
                "socket engine mismatch: {op} {alg} rank={r}"
            );
        }
    }
}

#[test]
fn pipelined_plans_execute_over_real_sockets() {
    // Optimizer-rewritten plans are as transport-agnostic as stock ones:
    // chunk the big ring blocks well below the payload size, run the
    // rewritten plans through the engine on the TCP runtime, and the
    // outputs must still match the sequential reference byte for byte.
    use exacoll::collectives::schedule::{compile, execute_compiled};
    use exacoll::collectives::spec::OptSpec;
    use exacoll::collectives::Algorithm;
    use exacoll::opt::apply_opt_spec;

    let p = 4;
    for (op, alg, chunk) in [
        (CollectiveOp::Allgather, Algorithm::Ring, 64),
        (
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
            32,
        ),
    ] {
        let inputs = grid_inputs(op, p, 256);
        let args = CollArgs::new(op, alg);
        let expect = expected_outputs(op, args.root, args.dtype, args.rop, &inputs)
            .expect("reference computes");
        let n = inputs[0].len();
        let plans = lower_all(&args, p, n);
        let piped = apply_opt_spec(&plans, &OptSpec::PIPELINE, chunk, 1).expect("pipelining runs");
        assert_ne!(piped, plans, "{op} {alg}: chunking must bite at {chunk} B");
        let out = run_socket_ranks(p, |c| {
            execute_compiled(c, &compile(&piped[c.rank()]), &inputs[c.rank()])
        });
        for r in 0..p {
            assert_eq!(
                out[r], expect[r],
                "pipelined socket engine mismatch: {op} {alg} rank={r}"
            );
        }
    }
}

#[test]
fn compiled_plans_with_scatter_gather_sends_agree_on_both_backends() {
    // The compiled hot path over real sockets: aggregation fuses
    // consecutive same-peer messages into one scatter-gather send, so the
    // compiled executor hands SocketComm genuinely multi-segment views and
    // the wire layer's vectored `send_sg` carries them. Outputs must still
    // match the sequential reference — and the threaded backend, which
    // takes the gather-copy default `send_sg` — byte for byte.
    use exacoll::collectives::schedule::{compile, execute_compiled};
    use exacoll::collectives::spec::OptSpec;
    use exacoll::collectives::Algorithm;
    use exacoll::opt::apply_opt_spec;

    let p = 4;
    let fused = OptSpec {
        pipeline: false,
        aggregate: true,
    };
    for (op, alg) in [
        (CollectiveOp::Alltoall, Algorithm::GeneralizedBruck { r: 2 }),
        (CollectiveOp::Allgather, Algorithm::Bruck),
        (
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        ),
    ] {
        let inputs = grid_inputs(op, p, 16);
        let args = CollArgs::new(op, alg);
        let expect = expected_outputs(op, args.root, args.dtype, args.rop, &inputs)
            .expect("reference computes");
        let n = inputs[0].len();
        let plans = lower_all(&args, p, n);
        let plans = apply_opt_spec(&plans, &fused, 1, 4096).expect("aggregation runs");
        let compiled: Vec<_> = plans.iter().map(compile).collect();
        let thread_out = run_ranks(p, |c| {
            execute_compiled(c, &compiled[c.rank()], &inputs[c.rank()])
        });
        let socket_out = run_socket_ranks(p, |c| {
            execute_compiled(c, &compiled[c.rank()], &inputs[c.rank()])
        });
        for r in 0..p {
            assert_eq!(
                thread_out[r], expect[r],
                "compiled thread mismatch: {op} {alg} rank={r}"
            );
            assert_eq!(
                socket_out[r], expect[r],
                "compiled socket mismatch: {op} {alg} rank={r}"
            );
        }
    }
}

#[test]
fn fused_receives_with_scattered_destinations_land_over_real_sockets() {
    // A halo exchange whose blocks arrive in every other slot of the inbox,
    // last slot first: aggregation fuses the six receives into one whose
    // destination is six separate ranges, and `SocketComm` has to fill them
    // range by range as the frame arrives — out of its read-ahead for the
    // 96 B message, over several `read`s for the 48 KiB one. The registry's
    // own lowerings only ever receive into contiguous regions.
    use exacoll::collectives::schedule::compiled::CStep;
    use exacoll::collectives::schedule::verify::verify;
    use exacoll::collectives::schedule::{compile, execute_compiled, ScheduleBuilder, SgList};
    use exacoll::opt::aggregate;

    let (p, blocks) = (4, 6);
    for bytes in [16, 8 << 10] {
        let plans: Vec<_> = (0..p)
            .map(|r| {
                let mut b = ScheduleBuilder::new(p, r);
                let own = b.alloc(blocks * bytes);
                let inbox = b.alloc(2 * blocks * bytes);
                b.mark("halo", 0);
                for i in 0..blocks {
                    b.send((r + 1) % p, 9, own.slice(i * bytes, bytes));
                }
                let slots: Vec<SgList> = (0..blocks)
                    .map(|i| inbox.slice(2 * (blocks - 1 - i) * bytes, bytes))
                    .collect();
                for slot in &slots {
                    b.recv((r + p - 1) % p, 9, slot.clone());
                }
                b.finish(own, SgList::concat(&slots))
            })
            .collect();
        verify(&plans).expect("the unfused exchange is a valid plan");
        let fused = aggregate(&plans, 1 << 20).expect("aggregation runs");
        verify(&fused).expect("the fused exchange is a valid plan");
        let compiled: Vec<_> = fused.iter().map(compile).collect();
        for plan in &compiled {
            let dsts: Vec<usize> = (plan.steps().iter())
                .filter_map(|s| match s {
                    CStep::Recv { dst, .. } => Some(plan.ranges_of(*dst).len()),
                    _ => None,
                })
                .collect();
            assert_eq!(dsts, [blocks], "one receive into {blocks} ranges");
        }
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(1, r, blocks * bytes)).collect();
        let thread_out = run_ranks(p, |c| {
            execute_compiled(c, &compiled[c.rank()], &inputs[c.rank()])
        });
        let socket_out = run_socket_ranks(p, |c| {
            execute_compiled(c, &compiled[c.rank()], &inputs[c.rank()])
        });
        for r in 0..p {
            let expect = &inputs[(r + p - 1) % p];
            assert!(
                thread_out[r] == *expect,
                "thread rank {r}, {bytes} B blocks"
            );
            assert!(
                socket_out[r] == *expect,
                "socket rank {r}, {bytes} B blocks"
            );
        }
    }
}

#[test]
fn odd_world_size_agrees_on_both_backends() {
    // Prime p exercises the non-power-of-two paths (virtual ranks, uneven
    // k-ring splits) over real sockets.
    for op in [
        CollectiveOp::Allreduce,
        CollectiveOp::Bcast,
        CollectiveOp::Allgather,
    ] {
        for alg in candidates(op, 5, 3) {
            check_case(op, alg, 5, 40);
        }
    }
}

/// The non-overtaking guarantee per (sender, receiver, tag), asserted the
/// same way on both backends: a burst of same-tag messages must arrive in
/// send order.
fn same_tag_fifo_body(c: &mut impl Comm) -> CommResult<Vec<u8>> {
    const N: u8 = 40;
    if c.rank() == 0 {
        for i in 0..N {
            c.send(1, 9, vec![i; 5])?;
        }
        Ok(vec![])
    } else {
        let mut got = Vec::new();
        for _ in 0..N {
            got.push(c.recv(0, 9, 5)?[0]);
        }
        Ok(got)
    }
}

#[test]
fn same_tag_ordering_matches_across_backends() {
    let expected: Vec<u8> = (0..40).collect();
    let t = run_ranks(2, same_tag_fifo_body);
    let s = run_socket_ranks(2, same_tag_fifo_body);
    assert_eq!(t[1], expected);
    assert_eq!(s[1], expected);
}

/// Same-(from, tag) receives completed through one `waitall` must fill
/// result slots in posting order even though completion is out of order.
fn waitall_slot_order_body(c: &mut impl Comm) -> CommResult<Vec<u8>> {
    if c.rank() == 0 {
        for i in 0..8u8 {
            c.send(1, 3, vec![i])?;
        }
        Ok(vec![])
    } else {
        let reqs: Vec<Req> = (0..8)
            .map(|_| c.irecv(0, 3, 1))
            .collect::<CommResult<_>>()?;
        let msgs = c.waitall(reqs)?;
        Ok(msgs.into_iter().map(|m| m.unwrap()[0]).collect())
    }
}

#[test]
fn waitall_slot_order_matches_across_backends() {
    let expected: Vec<u8> = (0..8).collect();
    let t = run_ranks(2, waitall_slot_order_body);
    let s = run_socket_ranks(2, waitall_slot_order_body);
    assert_eq!(t[1], expected);
    assert_eq!(s[1], expected);
}

#[test]
fn fault_delays_on_real_sockets_stay_correct() {
    // Delays reorder wall-clock arrival across peers but must not break
    // matching or results on a real transport.
    let p = 4;
    let args = CollArgs::new(
        CollectiveOp::Allreduce,
        exacoll::collectives::Algorithm::RecursiveMultiplying { k: 2 },
    );
    let inputs = grid_inputs(CollectiveOp::Allreduce, p, 64);
    let expect =
        expected_outputs(args.op, args.root, args.dtype, args.rop, &inputs).expect("reference");
    let out = run_socket_ranks(p, |c| {
        let rank = c.rank();
        let plan = FaultPlan::none(7 + rank as u64).delays(0.5, Duration::from_millis(3));
        let mut fc = FaultComm::new(&mut *c, plan);
        execute(&mut fc, &args, &inputs[rank])
    });
    for r in 0..p {
        assert_eq!(out[r], expect[r], "delayed socket run diverged at rank {r}");
    }
}

#[test]
fn fault_corruption_on_real_sockets_reaches_the_output() {
    // `FaultComm` does not forward `send_sg` or `waitall_into`, so every
    // payload still passes through it on the way out — and the byte it flips
    // is the byte the receiver's `SocketComm` hands back, whichever way the
    // executor completes its receives.
    let p = 4;
    let args = CollArgs::new(
        CollectiveOp::Allgather,
        exacoll::collectives::Algorithm::Ring,
    );
    let inputs = grid_inputs(CollectiveOp::Allgather, p, 20 << 10);
    let expect =
        expected_outputs(args.op, args.root, args.dtype, args.rop, &inputs).expect("reference");
    let out = run_socket_ranks(p, |c| {
        let rank = c.rank();
        let mut fc = FaultComm::new(&mut *c, FaultPlan::none(5).corrupts(1.0));
        let out = execute(&mut fc, &args, &inputs[rank])?;
        Ok((out, fc.into_events().len()))
    });
    for (r, (got, corrupted)) in out.iter().enumerate() {
        // One flip per ring step sent; the block a rank contributed itself
        // is the only one that reaches it unharmed.
        assert_eq!(*corrupted, p - 1, "rank {r}");
        let differing = got.iter().zip(&expect[r]).filter(|(a, b)| a != b).count();
        assert!(
            (p - 1..=(p - 1) * (p - 1)).contains(&differing),
            "rank {r}: {differing} corrupted bytes in the output"
        );
    }
}

#[test]
fn fault_drops_on_real_sockets_fail_cleanly() {
    // Dropping every send must surface as a deadline Timeout (or the
    // consequent PeerGone/RankPanicked cascade) on every affected rank —
    // never a hang, never a wrong result.
    let p = 2;
    let args = CollArgs::new(
        CollectiveOp::Allreduce,
        exacoll::collectives::Algorithm::Ring,
    );
    let inputs = grid_inputs(CollectiveOp::Allreduce, p, 32);
    let results = try_run_socket_ranks_with(p, Duration::from_millis(300), |c| {
        let plan = FaultPlan::none(11).drops(1.0);
        let mut fc = FaultComm::new(&mut *c, plan);
        let input = inputs[fc.rank()].clone();
        execute(&mut fc, &args, &input)
    });
    assert!(
        results.iter().any(|r| r.is_err()),
        "dropping all messages cannot succeed"
    );
    for (r, res) in results.iter().enumerate() {
        if let Err(e) = res {
            assert!(
                matches!(
                    e,
                    CommError::Timeout { .. }
                        | CommError::PeerGone { .. }
                        | CommError::Aborted { .. }
                ),
                "rank {r}: expected a clean hang-free error, got {e}"
            );
        }
    }
}

#[test]
fn killed_rank_on_real_sockets_fails_every_survivor() {
    // No abort handle over sockets: the victim's error return drops its
    // endpoint, and GONE has to reach every survivor through the poll loop
    // — directly for its ring successor, as a cascade of departures for the
    // rest — long before anyone's deadline.
    let p = 4;
    let deadline = Duration::from_secs(20);
    let args = CollArgs::new(
        CollectiveOp::Allreduce,
        exacoll::collectives::Algorithm::Ring,
    );
    let inputs = grid_inputs(CollectiveOp::Allreduce, p, 64);
    let start = std::time::Instant::now();
    let results = try_run_socket_ranks_with(p, deadline, |c| {
        // Ops 0..4 are the first two of the ring's six send/receive steps.
        let plan = FaultPlan::none(3).kills(1, 4);
        let mut fc = FaultComm::new(&mut *c, plan);
        let input = inputs[fc.rank()].clone();
        execute(&mut fc, &args, &input)
    });
    assert_eq!(results[1], Err(CommError::Aborted { origin: 1 }));
    for (r, res) in results.iter().enumerate() {
        assert!(
            matches!(
                res,
                Err(CommError::Timeout { .. }
                    | CommError::PeerGone { .. }
                    | CommError::Aborted { .. })
            ),
            "rank {r}: expected a clean hang-free error, got {res:?}"
        );
    }
    assert!(
        start.elapsed() < deadline / 4,
        "survivors waited {:?} of a {deadline:?} deadline",
        start.elapsed()
    );
}

#[test]
fn timed_comm_is_transparent_over_sockets() {
    // RecordComm must not perturb results, and must record real socket time
    // for every rank.
    let p = 4;
    let args = CollArgs::new(
        CollectiveOp::Allgather,
        exacoll::collectives::Algorithm::Bruck,
    );
    let inputs = grid_inputs(CollectiveOp::Allgather, p, 32);
    let expect =
        expected_outputs(args.op, args.root, args.dtype, args.rop, &inputs).expect("reference");
    let out = run_socket_ranks(p, |c| {
        let rank = c.rank();
        let mut tc = RecordComm::new(&mut *c);
        let res = execute(&mut tc, &args, &inputs[rank])?;
        let (_, timeline) = tc.into_parts();
        assert!(
            !timeline.events.is_empty(),
            "rank {rank} recorded no events"
        );
        assert!(timeline.finish_ns() > 0.0);
        Ok(res)
    });
    for r in 0..p {
        assert_eq!(
            out[r], expect[r],
            "instrumented socket run diverged at rank {r}"
        );
    }
}
