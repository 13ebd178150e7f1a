//! The executor keeps its scratch buffer across calls and zeroes it only for
//! a plan whose `compile` found a data-flow fault, which is what the
//! verifier refuses a plan's data flow for: the flag is clear for every
//! verified plan by construction. The first test pins that construction
//! over the plans the runtime runs (stock, optimized, tenant-merged and
//! count-vector worlds) and the verifier's refusals; the rest pin that no
//! byte an earlier call left in the buffer is ever observable — through an
//! output, a short receive, a recording, a bounds panic or a nested call.

use exacoll::collectives::reference::expected_outputs;
use exacoll::collectives::registry::{candidates, execute, unique_candidates_v};
use exacoll::collectives::request::payload;
use exacoll::collectives::schedule::verify::verify;
use exacoll::collectives::schedule::{
    compile, execute_compiled, ComputeKind, Schedule, ScheduleBuilder, SgList, Step,
};
use exacoll::collectives::spec::{CountsSpec, OptSpec};
use exacoll::collectives::{Algorithm, CollArgs, CollectiveOp, Request};
use exacoll::comm::{
    fnv1a, run_ranks, try_run_ranks, Comm, CommError, CommResult, DType, RecordComm, RecordedEvent,
    Regions, Req, SgDests, SgView,
};
use exacoll::net::run_socket_ranks;
use exacoll::opt::plan_world;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What an earlier call leaves in the scratch buffer.
const OLD: u8 = 0xAA;

/// Run, on this thread's executor, a plan without traffic that fills `len`
/// scratch bytes with `fill`: what an earlier call leaves behind.
fn leave_behind<C: Comm>(c: &mut C, len: usize, fill: u8) {
    let mut b = ScheduleBuilder::new(c.size(), c.rank());
    let x = b.alloc(len);
    let plan = compile(&b.finish(x.clone(), x));
    assert_eq!(
        execute_compiled(c, &plan, &vec![fill; len]),
        Ok(vec![fill; len])
    );
}

/// Verify `world`, then check that each rank's plan compiles with the flag
/// clear. Returns how many plans were checked.
fn clean(world: &[Schedule], what: &str) -> usize {
    verify(world).unwrap_or_else(|e| panic!("{what}: {e}"));
    for s in world {
        assert!(!compile(s).reads_unwritten(), "{what} rank {}", s.rank);
    }
    world.len()
}

/// Rank 0 of `world` changed so that `verify` refuses it with `refusal`:
/// the changed plan must compile with the flag set.
fn dirty(world: &[Schedule], refusal: &str, change: impl Fn(&mut Schedule)) {
    let mut bad = world.to_vec();
    change(&mut bad[0]);
    let e = verify(&bad).expect_err(refusal).to_string();
    assert!(e.contains(refusal), "{e}");
    assert!(compile(&bad[0]).reads_unwritten(), "{e}");
}

#[test]
fn verified_plans_compile_clean_and_undefined_reads_compile_flagged() {
    let mut plans = 0;
    for p in 2..=9 {
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 8) {
                for size in [1, 24, 1000] {
                    let Ok(req) = Request::uniform(CollArgs::new(op, alg), p, size) else {
                        continue;
                    };
                    let world = req.lower_world();
                    plans += clean(&world, &req.describe());
                    if size != 24 {
                        continue;
                    }
                    // An output byte past everything the plan wrote, and a
                    // copy out of a byte nothing wrote.
                    dirty(&world, "output contains bytes no step ever wrote", |s| {
                        s.output.push(s.buf_len..s.buf_len + 1);
                        s.buf_len += 1;
                    });
                    dirty(&world, "reads undefined bytes", |s| {
                        let (hole, to) = (s.buf_len, s.buf_len + 1);
                        s.steps.insert(
                            0,
                            Step::Compute {
                                kind: ComputeKind::Copy,
                                src: SgList::from(hole..hole + 1),
                                dst: SgList::from(to..to + 1),
                            },
                        );
                        s.buf_len += 2;
                    });
                    if ![4, 6, 9].contains(&p) {
                        continue;
                    }
                    // What `plan_world` makes of it: passes, then tenants.
                    let both = OptSpec {
                        pipeline: true,
                        aggregate: true,
                    };
                    for (opt, tenants) in [(OptSpec::PIPELINE, 1), (both, 1), (OptSpec::NONE, 2)] {
                        let req = req.clone().with_opt(opt, 8, 64).unwrap();
                        let Ok(req) = req.with_tenants(tenants) else {
                            continue;
                        };
                        let world = plan_world(&req).expect("passes run");
                        plans += clean(&world, &req.describe());
                    }
                }
            }
        }
    }
    for counts in [vec![24, 0, 56, 8], vec![5, 9, 0, 1, 16, 3, 0]] {
        for op in [CollectiveOp::Allgather, CollectiveOp::ReduceScatter] {
            for alg in unique_candidates_v(op, 4, &counts) {
                let counts = CountsSpec::new(counts.clone()).unwrap();
                let req = Request::irregular(CollArgs::new(op, alg), counts).unwrap();
                plans += clean(&plan_world(&req).unwrap(), &req.describe());
            }
        }
    }
    assert!(plans > 10_000, "the grid should be dense: {plans} plans");
}

#[test]
fn a_byte_no_step_wrote_reads_zero_after_an_earlier_call() {
    let out = run_ranks(1, |c| {
        leave_behind(c, 64, OLD);
        let mut b = ScheduleBuilder::new(1, 0);
        let x = b.alloc(4);
        let hole = b.alloc(1);
        let plan = compile(&b.finish(x.clone(), SgList::concat([&x, &hole])));
        assert!(plan.reads_unwritten());
        execute_compiled(c, &plan, &[1, 2, 3, 4])
    });
    assert_eq!(out[0], [1, 2, 3, 4, 0]);
}

/// After an earlier call left 64 bytes of `OLD` in the scratch buffer, run
/// a flagged plan whose output holds 32 input bytes and 32 that nothing
/// writes. A flagged plan runs with its Out and scratch bytes zeroed.
fn unwritten_output<C: Comm>(c: &mut C) -> CommResult<Vec<u8>> {
    leave_behind(c, 64, OLD);
    let mut b = ScheduleBuilder::new(c.size(), c.rank());
    let x = b.alloc(32);
    let hole = b.alloc(32);
    let plan = compile(&b.finish(x.clone(), SgList::concat([&x, &hole])));
    assert!(plan.reads_unwritten());
    execute_compiled(c, &plan, &[7; 32])
}

#[test]
fn an_unwritten_output_byte_reads_zero_on_both_transports() {
    let want = [[7; 32], [0; 32]].concat();
    assert_eq!(run_ranks(1, unwritten_output)[0], want);
    assert_eq!(run_socket_ranks(1, unwritten_output)[0], want);
}

/// After leaving `old` in its scratch buffer, rank 1 receives into a 4-byte
/// destination what rank 0 sends one byte short; rank 1 returns its output.
fn short_receive<C: Comm>(c: &mut C, old: u8) -> CommResult<Vec<u8>> {
    leave_behind(c, 64, old);
    if c.rank() == 0 {
        c.send(1, 7, vec![1, 2, 3])?;
        return Ok(Vec::new());
    }
    let mut b = ScheduleBuilder::new(2, 1);
    let slot = b.alloc(4);
    b.recv(0, 7, slot.clone());
    let plan = compile(&b.finish(SgList::empty(), slot));
    assert!(!plan.reads_unwritten());
    execute_compiled(c, &plan, &[])
}

/// [`short_receive`] into a 64-byte output, after an earlier call returned
/// (and dropped) as many bytes of `OLD`: the plan lands the message in the
/// `Vec` it returns.
fn short_receive_into_the_output<C: Comm>(c: &mut C) -> CommResult<Vec<u8>> {
    leave_behind(c, 64, OLD);
    if c.rank() == 0 {
        c.send(1, 7, vec![1, 2, 3])?;
        return Ok(Vec::new());
    }
    let mut b = ScheduleBuilder::new(2, 1);
    let slot = b.alloc(64);
    b.recv(0, 7, slot.clone());
    let plan = compile(&b.finish(SgList::empty(), slot));
    execute_compiled(c, &plan, &[])
}

#[test]
fn a_placed_short_message_leaves_a_zeroed_tail_on_both_transports() {
    let mut want = vec![0; 64];
    want[..3].copy_from_slice(&[1, 2, 3]);
    assert_eq!(run_ranks(2, short_receive_into_the_output)[1], want);
    assert_eq!(run_socket_ranks(2, short_receive_into_the_output)[1], want);
}

#[test]
fn a_short_message_leaves_a_zeroed_tail_on_both_transports() {
    let threads = run_ranks(2, |c| short_receive(c, OLD));
    let sockets = run_socket_ranks(2, |c| short_receive(c, OLD));
    assert_eq!(threads[1], [1, 2, 3, 0]);
    assert_eq!(sockets[1], [1, 2, 3, 0]);
}

/// Rank 1 receives four bytes into `slot` and returns an output view that
/// lists `slot`, its two input bytes and then the last two bytes of `slot`
/// and its input again, after an earlier call left `OLD` behind.
fn output_listed_twice<C: Comm>(c: &mut C) -> CommResult<Vec<u8>> {
    leave_behind(c, 64, OLD);
    if c.rank() == 0 {
        c.send(1, 7, vec![1, 2, 3, 4])?;
        return Ok(Vec::new());
    }
    let mut b = ScheduleBuilder::new(2, 1);
    let (slot, x) = (b.alloc(4), b.alloc(2));
    b.recv(0, 7, slot.clone());
    let again = SgList::concat([&slot, &x]).slice(2, 4);
    let plan = compile(&b.finish(x.clone(), SgList::concat([&slot, &x, &again])));
    assert!(!plan.reads_unwritten());
    execute_compiled(c, &plan, &[8, 9])
}

#[test]
fn an_output_byte_listed_twice_reads_the_same_at_each_position_on_both_transports() {
    let want = [1, 2, 3, 4, 8, 9, 3, 4, 8, 9];
    assert_eq!(run_ranks(2, output_listed_twice)[1], want);
    assert_eq!(run_socket_ranks(2, output_listed_twice)[1], want);
}

/// Allreduce f64 at p = 4 and 256 KiB, with integer-valued inputs so any
/// summation order is exact: each rank calls `alg` three times and checks
/// that every output is exactly as long as its allocation and is what the
/// reference computes. A fused receive folds into its accumulator, so no
/// byte of the output `Vec` is left over for its temporary.
fn exact_outputs<C: Comm>(c: &mut C, alg: Algorithm) -> CommResult<()> {
    let (p, n) = (c.size(), 256 << 10);
    let args = CollArgs {
        dtype: DType::F64,
        ..CollArgs::new(CollectiveOp::Allreduce, alg)
    };
    let inputs: Vec<Vec<u8>> = (0..p)
        .map(|r| {
            (0..n / 8)
                .flat_map(|i| ((r * 1000 + i % 997) as f64).to_le_bytes())
                .collect()
        })
        .collect();
    let want = expected_outputs(args.op, args.root, args.dtype, args.rop, &inputs)?;
    for call in 0..3 {
        let out = execute(c, &args, &inputs[c.rank()])?;
        let what = format!("{alg} rank {} call {call}", c.rank());
        assert_eq!((out.len(), out.capacity()), (n, n), "{what}");
        assert!(out == want[c.rank()], "{what}");
    }
    Ok(())
}

#[test]
fn a_plan_with_a_fused_receive_returns_exactly_its_output_on_both_transports() {
    for alg in [Algorithm::RecursiveMultiplying { k: 2 }, Algorithm::Ring] {
        run_ranks(4, |c| exact_outputs(c, alg));
        run_socket_ranks(4, |c| exact_outputs(c, alg));
    }
}

#[test]
fn a_recorded_short_receive_digests_the_same_whatever_the_buffer_held() {
    let [a, b] = [OLD, 0x55].map(|old| {
        let mut events = run_ranks(2, |c| {
            let mut rc = RecordComm::new(c);
            short_receive(&mut rc, old)?;
            Ok(rc.finish())
        });
        events.swap_remove(1)
    });
    assert_eq!(a, b);
    let recv = a.iter().find(|e| matches!(e, RecordedEvent::Recv { .. }));
    assert_eq!(
        recv,
        Some(&RecordedEvent::Recv {
            from: 0,
            tag: 7,
            bytes: 4,
            digest: Some(fnv1a(&[1, 2, 3, 0])),
        })
    );
}

/// A one-rank communicator that runs on the calling thread, so a plan's
/// panic surfaces here and a nested call reuses this thread's executor. A
/// plan for one rank has no peers to talk to.
struct Solo;

impl Comm for Solo {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        1
    }
    fn isend(&mut self, _: usize, _: u32, _: Vec<u8>) -> CommResult<Req> {
        unreachable!("one rank has no peer to send to")
    }
    fn irecv(&mut self, _: usize, _: u32, _: usize) -> CommResult<Req> {
        unreachable!("one rank has no peer to receive from")
    }
    fn wait(&mut self, _: Req) -> CommResult<Option<Vec<u8>>> {
        unreachable!("one rank posts no request")
    }
    fn compute(&mut self, _: usize) {}
}

/// The message of the panic `f` raises.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .expect("a message")
            .to_string(),
    }
}

#[test]
fn a_range_past_the_plans_buffer_still_panics_with_the_slice_message() {
    // An input view eight bytes long in a four-byte plan, run after a call
    // that grew this thread's buffer to 64 bytes: the plan sees four.
    let mut c = Solo;
    leave_behind(&mut c, 64, OLD);
    let plan = compile(&Schedule {
        p: 1,
        rank: 0,
        buf_len: 4,
        input: SgList::from(0..8),
        output: SgList::from(0..8),
        steps: Vec::new(),
    });
    assert!(!plan.reads_unwritten());
    let message = panic_message(|| {
        let _ = execute_compiled(&mut c, &plan, &[0; 8]);
    });
    assert_eq!(
        message,
        "range end index 8 out of range for slice of length 4"
    );

    // The same for a receive landing past the end, in a rank thread.
    let results = try_run_ranks(2, |c| {
        leave_behind(c, 64, OLD);
        if c.rank() == 0 {
            return c.send(1, 7, vec![9; 8]).map(|()| Vec::new());
        }
        let mut b = ScheduleBuilder::new(2, 1);
        b.recv(0, 7, SgList::from(0..8));
        let mut s = b.finish(SgList::empty(), SgList::from(0..8));
        s.buf_len = 4;
        execute_compiled(c, &compile(&s), &[])
    });
    assert!(
        matches!(&results[1], Err(CommError::RankPanicked { rank: 1, message })
            if message.contains("range end index 8 out of range for slice of length 4")),
        "{:?}",
        results[1]
    );
}

/// Forwards everything to `inner`, and on every round mark runs a whole
/// one-rank collective of its own through `registry::execute` — from inside
/// the executor that is running the outer plan.
struct Nested<C> {
    inner: C,
    nested: usize,
}

impl<C: Comm> Comm for Nested<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn isend(&mut self, to: usize, tag: u32, data: Vec<u8>) -> CommResult<Req> {
        self.inner.isend(to, tag, data)
    }
    fn send_sg(&mut self, to: usize, tag: u32, view: SgView<'_>) -> CommResult<Req> {
        self.inner.send_sg(to, tag, view)
    }
    fn irecv(&mut self, from: usize, tag: u32, bytes: usize) -> CommResult<Req> {
        self.inner.irecv(from, tag, bytes)
    }
    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        self.inner.wait(req)
    }
    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        self.inner.waitall(reqs)
    }
    fn waitall_into(
        &mut self,
        reqs: &mut Vec<Req>,
        bufs: Regions<'_>,
        dests: SgDests<'_>,
    ) -> CommResult<()> {
        self.inner.waitall_into(reqs, bufs, dests)
    }
    fn compute(&mut self, bytes: usize) {
        self.inner.compute(bytes)
    }
    fn mark(&mut self, label: &'static str, round: u32) {
        let bcast = CollArgs::new(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 });
        let own = vec![OLD ^ round as u8; 96];
        let out = execute(&mut Solo, &bcast, &own);
        assert_eq!(out, Ok(own), "the nested call");
        self.nested += 1;
        self.inner.mark(label, round)
    }
}

#[test]
fn a_collective_called_from_inside_a_running_one_runs_on_its_own_executor() {
    let (p, n) = (4, 256);
    let args = CollArgs::new(
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 2 },
    );
    let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(3, r, n)).collect();
    let expect = expected_outputs(args.op, args.root, args.dtype, args.rop, &inputs).unwrap();
    fn run<C: Comm>(mut c: C, args: &CollArgs, inputs: &[Vec<u8>]) -> CommResult<Vec<u8>> {
        leave_behind(&mut c, 4096, OLD);
        let input = &inputs[c.rank()];
        let mut nested = Nested {
            inner: c,
            nested: 0,
        };
        let out = execute(&mut nested, args, input)?;
        assert!(nested.nested > 0, "the plan has round marks");
        Ok(out)
    }
    let threads = run_ranks(p, |c| run(c, &args, &inputs));
    let sockets = run_socket_ranks(p, |c| run(c, &args, &inputs));
    assert_eq!(threads, expect);
    assert_eq!(sockets, expect);
}
