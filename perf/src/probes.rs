//! Layer probes: one public call of one crate at a time, timed from outside
//! on the pinned CPU. A probe's value is the median of `BATCHES` batch
//! means; a count that must repeat exactly is taken once.
//!
//! The probes deliberately stay off `schedule::engine`, `tuning`, `osu` and
//! `opt::eval`: ROADMAP item 2 deletes or merges those, and these files
//! cannot follow such a change.

use crate::gen::{ragged_counts, Rng};
use crate::host;
use crate::plan::{lower_world, merge_and_verify, two_tenants, Planner};
use crate::run::Metric;
use crate::span::SinkComm;
use crate::stats::median;
use exacoll_comm::{
    reduce_into, try_run_ranks_with, Comm, CommResult, DType, ReduceOp, WorldOptions,
};
use exacoll_core::registry::{execute, lower, lower_v, Algorithm, CollArgs, CollectiveOp};
use exacoll_core::schedule::verify::verify;
use exacoll_core::schedule::{compile, Executor, Schedule};
use exacoll_core::spec::{Variant, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES};
use exacoll_core::{PlanCache, PlanKey};
use exacoll_models::{predict_from_schedule, NetParams};
use exacoll_net::try_run_socket_ranks_with;
use exacoll_net::wire::{read_frame, write_frame, write_frame_parts, Frame, KIND_MSG};
use exacoll_obs::TimedComm;
use exacoll_opt::{
    aggregate, layout_for, naive_block_exchange, pipeline, remap, PassKind, PassManager, TopoDesc,
};
use exacoll_replay::{record_thread_run, replay, Artifact};
use exacoll_select::{Policy, SelectionService};
use exacoll_sim::{cost, simulate, Machine};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Batch means per probe.
const BATCHES: usize = 21;

/// Target length of one batch.
const BATCH: Duration = Duration::from_micros(1500);

/// Round trips (or streamed messages) per batch of a two-rank probe; fixed
/// because both ranks must agree on it without talking.
const PING_PER_BATCH: usize = 400;
const STREAM_PER_BATCH: usize = 16;

const KIB256: usize = 256 << 10;

/// Median over `BATCHES` batches of the mean nanoseconds per call of `f`.
/// The batch size is found by doubling until a batch is long enough that
/// the two clock reads around it no longer matter.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1usize;
    let per_batch = loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let took = start.elapsed();
        if took >= BATCH / 4 || calls >= 1 << 22 {
            let scale = BATCH.as_secs_f64() / took.as_secs_f64().max(1e-9);
            break ((calls as f64 * scale) as usize).clamp(1, 1 << 22);
        }
        calls *= 2;
    };
    let batch_means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batch_means)
}

struct Out(Vec<Metric>);

impl Out {
    fn timed(&mut self, name: &str, value: f64) {
        self.0.push(Metric::new(name, value, BATCHES));
    }

    fn exact(&mut self, name: &str, value: f64) {
        self.0.push(Metric::new(name, value, 1));
    }

    fn ns(&mut self, name: &str, f: impl FnMut()) {
        let v = ns_per_call(f);
        self.timed(name, v);
    }

    fn us(&mut self, name: &str, f: impl FnMut()) {
        let v = ns_per_call(f) / 1e3;
        self.timed(name, v);
    }

    fn ms(&mut self, name: &str, f: impl FnMut()) {
        let v = ns_per_call(f) / 1e6;
        self.timed(name, v);
    }

    /// Bytes per nanosecond is GB/s.
    fn gbps(&mut self, name: &str, bytes: usize, f: impl FnMut()) {
        let v = bytes as f64 / ns_per_call(f);
        self.timed(name, v);
    }
}

fn world(op: CollectiveOp, alg: Algorithm, p: usize, n: usize) -> (CollArgs, Vec<Schedule>) {
    let args = CollArgs::new(op, alg);
    (args, lower_world(&args, p, n))
}

/// Run every workload-independent probe. `seed` only shapes the inputs that
/// are seeded elsewhere too (ragged counts, cycle P).
pub fn run(seed: u64) -> Result<Vec<Metric>, String> {
    let mut out = Out(Vec::new());
    out.exact("host.canary_ns", host::canary_ns());
    core(&mut out, seed);
    comm(&mut out)?;
    net(&mut out)?;
    opt(&mut out)?;
    sim_and_models(&mut out, seed)?;
    select(&mut out)?;
    replay_and_json(&mut out)?;
    Ok(out.0)
}

fn core(out: &mut Out, seed: u64) {
    let recmult4 = Algorithm::RecursiveMultiplying { k: 4 };
    let (args16, plans16) = world(CollectiveOp::Allreduce, recmult4, 16, 64 << 10);
    out.us("core.lower_us", || {
        for r in 0..16 {
            black_box(lower(&args16, 16, r, 64 << 10));
        }
    });
    let counts = ragged_counts(&mut Rng::new(seed, "probe-ragged"), 16, 64 << 10);
    let args_v = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
    out.us("core.lower_v_us", || {
        for r in 0..16 {
            black_box(lower_v(&args_v, r, &counts));
        }
    });
    out.us("core.verify_us", || {
        black_box(verify(&plans16).expect("stock lowering verifies"));
    });
    out.us("core.compile_us", || {
        for s in &plans16 {
            black_box(compile(s));
        }
    });
    out.exact(
        "core.plan_steps",
        plans16.iter().map(|s| s.steps.len()).sum::<usize>() as f64,
    );

    // The plan the small runtime workloads hit most: allreduce recmult:2,
    // p = 4, rank 1, 64 B.
    let recmult2 = Algorithm::RecursiveMultiplying { k: 2 };
    let mut args4 = CollArgs::new(CollectiveOp::Allreduce, recmult2);
    args4.dtype = DType::F64;
    let key = PlanKey::plain(&args4, 4, 1, 64);
    let cache = PlanCache::new();
    let plan64 = cache.get_or_insert_with(key, || compile(&lower(&args4, 4, 1, 64)));
    out.ns("core.cache_hit_ns", || {
        black_box(cache.get(black_box(&key)));
    });
    out.us("core.cache_miss_us", || {
        let fresh = PlanCache::new();
        black_box(fresh.get_or_insert_with(key, || compile(&lower(&args4, 4, 1, 64))));
    });

    let mut sink = SinkComm::new(1, 4);
    let mut exec = Executor::new();
    let input64 = vec![0u8; 64];
    out.ns("core.dispatch_ns_64B", || {
        sink.reset();
        black_box(exec.run(&mut sink, &plan64, &input64).expect("sink run"));
    });
    let plan256k = compile(&lower(&args4, 4, 1, KIB256));
    let input256k = vec![0u8; KIB256];
    out.us("core.dispatch_us_256K", || {
        sink.reset();
        black_box(
            exec.run(&mut sink, &plan256k, &input256k)
                .expect("sink run"),
        );
    });
    // The path applications take: global cache lookup and a fresh executor
    // per call.
    out.ns("core.execute_ns_64B", || {
        sink.reset();
        black_box(execute(&mut sink, &args4, &input64).expect("sink run"));
    });
    // The same dispatch under the observability wrapper, as a percentage on
    // top of the bare one.
    let bare = ns_per_call(|| {
        sink.reset();
        black_box(exec.run(&mut sink, &plan64, &input64).expect("sink run"));
    });
    let timed = ns_per_call(|| {
        sink.reset();
        let mut tc = TimedComm::new(&mut sink);
        black_box(exec.run(&mut tc, &plan64, &input64).expect("sink run"));
        black_box(tc.finish());
    });
    out.timed("obs.timed_overhead_pct", (timed - bare) / bare * 100.0);

    let tenants = two_tenants();
    out.us("core.tenant_merge_us", || {
        black_box(merge_and_verify(&tenants).expect("disjoint windows verify"));
    });
}

/// Rank 0 of a two-rank world times `BATCHES` batches of `per_batch`
/// exchanges; returns the median nanoseconds per batch.
fn two_rank_batches<C: Comm>(
    c: &mut C,
    per_batch: usize,
    exchange: impl Fn(&mut C) -> CommResult<()>,
) -> CommResult<f64> {
    // One untimed batch warms the plan-free path (mailboxes, sockets).
    let mut batches = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let start = Instant::now();
        for _ in 0..per_batch {
            exchange(c)?;
        }
        if batch > 0 {
            batches.push(start.elapsed().as_nanos() as f64);
        }
    }
    Ok(median(&batches))
}

fn ping<C: Comm>(c: &mut C) -> CommResult<()> {
    let peer = 1 - c.rank();
    if c.rank() == 0 {
        c.send(peer, 1, vec![7u8; 64])?;
        c.recv(peer, 2, 64)?;
    } else {
        c.recv(peer, 1, 64)?;
        c.send(peer, 2, vec![7u8; 64])?;
    }
    Ok(())
}

/// `STREAM_PER_BATCH` one-way 256 KiB messages, then a one-byte receipt so
/// the sender's clock covers delivery.
fn stream<C: Comm>(c: &mut C) -> CommResult<()> {
    let peer = 1 - c.rank();
    for _ in 0..STREAM_PER_BATCH {
        if c.rank() == 0 {
            c.send(peer, 3, vec![7u8; KIB256])?;
        } else {
            c.recv(peer, 3, KIB256)?;
        }
    }
    if c.rank() == 0 {
        c.recv(peer, 4, 1)?;
    } else {
        c.send(peer, 4, vec![1])?;
    }
    Ok(())
}

/// `(round trip in us, one-way stream in MB/s)` as rank 0 saw them.
fn pair_numbers(per_rank: Vec<CommResult<(f64, f64)>>) -> Result<(f64, f64), String> {
    let (ping_ns, stream_ns) = per_rank
        .into_iter()
        .next()
        .expect("two ranks ran")
        .map_err(|e| format!("two-rank probe failed: {e}"))?;
    let rtt_us = ping_ns / PING_PER_BATCH as f64 / 1e3;
    let mbps = (STREAM_PER_BATCH * KIB256) as f64 / 1e6 / (stream_ns / 1e9);
    Ok((rtt_us, mbps))
}

fn pair_body<C: Comm>(c: &mut C) -> CommResult<(f64, f64)> {
    Ok((
        two_rank_batches(c, PING_PER_BATCH, ping)?,
        two_rank_batches(c, 1, stream)?,
    ))
}

fn comm(out: &mut Out) -> Result<(), String> {
    let mut acc = vec![0u8; 64];
    let src = vec![0u8; 64];
    out.ns("comm.reduce_ns_64B.f64_sum", || {
        reduce_into(DType::F64, ReduceOp::Sum, &mut acc, black_box(&src)).expect("sum");
    });
    // One spare element in front lets the unaligned case start one byte in.
    let mut acc = vec![0u8; KIB256 + 8];
    let src = vec![0u8; KIB256 + 8];
    for (name, dtype) in [
        ("comm.reduce_GBps.f64_sum", DType::F64),
        ("comm.reduce_GBps.f32_sum", DType::F32),
        ("comm.reduce_GBps.i32_sum", DType::I32),
        ("comm.reduce_GBps.u8_sum", DType::U8),
    ] {
        out.gbps(name, KIB256, || {
            reduce_into(dtype, ReduceOp::Sum, &mut acc[8..], black_box(&src[8..])).expect("sum");
        });
    }
    out.gbps("comm.reduce_GBps.f64_sum_unaligned", KIB256, || {
        reduce_into(
            DType::F64,
            ReduceOp::Sum,
            &mut acc[1..KIB256 + 1],
            black_box(&src[1..KIB256 + 1]),
        )
        .expect("sum");
    });

    let opts = WorldOptions {
        deadline: crate::world::DEADLINE,
    };
    let (rtt_us, mbps) = pair_numbers(try_run_ranks_with(2, opts, pair_body))?;
    out.timed("comm.thread_pingpong_us", rtt_us);
    out.timed("comm.thread_stream_MBps", mbps);
    Ok(())
}

fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let a = TcpStream::connect(listener.local_addr()?)?;
    let (b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    Ok((a, b))
}

fn net(out: &mut Out) -> Result<(), String> {
    let payload64 = vec![7u8; 64];
    let mut wire = Vec::with_capacity(KIB256 + 64);
    out.ns("net.frame_encode_ns", || {
        wire.clear();
        write_frame_parts(&mut wire, KIND_MSG, 1, 9, &[black_box(&payload64)]).expect("encode");
    });
    out.ns("net.frame_decode_ns", || {
        black_box(read_frame(&mut black_box(&wire[..])).expect("decode"));
    });
    wire.clear();
    write_frame_parts(&mut wire, KIND_MSG, 1, 9, &[&vec![7u8; KIB256]]).expect("encode");
    out.gbps("net.frame_decode_GBps_256K", KIB256, || {
        black_box(read_frame(&mut black_box(&wire[..])).expect("decode"));
    });

    // One thread, both ends of one connection: the syscall and kernel floor
    // with nobody to wake.
    let (mut a, mut b) = loopback_pair().map_err(|e| format!("loopback pair: {e}"))?;
    let frame = Frame::msg(0, 1, payload64.clone());
    let rtt_ns = ns_per_call(|| {
        write_frame(&mut a, &frame).expect("loopback write");
        black_box(read_frame(&mut b).expect("loopback read"));
        write_frame(&mut b, &frame).expect("loopback write");
        black_box(read_frame(&mut a).expect("loopback read"));
    });
    out.timed("net.loopback_rtt_us", rtt_ns / 1e3);

    let (rtt_us, mbps) = pair_numbers(try_run_socket_ranks_with(2, crate::world::DEADLINE, |c| {
        pair_body(c)
    }))?;
    out.timed("net.pingpong_us_64B", rtt_us);
    // What the reader thread, the mutex and the condvar hand-off add to the
    // bare round trip.
    out.timed("net.wakeup_overhead_us", rtt_us - rtt_ns / 1e3);
    out.timed("net.stream_MBps_256K", mbps);

    let mut failed = None;
    out.ms("net.join_ms", || {
        let ranks = try_run_socket_ranks_with(4, crate::world::DEADLINE, |_| Ok(()));
        if let Some(e) = ranks.into_iter().find_map(Result::err) {
            failed = Some(e.to_string());
        }
    });
    failed.map_or(Ok(()), |e| {
        Err(format!("socket world bring-up failed: {e}"))
    })
}

fn opt(out: &mut Out) -> Result<(), String> {
    // 4 MiB blocks: the size at which chunking stripes one transfer across
    // a Frontier node's NIC ports.
    let (_, ring) = world(CollectiveOp::Allgather, Algorithm::Ring, 8, 4 << 20);
    out.us("opt.pipeline_us", || {
        black_box(pipeline(&ring, OPT_PIPELINE_CHUNK_BYTES).expect("pipeline"));
    });
    let halo = naive_block_exchange(8, 8, 64);
    out.us("opt.aggregate_us", || {
        black_box(aggregate(&halo, OPT_AGGREGATE_MAX_FUSE_BYTES).expect("aggregate"));
    });
    let recmult2 = Algorithm::RecursiveMultiplying { k: 2 };
    let (_, ag) = world(CollectiveOp::Allgather, recmult2, 8, 64 << 10);
    let topo = TopoDesc { nodes: 2, ppn: 4 };
    let layout = layout_for(CollectiveOp::Allgather);
    out.us("opt.remap_us", || {
        black_box(remap(&ag, &topo, layout).expect("remap"));
    });

    // The full gate (verify, byte-identity, re-price) around a rewrite that
    // happens: 64 KiB ring blocks cut into 16 KiB chunks.
    let (_, gated) = world(CollectiveOp::Allgather, Algorithm::Ring, 8, 64 << 10);
    let manager = PassManager::new(Machine::frontier(8, 1))
        .with_pass(PassKind::Pipeline {
            chunk_bytes: 16 << 10,
        })
        .with_pass(PassKind::Aggregate {
            max_fuse_bytes: OPT_AGGREGATE_MAX_FUSE_BYTES,
        });
    out.us("opt.pass_manager_us", || {
        black_box(manager.run(&gated).expect("gated passes"));
    });

    let report = PassManager::new(Machine::frontier(8, 1))
        .with_pass(PassKind::Pipeline {
            chunk_bytes: OPT_PIPELINE_CHUNK_BYTES,
        })
        .run(&ring)
        .map_err(|e| format!("pipeline gate on allgather ring p=8 4 MiB: {e}"))?;
    out.exact(
        "opt.pipeline_gain",
        report.cost_final_ns / report.cost_initial_ns,
    );
    out.exact(
        "opt.steps_after",
        report
            .schedules
            .iter()
            .map(|s| s.steps.len())
            .sum::<usize>() as f64,
    );
    Ok(())
}

fn sim_and_models(out: &mut Out, seed: u64) -> Result<(), String> {
    let recmult4 = Algorithm::RecursiveMultiplying { k: 4 };
    let (_, plans16) = world(CollectiveOp::Allreduce, recmult4, 16, 64 << 10);
    let frontier16 = Machine::frontier(2, 8);
    out.us("sim.cost_us", || {
        black_box(cost(&frontier16, &plans16).expect("price"));
    });
    let net = NetParams::frontier_like();
    out.us("models.predict_us", || {
        black_box(predict_from_schedule(&net, &plans16));
    });

    let (_, plans64) = world(CollectiveOp::Allreduce, recmult4, 64, 64 << 10);
    let traces: Vec<_> = plans64.iter().map(|s| compile(s).to_trace()).collect();
    let ops: usize = traces.iter().map(|t| t.ops.len()).sum();
    let frontier64 = Machine::frontier(8, 8);
    let ns = ns_per_call(|| {
        black_box(simulate(&frontier64, &traces).expect("simulate"));
    });
    out.timed("sim.ops_per_s", ops as f64 * 1e9 / ns);

    let planner = Planner::build(seed)?;
    out.exact("sim.model_gap_pct", planner.model_gap_pct()?);
    out.exact("sim_makespan_geo_us", planner.sim_makespan_geo_us());
    Ok(())
}

fn select(out: &mut Out) -> Result<(), String> {
    let machine = Machine::testbed(8, 1, 2);
    let svc = SelectionService::new(Policy::default());
    svc.seed_priors(
        &machine,
        &[CollectiveOp::Allreduce, CollectiveOp::Bcast],
        &[64, 4096, 65_536, 1 << 20],
        4,
    )?;
    svc.publish();
    if svc.lookup(CollectiveOp::Allreduce, 8, 4096).is_none() {
        return Err("seeded selection table misses its own bucket".into());
    }
    out.ns("select.lookup_ns", || {
        black_box(svc.lookup(CollectiveOp::Allreduce, 8, black_box(4096)));
    });
    let variant = Variant::plain(Algorithm::RecursiveMultiplying { k: 2 });
    out.ns("select.observe_ns", || {
        svc.observe(CollectiveOp::Allreduce, 8, 4096, variant, black_box(1500.0));
    });
    out.us("select.publish_us", || svc.publish());
    let frontier16 = Machine::frontier(2, 8);
    let mut failed = None;
    out.ms("select.seed_point_ms", || {
        PlanCache::global().clear();
        let fresh = SelectionService::new(Policy::default());
        if let Err(e) = fresh.seed_point(&frontier16, CollectiveOp::Allreduce, 1024, 4) {
            failed = Some(e);
        }
    });
    failed.map_or(Ok(()), Err)
}

fn replay_and_json(out: &mut Out) -> Result<(), String> {
    let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::KRing { k: 2 });
    out.ms("replay.record_ms", || {
        black_box(record_thread_run(&args, 8, 512, 11));
    });
    let artifact = record_thread_run(&args, 8, 512, 11);
    if !replay(&artifact).map_err(|e| e.to_string())?.is_clean() {
        return Err("a fault-free recording diverged on replay".into());
    }
    out.ms("replay.replay_ms", || {
        black_box(replay(&artifact).expect("replay"));
    });
    let text = artifact.to_json();
    out.ms("replay.parse_ms", || {
        black_box(Artifact::from_json(&text).expect("artifact parses"));
    });
    // Bytes per microsecond is MB/s.
    let ns = ns_per_call(|| {
        black_box(exacoll_json::parse(&text).expect("json parses"));
    });
    out.timed("json.parse_MBps", text.len() as f64 / (ns / 1e3));
    Ok(())
}
