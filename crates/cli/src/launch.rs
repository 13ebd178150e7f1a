//! `exacoll launch` — multi-process execution on the TCP backend.
//!
//! The launcher hosts the rendezvous listener, forks one worker **process**
//! per rank (re-invoking its own binary with `EXACOLL_RANK`/`EXACOLL_ROOT`
//! in the environment), and waits for all of them under a hard timeout so a
//! matching-logic deadlock fails the job instead of hanging it. Each worker
//! joins the socket world, runs the chosen collective, verifies its own
//! output against the sequential reference (inputs are the deterministic
//! [`Request::inputs`], so every process can reconstruct all inputs without
//! any data exchange), and exits non-zero on any mismatch.
//!
//! `--spawn N` launches only ranks `0..N` locally and prints the
//! environment for the rest, so the remaining workers can be started by
//! hand on other hosts (`--bind` must then name an external interface).
//!
//! With `--chrome FILE` or `--record DIR`, each worker runs under the one
//! recorder, [`RecordComm`], and writes its [`RankLog`] to the file named by
//! `EXACOLL_RECORD` — *before* any execute error propagates, so a failed run
//! still leaves evidence. The launcher builds both outputs from those files:
//! the Chrome trace, one track per rank, from their timed events, and the
//! self-contained replay artifact under `DIR`, checkable offline with
//! `exacoll replay`. Only `--record` digests payloads.

use crate::args::{alg_to_spec, parse_backend, Args, Backend};
use crate::commands::{parse_request, record_feedback, resolve_auto, table_path};
use exacoll_comm::{fnv1a, RecordComm};
use exacoll_core::request::DEFAULT_SEED;
use exacoll_core::schedule::execute_compiled;
use exacoll_core::spec::opt_to_spec;
use exacoll_core::{execute, Algorithm, CollArgs, CollectiveOp, Request};
use exacoll_net::{serve_rendezvous, SocketOptions};
use exacoll_obs::{chrome_trace, makespan_ns, rank_tracks, BackendRun, ProfileSpec, RankTimeline};
use exacoll_opt::cached_plan;
use exacoll_replay::{Artifact, RankLog, RankStatus};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What to run: one request, bounded by a wall-clock timeout.
#[derive(Debug, Clone)]
struct LaunchSpec {
    /// The call every worker plans and runs (planning is deterministic, so
    /// all processes agree without exchanging a byte of plan state).
    request: Request,
    timeout: Duration,
    /// Set when `--select auto` resolved the algorithm: the learned-table
    /// path to feed the measured makespan back into. Launcher-only state —
    /// `worker_argv` hands workers the concrete `--alg`, never `--select`.
    select_table: Option<String>,
    /// `--record DIR`: where the launcher writes the replay artifact, and
    /// what tells a worker to digest what it records.
    record: Option<String>,
}

impl LaunchSpec {
    fn from_args(args: &Args) -> Result<LaunchSpec, String> {
        let mut request = parse_request(args, 1024)?;
        let mut select_table = None;
        if args.opt("select").is_some() {
            // Priors are priced on the machine model named by `--machine`
            // (the TCP world itself has no α-β-γ parameters); observations
            // then come from real sockets.
            let machine = crate::args::parse_machine(
                args.opt("machine").unwrap_or("testbed"),
                request.ranks(),
                1,
            )?;
            request = resolve_auto(args, request, &machine)?;
            select_table = Some(table_path(args).to_string());
        }
        Ok(LaunchSpec {
            request,
            timeout: Duration::from_secs(args.opt_usize("timeout", 120)? as u64),
            select_table,
            record: args.opt("record").map(String::from),
        })
    }

    /// The worker argv re-invoking this spec (parseable by
    /// [`LaunchSpec::from_args`]).
    fn worker_argv(&self) -> Vec<String> {
        let req = &self.request;
        let mut argv = vec![
            "launch".into(),
            req.args().op.to_string(),
            "--alg".into(),
            alg_to_spec(&req.args().alg),
            "--ranks".into(),
            req.ranks().to_string(),
            "--timeout".into(),
            self.timeout.as_secs().to_string(),
        ];
        match req.counts() {
            Some(c) => argv.extend(["--counts".into(), c.spec()]),
            None => argv.extend(["--size".into(), req.bytes().to_string()]),
        }
        if req.tenants() > 1 {
            argv.extend(["--tenants".into(), req.tenants().to_string()]);
        }
        if let Some(dir) = &self.record {
            argv.extend(["--record".into(), dir.clone()]);
        }
        if !req.opt().is_none() {
            argv.extend([
                "--opt".into(),
                opt_to_spec(req.opt()),
                "--chunk".into(),
                req.chunk().to_string(),
                "--fuse".into(),
                req.fuse().to_string(),
            ]);
        }
        argv
    }

    /// `op/alg[@passes]`, the label of logs and artifact cases.
    fn label(&self) -> String {
        format!(
            "{}/{}",
            self.request.args().op,
            self.request.variant().spec()
        )
    }
}

/// Entry point for the `launch` subcommand. Worker processes are told apart
/// from the launcher by the presence of `EXACOLL_RANK` in the environment.
pub fn run(args: &Args) -> Result<(), String> {
    if std::env::var_os("EXACOLL_RANK").is_some() {
        worker(&LaunchSpec::from_args(args)?)
    } else {
        launcher(args)
    }
}

fn env_var(key: &str) -> Result<String, String> {
    std::env::var(key).map_err(|_| format!("{key} is not set or not UTF-8"))
}

/// A dissemination barrier, used to align worker epochs before the timed
/// collective and to keep output ordering clean after it.
fn barrier<C: exacoll_comm::Comm>(c: &mut C) -> Result<(), String> {
    let args = CollArgs::new(CollectiveOp::Barrier, Algorithm::Dissemination { k: 2 });
    execute(c, &args, &[])
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// One worker process: join the socket world, run the request, verify
/// against the sequential reference, and dump the recorded log if asked.
fn worker(spec: &LaunchSpec) -> Result<(), String> {
    let rank: usize = env_var("EXACOLL_RANK")?
        .parse()
        .map_err(|_| "EXACOLL_RANK must be an integer".to_string())?;
    let root: SocketAddr = env_var("EXACOLL_ROOT")?
        .parse()
        .map_err(|_| "EXACOLL_ROOT must be a socket address".to_string())?;
    let fail = |stage: &str, e: String| format!("rank {rank} ({stage}): {e}");
    let req = &spec.request;

    let mut opts = SocketOptions::new(root);
    opts.deadline = spec.timeout;
    let mut c =
        exacoll_net::join(rank, req.ranks(), &opts).map_err(|e| fail("join", e.to_string()))?;

    // This rank's plan, through the process-wide plan cache: every worker
    // lowers the whole world, rewrites it with the request's passes, merges
    // its tenants and proves the result, identically in every process, so
    // all workers post matching messages without exchanging a byte of plan
    // state. Done before the entry barrier so the timed region measures
    // communication, not planning.
    let plan = cached_plan(req, rank).map_err(|e| fail("plan", e.to_string()))?;
    let inputs = req.inputs(DEFAULT_SEED);

    // Align the epoch across processes: everyone leaves the barrier within
    // one wire latency of each other, then starts its clock.
    barrier(&mut c).map_err(|e| fail("entry barrier", e))?;
    // Events are only recorded for a launch that asked for them, and only
    // digested for a replay artifact: digesting every payload byte is not
    // something a plain or a timed run should pay for.
    let dump = env_var("EXACOLL_RECORD").ok();
    let (result, events) = match &dump {
        None => (execute_compiled(&mut c, &plan, &inputs[rank]), Vec::new()),
        Some(_) => {
            let mut rc = match spec.record {
                Some(_) => RecordComm::for_replay(&mut c),
                None => RecordComm::new(&mut c),
            };
            let result = execute_compiled(&mut rc, &plan, &inputs[rank]);
            (result, rc.finish().events)
        }
    };
    // The log is written before any execute error propagates, so a failed
    // run still leaves its half of the evidence.
    if let Some(path) = dump {
        let log = RankLog {
            rank,
            size: req.ranks(),
            status: match &result {
                Ok(_) => RankStatus::Ok,
                Err(e) => RankStatus::Error(e.to_string()),
            },
            input: inputs[rank].clone(),
            output_digest: result.as_ref().ok().map(|o| fnv1a(o)),
            events,
        };
        std::fs::write(&path, log.to_json().pretty())
            .map_err(|e| fail("record", format!("writing {path}: {e}")))?;
    }
    let output = result.map_err(|e| fail("execute", e.to_string()))?;

    let expected = req
        .reference(&inputs)
        .map_err(|e| fail("reference", e.to_string()))?;
    if output != expected[rank] {
        return Err(fail(
            "verify",
            format!(
                "output mismatch: got {} B, expected {} B",
                output.len(),
                expected[rank].len()
            ),
        ));
    }
    barrier(&mut c).map_err(|e| fail("exit barrier", e))?;
    if rank == 0 {
        println!(
            "rank 0: {} verified on {} process(es), {}",
            spec.label(),
            req.ranks(),
            req.describe()
        );
    }
    Ok(())
}

/// Resolve the binary to re-invoke for workers. `EXACOLL_BIN` overrides
/// `current_exe` so test harnesses (whose `current_exe` is the test runner)
/// can point workers at the real CLI.
fn worker_binary() -> Result<PathBuf, String> {
    if let Some(bin) = std::env::var_os("EXACOLL_BIN") {
        return Ok(PathBuf::from(bin));
    }
    std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))
}

/// A fresh scratch directory for the per-rank dump files. Uniqueness needs
/// both the pid and a counter: one process may run several launches.
fn scratch_dir() -> Result<PathBuf, String> {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "exacoll-launch-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn dump_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.record.json"))
}

/// Spawn worker processes for ranks `0..spawn_n`, pointing each at its dump
/// file under `dump_dir`, if any.
fn spawn_workers(
    spec: &LaunchSpec,
    root: SocketAddr,
    spawn_n: usize,
    dump_dir: Option<&Path>,
) -> Result<Vec<Child>, String> {
    let bin = worker_binary()?;
    let argv = spec.worker_argv();
    let mut children = Vec::with_capacity(spawn_n);
    for rank in 0..spawn_n {
        let mut cmd = Command::new(&bin);
        cmd.args(&argv)
            .env("EXACOLL_RANK", rank.to_string())
            .env("EXACOLL_ROOT", root.to_string())
            .stdin(Stdio::null());
        if let Some(dir) = dump_dir {
            cmd.env("EXACOLL_RECORD", dump_path(dir, rank));
        }
        children.push(
            cmd.spawn()
                .map_err(|e| format!("spawning rank {rank} ({}): {e}", bin.display()))?,
        );
    }
    Ok(children)
}

/// Wait for all children within `timeout`; kill and report whatever is
/// still running when it expires. Returns per-rank failure descriptions.
fn wait_workers(children: &mut [Child], timeout: Duration) -> Vec<String> {
    let start = Instant::now();
    let mut failures = Vec::new();
    let mut done = vec![false; children.len()];
    while done.iter().any(|d| !d) {
        let mut progressed = false;
        for (rank, child) in children.iter_mut().enumerate() {
            if done[rank] {
                continue;
            }
            match child.try_wait() {
                Ok(Some(status)) => {
                    done[rank] = true;
                    progressed = true;
                    if !status.success() {
                        failures.push(format!("rank {rank} exited with {status}"));
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    done[rank] = true;
                    progressed = true;
                    failures.push(format!("rank {rank} unwaitable: {e}"));
                }
            }
        }
        if done.iter().all(|d| *d) {
            break;
        }
        if start.elapsed() >= timeout {
            for (rank, child) in children.iter_mut().enumerate() {
                if !done[rank] {
                    let _ = child.kill();
                    let _ = child.wait();
                    failures.push(format!("rank {rank} killed after {timeout:?} timeout"));
                }
            }
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    failures
}

/// Read back every rank's dump: its log, or why there is none that
/// belongs to rank `r` of `p`.
fn read_dumps(dir: &Path, p: usize) -> Vec<Result<RankLog, String>> {
    (0..p)
        .map(|rank| {
            let path = dump_path(dir, rank);
            std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| exacoll_json::parse(&text))
                .and_then(|v| RankLog::from_json(&v, rank, p).map_err(|e| e.to_string()))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Merge the per-rank logs into one self-contained artifact. A rank whose
/// dump is missing or unreadable (worker died before it could record) gets
/// an error-status log with a reconstructed input and an empty event list —
/// the replayer then pins its first divergence at step 0.
fn merge_dumps(spec: &LaunchSpec, dumps: &[Result<RankLog, String>]) -> Artifact {
    let p = spec.request.ranks();
    let ranks = (dumps.iter().enumerate())
        .map(|(rank, dump)| {
            dump.clone().unwrap_or_else(|e| RankLog {
                rank,
                size: p,
                status: RankStatus::Error(format!("no replay fragment: {e}")),
                input: spec.request.inputs(DEFAULT_SEED).swap_remove(rank),
                output_digest: None,
                events: Vec::new(),
            })
        })
        .collect();
    Artifact {
        case: Some(format!("{}/p{p}/launch", spec.label())),
        backend: "tcp".into(),
        fault_seed: None,
        request: spec.request.clone(),
        ranks,
    }
}

/// Where a local world rendezvouses and what it leaves behind.
struct LocalWorld<'a> {
    /// Rendezvous listen address.
    bind: &'a str,
    /// Ranks `0..spawn` are started here; the rest by hand, elsewhere.
    spawn: usize,
    /// Collect every rank's timeline.
    timelines: bool,
}

/// Run one world for `spec`: host the rendezvous, spawn the local workers,
/// wait for them under the timeout, gather what `opts` asks for and clean
/// up. `announce` is told the rendezvous address once it is bound. This is
/// the engine under both `exacoll launch` and `exacoll profile --backend
/// tcp`.
fn run_local_world(
    spec: &LaunchSpec,
    opts: &LocalWorld<'_>,
    announce: impl FnOnce(SocketAddr),
) -> Result<Option<Vec<RankTimeline>>, String> {
    let listener = TcpListener::bind(opts.bind)
        .map_err(|e| format!("binding rendezvous on {}: {e}", opts.bind))?;
    let root = listener.local_addr().map_err(|e| e.to_string())?;
    let p = spec.request.ranks();
    let deadline = spec.timeout + Duration::from_secs(5);
    let server = std::thread::spawn(move || serve_rendezvous(&listener, p, deadline));
    announce(root);

    let dump_dir = (opts.timelines || spec.record.is_some())
        .then(scratch_dir)
        .transpose()?;
    let result = (|| {
        let mut children = spawn_workers(spec, root, opts.spawn, dump_dir.as_deref())?;
        // Workers get the full timeout; the launcher allows a little extra
        // so worker-side deadlines fire first with a precise error.
        let failures = wait_workers(&mut children, spec.timeout + Duration::from_secs(10));
        let dumps = dump_dir.as_deref().map(|dir| read_dumps(dir, p));
        // Merge the replay artifact before failure handling: a failed run is
        // exactly when the artifact matters most.
        if let (Some(dumps), Some(out_dir)) = (&dumps, &spec.record) {
            std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
            let name = crate::commands::sanitize_artifact_name(&format!(
                "{}-{}-p{p}-launch",
                spec.request.args().op,
                spec.request.variant().spec()
            ));
            let path = format!("{out_dir}/{name}.replay.json");
            std::fs::write(&path, merge_dumps(spec, dumps).to_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("replay artifact written to {path} (verify with `exacoll replay {path}`)");
        }
        if !failures.is_empty() {
            return Err(format!(
                "{}/{} worker(s) failed:\n  {}",
                failures.len(),
                opts.spawn,
                failures.join("\n  ")
            ));
        }
        let timeline = |log: RankLog| RankTimeline {
            rank: log.rank,
            size: log.size,
            events: log.events,
        };
        let timelines = |dumps: Vec<Result<RankLog, String>>| {
            dumps
                .into_iter()
                .map(|d| d.map(timeline))
                .collect::<Result<_, _>>()
        };
        dumps.filter(|_| opts.timelines).map(timelines).transpose()
    })();
    if let Some(dir) = &dump_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Err(e) = server.join().map_err(|_| "rendezvous thread panicked")? {
        // Rendezvous failure usually surfaces as worker failures too; only
        // add it when the workers somehow looked clean.
        if result.is_ok() {
            return Err(format!("rendezvous failed: {e}"));
        }
    }
    result
}

/// Profile one request on the TCP backend: run a full local world with
/// timeline collection and fold the result into the same [`BackendRun`]
/// shape the thread/sim profilers produce, so critical-path extraction,
/// residual analysis, and Chrome export apply unchanged.
pub fn profile_tcp(spec: &ProfileSpec) -> Result<BackendRun, String> {
    let launch = LaunchSpec {
        request: spec.request.clone(),
        timeout: Duration::from_secs(120),
        select_table: None,
        record: None,
    };
    let opts = LocalWorld {
        bind: "127.0.0.1:0",
        spawn: launch.request.ranks(),
        timelines: true,
    };
    let timelines = run_local_world(&launch, &opts, |_| {})?.expect("timelines requested");
    let makespan = makespan_ns(&timelines);
    Ok(BackendRun {
        backend: "tcp",
        timelines,
        makespan_ns: makespan,
    })
}

/// The launcher process: run the world (printing the environment of ranks
/// to be started by hand on other hosts), then write the Chrome trace and
/// feed the selection table from its timelines.
fn launcher(args: &Args) -> Result<(), String> {
    let spec = LaunchSpec::from_args(args)?;
    let p = spec.request.ranks();
    match parse_backend(args.opt("backend").unwrap_or("tcp"))? {
        Backend::Tcp => {}
        other => {
            return Err(format!(
                "launch runs multi-process worlds on the tcp backend only (got {other:?}; \
                 use `exacoll profile` for thread|sim)"
            ))
        }
    }
    let spawn = args.opt_usize("spawn", p)?;
    if spawn > p {
        return Err(format!("--spawn {spawn} exceeds --ranks {p}"));
    }
    let chrome = args.opt("chrome");
    for (flag, given) in [
        ("--chrome", chrome.is_some()),
        ("--record", spec.record.is_some()),
        ("--select auto", spec.select_table.is_some()),
    ] {
        if given && spawn != p {
            return Err(format!(
                "{flag} needs all ranks local (don't combine with --spawn)"
            ));
        }
    }

    let opts = LocalWorld {
        bind: args.opt("bind").unwrap_or("127.0.0.1:0"),
        spawn,
        // Timelines are needed for a Chrome trace *and* for feeding the
        // measured makespan back into the selection table.
        timelines: chrome.is_some() || spec.select_table.is_some(),
    };
    let timelines = run_local_world(&spec, &opts, |root| {
        eprintln!(
            "launch: {} on {p} process(es), {}, rendezvous at {root}",
            spec.label(),
            spec.request.describe()
        );
        if spawn < p {
            let argv = spec.worker_argv().join(" ");
            eprintln!("start the remaining ranks by hand:");
            for rank in spawn..p {
                println!("EXACOLL_RANK={rank} EXACOLL_ROOT={root} exacoll {argv}");
            }
        }
    })?;
    let Some(timelines) = timelines else {
        return Ok(());
    };
    if let Some(path) = chrome {
        let doc = chrome_trace(&[("tcp", timelines.as_slice())]);
        let tracks = rank_tracks(&doc)?;
        std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "chrome trace written to {path} ({} track(s), makespan {:.3} us); \
             open it at https://ui.perfetto.dev",
            tracks.len(),
            makespan_ns(&timelines) / 1000.0
        );
    }
    if spec.select_table.is_some() {
        record_feedback(args, &spec.request, &[makespan_ns(&timelines)])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::spec::CountsSpec;

    fn args(s: &str) -> Args {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&argv).unwrap()
    }

    fn spec(s: &str) -> Result<LaunchSpec, String> {
        LaunchSpec::from_args(&args(s))
    }

    #[test]
    fn launch_spec_parses_the_acceptance_grammar() {
        let spec =
            spec("launch --ranks 8 --backend tcp allreduce --alg recmult:4 --size 65536").unwrap();
        let req = &spec.request;
        assert_eq!(req.args().op, CollectiveOp::Allreduce);
        assert_eq!(req.args().alg, Algorithm::RecursiveMultiplying { k: 4 });
        assert_eq!((req.ranks(), req.input_len(0)), (8, 65536));
        assert_eq!(spec.timeout, Duration::from_secs(120));
    }

    #[test]
    fn worker_argv_round_trips_every_combination() {
        for flags in [
            "allreduce --alg recmult:4 --ranks 8 --size 64K --timeout 30",
            "alltoall --alg pairwise --ranks 6 --size 1000",
            "barrier --alg dissemination:2 --ranks 4",
            "allgather --alg ring --ranks 4 --size 64K --opt pipeline,agg --chunk 4K --fuse 256",
            "allgather --alg ring --ranks 4 --counts 4K,0,64,1M --tenants 3",
            "allgather --alg ring --counts 4K,0,64,256 --opt pipeline --chunk 1K",
            "reduce_scatter --alg ring --ranks 4 --counts 64,16,0,48 --opt agg --tenants 2",
            "allreduce --alg recmult:2 --ranks 4 --size 4K --tenants 2 --opt pipeline",
        ] {
            let spec = spec(&format!("launch {flags}")).unwrap();
            let back = LaunchSpec::from_args(&Args::parse(&spec.worker_argv()).unwrap()).unwrap();
            assert_eq!(back.request, spec.request, "{flags}");
            assert_eq!(back.timeout, spec.timeout, "{flags}");
        }
        let opted = spec(
            "launch allgather --alg ring --ranks 4 --size 64K --opt pipeline,agg \
             --chunk 4K --fuse 256",
        )
        .unwrap();
        let req = &opted.request;
        assert!(req.opt().pipeline && req.opt().aggregate);
        assert_eq!((req.chunk(), req.fuse()), (4096, 256));
        let v = spec("launch allgather --alg ring --ranks 4 --counts 4K,0,64,1M --tenants 3")
            .unwrap()
            .request;
        assert_eq!(v.counts(), Some(&CountsSpec::parse("4K,0,64,1M").unwrap()));
        assert_eq!((v.tenants(), v.input_len(0), v.input_len(1)), (3, 4096, 0));
        // Plain specs keep the historical argv shape.
        let plain = spec("launch allreduce --alg ring --ranks 2").unwrap();
        assert!(!plain
            .worker_argv()
            .iter()
            .any(|a| a == "--opt" || a == "--tenants"));
    }

    #[test]
    fn launcher_rejects_non_tcp_backends_and_bad_spawn() {
        let err = launcher(&args(
            "launch allreduce --alg ring --ranks 2 --backend thread",
        ))
        .unwrap_err();
        assert!(err.contains("tcp backend only"), "got: {err}");
        let err = launcher(&args("launch allreduce --alg ring --ranks 2 --spawn 3")).unwrap_err();
        assert!(err.contains("--spawn"), "got: {err}");
    }

    #[test]
    fn launch_spec_resolves_select_auto_without_alg() {
        let dir = std::env::temp_dir().join(format!("exacoll-launch-auto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let table = dir.join("table.json");
        let line = format!(
            "launch allreduce --select auto --ranks 4 --size 1K --table {}",
            table.display()
        );
        let first = spec(&line).unwrap();
        assert_eq!(
            first.select_table.as_deref(),
            Some(&*table.display().to_string())
        );
        // Lazy seeding persisted the priors.
        assert!(table.exists());
        // A second resolve reuses the learned table (no reseeding crash),
        // and a tenant launch selects under the same single-tenant bucket.
        assert_eq!(spec(&line).unwrap().request, first.request);
        let two = spec(&format!("{line} --tenants 2")).unwrap().request;
        assert_eq!((two.variant(), two.tenants()), (first.request.variant(), 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shapes_the_request_refuses_are_rejected_up_front() {
        // bruck is an allgather/alltoall algorithm, not an allreduce one, and
        // rotates fixed-size blocks: uniform counts only.
        assert!(spec("launch allreduce --alg bruck --ranks 4").is_err());
        assert!(spec("launch allgather --alg bruck --ranks 4 --counts 8,0,8,0").is_err());
        // The vector is the shape: it fixes the rank count and the size.
        assert!(spec("launch allgather --alg ring --ranks 8 --counts 8,8").is_err());
        assert!(spec("launch allgather --alg ring --ranks 2 --counts 8,8 --size 64").is_err());
        assert!(spec("launch allreduce --alg ring --ranks 4 --tenants 0").is_err());
        assert!(spec("launch allreduce --alg ring --ranks 4 --chunk 0").is_err());
        assert!(spec("launch allreduce --select always --ranks 4").is_err());
    }

    #[test]
    fn a_timeline_for_another_rank_or_world_is_refused() {
        let dir = std::env::temp_dir().join(format!("exacoll-tl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Write `rank{file}.record.json` holding a log that says it is
        // `rank` of `size`.
        let write = |file: usize, rank: usize, size: usize| {
            let log = RankLog {
                rank,
                size,
                status: RankStatus::Ok,
                input: Vec::new(),
                output_digest: None,
                events: Vec::new(),
            };
            std::fs::write(dump_path(&dir, file), log.to_json().pretty()).unwrap();
        };
        write(0, 0, 2);
        write(1, 1, 2);
        assert!(read_dumps(&dir, 2).iter().all(Result::is_ok));
        for (rank, size) in [(5, 2), (0, 2), (1, 3)] {
            write(1, rank, size);
            let err = read_dumps(&dir, 2).swap_remove(1).unwrap_err();
            assert!(err.contains("rank log 1 of 2"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
