//! Subcommand implementations.

use crate::args::{parse_alg, parse_backend, parse_size, Args, Backend};
use exacoll_core::registry::{
    candidates, default_algorithm, table_i, unique_candidates, unique_candidates_v,
};
use exacoll_core::request::DEFAULT_SEED;
use exacoll_core::schedule::eval::{evaluate, probe_inputs};
use exacoll_core::schedule::provenance::Equivalence;
use exacoll_core::schedule::verify::{verify, ScheduleStats};
use exacoll_core::spec::{
    parse_opt_spec, CountsSpec, OptSpec, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES,
};
use exacoll_core::{Algorithm, CollArgs, CollectiveOp, Request};
use exacoll_obs::{
    analyze_residuals, chrome_trace, profile_sim, profile_thread, rank_tracks, BackendRun, Metrics,
    ProfileSpec, RankTimeline,
};
use exacoll_opt::{layout_for, plan_world, Gate, PassKind, PassManager, TopoDesc};
use exacoll_select::{bucket_range, vendor, Policy, SelectionService};
use exacoll_sim::cost::{latency, measure};
use exacoll_sim::report::fmt_size;
use exacoll_sim::{Machine, Table};

/// Top-level usage text.
pub const USAGE: &str = "usage:
  exacoll sweep    --machine <name> --nodes N [--ppn P] --op <coll> [--sizes 8,64K,...] [--max-k K]
  exacoll radix    --machine <name> --nodes N [--ppn P] --op <coll> --size BYTES [--max-k K]
  exacoll time     --machine <name> --nodes N [--ppn P] --op <coll> --alg <alg[:k]> --size BYTES
  exacoll chaos    [--ranks P] [--max-k K] [--seed S] [--bytes N] [--record DIR]
  exacoll profile  <coll> (--alg <alg[:k]> | --select auto) --ranks P [--ppn N]
                   [--machine <name>] [--size BYTES] [--counts LIST] [--tenants N]
                   [--backend thread|sim|tcp|both]
                   [--opt <passes>] [--chunk BYTES] [--fuse BYTES]
                   [--chrome FILE] [--metrics FILE] [--table FILE]
  exacoll launch   <coll> (--alg <alg[:k]> | --select auto) --ranks P [--size BYTES]
                   [--counts LIST] [--tenants N]
                   [--backend tcp] [--timeout SECS] [--chrome FILE] [--spawn N]
                   [--opt <passes>] [--chunk BYTES] [--fuse BYTES]
                   [--bind HOST:PORT] [--record DIR] [--table FILE] [--machine <name>]
  exacoll opt      <coll> --alg <alg[:k]> --ranks P [--ppn N] [--machine <name>]
                   [--size BYTES] [--counts LIST] [--passes pipeline,aggregate,remap]
                   [--chunk BYTES] [--fuse BYTES] [--check nonneg]
  exacoll select   <seed|show|diff|export|import> [--table FILE]
                   (seed: --machine <name> --nodes N [--ppn P] [--sizes ...] [--max-k K];
                    export: [--out FILE]; import: --from FILE)
  exacoll record   <coll> --alg <alg[:k]> --ranks P [--size BYTES] [--counts LIST]
                   [--tenants N] [--opt <passes>] [--chunk BYTES] [--fuse BYTES]
                   [--seed S] [--out FILE]
  exacoll replay   <artifact.json>
  exacoll verify   [--ranks P] [--max-k K] [--size BYTES] [--counts LIST]
  exacoll repro    <table1|fig07|fig08|fig09|fig10|fig11|selection|models|ablation|
                    alltoall|variance|all>   (EXACOLL_QUICK=1 for smoke scale)
  exacoll machines

machines: frontier | polaris | aurora | testbed
ops:      bcast reduce gather allgather allreduce barrier alltoall reduce_scatter
algs:     linear ring bruck pairwise binomial recdoubling knomial:K recmult:K
          kring:K reduce+bcast:K dissemination:K gbruck:R hier:PPN:K genmult:K
opt:      --opt takes none|pipeline|aggregate (comma-separated, aliases
          pipe|agg); thresholds default to 1M (--chunk) and 4K (--fuse)
counts:   --counts takes one byte count per rank (4K,0,64,...) in place of
          --ranks/--size and selects the irregular (\"v\") variant
          (allgather/reduce_scatter only); it composes with --tenants, --opt,
          --record and --select auto, which buckets the vector by its total
          nudged up by its skew";

/// Dispatch `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "sweep" => sweep(&args),
        "radix" => radix(&args),
        "time" => time(&args),
        "select" => select_cmd(&args),
        "chaos" => chaos(&args),
        "profile" => profile(&args),
        "opt" => opt_cmd(&args),
        "launch" => crate::launch::run(&args),
        "record" => record(&args),
        "replay" => replay(&args),
        "verify" => verify_schedules(&args),
        "repro" => crate::repro::run(&args),
        "machines" => machines(),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Best algorithm per message size, with vendor comparison.
fn sweep(args: &Args) -> Result<(), String> {
    let m = args.machine()?;
    let op = args.op()?;
    let sizes = args.sizes()?;
    let max_k = args.opt_usize("max-k", 16)?;
    let cands = unique_candidates(op, m.ranks(), max_k);
    let mut t = Table::new(
        format!("{op} sweep on {}", m.name),
        &["size", "best alg", "latency (us)", "vs vendor"],
    );
    for &n in &sizes {
        let priced = cands
            .iter()
            .map(|&alg| match latency(&m, op, alg, n) {
                Ok(t) => Ok((alg, t)),
                Err(e) => Err(format!("{op} / {alg}: {e}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let best = priced
            .into_iter()
            .min_by_key(|&(_, t)| t)
            .ok_or("no candidate algorithms")?;
        let tv = latency(&m, op, vendor(op, n, m.ranks()), n).map_err(|e| e.to_string())?;
        t.row(vec![
            fmt_size(n),
            best.0.to_string(),
            format!("{:.2}", best.1.as_micros()),
            format!("{:.2}x", tv / best.1),
        ]);
    }
    t.print();
    Ok(())
}

/// Latency of every radix of the op's generalized kernels at one size.
fn radix(args: &Args) -> Result<(), String> {
    let m = args.machine()?;
    let op = args.op()?;
    let n = crate::args::parse_size(args.req("size")?).ok_or_else(|| "bad --size".to_string())?;
    let max_k = args.opt_usize("max-k", 16)?;
    let mut t = Table::new(
        format!("{op} radix sweep at {} on {}", fmt_size(n), m.name),
        &["algorithm", "latency (us)"],
    );
    for alg in unique_candidates(op, m.ranks(), max_k) {
        let lat = latency(&m, op, alg, n).map_err(|e| format!("{op} / {alg}: {e}"))?;
        t.row(vec![alg.to_string(), format!("{:.2}", lat.as_micros())]);
    }
    t.print();
    Ok(())
}

/// Time one specific (op, algorithm, size) with full statistics.
fn time(args: &Args) -> Result<(), String> {
    let m = args.machine()?;
    let op = args.op()?;
    let alg = parse_alg(args.req("alg")?)?;
    let n = crate::args::parse_size(args.req("size")?).ok_or_else(|| "bad --size".to_string())?;
    let out = measure(&m, op, alg, n, 0).map_err(|e| e.to_string())?;
    println!("machine:   {}", m.name);
    println!("op/alg:    {op} / {alg} @ {}", fmt_size(n));
    println!("latency:   {}", out.makespan);
    println!(
        "traffic:   {} internode msgs ({} B), {} intranode msgs ({} B)",
        out.stats.inter_messages,
        out.stats.inter_bytes,
        out.stats.intra_messages,
        out.stats.intra_bytes
    );
    let worst = out
        .breakdown
        .iter()
        .filter_map(|b| b.blocked_fraction())
        .fold(0.0f64, f64::max);
    println!("blocked:   worst rank spends {:.0}% waiting", worst * 100.0);
    Ok(())
}

/// Where `--select auto` keeps its learned table unless `--table` says
/// otherwise.
pub(crate) const DEFAULT_TABLE: &str = "results/selection_auto.json";

/// The learned-table path for this invocation.
pub(crate) fn table_path(args: &Args) -> &str {
    args.opt("table").unwrap_or(DEFAULT_TABLE)
}

/// Resolve `--select auto`: `request` with the table's winner for its
/// collective and shape as its algorithm and — unless `--opt` says
/// otherwise — that winner's passes. A uniform shape is looked up under its
/// size bucket, cost-model priors for the bucket being seeded on `machine`
/// first if nothing is known yet; a count vector under its skew-folded
/// bucket, where an empty bucket answers the v-capable default and only
/// observations fill it. Tenants do not enter the key: each tenant runs the
/// single-tenant call.
pub(crate) fn resolve_auto(
    args: &Args,
    request: Request,
    machine: &Machine,
) -> Result<Request, String> {
    let table = table_path(args);
    let svc = SelectionService::load_or_new(table, Policy::default())?;
    let (op, ranks, bytes) = (request.args().op, request.ranks(), request.bytes());
    let variant = match request.counts() {
        Some(counts) => svc.lookup_v(op, counts.counts()).unwrap_or_else(|| {
            eprintln!(
                "select: no v-capable winner for {op} p={ranks} bucket {} in {table} yet",
                bucket_range(exacoll_select::table::v_bucket(counts.counts()))
            );
            svc.select_v(op, counts.counts())
        }),
        None => {
            if !svc.knows(op, ranks, bytes) {
                let max_k = args.opt_usize("max-k", 8)?;
                let priced = svc.seed_point(machine, op, bytes, max_k)?;
                svc.publish();
                svc.save(table)?;
                eprintln!(
                    "select: seeded {priced} cost-model prior(s) for {op} p={ranks} \
                     bucket {} into {table}",
                    bucket_range(exacoll_select::bucket_of_bytes(bytes))
                );
            }
            svc.select(op, ranks, bytes)
        }
    };
    eprintln!("select: auto resolved {op} p={ranks} -> {variant}");
    let request = request.with_alg(variant.alg)?;
    match args.opt("opt") {
        // An explicit `--opt` overrides the learned passes.
        Some(_) => Ok(request),
        None => {
            let (chunk, fuse) = (request.chunk(), request.fuse());
            request.with_opt(variant.opt, chunk, fuse)
        }
    }
}

/// Fold measured makespans of `request` back into the learned table, under
/// the bucket [`resolve_auto`] read, and persist it. The table is reloaded
/// rather than kept from resolve time, so concurrent runs at worst lose an
/// observation instead of resurrecting a stale table.
pub(crate) fn record_feedback(
    args: &Args,
    request: &Request,
    observations: &[f64],
) -> Result<(), String> {
    let table = table_path(args);
    let svc = SelectionService::load_or_new(table, Policy::default())?;
    let (op, ranks, variant) = (request.args().op, request.ranks(), request.variant());
    for &ns in observations {
        match request.counts() {
            Some(counts) => svc.observe_v(op, counts.counts(), variant, ns),
            None => svc.observe(op, ranks, request.bytes(), variant, ns),
        }
    }
    svc.publish();
    svc.save(table)?;
    eprintln!(
        "select: recorded {} observation(s) for {op}/{variant} p={ranks} into {table}",
        observations.len()
    );
    Ok(())
}

/// The request a command line names, for `launch`, `profile`, `opt` and
/// `record`: the collective (bare operand or `--op`), `--alg`, the shape
/// (`--ranks` with `--size`, or `--counts`, which fixes both), `--tenants`
/// and the optimizer flags `--opt`/`--chunk`/`--fuse`. Under `--select
/// auto` the algorithm is the collective's default until [`resolve_auto`]
/// replaces it. Every shape rule is [`Request`]'s.
pub(crate) fn parse_request(args: &Args, default_size: usize) -> Result<Request, String> {
    let op = match args.positional() {
        Some(name) => crate::args::parse_op(name)?,
        None => args.op()?,
    };
    let alg = match args.opt("select") {
        None => parse_alg(args.req("alg")?)?,
        Some("auto") => default_algorithm(op),
        Some(other) => return Err(format!("--select supports only `auto` (got `{other}`)")),
    };
    let size = |flag: &str, default: usize| match args.opt(flag) {
        None => Ok(default),
        Some(s) => parse_size(s).ok_or_else(|| format!("bad --{flag} `{s}`")),
    };
    let coll = CollArgs::new(op, alg);
    let request = match args.opt("counts").map(CountsSpec::parse).transpose()? {
        None => Request::uniform(coll, args.req_usize("ranks")?, size("size", default_size)?),
        Some(counts) => {
            let ranks = args.opt_usize("ranks", counts.ranks())?;
            if ranks != counts.ranks() {
                return Err(format!(
                    "--counts names {} rank(s) but --ranks says {ranks}",
                    counts.ranks()
                ));
            }
            if args.opt("size").is_some() {
                return Err("--size is meaningless with --counts (the vector is the size)".into());
            }
            Request::irregular(coll, counts)
        }
    }?;
    request
        .with_tenants(args.opt_usize("tenants", 1)?)?
        .with_opt(
            args.opt("opt").map_or(Ok(OptSpec::NONE), parse_opt_spec)?,
            size("chunk", OPT_PIPELINE_CHUNK_BYTES)?,
            size("fuse", OPT_AGGREGATE_MAX_FUSE_BYTES)?,
        )
}

/// The machine `profile` and `opt` model `ranks` ranks on: `--machine`
/// (default frontier) at `--ppn` ranks per node.
fn machine_for(args: &Args, ranks: usize) -> Result<(Machine, usize), String> {
    let ppn = args.opt_usize("ppn", 1)?;
    if ppn == 0 || !ranks.is_multiple_of(ppn) {
        return Err(format!(
            "--ranks must be a positive multiple of --ppn (got ranks={ranks}, ppn={ppn})"
        ));
    }
    let name = args.opt("machine").unwrap_or("frontier");
    Ok((crate::args::parse_machine(name, ranks / ppn, ppn)?, ppn))
}

/// Inspect, grow, and move learned selection tables.
fn select_cmd(args: &Args) -> Result<(), String> {
    let table = table_path(args);
    match args.positional().unwrap_or("show") {
        // Full prior sweep: price every candidate for the paper's four
        // collectives over the probed sizes and persist the result.
        "seed" => {
            let m = args.machine()?;
            let sizes = args.sizes()?;
            let max_k = args.opt_usize("max-k", 16)?;
            let svc = SelectionService::load_or_new(table, Policy::default())?;
            let priced = svc.seed_priors(&m, &CollectiveOp::EVALUATED, &sizes, max_k)?;
            svc.publish();
            svc.save(table)?;
            eprintln!(
                "select: seeded {priced} prior(s) over {} size(s) on {} -> {table}",
                sizes.len(),
                m.name
            );
            Ok(())
        }
        "show" => {
            let svc = SelectionService::load(table)?;
            let mut t = Table::new(
                format!("learned selection table ({table})"),
                &[
                    "collective",
                    "p",
                    "size range",
                    "published",
                    "model pick",
                    "samples",
                ],
            );
            let policy = svc.policy();
            svc.for_each_bucket(|op, p, bucket, cells| {
                let published = exacoll_select::policy::winner(cells, &policy)
                    .map_or("-".to_string(), |a| a.to_string());
                let model = exacoll_select::policy::prior_winner(cells)
                    .map_or("-".to_string(), |a| a.to_string());
                let samples: u64 = cells.iter().map(|c| c.obs_n).sum();
                t.row(vec![
                    op.to_string(),
                    p.to_string(),
                    bucket_range(bucket),
                    published,
                    model,
                    samples.to_string(),
                ]);
            });
            t.print();
            Ok(())
        }
        "diff" => {
            let svc = SelectionService::load(table)?;
            print!("{}", exacoll_select::diff::render(&svc.diff()));
            Ok(())
        }
        "export" => {
            let svc = SelectionService::load(table)?;
            let json = svc.to_json().pretty();
            match args.opt("out") {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("selection table exported to {path}");
                }
                None => println!("{json}"),
            }
            Ok(())
        }
        // Validate the incoming file by loading it, then re-serialize
        // canonically into the table path.
        "import" => {
            let from = args.req("from")?;
            let svc = SelectionService::load(from)?;
            svc.save(table)?;
            eprintln!(
                "selection table imported from {from} -> {table} ({} bucket(s))",
                svc.tracked()
            );
            Ok(())
        }
        other => Err(format!(
            "unknown select action `{other}` (expected seed|show|diff|export|import)"
        )),
    }
}

/// Run the fault-injection campaign on the threaded runtime and print the
/// survival table.
fn chaos(args: &Args) -> Result<(), String> {
    let p = args.opt_usize("ranks", 8)?;
    let max_k = args.opt_usize("max-k", 3)?;
    let seed = args.opt_usize("seed", 42)? as u64;
    let bytes = args.opt_usize("bytes", 64)?;
    if p == 0 {
        return Err("--ranks must be at least 1".into());
    }
    eprintln!(
        "chaos campaign: p={p}, max-k={max_k}, seed={seed}, {bytes} B payloads \
         (each case is deadline-bounded; drop cases wait out their timeout)"
    );
    let results = exacoll_chaos::campaign(p, max_k, seed, bytes);
    print!("{}", exacoll_chaos::survival_table(&results));
    // Every failed case's judged run is dumped as a self-contained replay
    // artifact, so the failure can be inspected offline with
    // `exacoll replay <file>`.
    let failed: Vec<_> = results.iter().filter(|r| !r.survived).collect();
    if !failed.is_empty() {
        let dir = args.opt("record").unwrap_or("chaos-artifacts");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for case in &failed {
            let name = sanitize_artifact_name(&format!(
                "{}-{}-p{}-{}",
                case.op,
                exacoll_core::spec::alg_to_spec(&case.alg),
                case.p,
                case.fault.name()
            ));
            let path = format!("{dir}/{name}.replay.json");
            std::fs::write(&path, case.artifact.to_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("replay artifact written to {path} (inspect with `exacoll replay {path}`)");
        }
    }
    exacoll_chaos::verdict(&results)
}

/// Make a case label safe as a file name (`:` and `+` appear in alg specs,
/// `@` in optimizer variants).
pub(crate) fn sanitize_artifact_name(label: &str) -> String {
    label
        .chars()
        .map(|c| match c {
            ':' | '+' | '/' | ' ' | '@' => '_',
            c => c,
        })
        .collect()
}

/// Record one fault-free run on the threaded backend as a replay artifact.
fn record(args: &Args) -> Result<(), String> {
    let request = parse_request(args, 64)?;
    let (op, p) = (request.args().op, request.ranks());
    let seed = args.opt_usize("seed", DEFAULT_SEED as usize)? as u64;
    let artifact = exacoll_replay::record_request(&request, seed)?;
    let default_name = format!(
        "{}.replay.json",
        sanitize_artifact_name(&format!("{op}-{}-p{p}", request.variant().spec()))
    );
    let path = args.opt("out").unwrap_or(&default_name);
    std::fs::write(path, artifact.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "recorded {op}/{} on {p} thread rank(s), {} -> {path} \
         (verify with `exacoll replay {path}`)",
        request.variant(),
        request.describe()
    );
    Ok(())
}

/// Replay an artifact against the schedule IR; exit nonzero on divergence
/// or on a gapped/truncated/corrupt artifact.
fn replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional()
        .ok_or("usage: exacoll replay <artifact.json>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let artifact = exacoll_replay::Artifact::from_json(&text).map_err(|e| e.to_string())?;
    let report = exacoll_replay::replay(&artifact).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if report.is_clean() {
        Ok(())
    } else {
        let h = report.headline().expect("diverged report has a headline");
        Err(format!(
            "replay diverged: first at rank {} step {} ({})",
            h.rank, h.step, h.explanation
        ))
    }
}

/// Profile one request on the chosen backends: per-rank timelines,
/// critical path, model-vs-measured residuals, and an optional Chrome trace.
fn profile(args: &Args) -> Result<(), String> {
    let mut request = parse_request(args, 1024)?;
    let (machine, _) = machine_for(args, request.ranks())?;
    // Under `--select auto` the selection service names the variant, and
    // gets the measured makespans fed back after the runs.
    let auto = args.opt("select").is_some();
    if auto {
        request = resolve_auto(args, request, &machine)?;
    }
    let spec = ProfileSpec { request, machine };
    let req = &spec.request;
    let (op, alg) = (req.args().op, req.args().alg);

    let runs: Vec<BackendRun> = match parse_backend(args.opt("backend").unwrap_or("both"))? {
        Backend::Sim => vec![profile_sim(&spec)?],
        Backend::Thread => vec![profile_thread(&spec)?],
        Backend::Tcp => vec![crate::launch::profile_tcp(&spec)?],
        Backend::Both => vec![profile_thread(&spec)?, profile_sim(&spec)?],
    };

    println!(
        "profile: {op} / {} on {} ({} rank(s), {})",
        req.variant().spec(),
        spec.machine.name,
        req.ranks(),
        req.describe()
    );
    // The prediction is the simulator's replay of the same plans on
    // `--machine`; a measured run is compared with it, the replay itself is
    // not.
    let sim_run;
    let predicted = match runs.iter().find(|r| r.backend == "sim") {
        Some(run) => run,
        None => {
            sim_run = profile_sim(&spec)?;
            &sim_run
        }
    };
    let mut metrics = Metrics::new();
    for run in &runs {
        println!();
        println!("== backend: {} ==", run.backend);
        println!("makespan: {:.3} us", run.makespan_ns / 1000.0);
        let cp = exacoll_obs::critical_path::critical_path(&run.timelines);
        print!("{}", exacoll_obs::critical_path::render(&cp));
        if run.backend != "sim" {
            let report = analyze_residuals(&run.timelines, &predicted.timelines);
            print!("{}", exacoll_obs::residual::render(&report));
        }
        let scope = format!("{op}/{alg}/{}/{}", req.bytes(), run.backend);
        metrics.record_timelines(&scope, &run.timelines);
    }

    if let Some(path) = args.opt("chrome") {
        let pairs: Vec<(&str, &[RankTimeline])> = runs
            .iter()
            .map(|r| (r.backend, r.timelines.as_slice()))
            .collect();
        let doc = chrome_trace(&pairs);
        let tracks = rank_tracks(&doc)?;
        std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "chrome trace written to {path} ({} track(s)); open it at https://ui.perfetto.dev",
            tracks.len()
        );
    }
    if let Some(path) = args.opt("metrics") {
        std::fs::write(path, metrics.to_json().pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }
    if auto {
        // Feed real measurements back; the simulator's makespan *is* the
        // cost model, so it would only restate the prior.
        let observed: Vec<f64> = runs
            .iter()
            .filter(|r| r.backend != "sim")
            .map(|r| r.makespan_ns)
            .collect();
        record_feedback(args, req, &observed)?;
    }
    Ok(())
}

/// Run the optimizer pass pipeline over one lowered plan set and report
/// each pass's verdict and modeled cost delta. `--check nonneg` turns a
/// modeled regression into a non-zero exit, for CI smoke jobs.
fn opt_cmd(args: &Args) -> Result<(), String> {
    let request = parse_request(args, 1024)?;
    let ranks = request.ranks();
    let (op, alg) = (request.args().op, request.args().alg);
    let (machine, ppn) = machine_for(args, ranks)?;
    let (chunk, fuse) = (request.chunk(), request.fuse());
    let plans = request.lower_world();

    let mut manager = PassManager::new(machine.clone());
    for name in args
        .opt("passes")
        .unwrap_or("pipeline,aggregate,remap")
        .split(',')
    {
        manager = manager.with_pass(match name.trim() {
            "pipeline" | "pipe" => PassKind::Pipeline { chunk_bytes: chunk },
            "aggregate" | "agg" => PassKind::Aggregate {
                max_fuse_bytes: fuse,
            },
            "remap" => PassKind::Remap {
                topo: TopoDesc {
                    nodes: ranks / ppn,
                    ppn,
                },
                layout: layout_for(op),
            },
            other => {
                return Err(format!(
                    "unknown pass `{other}` (expected pipeline|aggregate|remap)"
                ))
            }
        });
    }
    if manager.passes().is_empty() {
        return Err("--passes selects no passes".into());
    }

    let report = manager.run(&plans).map_err(|e| e.to_string())?;
    let mut t = Table::new(
        format!(
            "optimizer report: {op}/{alg} p={ranks} ({}) on {}",
            request.describe(),
            machine.name
        ),
        &["pass", "verdict", "before (us)", "after (us)", "delta"],
    );
    for o in &report.outcomes {
        let verdict = match (&o.refused, o.changed) {
            (Some(why), _) => format!("refused: {why}"),
            (None, true) if o.reordered => "rewritten (reduction order changed)".into(),
            (None, true) => "rewritten".into(),
            (None, false) => "no-op".into(),
        };
        let delta = if o.cost_before_ns > 0.0 {
            format!(
                "{:+.2}%",
                (o.cost_after_ns - o.cost_before_ns) / o.cost_before_ns * 100.0
            )
        } else {
            "-".into()
        };
        t.row(vec![
            o.pass.clone(),
            verdict,
            format!("{:.3}", o.cost_before_ns / 1000.0),
            format!("{:.3}", o.cost_after_ns / 1000.0),
            delta,
        ]);
    }
    t.print();
    println!(
        "total: {:.3} us -> {:.3} us ({:+.2}%); every accepted rewrite re-verified \
         and proved to compute what the stock plan computes",
        report.cost_initial_ns / 1000.0,
        report.cost_final_ns / 1000.0,
        if report.cost_initial_ns > 0.0 {
            (report.cost_final_ns - report.cost_initial_ns) / report.cost_initial_ns * 100.0
        } else {
            0.0
        }
    );
    match args.opt("check") {
        None => Ok(()),
        Some("nonneg") => {
            if report.cost_final_ns > report.cost_initial_ns {
                Err(format!(
                    "--check nonneg: modeled cost regressed {:.0} ns -> {:.0} ns",
                    report.cost_initial_ns, report.cost_final_ns
                ))
            } else {
                Ok(())
            }
        }
        Some(other) => Err(format!("--check supports only `nonneg` (got `{other}`)")),
    }
}

/// Split `p` ranks into a two-level nodes×ppn shape for the remap sweep:
/// the smallest divisor >= 2 becomes the ppn (prime `p` degenerates to one
/// rank per node, which remap treats as a no-op but still validates).
fn split_topo(p: usize) -> TopoDesc {
    let ppn = (2..p).find(|d| p.is_multiple_of(*d)).unwrap_or(1);
    TopoDesc {
        nodes: p / ppn,
        ppn,
    }
}

/// Statically verify every registry candidate's lowered schedule: per-rank
/// plans must be deadlock-free, tag-hygienic, and cover every output byte.
/// Each is then proved to compute its collective, and every optimizer pass
/// is applied to it and put to the gate `PassManager` uses ([`Gate`]:
/// re-verify, then provenance-equal) — the optimizer must never be able to
/// break a plan the verifier accepted.
fn verify_schedules(args: &Args) -> Result<(), String> {
    let p = args.opt_usize("ranks", 8)?;
    let max_k = args.opt_usize("max-k", 4)?;
    if p == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let n = match args.opt("size") {
        None => 8 * p,
        Some(s) => crate::args::parse_size(s).ok_or_else(|| format!("bad --size `{s}`"))?,
    };
    let mut t = Table::new(
        format!("schedule verification: p = {p}, {n} B per rank, k <= {max_k}"),
        &["collective", "algorithm", "rounds", "beta (B)", "gamma (B)"],
    );
    let (mut checked, mut skipped) = (0usize, 0usize);
    let (mut rewrites, mut reordered) = (0usize, 0usize);
    // Check every configuration before deciding the exit code, so one bad
    // schedule doesn't hide the rest of the audit. A shape that cannot be
    // planned at this size is a skipped row, not a failure.
    let mut failures: Vec<String> = Vec::new();
    for op in CollectiveOp::ALL {
        for alg in candidates(op, p, max_k) {
            let request = match Request::uniform(CollArgs::new(op, alg), p, n) {
                Ok(request) => request,
                Err(why) => {
                    t.row(vec![
                        op.to_string(),
                        alg.to_string(),
                        format!("skipped: {why}"),
                        "-".into(),
                        "-".into(),
                    ]);
                    skipped += 1;
                    continue;
                }
            };
            let plans = request.lower_world();
            // The optimizer sweep: a chunk small enough that pipelining
            // actually bites at this payload, the default fuse ceiling, and
            // a two-level split of p for the remap.
            let passes = [
                PassKind::Pipeline {
                    chunk_bytes: (request.bytes() / 2).max(1),
                },
                PassKind::Aggregate {
                    max_fuse_bytes: OPT_AGGREGATE_MAX_FUSE_BYTES,
                },
                PassKind::Remap {
                    topo: split_topo(p),
                    layout: layout_for(op),
                },
            ];
            match verify(&plans) {
                Ok(stats) => {
                    t.row(stats_row(op.to_string(), alg.to_string(), &stats));
                    let mut gate = Gate::new(plans);
                    check_denotes(&mut failures, &format!("{op} / {alg}"), &mut gate, &request);
                    for pass in &passes {
                        let rewritten = match pass.apply(gate.plans()) {
                            Ok(r) => r,
                            Err(e) => {
                                failures.push(format!("{op} / {alg} under {pass}: {e}"));
                                continue;
                            }
                        };
                        if rewritten == gate.plans() {
                            continue;
                        }
                        rewrites += 1;
                        match gate.admit(&rewritten) {
                            Ok(a) => reordered += usize::from(a.equivalence != Equivalence::Same),
                            Err(e) => failures.push(format!("{op} / {alg} after {pass}: {e}")),
                        }
                    }
                }
                Err(e) => {
                    t.row(vec![
                        op.to_string(),
                        alg.to_string(),
                        "FAIL".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    failures.push(format!("{op} / {alg}: {e}"));
                }
            }
            checked += 1;
        }
    }

    // ---- irregular ("v") collectives ------------------------------------
    // Sweep every v-capable candidate over either the user's `--counts`
    // vector or a built-in ragged grid (uniform control, heavy-head skew,
    // zero-count ranks). Each plan set must verify, denote its collective
    // *and* evaluate byte-identical to the sequential v-reference.
    let count_grid: Vec<CountsSpec> = match args.opt("counts") {
        Some(spec) => vec![CountsSpec::parse(spec)?],
        None => {
            let mut head = vec![8usize; p];
            head[0] = 8 * p;
            let holes: Vec<usize> = (0..p).map(|r| if r % 2 == 0 { 24 } else { 0 }).collect();
            [vec![8usize; p], head, holes]
                .into_iter()
                .map(CountsSpec::new)
                .collect::<Result<_, _>>()?
        }
    };
    for counts in &count_grid {
        for op in [CollectiveOp::Allgather, CollectiveOp::ReduceScatter] {
            for alg in unique_candidates_v(op, max_k, counts.counts()) {
                let request = Request::irregular(CollArgs::new(op, alg), counts.clone())?;
                verify_row(&mut t, &mut failures, format!("{op}v [{counts}]"), &request);
                checked += 1;
            }
        }
    }

    // Generalized allreduce at awkward (non-power-of-k) process counts —
    // the worlds the block-recursive construction exists for — pinned
    // independently of `--ranks`.
    for (pg, k) in [(6usize, 2usize), (7, 2), (7, 3), (9, 2), (9, 3)] {
        let alg = Algorithm::GeneralizedMultiplying { k };
        let request = Request::uniform(CollArgs::new(CollectiveOp::Allreduce, alg), pg, 32)?;
        verify_row(&mut t, &mut failures, format!("allreduce p={pg}"), &request);
        checked += 1;
    }

    // Multi-tenant tag partitioning: two concurrent allreduces sharing one
    // runtime, through the gate every tenant launch plans through — proven
    // per tenant (disjoint tag windows) *and* as the single merged plan set
    // the shared runtime actually executes.
    if p >= 2 {
        let alg = Algorithm::RecursiveMultiplying { k: 2 };
        let merged = Request::uniform(CollArgs::new(CollectiveOp::Allreduce, alg), p, 16)
            .and_then(|r| r.with_tenants(2))
            .and_then(|r| plan_world(&r).map_err(|e| e.to_string()))
            .and_then(|merged| verify(&merged).map_err(|e| e.to_string()));
        match merged {
            Ok(stats) => {
                t.row(stats_row(
                    "2 tenants (merged)".into(),
                    format!("{alg} x 2"),
                    &stats,
                ));
            }
            Err(e) => failures.push(format!("tenancy: {e}")),
        }
        checked += 1;
    }

    let (paper, paper_checked) = verify_paper_shapes(&mut failures);

    t.print();
    paper.print();
    if !failures.is_empty() {
        return Err(format!(
            "{}/{} configuration(s) failed verification:\n  {}",
            failures.len(),
            checked + paper_checked,
            failures.join("\n  ")
        ));
    }
    let skipped = match skipped {
        0 => String::new(),
        n => format!(", {n} skipped"),
    };
    println!(
        "{checked} configurations verified{skipped}: matched sends, no deadlock, full data flow, each \
         denotes its collective; {rewrites} optimizer rewrite(s) re-verified and proved to \
         compute the same function ({reordered} in another reduction order) \
         (including irregular v-plans, generalized allreduce, and tenant tag windows)"
    );
    println!(
        "{paper_checked} paper-scale configurations (p = {PAPER_P}) verified at 1 KiB and 1 MiB: \
         same rounds, beta/gamma scale with n, each denotes its collective at both sizes, \
         reference bytes at 1 KiB, priced at 1 MiB"
    );
    Ok(())
}

/// A row of the verify table: what was checked and its α-β-γ term counts.
fn stats_row(what: String, alg: String, stats: &ScheduleStats) -> Vec<String> {
    vec![
        what,
        alg,
        stats.alpha_rounds.to_string(),
        stats.beta_bytes.to_string(),
        stats.gamma_bytes.to_string(),
    ]
}

/// Verify `request`'s lowered world and check it denotes the request's
/// collective and evaluates to its sequential reference: a table row on
/// success, a failure otherwise.
fn verify_row(t: &mut Table, failures: &mut Vec<String>, label: String, request: &Request) {
    let what = format!("{label} / {}", request.args().alg);
    let plans = request.lower_world();
    match verify(&plans) {
        Ok(stats) => {
            t.row(stats_row(label, request.args().alg.to_string(), &stats));
            let inputs = probe_inputs(&plans);
            let expect = request.reference(&inputs).map_err(|e| e.to_string());
            check_outputs(failures, &what, "reference", &plans, &inputs, expect);
            check_denotes(failures, &what, &mut Gate::new(plans), request);
        }
        Err(e) => failures.push(format!("{what}: {e}")),
    }
}

/// Prove the plans `gate` holds compute `request`'s collective, whatever the
/// inputs; returns how to say so (`allreduce (reduction order free)`), or
/// records a failure for `what` naming the first rank and output range that
/// are something else.
fn check_denotes(
    failures: &mut Vec<String>,
    what: &str,
    gate: &mut Gate,
    request: &Request,
) -> String {
    let op = request.args().op;
    match gate.denotes(request) {
        Ok(Equivalence::Same) => op.to_string(),
        Ok(Equivalence::Reordered) => format!("{op} (reduction order free)"),
        Err(e) => {
            failures.push(format!("{what}: does not denote {op}: {e}"));
            "FAIL".into()
        }
    }
}

/// Evaluate `plans` on `inputs` and record a failure for `what` unless the
/// outputs equal `expect`; `reference` names the oracle in the message.
fn check_outputs(
    failures: &mut Vec<String>,
    what: &str,
    reference: &str,
    plans: &[exacoll_core::schedule::Schedule],
    inputs: &[Vec<u8>],
    expect: Result<Vec<Vec<u8>>, String>,
) {
    match (evaluate(plans, inputs), expect) {
        (Ok(out), Ok(expect)) if out == expect => {}
        (Ok(_), Ok(_)) => failures.push(format!("{what}: outputs differ from {reference}")),
        (Err(e), _) => failures.push(format!("{what}: evaluation: {e}")),
        (_, Err(e)) => failures.push(format!("{what}: {reference}: {e}")),
    }
}

/// The paper's evaluation scale (Figs. 8-11): 128 nodes.
const PAPER_P: usize = 128;

/// The paper's own shapes, pinned independently of `--ranks`: the ten
/// generalized algorithms of Table I at p = 128, k in {2, 4, 8, 128}. Each
/// must verify at 1 KiB and at 1 MiB with the same round count and beta/gamma
/// bytes exactly 1024x apart, denote its collective at both sizes (neither
/// proof looks at a byte, so the 1 MiB allgathers' gigabytes of scratch
/// address space cost nothing), evaluate to the sequential reference at
/// 1 KiB as the cross-check of the symbolic proof, and price on a 16x8
/// Frontier at 1 MiB.
/// Returns the table and the number of configurations checked.
fn verify_paper_shapes(failures: &mut Vec<String>) -> (Table, usize) {
    const KIB: usize = 1 << 10;
    let machine = exacoll_sim::Machine::frontier(16, 8);
    let mut t = Table::new(
        format!("paper shapes: p = {PAPER_P}, Table I kernels, 1 KiB -> 1 MiB per rank"),
        &[
            "collective",
            "algorithm",
            "rounds",
            "beta (B)",
            "gamma (B)",
            "sim @ 1 MiB",
            "denotes",
        ],
    );
    // `table_i` rows in order: k-nomial, recursive multiplying, k-ring.
    let kernels: [fn(usize) -> Algorithm; 3] = [
        |k| Algorithm::KnomialTree { k },
        |k| Algorithm::RecursiveMultiplying { k },
        |k| Algorithm::KRing { k },
    ];
    let mut checked = 0;
    for ((_, _, ops), kernel) in table_i().into_iter().zip(kernels) {
        for op in ops {
            for alg in [2, 4, 8, PAPER_P].map(kernel) {
                let at = |n| Request::uniform(CollArgs::new(op, alg), PAPER_P, n);
                let (Ok(request), Ok(request_large)) = (at(KIB), at(KIB * KIB)) else {
                    continue;
                };
                checked += 1;
                let what = format!("p={PAPER_P} {op} / {alg}");
                let (small, large) = (request.lower_world(), request_large.lower_world());
                let (s, l) = match (verify(&small), verify(&large)) {
                    (Ok(s), Ok(l)) => (s, l),
                    (Err(e), _) | (_, Err(e)) => {
                        failures.push(format!("{what}: {e}"));
                        continue;
                    }
                };
                if (l.alpha_rounds, l.beta_bytes, l.gamma_bytes)
                    != (s.alpha_rounds, s.beta_bytes * KIB, s.gamma_bytes * KIB)
                {
                    failures.push(format!(
                        "{what}: term counts do not scale with n: \
                         {s:?} at 1 KiB, {l:?} at 1 MiB"
                    ));
                }
                let inputs = probe_inputs(&small);
                let expect = request.reference(&inputs).map_err(|e| e.to_string());
                check_outputs(failures, &what, "reference", &small, &inputs, expect);
                let sim = match exacoll_sim::cost(&machine, &large) {
                    Ok(out) => out.makespan.to_string(),
                    Err(e) => {
                        failures.push(format!("{what}: pricing: {e}"));
                        "-".into()
                    }
                };
                let denotes = [(small, &request, "1 KiB"), (large, &request_large, "1 MiB")].map(
                    |(plans, request, at)| {
                        let what = format!("{what} at {at}");
                        check_denotes(failures, &what, &mut Gate::new(plans), request)
                    },
                );
                t.row(vec![
                    op.to_string(),
                    alg.to_string(),
                    s.alpha_rounds.to_string(),
                    format!("{} -> {}", s.beta_bytes, l.beta_bytes),
                    format!("{} -> {}", s.gamma_bytes, l.gamma_bytes),
                    sim,
                    if denotes[0] == denotes[1] {
                        denotes[0].clone()
                    } else {
                        denotes.join(" -> ")
                    },
                ]);
            }
        }
    }
    (t, checked)
}

/// List the machine presets.
fn machines() -> Result<(), String> {
    let mut t = Table::new(
        "simulated machine presets",
        &[
            "name",
            "ports/node",
            "inter alpha",
            "inter GB/s",
            "intra alpha",
            "topology",
        ],
    );
    for m in [
        exacoll_sim::Machine::frontier(128, 8),
        exacoll_sim::Machine::polaris(128, 4),
        exacoll_sim::Machine::aurora(128, 12),
        exacoll_sim::Machine::testbed(8, 1, 2),
    ] {
        t.row(vec![
            m.name.split('-').next().unwrap_or(&m.name).to_string(),
            m.ports_per_node.to_string(),
            format!("{:.1} us", m.inter.alpha_ns / 1000.0),
            format!("{:.1}", 1.0 / m.inter.beta_ns_per_byte),
            format!("{:.1} us", m.intra.alpha_ns / 1000.0),
            format!("{:?}", m.topology),
        ]);
    }
    t.print();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: &str) -> Result<(), String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        dispatch(&argv)
    }

    #[test]
    fn machines_print() {
        run("machines").unwrap();
    }

    #[test]
    fn time_command_runs() {
        run("time --machine frontier --nodes 4 --ppn 2 --op allreduce --alg recmult:4 --size 64K")
            .unwrap();
    }

    #[test]
    fn radix_command_runs() {
        run("radix --machine testbed --nodes 4 --op reduce --size 8 --max-k 4").unwrap();
    }

    #[test]
    fn sweep_command_runs_with_explicit_sizes() {
        run("sweep --machine frontier --nodes 4 --op bcast --sizes 8,1K --max-k 4").unwrap();
    }

    #[test]
    fn verify_command_sweeps_the_registry_and_optimizer() {
        // Every pass over every candidate must re-verify and stay
        // byte-identical at even, power-of-two, and odd-composite worlds.
        for p in [4, 6, 8, 9] {
            run(&format!("verify --ranks {p} --max-k 4")).unwrap();
        }
        run("verify --ranks 4 --size 64").unwrap();
        assert!(run("verify --ranks 0").is_err());
    }

    #[test]
    fn verify_command_accepts_an_explicit_count_vector() {
        // A ragged vector with a zero-count rank sweeps every v-capable
        // candidate and the tenancy/genmult checks alongside it.
        run("verify --ranks 4 --max-k 3 --counts 24,0,56,8").unwrap();
        assert!(run("verify --ranks 4 --counts 24,x,8").is_err());
    }

    #[test]
    fn profile_takes_any_request_shape() {
        let base = "--machine testbed --backend sim";
        run(&format!(
            "profile allgather --alg ring --counts 96,0,24,8 {base}"
        ))
        .unwrap();
        run("profile reduce_scatter --alg ring --machine testbed --counts 64,16,0,48").unwrap();
        run(&format!(
            "profile allgather --alg ring --counts 96,0,24,8 --opt pipeline --chunk 16 {base}"
        ))
        .unwrap();
        run(&format!(
            "profile allreduce --alg recmult:2 --ranks 4 --size 64 --tenants 2 {base}"
        ))
        .unwrap();
        // bruck rotates fixed-size blocks: uniform counts only.
        let err = run(&format!(
            "profile allgather --alg bruck --counts 96,0,24,8 {base}"
        ));
        assert!(err.unwrap_err().contains("uniform"));
        // --ranks must agree with the vector.
        assert!(run("profile allgather --alg ring --ranks 8 --counts 96,0,24,8").is_err());
    }

    #[test]
    fn opt_command_reports_pass_deltas() {
        // Large messages, one rank per node: pipelining must not regress
        // the modeled cost (CI smoke leans on --check nonneg).
        run(
            "opt allgather --alg ring --ranks 8 --machine frontier --size 4M \
             --passes pipeline --check nonneg",
        )
        .unwrap();
        // Default pass pipeline on a hierarchical shape, tiny payload.
        run("opt allreduce --alg recmult:2 --ranks 8 --ppn 4 --machine frontier --size 64")
            .unwrap();
        assert!(run("opt allgather --alg ring --ranks 8 --passes wat").is_err());
        assert!(run("opt allgather --alg ring --ranks 8 --check wat").is_err());
        assert!(run("opt allgather --alg ring --ranks 6 --ppn 4").is_err());
        // A count vector lowers to the v-plans and goes through the same gate.
        run("opt allgather --alg ring --counts 4K,0,64,256 --passes pipeline --chunk 1K").unwrap();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run("sweep --machine nope --nodes 4 --op bcast").is_err());
        assert!(run("time --machine frontier --nodes 4 --op bcast --alg bruck --size 8").is_err());
        assert!(run("wat").is_err());
    }

    #[test]
    fn record_then_replay_round_trips_cleanly() {
        let dir = std::env::temp_dir().join(format!("exacoll-cli-rr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("case.replay.json");
        run(&format!(
            "record allreduce --alg recmult:2 --ranks 4 --size 32 --out {}",
            out.display()
        ))
        .unwrap();
        run(&format!("replay {}", out.display())).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_rejects_missing_and_corrupt_artifacts() {
        assert!(run("replay /nonexistent/artifact.json").is_err());
        let dir = std::env::temp_dir().join(format!("exacoll-cli-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(run(&format!("replay {}", path.display())).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_validates_its_arguments() {
        // bruck does not implement allreduce; ranks must be positive.
        assert!(run("record allreduce --alg bruck --ranks 4").is_err());
        assert!(run("record bcast --alg ring --ranks 0").is_err());
        assert!(run("record bcast --alg ring").is_err());
    }

    #[test]
    fn select_seed_show_diff_export_import_round_trip() {
        let dir = std::env::temp_dir().join(format!("exacoll-cli-select-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let table = dir.join("table.json");
        let copy = dir.join("copy.json");
        run(&format!(
            "select seed --machine testbed --nodes 4 --sizes 64,4K --max-k 4 --table {}",
            table.display()
        ))
        .unwrap();
        assert!(table.exists());
        run(&format!("select show --table {}", table.display())).unwrap();
        run(&format!("select diff --table {}", table.display())).unwrap();
        run(&format!(
            "select export --table {} --out {}",
            table.display(),
            copy.display()
        ))
        .unwrap();
        // Export is already canonical, so import re-serializes identically.
        run(&format!(
            "select import --from {} --table {}",
            copy.display(),
            table.display()
        ))
        .unwrap();
        assert_eq!(
            std::fs::read(&table).unwrap(),
            std::fs::read(&copy).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn select_import_refuses_a_table_that_poisons_its_own_bucket() {
        let dir = std::env::temp_dir().join(format!("exacoll-cli-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (table, bad) = (dir.join("table.json"), dir.join("bad.json"));
        run(&format!(
            "select seed --machine testbed --nodes 4 --sizes 64 --max-k 4 --table {}",
            table.display()
        ))
        .unwrap();
        let before = std::fs::read(&table).unwrap();
        // Well-formed v1, but its only candidate cannot run on 4 ranks: once
        // published it would win every allgather lookup in the bucket.
        for alg in ["kring:300", "knomial:1"] {
            std::fs::write(
                &bad,
                format!(
                    r#"{{"format":"exacoll-select/v1","policy":{{"prior_weight":3,"explore":0.5}},
                    "entries":[{{"op":"allgather","p":4,"bucket":7,
                    "cells":[{{"alg":"{alg}","prior_ns":1,"obs_sum_ns":0,"obs_n":0}}]}}]}}"#
                ),
            )
            .unwrap();
            let err = run(&format!(
                "select import --from {} --table {}",
                bad.display(),
                table.display()
            ))
            .unwrap_err();
            assert!(err.contains("allgather p=4 bucket 7"), "got: {err}");
            assert!(run(&format!("select show --table {}", bad.display())).is_err());
            assert_eq!(
                std::fs::read(&table).unwrap(),
                before,
                "destination touched"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sub_element_sizes_are_errors_not_panics() {
        // 3 B of f64 to reduce: one route, one typed error, on all three.
        let err = run("sweep --machine frontier --nodes 4 --op allreduce --sizes 3").unwrap_err();
        assert!(err.contains("whole number of f64 elements"), "got: {err}");
        let err = run("time --machine frontier --nodes 4 --op allreduce --alg ring --size 3")
            .unwrap_err();
        assert!(err.contains("whole number of f64 elements"), "got: {err}");
        assert!(run("radix --machine frontier --nodes 4 --op reduce --size 3").is_err());
        // Moving 3 B is fine; so is rounding 17 B down to two elements.
        run("time --machine frontier --nodes 4 --op bcast --alg ring --size 3").unwrap();
        run("sweep --machine frontier --nodes 4 --op allreduce --sizes 17 --max-k 2").unwrap();
    }

    #[test]
    fn shapes_lower_would_panic_on_are_errors() {
        let time = "time --machine frontier --nodes 4 --op allreduce --size 64 --alg";
        for alg in ["hier:3:2", "hier:0:2", "hier:2:1", "kring:300", "recmult:1"] {
            assert!(run(&format!("{time} {alg}")).is_err(), "{alg}");
        }
        run(&format!("{time} hier:2:2")).unwrap();
        // A region of 4 GiB or more does not fit a compiled span.
        let big = "--machine frontier --nodes 4 --op allgather";
        assert!(run(&format!("time {big} --alg ring --size 1024M")).is_err());
        assert!(run(&format!("sweep {big} --sizes 1024M --max-k 2")).is_err());
        assert!(run(&format!("radix {big} --size 18446744073709551615M")).is_err());
        assert!(run("sweep --machine frontier --nodes 0 --op bcast --sizes 8").is_err());
    }

    #[test]
    fn select_rejects_unknown_actions_and_missing_tables() {
        assert!(run("select wat").is_err());
        assert!(run("select show --table /nonexistent/table.json").is_err());
        assert!(run("select import --table /tmp/t.json").is_err()); // --from required
    }

    #[test]
    fn profile_select_rejects_non_auto_values() {
        let err = run("profile allreduce --select always --ranks 4").unwrap_err();
        assert!(err.contains("auto"), "got: {err}");
    }

    #[test]
    fn artifact_names_are_filesystem_safe() {
        assert_eq!(
            sanitize_artifact_name("allreduce-recmult:4-p8-corrupt"),
            "allreduce-recmult_4-p8-corrupt"
        );
        assert_eq!(
            sanitize_artifact_name("allreduce-reduce+bcast:2-p6"),
            "allreduce-reduce_bcast_2-p6"
        );
    }
}
