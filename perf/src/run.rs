//! One run of one workload: bring up several worlds one after the other,
//! measure each for its share of the given seconds, check every output, and
//! turn what the ranks recorded into named metrics.

use crate::host;
use crate::names::{self, slot_metric};
use crate::plan::{Kind, Planner};
use crate::probes;
use crate::slots::{Cycle, SlotSpec, CYCLE_L, CYCLE_S, P};
use crate::stats::{median, percentile_sorted, sorted};
use crate::trace_file;
use crate::world::{run_world, Backend, Counters, PhaseCtl, RankOut, Shared};
use exacoll_core::PlanCache;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Worlds a timed run brings up one after the other. Each is set up from
/// scratch (`setup_s` is the median of the set-up times) and measured for a
/// fifth of the run. Worlds of one process differ by a few percent in speed
/// for as long as they live (where their buffers landed, which thread wakes
/// first), so one world per run would make runs differ by as much.
const WORLDS: usize = 5;

/// Windows each world's timed phase is cut into. A window yields its own
/// rate, median and 99th percentile, and a metric is the *better quartile*
/// of those over all windows of the run: the upper quartile of the rates,
/// the lower quartile of the medians and of the 99th percentiles.
///
/// The reference box is a shared VM. A neighbour takes the CPU for a second
/// or two at a time and slows everything by a quarter, sometimes for most
/// of a run; that only ever makes a window worse. The better quartile reads
/// the windows the program had to itself, and repeats within 2-4 % from run
/// to run where the median over windows moves by 5-20 %.
const WINDOWS_PER_WORLD: usize = 8;

/// Share of `--seconds` each of the two phases of a traced run measures
/// for (first untraced, then traced, on the same world).
const TRACED_PHASE_SHARE: f64 = 0.4;

/// One measured value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Samples behind the value: cycles for a timing, batch means for a
    /// probe, 1 for a count or a single reading, 0 for "does not apply to
    /// this workload".
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            samples,
        }
    }
}

/// What one run reports.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Facts about the run that are not metrics (digest, cycle counts, ...).
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

struct RuntimeWorkload {
    backend: Backend,
    cycle: &'static [SlotSpec],
    /// Cycles run before the first timed one; they take every slot's cold
    /// lower-and-compile miss.
    warmup_cycles: usize,
    /// Cycles per batch: short enough for dozens of batches per run, long
    /// enough that a batch spans many scheduler quanta.
    batch_cycles: usize,
}

fn runtime_workload(name: &str) -> Option<RuntimeWorkload> {
    let small = |backend| RuntimeWorkload {
        backend,
        cycle: CYCLE_S,
        warmup_cycles: 250,
        batch_cycles: 250,
    };
    let large = |backend| RuntimeWorkload {
        backend,
        cycle: CYCLE_L,
        warmup_cycles: 20,
        batch_cycles: 10,
    };
    match name {
        "tcp_small" => Some(small(Backend::Tcp)),
        "tcp_large" => Some(large(Backend::Tcp)),
        "thread_small" => Some(small(Backend::Thread)),
        "thread_large" => Some(large(Backend::Thread)),
        _ => None,
    }
}

/// Run `workload` once. `Err` is for a benchmark that could not run at all
/// (unknown name, a probe that failed); failed operations are in the result.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let canary_before = host::canary_ns();
    let mut result = match runtime_workload(workload) {
        Some(w) => run_runtime(workload, &w, seed, seconds, trace)?,
        None if workload == "plan_cold" => run_plan_cold(seed, seconds, trace)?,
        None => return Err(format!("unknown workload `{workload}`")),
    };
    if trace {
        result.metrics.extend(probes::run(seed)?);
    }
    let canary_after = host::canary_ns();
    let drift = (canary_after - canary_before).abs() / canary_before;
    result
        .notes
        .push(("canary_drift_pct".into(), format!("{:.2}", drift * 100.0)));
    if drift > 0.05 {
        result.notes.push((
            "disturbed".into(),
            "canaries differ by more than 5 %".into(),
        ));
    }
    Ok(result)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The timing metrics of every workload, from the cycle samples (ns, in run
/// order) of each world the run measured. The 99th percentile is a
/// per-layer metric: a window of the large-message cycles holds 50-100
/// samples, so it is close to the window's maximum and moves 10-20 % from
/// run to run over sockets, where the 90th moves as little as the median.
fn timing_metrics(worlds: &[impl AsRef<[u64]>], ops_per_cycle: usize) -> Vec<Metric> {
    let (mut rates, mut p50s, mut p90s, mut p99s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut cycles = 0;
    for cycles_ns in worlds {
        let cycles_ns = cycles_ns.as_ref();
        let per_window = cycles_ns.len() / WINDOWS_PER_WORLD;
        assert!(per_window > 0, "a phase too short to cut into windows");
        for window in cycles_ns.chunks_exact(per_window).take(WINDOWS_PER_WORLD) {
            let total: u64 = window.iter().sum();
            rates.push((per_window * ops_per_cycle) as f64 * 1e9 / total as f64);
            let s = sorted(&window.iter().map(|&ns| ns as f64).collect::<Vec<_>>());
            p50s.push(us(percentile_sorted(&s, 0.5)));
            p90s.push(us(percentile_sorted(&s, 0.9)));
            p99s.push(us(percentile_sorted(&s, 0.99)));
            cycles += per_window;
        }
    }
    let lower_quartile = |v: &[f64]| percentile_sorted(&sorted(v), 0.25);
    vec![
        Metric::new(
            "ops_per_s",
            percentile_sorted(&sorted(&rates), 0.75),
            cycles,
        ),
        Metric::new("cycle_p50_us", lower_quartile(&p50s), cycles),
        Metric::new("cycle_p90_us", lower_quartile(&p90s), cycles),
        Metric::new("cycle_p99_us", lower_quartile(&p99s), cycles),
    ]
}

/// One `slot.<name>_us` metric per known slot name: the median of the spans
/// (ns) `spans_of` has for it, or 0 with no samples for a slot this
/// workload's cycle does not hold.
fn slot_metrics(spans_of: impl Fn(&str) -> Option<Vec<f64>>) -> Vec<Metric> {
    names::SLOT_NAMES
        .iter()
        .map(|name| match spans_of(name) {
            Some(ns) => Metric::new(slot_metric(name), us(median(&ns)), ns.len()),
            None => Metric::new(slot_metric(name), 0.0, 0),
        })
        .collect()
}

/// Set-up time and the memory it left resident, from repeated set-ups.
fn setup_metrics(setups_s: &[f64], peak_rss_kib: u64) -> [Metric; 2] {
    [
        Metric::new("setup_s", median(setups_s), setups_s.len()),
        Metric::new("peak_rss_mb", peak_rss_kib as f64 / 1024.0, 1),
    ]
}

fn run_runtime(
    name: &str,
    w: &RuntimeWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let worlds = if trace { 1 } else { WORLDS };
    let mut setups = Vec::with_capacity(worlds);
    let mut peak_rss_kib = 0;
    let mut measured = Vec::with_capacity(worlds);
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    let mut last = None;
    for world in 0..worlds {
        let epoch = Instant::now();
        // Every set-up pays the cold lower-and-compile misses again.
        PlanCache::global().clear();
        let cycle = Cycle::build(w.cycle, seed);
        let phases = if trace {
            vec![
                PhaseCtl::new(seconds * TRACED_PHASE_SHARE, false),
                PhaseCtl::new(seconds * TRACED_PHASE_SHARE, true),
            ]
        } else {
            vec![PhaseCtl::new(seconds / worlds as f64, false)]
        };
        let sh = Shared::new(&cycle, epoch, w.warmup_cycles, w.batch_cycles, phases);
        let mut outs = run_world(w.backend, &sh);
        setups.push(sh.setup_done_ns.load(Ordering::SeqCst) as f64 / 1e9);
        if world == 0 {
            // Before any timed phase, so the same work on every run.
            peak_rss_kib = sh.setup_peak_rss_kib.load(Ordering::SeqCst);
        }
        // One collective call is one operation however many ranks take
        // part; a call that failed on several ranks failed once.
        attempted += outs.iter().map(|o| o.tally.attempted).max().unwrap_or(0);
        failed += outs.iter().map(|o| o.tally.failed).max().unwrap_or(0);
        problems.extend(outs.iter().enumerate().filter_map(|(r, o)| {
            Some(format!(
                "world {world} rank {r} gave up: {}",
                o.gave_up.as_ref()?
            ))
        }));
        if let Some(rec) = outs[0].phases.first_mut() {
            measured.push(std::mem::take(&mut rec.cycle_ns));
        }
        last = Some((cycle, outs));
    }
    let (cycle, outs) = last.expect("at least one world ran");
    let slots_per_cycle = cycle.slots.len();

    let mut result = RunResult {
        attempted,
        failed,
        problems,
        metrics: Vec::new(),
        notes: vec![
            ("backend".into(), format!("{:?}", w.backend)),
            (
                "network".into(),
                match w.backend {
                    Backend::Tcp => "loopback (127.0.0.1), not a real link".into(),
                    Backend::Thread => "none (in-process)".into(),
                },
            ),
            ("ranks".into(), P.to_string()),
            ("input_digest".into(), format!("{:016x}", cycle.digest())),
            (
                "working_set_bytes".into(),
                cycle.working_set_bytes().to_string(),
            ),
            ("warmup_cycles".into(), w.warmup_cycles.to_string()),
            ("batch_cycles".into(), w.batch_cycles.to_string()),
        ],
    };
    if !result.problems.is_empty() {
        result.failed = result.failed.max(1);
        return Ok(result);
    }

    let timed_cycles: usize = measured.iter().map(Vec::len).sum();
    result.notes.extend([
        ("worlds".into(), worlds.to_string()),
        ("timed_cycles".into(), timed_cycles.to_string()),
    ]);
    if trace {
        trace_metrics(name, &cycle, &outs, &measured[0], &mut result)?;
    } else {
        result
            .metrics
            .extend(timing_metrics(&measured, slots_per_cycle));
        result.metrics.extend(setup_metrics(&setups, peak_rss_kib));
    }
    Ok(result)
}

/// The per-layer metrics read off process counters at both ends of an
/// untraced stretch of `ops` operations.
fn counter_metrics(before: &Counters, after: &Counters, ops: u64) -> Vec<Metric> {
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    let user = (after.user_ticks - before.user_ticks) as f64;
    let sys = (after.sys_ticks - before.sys_ticks) as f64;
    vec![
        Metric::new(
            "core.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        ),
        Metric::new(
            "comm.ctx_switch_per_op",
            (after.ctx_switches - before.ctx_switches) as f64 / ops as f64,
            ops as usize,
        ),
        // Memory the loop keeps per operation it has run: a request table
        // or queue that only grows shows here, and nowhere else, because
        // `peak_rss_mb` is taken at the end of set-up.
        Metric::new(
            "comm.rss_growth_B_per_op",
            (after.rss_kib as f64 - before.rss_kib as f64) * 1024.0 / ops as f64,
            ops as usize,
        ),
        Metric::new("net.threads", after.threads as f64, 1),
        Metric::new(
            "net.sys_share",
            sys / (user + sys).max(1.0),
            (user + sys) as usize,
        ),
    ]
}

/// Per-layer metrics of a runtime workload from its traced phase (and the
/// untraced phase before it, for the counters and the tracing overhead).
fn trace_metrics(
    name: &str,
    cycle: &Cycle,
    outs: &[RankOut],
    plain_cycles: &[u64],
    result: &mut RunResult,
) -> Result<(), String> {
    let slots_per_cycle = cycle.slots.len();
    let (plain, traced) = (&outs[0].phases[0], &outs[0].phases[1]);
    result
        .notes
        .push(("traced_cycles".into(), traced.cycle_ns.len().to_string()));

    result.metrics.extend(slot_metrics(|name| {
        let i = cycle.slots.iter().position(|s| s.name == name)?;
        Some(traced.slot_ns[i].iter().map(|&ns| f64::from(ns)).collect())
    }));

    let (before, after) = plain.counters.as_ref().expect("rank 0 reads counters");
    let plain_ops = plain.cycles * slots_per_cycle as u64;
    result
        .metrics
        .extend(counter_metrics(before, after, plain_ops));

    // Whole world: time inside `wait`/`waitall` over time inside `execute`.
    // The rest of each execute span is the core crate's own time.
    let total = |f: fn(&RankOut) -> u64| outs.iter().map(f).sum::<u64>();
    let exec_ns = total(|o| o.phases[1].exec_ns);
    result.metrics.push(Metric::new(
        "comm.wait_share",
        total(|o| o.phases[1].comm.wait_ns) as f64 / exec_ns as f64,
        traced.cycle_ns.len(),
    ));
    // Variants differ in who sends what, so count over whole rounds of them.
    let messages = total(|o| o.phases[1].comm.messages);
    result.metrics.push(Metric::new(
        "comm.msgs_per_cycle",
        messages as f64 / traced.cycles as f64,
        traced.cycles as usize,
    ));
    result.notes.extend([
        (
            "core_self_share".into(),
            format!(
                "{:.4}",
                1.0 - total(|o| o.phases[1].comm.comm_ns) as f64 / exec_ns as f64
            ),
        ),
        (
            "bytes_sent_per_cycle".into(),
            format!(
                "{:.1}",
                total(|o| o.phases[1].comm.bytes_sent) as f64 / traced.cycles as f64
            ),
        ),
    ]);

    // `cycle_p99_us` comes from here; the others are end-to-end names and
    // are not printed in a traced run.
    let plain_timing = timing_metrics(&[plain_cycles], slots_per_cycle);
    let p50 = |timing: &[Metric]| {
        timing
            .iter()
            .find(|m| m.name == "cycle_p50_us")
            .expect("timing metrics include the median")
            .value
    };
    let traced_p50 = p50(&timing_metrics(&[&traced.cycle_ns], slots_per_cycle));
    result.metrics.push(Metric::new(
        "bench.trace_overhead_pct",
        (traced_p50 - p50(&plain_timing)) / p50(&plain_timing) * 100.0,
        traced.cycle_ns.len(),
    ));
    result.metrics.extend(plain_timing);

    let path = trace_file::write(name, cycle, outs)?;
    result.notes.push(("trace_file".into(), path));
    Ok(())
}

fn run_plan_cold(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    // The same shape as a runtime workload: several planners, each set up
    // from scratch and measured for its share of the run. One thread, so the
    // clock alone decides when a share is over.
    let planners = if trace { 1 } else { WORLDS };
    let budget = if trace {
        seconds * TRACED_PHASE_SHARE
    } else {
        seconds / planners as f64
    };
    let mut setups = Vec::with_capacity(planners);
    let mut peak_rss_kib = 0;
    let mut measured = Vec::with_capacity(planners);
    let mut by_kind: Vec<Vec<f64>> = Kind::ALL
        .iter()
        .map(|_| Vec::with_capacity(1 << 16))
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut last = None;
    let before = Counters::read();
    for world in 0..planners {
        let start = Instant::now();
        let planner = Planner::build(seed)?;
        setups.push(start.elapsed().as_secs_f64());
        if world == 0 {
            // Before any timed phase, so the same work on every run.
            peak_rss_kib = host::peak_rss_kib();
        }
        let mut cycles_ns = Vec::with_capacity(1 << 14);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < budget || cycles_ns.len() < WINDOWS_PER_WORLD {
            let mut cycle_ns = 0u64;
            for (i, request) in planner.requests.iter().enumerate() {
                attempted += 1;
                let t0 = Instant::now();
                let answer = planner.run(i);
                let took = t0.elapsed().as_nanos() as u64;
                cycle_ns += took;
                by_kind[request.kind as usize].push(took as f64);
                match answer {
                    Ok(true) => {}
                    Ok(false) => failed += 1,
                    Err(e) => {
                        failed += 1;
                        problems.push(format!("{}: {e}", request.kind.name()));
                    }
                }
            }
            cycles_ns.push(cycle_ns);
        }
        measured.push(cycles_ns);
        last = Some(planner);
    }
    let after = Counters::read();
    let planner = last.expect("at least one planner ran");
    let n = planner.requests.len();
    let timed_cycles: usize = measured.iter().map(Vec::len).sum();
    let mut result = RunResult {
        attempted,
        failed,
        problems,
        metrics: timing_metrics(&measured, n),
        notes: vec![
            ("backend".into(), "none (single thread)".into()),
            ("input_digest".into(), format!("{:016x}", planner.digest())),
            ("requests_per_cycle".into(), n.to_string()),
            ("worlds".into(), planners.to_string()),
            ("timed_cycles".into(), timed_cycles.to_string()),
        ],
    };
    result.metrics.extend(setup_metrics(&setups, peak_rss_kib));
    if trace {
        result.metrics.extend(slot_metrics(|name| {
            let kind = Kind::ALL.iter().find(|k| k.name() == name)?;
            Some(by_kind[*kind as usize].clone())
        }));
        // Only `seed_point` touches the global plan cache, and it starts
        // from an empty one: the hit ratio of a miss path is 0. Nothing
        // sends a message, and nothing here is traced.
        result
            .metrics
            .extend(counter_metrics(&before, &after, attempted));
        result.metrics.extend([
            Metric::new("comm.wait_share", 0.0, 0),
            Metric::new("comm.msgs_per_cycle", 0.0, 0),
            Metric::new("bench.trace_overhead_pct", 0.0, 0),
        ]);
    }
    Ok(result)
}
