//! The whole benchmark in one command: every workload timed (tracing off),
//! then traced with the layer probes, each in a process of its own so that
//! `peak_rss_mb` belongs to one workload. Results go to stdout and to
//! `perf/results/latest.json`.

use crate::host::Machine;
use crate::names::{self, Better};
use crate::run::RunResult;
use crate::trace_file::RESULTS_DIR;
use crate::{Args, DEFAULT_SECONDS, DEFAULT_SEED};
use exacoll_json::Value;
use std::process::Command;

/// The two JSON lines a single run ends with.
pub struct ResultLine {
    /// Exactly `correct`, `attempted`, `failed`, `metrics`: what a driver
    /// reads off the last line.
    pub summary: String,
    /// The same plus samples, notes, problems and the machine.
    pub detail: String,
}

/// `Value::pretty` puts a newline and indentation between tokens and
/// escapes newlines inside strings, so dropping both leaves one line of
/// valid JSON.
fn one_line(v: &Value) -> String {
    v.pretty().lines().map(str::trim_start).collect()
}

fn strs(pairs: &[(String, String)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    )
}

/// Render a run's result; `Err` when a metric the mode owes is missing or
/// is not a finite number.
pub fn result_line(
    result: &RunResult,
    defs: &[(String, &'static str, Better)],
    pinned_cpu: usize,
    machine: &Machine,
) -> Result<ResultLine, String> {
    let mut brief = Vec::new();
    let mut full = Vec::new();
    for (name, unit, _) in defs {
        let m = result
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("internal error: metric `{name}` was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric `{name}` is {}", m.value));
        }
        let unit = Value::Str((*unit).to_string());
        brief.push((
            name.clone(),
            Value::obj(vec![("value", Value::Num(m.value)), ("unit", unit.clone())]),
        ));
        full.push((
            name.clone(),
            Value::obj(vec![
                ("value", Value::Num(m.value)),
                ("unit", unit),
                ("samples", Value::Num(m.samples as f64)),
            ]),
        ));
    }
    let head = |metrics: Vec<(String, Value)>| {
        vec![
            ("correct", Value::Bool(result.correct())),
            ("attempted", Value::Num(result.attempted as f64)),
            ("failed", Value::Num(result.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ]
    };
    let mut detail = head(full);
    detail.extend([
        (
            "fail_ratio",
            Value::Num(result.failed as f64 / result.attempted.max(1) as f64),
        ),
        (
            "problems",
            Value::Arr(result.problems.iter().cloned().map(Value::Str).collect()),
        ),
        ("notes", strs(&result.notes)),
        ("pinned_cpu", Value::Num(pinned_cpu as f64)),
        (
            "machine",
            Value::obj(vec![
                ("model", Value::Str(machine.model.clone())),
                ("cpus", Value::Num(machine.cpus as f64)),
                ("kernel", Value::Str(machine.kernel.clone())),
                ("caches_cpu0", strs(&machine.caches)),
            ]),
        ),
    ]);
    Ok(ResultLine {
        summary: one_line(&Value::obj(head(brief))),
        detail: one_line(&Value::obj(detail)),
    })
}

/// Run this binary once on `workload` and return the parsed `detail:` line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The child's report, minus its two machine-readable lines.
    for line in stdout.lines() {
        if !line.starts_with("detail: ") && !line.starts_with('{') {
            println!("{line}");
        }
    }
    if !out.status.success() {
        return Err(format!(
            "run of {workload} (trace {trace}) exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or_else(|| format!("run of {workload} printed no detail line"))?;
    exacoll_json::parse(detail).map_err(|e| format!("unreadable detail line of {workload}: {e}"))
}

/// `perf suite`: every workload, timed then traced; exits non-zero when any
/// operation failed.
pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    let timed_only = args.has("timed-only");
    let out_path = args
        .value("out")
        .map_or_else(|| format!("{RESULTS_DIR}/latest.json"), str::to_string);

    let mut workloads = Vec::new();
    let mut all_correct = true;
    let mut context = None;
    for w in names::WORKLOADS {
        let timed = child(w.name, seed, seconds, false)?;
        let mut entry = vec![
            ("correct", timed.req("correct")?.clone()),
            ("attempted", timed.req("attempted")?.clone()),
            ("failed", timed.req("failed")?.clone()),
            ("fail_ratio", timed.req("fail_ratio")?.clone()),
            ("problems", timed.req("problems")?.clone()),
            ("notes", timed.req("notes")?.clone()),
            ("end_to_end", timed.req("metrics")?.clone()),
        ];
        all_correct &= timed.req("correct")?.as_bool()?;
        if !timed_only {
            let traced = child(w.name, seed, seconds, true)?;
            all_correct &= traced.req("correct")?.as_bool()?;
            entry.extend([
                ("traced_correct", traced.req("correct")?.clone()),
                ("traced_notes", traced.req("notes")?.clone()),
                ("per_layer", traced.req("metrics")?.clone()),
            ]);
        }
        context.get_or_insert((
            timed.req("machine")?.clone(),
            timed.req("pinned_cpu")?.clone(),
        ));
        workloads.push((w.name.to_string(), Value::obj(entry)));
    }

    // What the wire costs per cycle: same cycle, same p, other backend.
    let p50 = |name: &str| -> Result<f64, String> {
        let (_, entry) = workloads
            .iter()
            .find(|(n, _)| n == name)
            .expect("every workload ran");
        entry
            .req("end_to_end")?
            .req("cycle_p50_us")?
            .req("value")?
            .as_f64()
    };
    let derived = vec![
        (
            "net.tcp_minus_thread_us.small",
            Value::Num(p50("tcp_small")? - p50("thread_small")?),
        ),
        (
            "net.tcp_minus_thread_us.large",
            Value::Num(p50("tcp_large")? - p50("thread_large")?),
        ),
    ];
    println!("derived (tcp minus thread cycle_p50_us):");
    for (name, v) in &derived {
        println!("  {name:<36} {:>16.4} us", v.as_f64()?);
    }

    let (machine, pinned_cpu) = context.expect("the workload list is not empty");
    let doc = Value::obj(vec![
        ("benchmark", Value::Str("exacoll perf".into())),
        ("seed", Value::Num(seed as f64)),
        ("run_seconds", Value::Num(seconds)),
        ("machine", machine),
        ("pinned_cpu", pinned_cpu),
        ("network", Value::Str("loopback".into())),
        ("derived", Value::obj(derived)),
        ("workloads", Value::Obj(workloads)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    std::fs::write(&out_path, doc.pretty() + "\n")
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    if all_correct {
        Ok(())
    } else {
        Err("at least one operation failed or one check did not hold".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Metric;

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![Metric {
                name: "ops_per_s".into(),
                value: 1234.5678,
                samples: 20,
            }],
            notes: vec![("k".into(), "two\nlines \"quoted\"".into())],
        };
        let defs = vec![("ops_per_s".to_string(), "op/s", Better::Higher)];
        let machine = Machine::read();
        let line = result_line(&result, &defs, 1, &machine).unwrap();
        assert!(!line.summary.contains('\n') && !line.detail.contains('\n'));
        let v = exacoll_json::parse(&line.summary).unwrap();
        let Value::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let value = v.req("metrics").unwrap().req("ops_per_s").unwrap();
        assert_eq!(value.req("value").unwrap().as_f64(), Ok(1234.5678));
        let d = exacoll_json::parse(&line.detail).unwrap();
        assert_eq!(
            d.req("notes").unwrap().req("k").unwrap().as_str(),
            Ok("two\nlines \"quoted\"")
        );
        // A metric the mode owes but nobody measured is an error, not a gap.
        let more = vec![("setup_s".to_string(), "s", Better::Lower)];
        assert!(result_line(&result, &more, 1, &machine).is_err());
    }
}
