//! `perf`: the repository's benchmark.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//! perf suite [--seed N] [--seconds S] [--timed-only] [--out FILE]
//! perf compare DIR_A DIR_B [--json]
//! perf list
//! ```
//!
//! `perf/run.sh` builds this binary and hands it its arguments; without
//! `--workload` it runs the whole suite. See `perf/README.md`.

mod compare;
mod gen;
mod host;
mod names;
mod pin;
mod plan;
mod probes;
mod run;
mod slots;
mod span;
mod stats;
mod suite;
mod trace_file;
mod world;

use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

/// Arguments after the subcommand, as `--flag value` pairs, bare `--flag`s
/// and positionals.
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
    pub positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = it.next_if(|v| !v.starts_with("--")).cloned();
                    pairs.push((flag.to_string(), value));
                }
                None => positional.push(a.clone()),
            }
        }
        Args { pairs, positional }
    }

    pub fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| f == flag)
    }

    pub fn value(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A numeric flag, or `default` when it is absent.
    pub fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("--{flag} needs a value")),
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot read `{v}` as a number")),
        }
    }
}

/// Default seed and run length; `BENCHMARK.json` names the same length.
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: f64 = 20.0;

/// One workload, one run, one JSON object on the last line of stdout.
fn run_one(args: &Args) -> Result<(), String> {
    let workload = args.value("workload").ok_or("--workload needs a name")?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    let trace = match args.value("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }

    let machine = host::Machine::read();
    // Unpinned numbers are not comparable with pinned ones, so a failed pin
    // ends the run before anything is measured.
    let cpu = pin::pin_highest()?;

    // A hang anywhere (a world that never comes up, a probe that blocks)
    // must end as a failed run, not as a benchmark that never returns.
    let (done, waiting) = mpsc::channel::<()>();
    let limit = Duration::from_secs_f64((seconds * 2.0 + 90.0).min(170.0));
    let watchdog = std::thread::spawn(move || {
        if waiting.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("perf: run exceeded {limit:?}; giving up");
            std::process::exit(3);
        }
    });
    let result = run::run(workload, seed, seconds, trace);
    drop(done);
    watchdog.join().map_err(|_| "watchdog thread panicked")?;
    let result = result?;

    println!(
        "workload {workload}  seed {seed}  seconds {seconds}  trace {}",
        u8::from(trace)
    );
    if let Some(w) = names::WORKLOADS.iter().find(|w| w.name == workload) {
        println!("why: {}", w.why);
    }
    println!(
        "machine: {} ({} cpus), kernel {}, pinned to cpu {cpu}",
        machine.model, machine.cpus, machine.kernel
    );
    let caches: Vec<String> = machine
        .caches
        .iter()
        .map(|(what, size)| format!("{what} {size}"))
        .collect();
    println!("caches (cpu0): {}", caches.join(", "));
    for (k, v) in &result.notes {
        println!("  {k}: {v}");
    }
    for p in &result.problems {
        println!("  PROBLEM: {p}");
    }
    let fail_ratio = result.failed as f64 / result.attempted.max(1) as f64;
    println!(
        "  fail_ratio {fail_ratio} failed/attempted ({} of {})",
        result.failed, result.attempted
    );
    let defs = if trace {
        names::per_layer()
    } else {
        names::END_TO_END
            .iter()
            .map(|(m, _)| (m.name.to_string(), m.unit, m.better))
            .collect()
    };
    let line = suite::result_line(&result, &defs, cpu, &machine)?;
    for (name, unit, _) in &defs {
        let m = result
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .expect("result_line checked every name");
        println!("  {name:<36} {:>16.4} {unit:<6} (n={})", m.value, m.samples);
    }
    println!("detail: {}", line.detail);
    println!("{}", line.summary);
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &raw[1..]),
        _ => ("", &raw[..]),
    };
    let args = Args::parse(rest);
    let outcome = match command {
        "" if args.has("workload") => run_one(&args),
        "" | "suite" => suite::run(&args),
        "compare" => compare::run(&args),
        "list" => {
            print!("{}", names::list_text());
            Ok(())
        }
        other => Err(format!(
            "unknown command `{other}` (expected suite, compare or list)"
        )),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_values_and_positionals() {
        let a = parse(&["a", "--seed", "7", "--json", "b", "--trace", "1"]);
        assert_eq!(a.positional, ["a"]);
        assert_eq!(a.number("seed", 1u64), Ok(7));
        assert_eq!(a.value("json"), Some("b"));
        assert_eq!(a.value("trace"), Some("1"));
        assert_eq!(a.number("seconds", 20.0), Ok(20.0));
        assert!(parse(&["--seed", "x"]).number("seed", 1u64).is_err());
        assert!(parse(&["--seed"]).number("seed", 1u64).is_err());
    }
}
