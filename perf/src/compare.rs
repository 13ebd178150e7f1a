//! `perf compare DIR_A DIR_B`: judge two sets of suite results (every
//! `*.json` file of a directory is one run) by the rule of the
//! choosing-metrics guide, one row per (workload, end-to-end metric).
//!
//! A is the parent, B the change. A row is a **regression** when B's median
//! is worse than A's by more than the metric's bound; **unresolved** when
//! A's own inter-quartile spread exceeds the bound, so the bound cannot be
//! resolved; a **gain** when B wins at least nine tenths of the pairs and
//! the medians differ by more than A's inter-quartile distance; **ok**
//! otherwise. Exits non-zero on a regression or a higher fail ratio.

use crate::names::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::Args;
use exacoll_json::Value;
use std::path::Path;

/// One side's runs: parsed result files in file-name order.
fn load_set(dir: &str) -> Result<Vec<Value>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.len() < 2 {
        return Err(format!(
            "{dir} holds {} result files; quartiles need at least 2",
            files.len()
        ));
    }
    files.iter().map(|p| load(p)).collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    exacoll_json::parse(&text).map_err(|e| format!("{path:?}: {e}"))
}

fn workload<'a>(run: &'a Value, name: &str) -> Result<&'a Value, String> {
    run.req("workloads")?.req(name)
}

fn values(set: &[Value], w: &str, metric: &str) -> Result<Vec<f64>, String> {
    set.iter()
        .map(|run| {
            workload(run, w)?
                .req("end_to_end")?
                .req(metric)?
                .req("value")?
                .as_f64()
        })
        .collect()
}

fn fail_ratio(set: &[Value], w: &str) -> Result<f64, String> {
    let mut failed = 0.0;
    let mut attempted = 0.0;
    for run in set {
        let entry = workload(run, w)?;
        failed += entry.req("failed")?.as_f64()?;
        attempted += entry.req("attempted")?.as_f64()?;
    }
    Ok(failed / attempted.max(1.0))
}

fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().copied().map(Value::Num).collect())
}

/// The judgement of one (workload, metric) row.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub quartiles_a: (f64, f64),
    pub median_b: f64,
    pub quartiles_b: (f64, f64),
    /// A's inter-quartile distance as a share of A's median.
    pub spread_a: f64,
    /// How much worse B's median is than A's, as a share of A's median;
    /// negative when B is better.
    pub worse_by: f64,
    /// Pairs (i-th run of A, i-th run of B) B won, A won; ties are neither.
    pub wins_b: usize,
    pub wins_a: usize,
    pub verdict: &'static str,
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let (quartiles_a, quartiles_b) = (quartiles(a), quartiles(b));
    let iqr_a = quartiles_a.1 - quartiles_a.0;
    let spread_a = iqr_a / median_a;
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (median_b - median_a) / median_a;
    let pairs = a.iter().zip(b);
    let wins_b = pairs
        .clone()
        .filter(|(x, y)| sign * (*y - *x) < 0.0)
        .count();
    let wins_a = pairs.filter(|(x, y)| sign * (*y - *x) > 0.0).count();
    let n = a.len().min(b.len());
    let verdict = if spread_a > bound {
        "unresolved"
    } else if worse_by > bound {
        "regression"
    } else if wins_b * 10 >= n * 9 && (median_b - median_a).abs() > iqr_a {
        "gain"
    } else {
        "ok"
    };
    Row {
        median_a,
        quartiles_a,
        median_b,
        quartiles_b,
        spread_a,
        worse_by,
        wins_b,
        wins_a,
        verdict,
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let [dir_a, dir_b] = args.positional.as_slice() else {
        return Err("usage: perf compare DIR_A DIR_B [--json]".into());
    };
    let (set_a, set_b) = (load_set(dir_a)?, load_set(dir_b)?);
    let mut rows = Vec::new();
    let mut regressed = false;
    let mut text = format!(
        "A = {dir_a} ({} runs), B = {dir_b} ({} runs)\n{:<13} {:<13} {:>13} {:>13} {:>9} {:>9} {:>7} {:>6}  verdict\n",
        set_a.len(),
        set_b.len(),
        "workload",
        "metric",
        "median A",
        "median B",
        "spread A",
        "worse by",
        "bound",
        "B wins"
    );
    for w in WORKLOADS {
        for (m, bound) in END_TO_END {
            let a = values(&set_a, w.name, m.name)?;
            let b = values(&set_b, w.name, m.name)?;
            let row = judge(&a, &b, m.better, *bound);
            regressed |= row.verdict == "regression";
            text.push_str(&format!(
                "{:<13} {:<13} {:>13.4} {:>13.4} {:>8.2}% {:>+8.2}% {:>6.0}% {:>3}/{:<2}  {}\n",
                w.name,
                m.name,
                row.median_a,
                row.median_b,
                row.spread_a * 100.0,
                row.worse_by * 100.0,
                bound * 100.0,
                row.wins_b,
                row.wins_b + row.wins_a,
                row.verdict
            ));
            rows.push(Value::obj(vec![
                ("workload", Value::Str(w.name.into())),
                ("metric", Value::Str(m.name.into())),
                ("unit", Value::Str(m.unit.into())),
                ("bound", Value::Num(*bound)),
                ("median_a", Value::Num(row.median_a)),
                ("q1_a", Value::Num(row.quartiles_a.0)),
                ("q3_a", Value::Num(row.quartiles_a.1)),
                ("median_b", Value::Num(row.median_b)),
                ("q1_b", Value::Num(row.quartiles_b.0)),
                ("q3_b", Value::Num(row.quartiles_b.1)),
                ("spread_a", Value::Num(row.spread_a)),
                ("worse_by", Value::Num(row.worse_by)),
                ("wins_b", Value::Num(row.wins_b as f64)),
                ("wins_a", Value::Num(row.wins_a as f64)),
                ("verdict", Value::Str(row.verdict.into())),
                ("values_a", nums(&a)),
                ("values_b", nums(&b)),
            ]));
        }
        let (fa, fb) = (fail_ratio(&set_a, w.name)?, fail_ratio(&set_b, w.name)?);
        let verdict = if fb > fa { "regression" } else { "ok" };
        regressed |= fb > fa;
        text.push_str(&format!(
            "{:<13} {:<13} {fa:>13} {fb:>13} {:>47}  {verdict}\n",
            w.name, "fail_ratio", "any increase"
        ));
        rows.push(Value::obj(vec![
            ("workload", Value::Str(w.name.into())),
            ("metric", Value::Str("fail_ratio".into())),
            ("unit", Value::Str("failed/attempted".into())),
            ("fail_ratio_a", Value::Num(fa)),
            ("fail_ratio_b", Value::Num(fb)),
            ("verdict", Value::Str(verdict.into())),
        ]));
    }
    let overall = if regressed {
        "regression"
    } else {
        "no regression"
    };
    if args.has("json") {
        let doc = Value::obj(vec![
            ("runs_a", Value::Num(set_a.len() as f64)),
            ("runs_b", Value::Num(set_b.len() as f64)),
            ("verdict", Value::Str(overall.into())),
            ("rows", Value::Arr(rows)),
        ]);
        println!("{}", doc.pretty());
    } else {
        print!("{text}");
        println!("overall: {overall}");
    }
    if regressed {
        Err("B is worse than A beyond a bound, or fails more".into())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    fn shifted(by: f64) -> Vec<f64> {
        A.iter().map(|x| x * by).collect()
    }

    #[test]
    fn within_the_bound_is_ok_beyond_it_is_a_regression() {
        assert_eq!(judge(&A, &shifted(1.03), Better::Lower, 0.07).verdict, "ok");
        let worse = judge(&A, &shifted(1.10), Better::Lower, 0.07);
        assert_eq!(worse.verdict, "regression");
        assert!((worse.worse_by - 0.10).abs() < 1e-9);
        assert_eq!((worse.wins_b, worse.wins_a), (0, 10));
        // For a rate, lower is the worse direction.
        assert_eq!(
            judge(&A, &shifted(0.90), Better::Higher, 0.07).verdict,
            "regression"
        );
        assert_eq!(
            judge(&A, &shifted(1.10), Better::Higher, 0.07).verdict,
            "gain"
        );
    }

    #[test]
    fn a_noisy_parent_cannot_resolve_its_bound() {
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
        ];
        let row = judge(&noisy, &shifted(1.2), Better::Lower, 0.07);
        assert!(row.spread_a > 0.07);
        assert_eq!(row.verdict, "unresolved");
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread() {
        assert_eq!(
            judge(&A, &shifted(0.9), Better::Lower, 0.07).verdict,
            "gain"
        );
        // Better by less than A's own quartile distance: not a gain.
        assert_eq!(
            judge(&A, &shifted(0.999), Better::Lower, 0.07).verdict,
            "ok"
        );
        // Ties count for neither side.
        let same = judge(&A, &A, Better::Lower, 0.07);
        assert_eq!((same.wins_a, same.wins_b, same.verdict), (0, 0, "ok"));
    }
}
