//! Writes the traced phase's spans as a Chrome trace (`chrome://tracing`,
//! Perfetto): one track per rank, one `execute` span per slot call with the
//! calls it made into its `Comm` endpoint nested inside it.

use crate::slots::Cycle;
use crate::world::RankOut;
use exacoll_json::Value;
use std::fs;

pub const RESULTS_DIR: &str = "perf/results";

fn event(name: &str, cat: &str, tid: usize, begin_ns: u64, end_ns: u64, args: Value) -> Value {
    Value::obj(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str(cat.to_string())),
        ("ph", Value::Str("X".into())),
        ("ts", Value::Num(begin_ns as f64 / 1e3)),
        ("dur", Value::Num((end_ns - begin_ns) as f64 / 1e3)),
        ("pid", Value::Num(0.0)),
        ("tid", Value::Num(tid as f64)),
        ("args", args),
    ])
}

/// Write `perf/results/trace_<workload>.json` from the traced phase (the
/// last one) of every rank; returns the path.
pub fn write(workload: &str, cycle: &Cycle, outs: &[RankOut]) -> Result<String, String> {
    let mut events = Vec::new();
    for (rank, out) in outs.iter().enumerate() {
        let rec = out.phases.last().ok_or("no traced phase to write")?;
        let mut children = rec.child_spans.iter().peekable();
        for (id, span) in rec.exec_spans.iter().enumerate() {
            // Span id: cycle-major, so spans of one cycle are neighbours;
            // the cycle is the parent every slot of it shares.
            events.push(event(
                cycle.slots[span.slot as usize].name,
                "execute",
                rank,
                span.begin_ns,
                span.end_ns,
                Value::obj(vec![
                    ("id", Value::Num(id as f64)),
                    ("parent", Value::Num(f64::from(span.cycle))),
                ]),
            ));
            // Ranks call into `Comm` only from inside `execute`, and both
            // lists are in time order.
            while let Some(child) = children.next_if(|c| c.begin_ns < span.end_ns) {
                events.push(event(
                    child.call.name(),
                    "comm",
                    rank,
                    child.begin_ns,
                    child.end_ns,
                    Value::obj(vec![
                        ("parent", Value::Num(id as f64)),
                        ("detail", Value::Num(child.detail as f64)),
                    ]),
                ));
            }
        }
    }
    let doc = Value::obj(vec![
        ("displayTimeUnit", Value::Str("ns".into())),
        ("traceEvents", Value::Arr(events)),
    ]);
    fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("cannot create {RESULTS_DIR}: {e}"))?;
    let path = format!("{RESULTS_DIR}/trace_{workload}.json");
    fs::write(&path, doc.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}
