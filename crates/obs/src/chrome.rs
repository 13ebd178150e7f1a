//! Chrome `trace_event` export: timelines become a JSON document loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Layout: each backend (e.g. "thread", "sim") is a *process* (`pid`), each
//! rank a *thread* (`tid`) within it, so Perfetto shows one track per rank
//! grouped by backend. Sends, receives, waits, and computes are complete
//! ("X") slices; round marks are instant ("i") events. Timestamps are
//! microseconds, the unit the format requires.

use crate::timeline::{EventKind, RankTimeline};
use exacoll_json::Value;
use std::collections::BTreeMap;

fn us(ns: f64) -> f64 {
    ns / 1000.0
}

fn meta(name: &str, pid: usize, tid: usize, value: String) -> Value {
    Value::obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::Num(pid as f64)),
        ("tid", Value::Num(tid as f64)),
        ("args", Value::obj(vec![("name", Value::Str(value))])),
    ])
}

/// Build a Chrome trace document from one or more backends' timelines.
///
/// Each `(backend_name, timelines)` pair becomes one process track group.
pub fn chrome_trace(backends: &[(&str, &[RankTimeline])]) -> Value {
    let mut events = Vec::new();
    for (pid, (backend, timelines)) in backends.iter().enumerate() {
        events.push(meta("process_name", pid, 0, (*backend).to_string()));
        for tl in timelines.iter() {
            events.push(meta(
                "thread_name",
                pid,
                tl.rank,
                format!("rank {}", tl.rank),
            ));
            for e in &tl.events {
                if e.kind == EventKind::Mark {
                    events.push(Value::obj(vec![
                        (
                            "name",
                            Value::Str(format!(
                                "{}[{}]",
                                e.label.unwrap_or("mark"),
                                e.round.unwrap_or(0)
                            )),
                        ),
                        ("ph", Value::Str("i".to_string())),
                        ("s", Value::Str("t".to_string())),
                        ("pid", Value::Num(pid as f64)),
                        ("tid", Value::Num(tl.rank as f64)),
                        ("ts", Value::Num(us(e.begin_ns))),
                    ]));
                    continue;
                }
                let name = match (e.kind, e.peer) {
                    (EventKind::Send, Some(peer)) => format!("send to {peer}"),
                    (EventKind::Recv, Some(peer)) => format!("recv from {peer}"),
                    _ => e.kind.name().to_string(),
                };
                let mut args = vec![("bytes", Value::Num(e.bytes as f64))];
                if let Some(tag) = e.tag {
                    args.push(("tag", Value::Num(tag as f64)));
                }
                if let Some(round) = e.round {
                    args.push(("round", Value::Num(round as f64)));
                }
                args.push(("done_us", Value::Num(us(e.done_ns))));
                events.push(Value::obj(vec![
                    ("name", Value::Str(name)),
                    (
                        "cat",
                        Value::Str(e.label.unwrap_or(e.kind.name()).to_string()),
                    ),
                    ("ph", Value::Str("X".to_string())),
                    ("pid", Value::Num(pid as f64)),
                    ("tid", Value::Num(tl.rank as f64)),
                    ("ts", Value::Num(us(e.begin_ns))),
                    ("dur", Value::Num(us(e.end_ns - e.begin_ns))),
                    ("args", Value::obj(args)),
                ]));
            }
        }
    }
    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ns".to_string())),
    ])
}

/// Validate a Chrome trace document and count "X" slices per `(pid, tid)`
/// track. Errors on structurally malformed events.
pub fn rank_tracks(doc: &Value) -> Result<BTreeMap<(usize, usize), usize>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr().ok())
        .ok_or("traceEvents: missing or not an array")?;
    let mut tracks = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str().ok())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = e
            .get("pid")
            .and_then(|v| v.as_usize().ok())
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = e
            .get("tid")
            .and_then(|v| v.as_usize().ok())
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        match ph {
            "X" => {
                let ts = e
                    .get("ts")
                    .and_then(|v| v.as_f64().ok())
                    .ok_or_else(|| format!("event {i}: missing ts"))?;
                let dur = e
                    .get("dur")
                    .and_then(|v| v.as_f64().ok())
                    .ok_or_else(|| format!("event {i}: missing dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                *tracks.entry((pid, tid)).or_default() += 1;
            }
            "i" | "M" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    Ok(tracks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimedEvent;

    fn tl(rank: usize, size: usize, events: Vec<TimedEvent>) -> RankTimeline {
        RankTimeline { rank, size, events }
    }

    fn ev(kind: EventKind, begin: f64, end: f64) -> TimedEvent {
        TimedEvent {
            kind,
            peer: Some(1),
            tag: Some(0),
            bytes: 8,
            begin_ns: begin,
            end_ns: end,
            done_ns: end,
            label: Some("phase"),
            round: Some(0),
            covers: Vec::new(),
            digest: None,
        }
    }

    #[test]
    fn one_track_per_rank_per_backend() {
        let a = vec![
            tl(0, 2, vec![ev(EventKind::Send, 0.0, 10.0)]),
            tl(1, 2, vec![ev(EventKind::Recv, 0.0, 20.0)]),
        ];
        let b = vec![
            tl(0, 2, vec![ev(EventKind::Send, 0.0, 5.0)]),
            tl(1, 2, vec![ev(EventKind::Recv, 0.0, 5.0)]),
        ];
        let doc = chrome_trace(&[("thread", &a), ("sim", &b)]);
        let tracks = rank_tracks(&doc).unwrap();
        assert_eq!(tracks.len(), 4);
        for pid in 0..2 {
            for tid in 0..2 {
                assert_eq!(tracks[&(pid, tid)], 1, "pid={pid} tid={tid}");
            }
        }
    }

    #[test]
    fn marks_become_instants_not_slices() {
        let a = vec![tl(
            0,
            1,
            vec![
                ev(EventKind::Mark, 0.0, 0.0),
                ev(EventKind::Compute, 0.0, 9.0),
            ],
        )];
        let doc = chrome_trace(&[("sim", &a)]);
        let tracks = rank_tracks(&doc).unwrap();
        // Only the compute is an X slice.
        assert_eq!(tracks[&(0, 0)], 1);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(|v| v.as_str().ok()) == Some("i")
                && e.get("name").and_then(|v| v.as_str().ok()) == Some("phase[0]")
        }));
    }

    #[test]
    fn round_trips_through_text() {
        let a = vec![tl(0, 1, vec![ev(EventKind::Send, 1.5, 2500.0)])];
        let doc = chrome_trace(&[("thread", &a)]);
        let text = doc.pretty();
        let back = exacoll_json::parse(&text).unwrap();
        assert_eq!(rank_tracks(&back).unwrap(), rank_tracks(&doc).unwrap());
        // Microsecond conversion survives: 2500 ns span → 2.4985 us dur.
        let events = back.get("traceEvents").unwrap().as_arr().unwrap();
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str().ok()) == Some("X"))
            .unwrap();
        let dur = x.get("dur").and_then(|v| v.as_f64().ok()).unwrap();
        assert!((dur - (2500.0 - 1.5) / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(rank_tracks(&Value::obj(vec![])).is_err());
        let bad = Value::obj(vec![(
            "traceEvents",
            Value::Arr(vec![Value::obj(vec![("ph", Value::Str("X".into()))])]),
        )]);
        assert!(rank_tracks(&bad).is_err());
    }
}
