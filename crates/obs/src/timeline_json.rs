//! JSON round-trip for [`RankTimeline`]s.
//!
//! The TCP backend's worker processes record their timelines in separate
//! address spaces; the launcher collects them as JSON files and merges them
//! into the usual in-memory structure for Chrome-trace export and
//! critical-path analysis. The encoding is also a stable interchange format
//! for archiving profile runs.

use crate::timeline::{EventKind, RankTimeline, TimedEvent};
use exacoll_json::Value;

fn kind_from_name(name: &str) -> Result<EventKind, String> {
    match name {
        "send" => Ok(EventKind::Send),
        "recv" => Ok(EventKind::Recv),
        "wait" => Ok(EventKind::Wait),
        "compute" => Ok(EventKind::Compute),
        "mark" => Ok(EventKind::Mark),
        other => Err(format!("unknown event kind `{other}`")),
    }
}

fn opt_usize(v: Option<usize>) -> Value {
    match v {
        Some(n) => Value::Num(n as f64),
        None => Value::Null,
    }
}

fn event_to_json(e: &TimedEvent) -> Value {
    Value::obj(vec![
        ("kind", Value::Str(e.kind.name().to_string())),
        ("peer", opt_usize(e.peer)),
        ("tag", opt_usize(e.tag.map(|t| t as usize))),
        ("bytes", Value::Num(e.bytes as f64)),
        ("begin_ns", Value::Num(e.begin_ns)),
        ("end_ns", Value::Num(e.end_ns)),
        ("done_ns", Value::Num(e.done_ns)),
        (
            "label",
            match e.label {
                Some(l) => Value::Str(l.to_string()),
                None => Value::Null,
            },
        ),
        ("round", opt_usize(e.round.map(|r| r as usize))),
        (
            "covers",
            Value::Arr(e.covers.iter().map(|&c| Value::Num(c as f64)).collect()),
        ),
    ])
}

fn opt_field(v: &Value, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) if f.is_null() => Ok(None),
        Some(f) => f.as_usize().map(Some),
    }
}

fn event_from_json(v: &Value) -> Result<TimedEvent, String> {
    let kind = kind_from_name(v.req("kind")?.as_str()?)?;
    let label = match v.get("label") {
        None => None,
        Some(l) if l.is_null() => None,
        // Timelines hold `&'static str` labels so the hot recording path
        // stays allocation-free; deserialized labels are interned via a
        // bounded leak (one allocation per distinct label string per run).
        Some(l) => Some(intern(l.as_str()?)),
    };
    let covers = match v.get("covers") {
        None => Vec::new(),
        Some(c) => c
            .as_arr()?
            .iter()
            .map(|x| x.as_usize().map(|n| n as u32))
            .collect::<Result<_, _>>()?,
    };
    Ok(TimedEvent {
        kind,
        peer: opt_field(v, "peer")?,
        tag: opt_field(v, "tag")?.map(|t| t as u32),
        bytes: v.req("bytes")?.as_f64()? as u64,
        begin_ns: v.req("begin_ns")?.as_f64()?,
        end_ns: v.req("end_ns")?.as_f64()?,
        done_ns: v.req("done_ns")?.as_f64()?,
        label,
        round: opt_field(v, "round")?.map(|r| r as u32),
        covers,
    })
}

/// Intern a label string with a process lifetime. Labels come from a tiny
/// fixed vocabulary (the phase names algorithms pass to `Comm::mark`), so
/// the leak is bounded by that vocabulary's size.
fn intern(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
    match pool.get(s) {
        Some(&interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
            pool.insert(leaked);
            leaked
        }
    }
}

/// Encode one rank's timeline.
pub fn timeline_to_json(tl: &RankTimeline) -> Value {
    Value::obj(vec![
        ("rank", Value::Num(tl.rank as f64)),
        ("size", Value::Num(tl.size as f64)),
        (
            "events",
            Value::Arr(tl.events.iter().map(event_to_json).collect()),
        ),
    ])
}

/// Decode one rank's timeline. An event may only cover events recorded
/// before it, so a decoded timeline is safe to walk by its `covers`.
pub fn timeline_from_json(v: &Value) -> Result<RankTimeline, String> {
    let events: Vec<TimedEvent> = v
        .req("events")?
        .as_arr()?
        .iter()
        .map(event_from_json)
        .collect::<Result<_, _>>()?;
    for (i, e) in events.iter().enumerate() {
        if let Some(c) = e.covers.iter().find(|&&c| c as usize >= i) {
            return Err(format!(
                "event {i} covers event {c}, which is not before it"
            ));
        }
    }
    Ok(RankTimeline {
        rank: v.req("rank")?.as_usize()?,
        size: v.req("size")?.as_usize()?,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_json::parse;

    fn sample() -> RankTimeline {
        RankTimeline {
            rank: 2,
            size: 4,
            events: vec![
                TimedEvent {
                    kind: EventKind::Send,
                    peer: Some(3),
                    tag: Some(7),
                    bytes: 1024,
                    begin_ns: 10.0,
                    end_ns: 15.0,
                    done_ns: 40.0,
                    label: Some("ar-recmult"),
                    round: Some(1),
                    covers: vec![],
                },
                TimedEvent {
                    kind: EventKind::Wait,
                    peer: None,
                    tag: None,
                    bytes: 0,
                    begin_ns: 15.0,
                    end_ns: 42.0,
                    done_ns: 42.0,
                    label: Some("ar-recmult"),
                    round: Some(1),
                    covers: vec![0],
                },
                TimedEvent {
                    kind: EventKind::Mark,
                    peer: None,
                    tag: None,
                    bytes: 0,
                    begin_ns: 42.0,
                    end_ns: 42.0,
                    done_ns: 42.0,
                    label: None,
                    round: None,
                    covers: vec![],
                },
            ],
        }
    }

    #[test]
    fn timeline_round_trips_through_text() {
        let tl = sample();
        let text = timeline_to_json(&tl).pretty();
        let back = timeline_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, tl);
    }

    #[test]
    fn interned_labels_dedupe() {
        let a = intern("phase-x");
        let b = intern("phase-x");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let v = parse(r#"{"rank":0,"size":1,"events":[{"kind":"zap","bytes":0,"begin_ns":0,"end_ns":0,"done_ns":0}]}"#).unwrap();
        assert!(timeline_from_json(&v).unwrap_err().contains("zap"));
    }

    #[test]
    fn a_cover_not_before_its_wait_is_an_error() {
        for covers in ["[1]", "[0, 2]"] {
            let text = format!(
                r#"{{"rank":0,"size":1,"events":[
                    {{"kind":"send","bytes":0,"begin_ns":0,"end_ns":0,"done_ns":0}},
                    {{"kind":"wait","bytes":0,"begin_ns":0,"end_ns":0,"done_ns":0,"covers":{covers}}}]}}"#
            );
            let err = timeline_from_json(&parse(&text).unwrap()).unwrap_err();
            assert!(err.contains("event 1 covers"), "{covers}: {err}");
        }
    }
}
