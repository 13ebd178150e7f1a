//! Critical-path extraction: walk the send/recv dependency graph backwards
//! from the last-finishing event to find the chain of operations that
//! determined the collective's makespan.
//!
//! Dependencies considered at each event:
//! * **program order** — the previous event on the same rank, at its `end`;
//! * **wait coverage** — a wait depends on each covered send/recv at its
//!   `done`;
//! * **message matching** — a receive depends on its matching send at the
//!   send's `done`. Matching is FIFO per `(src, dst, tag)`, the same
//!   non-overtaking rule both backends implement.
//!
//! The walk greedily follows the latest-completing predecessor, so the
//! returned chain is the (a) longest chain of blocking dependencies — ties
//! broken arbitrarily but deterministically.

use crate::timeline::{EventKind, RankTimeline};
use std::collections::{HashMap, HashSet, VecDeque};

/// One hop on the critical path (listed in execution order).
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    /// Rank the event ran on.
    pub rank: usize,
    /// Index into that rank's `events`.
    pub index: usize,
    /// Event kind.
    pub kind: EventKind,
    /// Phase label active at the event, if any.
    pub label: Option<&'static str>,
    /// Phase round index, if any.
    pub round: Option<u32>,
    /// Peer rank for sends/receives.
    pub peer: Option<usize>,
    /// Event begin, ns.
    pub begin_ns: f64,
    /// Event completion, ns.
    pub done_ns: f64,
}

/// The extracted critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Completion time of the last event — the makespan, ns.
    pub total_ns: f64,
    /// Steps in execution order (first step starts the chain).
    pub steps: Vec<CriticalStep>,
}

/// Extract the critical path from a set of rank timelines.
pub fn critical_path(timelines: &[RankTimeline]) -> CriticalPath {
    // FIFO send queues per (src, dst, tag): iterating ranks in order and
    // events in program order enqueues sends in posting order; receives on
    // the destination rank then pop in their own posting order, which is
    // exactly the backends' non-overtaking match rule.
    let mut send_q: HashMap<(usize, usize, u32), VecDeque<(usize, usize)>> = HashMap::new();
    for tl in timelines {
        for (i, e) in tl.events.iter().enumerate() {
            if e.kind == EventKind::Send {
                if let (Some(peer), Some(tag)) = (e.peer, e.tag) {
                    send_q
                        .entry((tl.rank, peer, tag))
                        .or_default()
                        .push_back((tl.rank, i));
                }
            }
        }
    }
    let mut match_of: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    for tl in timelines {
        for (i, e) in tl.events.iter().enumerate() {
            if e.kind == EventKind::Recv {
                if let (Some(peer), Some(tag)) = (e.peer, e.tag) {
                    if let Some(q) = send_q.get_mut(&(peer, tl.rank, tag)) {
                        if let Some(s) = q.pop_front() {
                            match_of.insert((tl.rank, i), s);
                        }
                    }
                }
            }
        }
    }

    // Start at the globally last-completing event.
    let mut cur: Option<(usize, usize)> = None;
    let mut total = 0.0f64;
    for tl in timelines {
        for (i, e) in tl.events.iter().enumerate() {
            if cur.is_none() || e.done_ns > total {
                total = e.done_ns;
                cur = Some((tl.rank, i));
            }
        }
    }

    let mut steps = Vec::new();
    let mut visited: HashSet<(usize, usize)> = HashSet::new();
    while let Some((r, i)) = cur {
        if !visited.insert((r, i)) || steps.len() > 100_000 {
            break; // safety against malformed (cyclic) inputs
        }
        let e = &timelines[r].events[i];
        steps.push(CriticalStep {
            rank: r,
            index: i,
            kind: e.kind,
            label: e.label,
            round: e.round,
            peer: e.peer,
            begin_ns: e.begin_ns,
            done_ns: e.done_ns,
        });
        // Candidate predecessors with the times they gate this event at.
        let mut cands: Vec<((usize, usize), f64)> = Vec::new();
        if i > 0 {
            cands.push(((r, i - 1), timelines[r].events[i - 1].end_ns));
        }
        if e.kind == EventKind::Wait {
            for &c in &e.covers {
                let c = c as usize;
                cands.push(((r, c), timelines[r].events[c].done_ns));
            }
        }
        if e.kind == EventKind::Recv {
            if let Some(&s) = match_of.get(&(r, i)) {
                cands.push((s, timelines[s.0].events[s.1].done_ns));
            }
        }
        cur = cands
            .into_iter()
            .filter(|(key, _)| !visited.contains(key))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(key, _)| key);
    }
    steps.reverse();
    CriticalPath {
        total_ns: total,
        steps,
    }
}

/// Render a critical path as a plain-text report.
pub fn render(cp: &CriticalPath) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "critical path: {:.3} us across {} step(s)\n",
        cp.total_ns / 1000.0,
        cp.steps.len()
    ));
    out.push_str("  rank  op      phase               peer   begin(us)    done(us)\n");
    const SHOWN: usize = 40;
    let elide = cp.steps.len() > SHOWN;
    let head = if elide { SHOWN / 2 } else { cp.steps.len() };
    for (i, s) in cp.steps.iter().enumerate() {
        if elide && i == head {
            out.push_str(&format!(
                "  ... {} step(s) elided ...\n",
                cp.steps.len() - SHOWN
            ));
        }
        if elide && i >= head && i < cp.steps.len() - SHOWN / 2 {
            continue;
        }
        let phase = match (s.label, s.round) {
            (Some(l), Some(rd)) => format!("{l}[{rd}]"),
            _ => "-".to_string(),
        };
        let peer = s.peer.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {:>4}  {:<7} {:<19} {:>4} {:>11.3} {:>11.3}\n",
            s.rank,
            s.kind.name(),
            phase,
            peer,
            s.begin_ns / 1000.0,
            s.done_ns / 1000.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimedEvent;

    fn event(
        kind: EventKind,
        peer: Option<usize>,
        tag: Option<u32>,
        begin: f64,
        end: f64,
        done: f64,
    ) -> TimedEvent {
        TimedEvent {
            kind,
            peer,
            tag,
            bytes: 1,
            begin_ns: begin,
            end_ns: end,
            done_ns: done,
            label: None,
            round: None,
            covers: Vec::new(),
            digest: None,
        }
    }

    #[test]
    fn crosses_ranks_through_message_match() {
        // rank 0: send(→1) done at 50.
        // rank 1: recv(←0) arriving at 50, wait until 50, ends at 60.
        let t0 = RankTimeline {
            rank: 0,
            size: 2,
            events: vec![event(EventKind::Send, Some(1), Some(0), 0.0, 5.0, 50.0)],
        };
        let mut wait = event(EventKind::Wait, None, None, 10.0, 60.0, 60.0);
        wait.covers = vec![0];
        let t1 = RankTimeline {
            rank: 1,
            size: 2,
            events: vec![
                event(EventKind::Recv, Some(0), Some(0), 0.0, 10.0, 50.0),
                wait,
            ],
        };
        let cp = critical_path(&[t0, t1]);
        assert_eq!(cp.total_ns, 60.0);
        // Chain: send(r0) → recv(r1) → wait(r1).
        let ranks: Vec<usize> = cp.steps.iter().map(|s| s.rank).collect();
        let kinds: Vec<EventKind> = cp.steps.iter().map(|s| s.kind).collect();
        assert_eq!(ranks, vec![0, 1, 1]);
        assert_eq!(
            kinds,
            vec![EventKind::Send, EventKind::Recv, EventKind::Wait]
        );
        let text = render(&cp);
        assert!(text.contains("critical path"));
        assert!(text.contains("60.000") || text.contains("0.060"));
    }

    #[test]
    fn single_rank_follows_program_order() {
        let t = RankTimeline {
            rank: 0,
            size: 1,
            events: vec![
                event(EventKind::Compute, None, None, 0.0, 10.0, 10.0),
                event(EventKind::Compute, None, None, 10.0, 30.0, 30.0),
            ],
        };
        let cp = critical_path(&[t]);
        assert_eq!(cp.total_ns, 30.0);
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.steps[0].index, 0);
        assert_eq!(cp.steps[1].index, 1);
    }

    #[test]
    fn empty_timelines() {
        let cp = critical_path(&[]);
        assert_eq!(cp.total_ns, 0.0);
        assert!(cp.steps.is_empty());
    }
}
