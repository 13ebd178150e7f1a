//! The on-disk replay artifact: format `exacoll-replay/v2`, and the one
//! codec of a rank's recorded event list.
//!
//! An artifact is **self-contained**: it carries the collective/algorithm
//! spec, the communicator size, every rank's raw input bytes (hex), and
//! every rank's recorded event list. Replay therefore needs no payload
//! generators, no fault plans, and no access to the code that produced the
//! run — the recorded inputs plus the schedule IR determine everything.
//! A [`RankLog`] alone is also what a TCP worker writes for its launcher,
//! which builds both the artifact and the Chrome trace from it.
//!
//! Encoding choices that keep the format robust:
//!
//! * 64-bit digests are serialized as 16-hex-char **strings**, because the
//!   JSON number model (`f64`) cannot hold a `u64` above 2^53 exactly.
//! * every event carries an explicit `seq` number and every rank log an
//!   explicit `declared_events` count, so a gapped or truncated artifact is
//!   detected structurally ([`ReplayError::SeqGap`] /
//!   [`ReplayError::Truncated`]) instead of replaying into a false clean
//!   verdict.
//! * a wait may cover only events before it, so a decoded list is safe to
//!   walk by its `covers`.
//! * a non-mark event's phase is the latest mark's, so only marks carry a
//!   label; labels are interned once here, not allocated per event.
//!
//! `v2` added each event's times, `wait` events and each rank log's `size`.
//! A `v1` artifact reads as a `v2` one with no times and no waits.

use crate::ReplayError;
use exacoll_comm::{EventKind, TimedEvent};
use exacoll_core::registry::CollArgs;
use exacoll_core::spec::{
    alg_to_spec, opt_to_spec, parse_alg, parse_dtype, parse_op, parse_opt_spec, parse_rop,
    CountsSpec, OptSpec, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES,
};
use exacoll_core::Request;
use exacoll_json::Value;

/// The format tag every artifact must declare.
pub const FORMAT: &str = "exacoll-replay/v2";

/// The format before events carried times, which [`Artifact::from_json`]
/// still reads.
const FORMAT_V1: &str = "exacoll-replay/v1";

/// How a rank's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankStatus {
    /// The rank ran its collective to completion.
    Ok,
    /// The rank aborted with this error (killed peer, lost message, ...).
    /// Its event log is legitimately shorter than the schedule — the
    /// replayer reports *where* it stopped, relative to the expected
    /// sequence.
    Error(String),
}

/// One rank's contribution to an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RankLog {
    /// The rank this log belongs to.
    pub rank: usize,
    /// The communicator size the rank ran in.
    pub size: usize,
    /// How the rank's run ended.
    pub status: RankStatus,
    /// The rank's raw input bytes, exactly as passed to the collective.
    pub input: Vec<u8>,
    /// FNV-1a digest of the rank's output bytes, if the run produced any.
    pub output_digest: Option<u64>,
    /// The recorded event list, in program order; replay compares its
    /// [`canonical`](exacoll_comm::canonical) view.
    pub events: Vec<TimedEvent>,
}

/// A complete recorded run: header plus one [`RankLog`] per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Free-form label of the run (chaos case name, CLI invocation, ...).
    pub case: Option<String>,
    /// Which runtime produced the recording (`thread`, `tcp`).
    pub backend: String,
    /// Seed of the fault plan active during the run, if any.
    pub fault_seed: Option<u64>,
    /// What ran: the collective invocation, its shape, tenants and the
    /// optimizer passes applied before the recorded run. Replay plans the
    /// same request, so the artifact stays self-contained.
    pub request: Request,
    /// Per-rank logs, indexed by rank; a rank's `input` is what it fed the
    /// plan it executed (its tenants' inputs in tenant order).
    pub ranks: Vec<RankLog>,
}

fn hex_bytes(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn unhex_bytes(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd-length hex string ({} chars)", s.len()));
    }
    (0..s.len() / 2)
        .map(|i| {
            u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|_| format!("bad hex byte at offset {}", 2 * i))
        })
        .collect()
}

/// Render a digest the way the whole subsystem does: 16 lowercase hex chars.
pub fn hex_digest(d: u64) -> String {
    format!("{d:016x}")
}

fn unhex_digest(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|_| format!("bad digest `{s}`"))
}

fn num(n: impl TryInto<u64>) -> Value {
    Value::Num(n.try_into().unwrap_or(u64::MAX) as f64)
}

fn event_to_json(seq: usize, e: &TimedEvent) -> Value {
    let mut pairs = vec![
        ("seq", num(seq)),
        ("kind", Value::Str(e.kind.name().into())),
    ];
    match e.kind {
        EventKind::Send | EventKind::Recv => {
            let peer = if e.kind == EventKind::Send {
                "to"
            } else {
                "from"
            };
            pairs.push((peer, num(e.peer.unwrap_or_default())));
            pairs.push(("tag", num(e.tag.unwrap_or_default())));
            pairs.push(("bytes", num(e.bytes)));
            let digest = e.digest.map_or(Value::Null, |d| Value::Str(hex_digest(d)));
            pairs.push(("digest", digest));
        }
        EventKind::Compute => pairs.push(("bytes", num(e.bytes))),
        EventKind::Mark => {
            pairs.push(("label", Value::Str(e.label.unwrap_or_default().into())));
            pairs.push(("round", num(e.round.unwrap_or_default())));
        }
        EventKind::Wait => {
            pairs.push((
                "covers",
                Value::Arr(e.covers.iter().map(|&c| num(c)).collect()),
            ));
        }
    }
    pairs.push(("begin_ns", Value::Num(e.begin_ns)));
    pairs.push(("end_ns", Value::Num(e.end_ns)));
    pairs.push(("done_ns", Value::Num(e.done_ns)));
    Value::obj(pairs)
}

/// Decode event `i` of a list, in the phase the marks before it set.
fn event_from_json(
    v: &Value,
    i: usize,
    phase: &mut Option<(&'static str, u32)>,
) -> Result<TimedEvent, String> {
    let kind = match v.req("kind")?.as_str()? {
        "send" => EventKind::Send,
        "recv" => EventKind::Recv,
        "wait" => EventKind::Wait,
        "compute" => EventKind::Compute,
        "mark" => EventKind::Mark,
        other => return Err(format!("unknown event kind `{other}`")),
    };
    let field = |key: &str| v.req(key).and_then(Value::as_usize);
    // Times are absent from v1 artifacts.
    let time = |key: &str| v.get(key).map_or(Ok(0.0), Value::as_f64);
    let mut event = TimedEvent {
        begin_ns: time("begin_ns")?,
        end_ns: time("end_ns")?,
        done_ns: time("done_ns")?,
        ..TimedEvent::of(kind)
    };
    let peer = if kind == EventKind::Send {
        "to"
    } else {
        "from"
    };
    match kind {
        EventKind::Send | EventKind::Recv => {
            event.peer = Some(field(peer)?);
            event.tag = Some(field("tag")? as u32);
            event.bytes = field("bytes")? as u64;
            event.digest = match v.req("digest")? {
                Value::Null => None,
                d => Some(unhex_digest(d.as_str()?)?),
            };
        }
        EventKind::Compute => event.bytes = field("bytes")? as u64,
        EventKind::Mark => {
            *phase = Some((intern(v.req("label")?.as_str()?), field("round")? as u32))
        }
        EventKind::Wait => {
            for c in v.req("covers")?.as_arr()? {
                let c = c.as_usize()?;
                if c >= i {
                    return Err(format!(
                        "event {i} covers event {c}, which is not before it"
                    ));
                }
                event.covers.push(c as u32);
            }
        }
    }
    (event.label, event.round) = (phase.map(|(l, _)| l), phase.map(|(_, r)| r));
    Ok(event)
}

/// A decoded label with a process lifetime. Labels come from a tiny fixed
/// vocabulary (the phase names algorithms pass to `Comm::mark`), so the
/// leak is bounded by that vocabulary's size.
fn intern(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    match pool.get(s) {
        Some(&interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(s.into());
            pool.insert(leaked);
            leaked
        }
    }
}

impl RankLog {
    /// Serialize this rank's log as a JSON value — the fragment a TCP
    /// worker writes to disk for the launcher to merge into an [`Artifact`].
    pub fn to_json(&self) -> Value {
        let events: Vec<Value> = self
            .events
            .iter()
            .enumerate()
            .map(|(seq, ev)| event_to_json(seq, ev))
            .collect();
        Value::obj(vec![
            ("rank", Value::Num(self.rank as f64)),
            ("size", Value::Num(self.size as f64)),
            (
                "status",
                Value::Str(match &self.status {
                    RankStatus::Ok => "ok".into(),
                    RankStatus::Error(_) => "error".into(),
                }),
            ),
            (
                "error",
                match &self.status {
                    RankStatus::Ok => Value::Null,
                    RankStatus::Error(e) => Value::Str(e.clone()),
                },
            ),
            ("input", Value::Str(hex_bytes(&self.input))),
            (
                "output_digest",
                match self.output_digest {
                    Some(d) => Value::Str(hex_digest(d)),
                    None => Value::Null,
                },
            ),
            ("declared_events", Value::Num(self.events.len() as f64)),
            ("events", Value::Arr(events)),
        ])
    }

    /// Parse one rank log, verifying it belongs to rank `expect_rank` of
    /// `expect_size` (a v1 log does not say its size) and that its event
    /// sequence is gap-free and complete.
    pub fn from_json(
        rv: &Value,
        expect_rank: usize,
        expect_size: usize,
    ) -> Result<RankLog, ReplayError> {
        let field = |key: &str| rv.req(key).and_then(Value::as_usize);
        let rank = field("rank")?;
        let size = match rv.get("size") {
            None => expect_size,
            Some(_) => field("size")?,
        };
        if (rank, size) != (expect_rank, expect_size) {
            return Err(ReplayError::Header(format!(
                "rank log {expect_rank} of {expect_size} is labeled rank {rank} of {size} \
                 (logs must be 0..p in order)"
            )));
        }
        let status = match rv.req("status").and_then(Value::as_str)? {
            "ok" => RankStatus::Ok,
            "error" => RankStatus::Error(rv.req("error").and_then(Value::as_str)?.to_string()),
            other => return Err(ReplayError::Parse(format!("unknown rank status `{other}`"))),
        };
        let input = rv
            .req("input")
            .and_then(Value::as_str)
            .and_then(unhex_bytes)?;
        let output_digest = match rv.req("output_digest")? {
            Value::Null => None,
            other => Some(other.as_str().and_then(unhex_digest)?),
        };
        let declared = field("declared_events")?;
        let event_vals = rv.req("events").and_then(Value::as_arr)?;
        let mut events = Vec::with_capacity(event_vals.len());
        let mut phase = None;
        for (expected_seq, ev) in event_vals.iter().enumerate() {
            let seq = ev.req("seq").and_then(Value::as_usize)?;
            if seq != expected_seq {
                return Err(ReplayError::SeqGap {
                    rank,
                    expected: expected_seq,
                    found: seq,
                });
            }
            events.push(event_from_json(ev, seq, &mut phase)?);
        }
        if declared != events.len() {
            return Err(ReplayError::Truncated {
                rank,
                declared,
                found: events.len(),
            });
        }
        Ok(RankLog {
            rank,
            size,
            status,
            input,
            output_digest,
            events,
        })
    }
}

impl Artifact {
    /// Serialize to the pretty-printed `exacoll-replay/v2` JSON document.
    /// The optimizer fields are emitted only for optimized runs, `counts`
    /// only for irregular ones (`n` is then the vector's total) and
    /// `tenants` only above one, so plain uniform runs need none of them.
    pub fn to_json(&self) -> String {
        let ranks: Vec<Value> = self.ranks.iter().map(RankLog::to_json).collect();
        let (req, args) = (&self.request, self.request.args());
        let mut pairs = vec![
            ("format", Value::Str(FORMAT.into())),
            (
                "case",
                match &self.case {
                    Some(c) => Value::Str(c.clone()),
                    None => Value::Null,
                },
            ),
            ("backend", Value::Str(self.backend.clone())),
            (
                "fault_seed",
                match self.fault_seed {
                    Some(s) => Value::Str(hex_digest(s)),
                    None => Value::Null,
                },
            ),
            ("op", Value::Str(args.op.to_string())),
            ("alg", Value::Str(alg_to_spec(&args.alg))),
            ("root", Value::Num(args.root as f64)),
            ("dtype", Value::Str(args.dtype.to_string())),
            ("rop", Value::Str(args.rop.to_string())),
        ];
        if !req.opt().is_none() {
            pairs.push(("opt", Value::Str(opt_to_spec(req.opt()))));
            pairs.push(("opt_chunk", Value::Num(req.chunk() as f64)));
            pairs.push(("opt_fuse", Value::Num(req.fuse() as f64)));
        }
        pairs.push(("p", Value::Num(req.ranks() as f64)));
        pairs.push(("n", Value::Num(req.bytes() as f64)));
        if let Some(counts) = req.counts() {
            pairs.push(("counts", Value::Str(counts.spec())));
        }
        if req.tenants() > 1 {
            pairs.push(("tenants", Value::Num(req.tenants() as f64)));
        }
        pairs.push(("ranks", Value::Arr(ranks)));
        Value::obj(pairs).pretty()
    }

    /// Parse and structurally validate an artifact.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Parse`] for syntax or field-shape problems,
    /// [`ReplayError::Format`] for a wrong format tag,
    /// [`ReplayError::Header`] for inconsistent headers (missing or
    /// out-of-order rank logs, anything [`Request`]'s constructors refuse),
    /// [`ReplayError::SeqGap`] /
    /// [`ReplayError::Truncated`] for logs that lost events.
    pub fn from_json(text: &str) -> Result<Artifact, ReplayError> {
        let doc = exacoll_json::parse(text)?;
        let format = doc
            .req("format")
            .and_then(|v| v.as_str().map(str::to_string))?;
        if format != FORMAT && format != FORMAT_V1 {
            return Err(ReplayError::Format { found: format });
        }
        let case = match doc.req("case")? {
            Value::Null => None,
            other => Some(other.as_str()?.to_string()),
        };
        let backend = doc.req("backend").and_then(Value::as_str)?.to_string();
        let fault_seed = match doc.req("fault_seed")? {
            Value::Null => None,
            other => Some(other.as_str().and_then(unhex_digest)?),
        };
        let op = parse_op(doc.req("op").and_then(Value::as_str)?).map_err(ReplayError::Header)?;
        let alg =
            parse_alg(doc.req("alg").and_then(Value::as_str)?).map_err(ReplayError::Header)?;
        let root = doc.req("root").and_then(Value::as_usize)?;
        let dtype =
            parse_dtype(doc.req("dtype").and_then(Value::as_str)?).map_err(ReplayError::Header)?;
        let rop =
            parse_rop(doc.req("rop").and_then(Value::as_str)?).map_err(ReplayError::Header)?;
        // Optimizer fields are optional: artifacts recorded before the
        // optimizer existed (or from unoptimized runs) omit them.
        let opt = match doc.get("opt") {
            None => OptSpec::NONE,
            Some(v) => parse_opt_spec(v.as_str()?).map_err(ReplayError::Header)?,
        };
        let opt_usize = |key: &str, default: usize| -> Result<usize, ReplayError> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => Ok(v.as_usize()?),
            }
        };
        let opt_chunk = opt_usize("opt_chunk", OPT_PIPELINE_CHUNK_BYTES)?;
        let opt_fuse = opt_usize("opt_fuse", OPT_AGGREGATE_MAX_FUSE_BYTES)?;
        let p = doc.req("p").and_then(Value::as_usize)?;
        let n = doc.req("n").and_then(Value::as_usize)?;
        // `counts` and `tenants` are optional too: absent means uniform and
        // one, which is every artifact written before they existed.
        let args = CollArgs {
            op,
            alg,
            root,
            dtype,
            rop,
        };
        let tenants = opt_usize("tenants", 1)?;
        // The same fallible constructors the command line goes through: a
        // header they refuse never reaches `lower`.
        let request = match doc.get("counts") {
            None => Request::uniform(args, p, n),
            Some(v) => {
                let counts = CountsSpec::parse(v.as_str()?)
                    .map_err(ReplayError::Header)?;
                if (counts.ranks(), counts.total()) != (p, n) {
                    return Err(ReplayError::Header(format!(
                        "counts [{counts}] name {} rank(s) and {} B but the header says p={p}, n={n}",
                        counts.ranks(),
                        counts.total()
                    )));
                }
                Request::irregular(args, counts)
            }
        }
        .and_then(|r| r.with_tenants(tenants))
        .and_then(|r| r.with_opt(opt, opt_chunk, opt_fuse))
        .map_err(ReplayError::Header)?;

        let rank_vals = doc.req("ranks").and_then(Value::as_arr)?;
        if rank_vals.len() != p {
            return Err(ReplayError::Header(format!(
                "artifact declares p={p} but holds {} rank logs",
                rank_vals.len()
            )));
        }
        let mut ranks = Vec::with_capacity(p);
        for (i, rv) in rank_vals.iter().enumerate() {
            let log = RankLog::from_json(rv, i, p)?;
            let undigested = log
                .events
                .iter()
                .position(|e| e.kind == EventKind::Send && e.digest.is_none());
            if let Some(seq) = undigested {
                return Err(ReplayError::Parse(format!(
                    "rank {i} event {seq}: a send without a digest cannot be replayed"
                )));
            }
            ranks.push(log);
        }

        Ok(Artifact {
            case,
            backend,
            fault_seed,
            request,
            ranks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::registry::{Algorithm, CollectiveOp};

    /// A `kind` event to or from rank `peer`, timed, in round 0 of `bc`.
    fn event(kind: EventKind, peer: usize, digest: Option<u64>) -> TimedEvent {
        let transfer = matches!(kind, EventKind::Send | EventKind::Recv);
        TimedEvent {
            kind,
            peer: transfer.then_some(peer),
            tag: transfer.then_some(1),
            bytes: if transfer { 2 } else { 0 },
            begin_ns: 10.0,
            end_ns: 15.5,
            done_ns: 40.0,
            label: Some("bc"),
            round: Some(0),
            covers: if kind == EventKind::Wait {
                vec![1]
            } else {
                Vec::new()
            },
            digest,
        }
    }

    fn tiny() -> Artifact {
        Artifact {
            case: Some("unit".into()),
            backend: "thread".into(),
            fault_seed: Some(0xdead_beef_dead_beef),
            request: Request::uniform(
                CollArgs::new(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }),
                2,
                2,
            )
            .unwrap(),
            ranks: vec![
                RankLog {
                    rank: 0,
                    size: 2,
                    status: RankStatus::Ok,
                    input: vec![0xab, 0xcd],
                    output_digest: Some(7),
                    events: vec![TimedEvent {
                        label: None,
                        round: None,
                        ..event(EventKind::Send, 1, Some(u64::MAX))
                    }],
                },
                RankLog {
                    rank: 1,
                    size: 2,
                    status: RankStatus::Error("peer died".into()),
                    input: vec![0, 0],
                    output_digest: None,
                    events: [EventKind::Mark, EventKind::Recv, EventKind::Wait]
                        .map(|kind| event(kind, 0, None))
                        .to_vec(),
                },
            ],
        }
    }

    #[test]
    fn round_trips_including_u64_extremes() {
        let a = tiny();
        let b = Artifact::from_json(&a.to_json()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn optimizer_fields_round_trip_and_default_when_absent() {
        // Unoptimized artifacts never mention the optimizer at all.
        let plain = tiny();
        assert!(!plain.to_json().contains("\"opt\""));
        let mut opted = tiny();
        opted.request = opted
            .request
            .with_opt(OptSpec::PIPELINE, 256, OPT_AGGREGATE_MAX_FUSE_BYTES)
            .unwrap();
        let text = opted.to_json();
        assert!(text.contains("\"opt\": \"pipeline\""));
        assert_eq!(Artifact::from_json(&text).unwrap(), opted);
        // Absent fields parse to the no-pass defaults.
        let back = Artifact::from_json(&plain.to_json()).unwrap().request;
        assert_eq!(back.opt(), &OptSpec::NONE);
        assert_eq!(back.chunk(), OPT_PIPELINE_CHUNK_BYTES);
        assert_eq!(back.fuse(), OPT_AGGREGATE_MAX_FUSE_BYTES);
    }

    /// An allgatherv over `[4, 0]` run by two tenants, in `tiny`'s logs.
    fn tiny_v() -> Artifact {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let request = Request::irregular(args, CountsSpec::new(vec![4, 0]).unwrap())
            .and_then(|r| r.with_tenants(2))
            .unwrap();
        Artifact { request, ..tiny() }
    }

    #[test]
    fn counts_and_tenants_round_trip_and_default_when_absent() {
        let plain = tiny().to_json();
        assert!(!plain.contains("\"counts\"") && !plain.contains("\"tenants\""));
        let back = Artifact::from_json(&plain).unwrap().request;
        assert_eq!((back.counts(), back.tenants()), (None, 1));
        let v = tiny_v();
        let text = v.to_json();
        assert!(text.contains("\"counts\": \"4,0\"") && text.contains("\"tenants\": 2"));
        assert_eq!(Artifact::from_json(&text).unwrap(), v);
    }

    #[test]
    fn hostile_headers_are_typed_errors() {
        let header = |text: String| match Artifact::from_json(&text) {
            Err(ReplayError::Header(why)) => why,
            other => panic!("expected a Header error, got {other:?}"),
        };
        let v = tiny_v().to_json();
        // Counts that disagree with p, or with n.
        header(v.replace("\"4,0\"", "\"4,0,0\""));
        header(v.replace("\"n\": 4", "\"n\": 5"));
        // Tenants of zero, or more than there are tag windows.
        header(v.replace("\"tenants\": 2", "\"tenants\": 0"));
        header(v.replace("\"tenants\": 2", "\"tenants\": 65537"));
        // An algorithm that cannot run these counts, or this collective.
        assert!(header(v.replace("\"ring\"", "\"bruck\"")).contains("uniform"));
        header(tiny().to_json().replace("\"knomial:2\"", "\"bruck\""));
        // A count that splits an element of a reduce_scatter.
        let rs = v
            .replace("\"allgather\"", "\"reduce_scatter\"")
            .replace("\"u8\"", "\"i32\"");
        assert!(header(rs.replace("\"4,0\"", "\"2,2\"")).contains("whole number"));
        Artifact::from_json(&rs).expect("whole elements load");
        // A total that overflows, and one that reaches 4 GiB.
        let max = usize::MAX.to_string();
        header(v.replace("\"4,0\"", &format!("\"{max},{max}\"")));
        let four_gib = v
            .replace("\"4,0\"", "\"4096M,0\"")
            .replace("\"n\": 4", "\"n\": 4294967296");
        assert!(header(four_gib).contains("4 GiB"));
        // Root and p as before.
        header(tiny().to_json().replace("\"root\": 0", "\"root\": 2"));
        header(tiny().to_json().replace("\"p\": 2", "\"p\": 0"));
    }

    #[test]
    fn rejects_wrong_format() {
        let text = tiny()
            .to_json()
            .replace("exacoll-replay/v2", "exacoll-replay/v9");
        assert!(matches!(
            Artifact::from_json(&text),
            Err(ReplayError::Format { .. })
        ));
    }

    #[test]
    fn rejects_seq_gap() {
        // Renumber rank 0's only event from seq 0 to seq 2: a gap.
        let text = tiny().to_json().replacen("\"seq\": 0", "\"seq\": 2", 1);
        assert_eq!(
            Artifact::from_json(&text),
            Err(ReplayError::SeqGap {
                rank: 0,
                expected: 0,
                found: 2
            })
        );
    }

    #[test]
    fn rejects_declared_count_mismatch() {
        let text = tiny()
            .to_json()
            .replacen("\"declared_events\": 1", "\"declared_events\": 3", 1);
        assert_eq!(
            Artifact::from_json(&text),
            Err(ReplayError::Truncated {
                rank: 0,
                declared: 3,
                found: 1
            })
        );
    }

    #[test]
    fn rejects_missing_rank_log() {
        let mut a = tiny();
        a.ranks.pop();
        assert!(matches!(
            Artifact::from_json(&a.to_json()),
            Err(ReplayError::Header(_))
        ));
    }

    /// The [`ReplayError::Parse`] message `text` is refused with.
    fn parse_error(text: &str) -> String {
        match Artifact::from_json(text) {
            Err(ReplayError::Parse(why)) => why,
            other => panic!("expected a Parse error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_events_are_refused() {
        let text = tiny().to_json();
        let bad_hex = text.replacen("\"ffffffffffffffff\"", "\"fffz\"", 1);
        assert!(parse_error(&bad_hex).contains("fffz"));
        // A send the replayer cannot compare.
        let undigested = text.replacen("\"ffffffffffffffff\"", "null", 1);
        assert!(parse_error(&undigested).contains("without a digest"));
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let text = tiny().to_json();
        let zap = text.replacen("\"kind\": \"send\"", "\"kind\": \"zap\"", 1);
        assert!(parse_error(&zap).contains("unknown event kind `zap`"));
    }

    #[test]
    fn a_cover_not_before_its_wait_is_an_error() {
        // `critical_path` indexes events by `covers`.
        let text = tiny().to_json();
        for covers in ["2", "0, 3"] {
            let err = parse_error(&text.replace(
                "\"covers\": [\n            1\n          ]",
                &format!("\"covers\": [{covers}]"),
            ));
            assert!(err.contains("event 2 covers"), "{covers}: {err}");
        }
    }

    #[test]
    fn a_v1_artifact_reads_with_no_times_and_no_waits() {
        let mut v1 = tiny();
        v1.ranks[1].events.pop();
        for event in v1.ranks.iter_mut().flat_map(|log| &mut log.events) {
            (event.begin_ns, event.end_ns, event.done_ns) = (0.0, 0.0, 0.0);
        }
        fn strip(v: &mut Value) {
            match v {
                Value::Obj(pairs) => {
                    pairs.retain(|(k, _)| !k.ends_with("_ns") && k != "size");
                    pairs.iter_mut().for_each(|(_, v)| strip(v));
                }
                Value::Arr(items) => items.iter_mut().for_each(strip),
                _ => {}
            }
        }
        let text = v1
            .to_json()
            .replace("exacoll-replay/v2", "exacoll-replay/v1");
        let mut doc = exacoll_json::parse(&text).unwrap();
        strip(&mut doc);
        let text = doc.pretty();
        assert!(!text.contains("_ns") && !text.contains("size"));
        assert_eq!(Artifact::from_json(&text).unwrap(), v1);
    }

    #[test]
    fn interned_labels_dedupe() {
        assert!(std::ptr::eq(intern("phase-x"), intern("phase-x")));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            Artifact::from_json("{ not json"),
            Err(ReplayError::Parse(_))
        ));
    }
}
