//! Integration tests for the deterministic record/replay engine: recorded
//! runs round-trip through serialization and replay with zero divergence,
//! mutations are pinpointed at the exact (rank, step), integrity-broken
//! artifacts are rejected (never reported as "no divergence"), and divergence
//! reports are byte-identical across replays.

mod support;

use exacoll::chaos::{run_case, FaultClass};
use exacoll::collectives::{Algorithm, CollArgs, CollectiveOp, Request};
use exacoll::comm::{canonical, EventKind};
use exacoll::replay::{record_request, record_thread_run, replay, Artifact, ReplayError};
use proptest::prelude::*;
use support::arb_config;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Record → serialize → parse → replay is lossless: every recorded run
    /// replays with zero divergence, whatever the configuration.
    #[test]
    fn recorded_runs_replay_clean_after_round_trip(
        (op, alg, p) in arb_config(&[4, 6, 8], 4),
        n in 8usize..48,
        seed in 0u64..1000,
    ) {
        let coll = CollArgs::new(op, alg);
        let artifact = record_thread_run(&coll, p, n, seed);
        let parsed = Artifact::from_json(&artifact.to_json())
            .expect("serialized artifact parses back");
        let report = replay(&parsed).expect("artifact replays");
        prop_assert!(
            report.is_clean(),
            "{op}/{alg} p={p} n={n} seed={seed} diverged:\n{}",
            report.render()
        );
        prop_assert!(report.events_checked > 0, "a run records at least one event");
    }

    /// Flipping one recorded digest makes the replayer name the exact
    /// (rank, step) — never a clean verdict, never a different location.
    #[test]
    fn flipped_digest_is_pinpointed(
        (op, alg, p) in arb_config(&[4, 6, 8], 4),
        seed in 0u64..1000,
    ) {
        let coll = CollArgs::new(op, alg);
        let mut artifact = record_thread_run(&coll, p, 24, seed);
        // Find the first completed receive anywhere and corrupt its digest.
        let victim = artifact.ranks.iter().enumerate().find_map(|(r, log)| {
            (canonical(&log.events).iter())
                .position(|ev| ev.kind == EventKind::Recv && ev.digest.is_some())
                .map(|s| (r, s))
        });
        // Every multi-rank collective delivers at least one message, but be
        // defensive: skip the sample if nothing completed.
        let (vr, vs) = match victim {
            Some(v) => v,
            None => continue,
        };
        let mut steps = artifact.ranks[vr].events.iter_mut().filter(|e| e.kind != EventKind::Wait);
        if let Some(d) = &mut steps.nth(vs).expect("the victim step").digest {
            *d ^= 0xff;
        }
        let parsed = Artifact::from_json(&artifact.to_json()).expect("parses");
        let report = replay(&parsed).expect("replays");
        prop_assert!(!report.is_clean(), "corrupted artifact must diverge");
        let h = report.headline().expect("headline");
        prop_assert_eq!(h.rank, vr, "wrong rank blamed: {}", report.render());
        prop_assert_eq!(h.step, vs, "wrong step blamed: {}", report.render());
    }
}

#[test]
fn dropping_an_event_without_resequencing_is_a_seq_gap() {
    let coll = CollArgs::new(
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 2 },
    );
    let artifact = record_thread_run(&coll, 4, 32, 7);
    assert!(
        artifact.ranks[0].events.len() >= 3,
        "need a middle event to drop"
    );
    // Renumber rank 0's second event: the explicit per-event seq makes a
    // missing event a hard integrity error, not a silent shift.
    let text = artifact
        .to_json()
        .replacen("\"seq\": 1", "\"seq\": 9999", 1);
    match Artifact::from_json(&text) {
        Err(ReplayError::SeqGap {
            rank,
            expected,
            found,
        }) => {
            assert_eq!((rank, expected, found), (0, 1, 9999));
        }
        other => panic!("expected SeqGap, got {other:?}"),
    }
}

#[test]
fn truncated_event_list_is_rejected_not_clean() {
    let coll = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
    let artifact = record_thread_run(&coll, 4, 16, 3);
    let declared = artifact.ranks[0].events.len();
    let text = artifact.to_json().replacen(
        &format!("\"declared_events\": {declared}"),
        &format!("\"declared_events\": {}", declared + 2),
        1,
    );
    match Artifact::from_json(&text) {
        Err(ReplayError::Truncated {
            rank,
            declared: d,
            found,
        }) => {
            assert_eq!(rank, 0);
            assert_eq!(d, declared + 2);
            assert_eq!(found, declared);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

/// A hostile artifact whose header promises more input than a rank's log
/// holds (`"n": 512`, `"input": ""`) parses — every field is well-formed —
/// but must come back from `replay` as a typed error, never as a panic in
/// the evaluator or as a clean verdict.
#[test]
fn short_rank_input_is_a_header_error_not_a_panic() {
    let coll = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
    let mut artifact = record_thread_run(&coll, 4, 16, 3);
    artifact.request = Request::uniform(coll, 4, 512).unwrap();
    artifact.ranks[0].input.clear();
    let text = artifact.to_json();
    assert!(text.contains("\"n\": 512") && text.contains("\"input\": \"\""));
    let parsed = Artifact::from_json(&text).expect("well-formed fields still parse");
    match replay(&parsed) {
        Err(ReplayError::Header(why)) => {
            assert!(why.contains("rank 0"), "names the offending rank: {why}")
        }
        other => panic!("expected a Header error, got {other:?}"),
    }
}

/// The valid artifact the hostile-header property mutates: an allgatherv
/// with a zero-count rank, run by two tenants.
fn tenant_v_artifact() -> Artifact {
    use exacoll::collectives::spec::CountsSpec;
    let coll = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
    let req = Request::irregular(coll, CountsSpec::new(vec![16, 0, 8, 8]).unwrap())
        .and_then(|r| r.with_tenants(2))
        .unwrap();
    record_request(&req, 5).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any rewrite of the header's shape fields either fails to load with a
    /// typed error or loads into a request that lowers; replaying what
    /// loaded is a report or a typed error, never a panic.
    #[test]
    fn mutated_headers_load_into_a_lowerable_request_or_a_typed_error(
        alg in 0usize..8,
        p in 0usize..6,
        n in 0usize..7,
        counts in 0usize..9,
        tenants in 0usize..7,
    ) {
        let mut text = tenant_v_artifact().to_json();
        let mut put = |key: &str, old: &str, pool: &[&str], pick: usize| {
            if let Some(new) = pool.get(pick) {
                let (from, to) = (format!("\"{key}\": {old}"), format!("\"{key}\": {new}"));
                assert!(text.contains(&from), "{from} is in the header");
                text = text.replacen(&from, &to, 1);
            }
        };
        let algs = ["\"bruck\"", "\"recmult:2\"", "\"kring:300\"", "\"knomial:1\"",
            "\"pairwise\"", "\"wat\"", "7"];
        put("alg", "\"ring\"", &algs, alg);
        put("p", "4", &["0", "1", "5", "1099511627776", "-4"], p);
        put("n", "32", &["0", "5", "33", "4294967296", "18446744073709551615", "\"32\""], n);
        let vectors = ["\"16,0,8\"", "\"32,0,0,0\"", "\"8,8,8,8\"", "\"4096M,0,0,0\"", "\"x\"",
            "\"\"", "\"18446744073709551615,1,0,0\"", "[16,0,8,8]"];
        put("counts", "\"16,0,8,8\"", &vectors, counts);
        put("tenants", "2", &["0", "1", "3", "65537", "1099511627776", "2.5"], tenants);
        match Artifact::from_json(&text) {
            Ok(artifact) => {
                prop_assert_eq!(artifact.request.lower_world().len(), artifact.request.ranks());
                if let Ok(report) = replay(&artifact) {
                    prop_assert_eq!(report.p, 4);
                }
            }
            Err(ReplayError::Header(_) | ReplayError::Parse(_)) => {}
            Err(other) => prop_assert!(false, "not a header or parse error: {other:?}"),
        }
    }
}

#[test]
fn corrupt_json_is_rejected_with_a_parse_error() {
    assert!(matches!(
        Artifact::from_json("{\"format\": \"exacoll-replay/v1\", nope"),
        Err(ReplayError::Parse(_))
    ));
    assert!(matches!(
        Artifact::from_json("{\"format\": \"somebody-elses/v9\"}"),
        Err(ReplayError::Format { .. })
    ));
}

/// The ISSUE acceptance check: a chaos-injected failure replays
/// deterministically — running the replayer twice over the same artifact
/// yields byte-identical divergence reports naming the first divergent
/// (rank, step) with expected-vs-observed digests.
#[test]
fn chaos_corruption_replays_to_byte_identical_reports() {
    let artifact = run_case(
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 2 },
        6,
        FaultClass::Corrupt,
        42,
        48,
    )
    .artifact;
    let text = artifact.to_json();
    let a = replay(&Artifact::from_json(&text).unwrap()).unwrap();
    let b = replay(&Artifact::from_json(&text).unwrap()).unwrap();
    assert!(!a.is_clean(), "corruption campaign must diverge");
    assert_eq!(a.render(), b.render(), "replay is deterministic");
    let h = a.headline().unwrap();
    assert!(
        a.render().contains("expected:") && a.render().contains("observed:"),
        "report shows expected vs observed: {}",
        a.render()
    );
    assert!(
        h.explanation.contains("corruption"),
        "explanation names the cause: {}",
        h.explanation
    );
}

/// Optimizer-rewritten plans replay with zero divergence: the artifact
/// carries the pass settings, so the replayer rewrites the lowered plan
/// identically before comparing event streams — even though the chunked
/// plan posts a different (longer) send sequence than the stock lowering.
#[test]
fn pipelined_record_replays_with_zero_divergence() {
    use exacoll::collectives::spec::OptSpec;
    let coll = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
    let piped = Request::uniform(coll, 4, 64)
        .and_then(|r| r.with_opt(OptSpec::PIPELINE, 16, 1))
        .unwrap();
    let artifact = record_request(&piped, 11).unwrap();
    let parsed = Artifact::from_json(&artifact.to_json()).expect("optimized artifact parses");
    let report = replay(&parsed).expect("optimized artifact replays");
    assert!(
        report.is_clean(),
        "pipelined run must replay clean:\n{}",
        report.render()
    );
    let sends = |a: &Artifact| {
        a.ranks
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| e.kind == EventKind::Send)
            .count()
    };
    let plain = record_thread_run(&coll, 4, 64, 11);
    assert!(
        sends(&artifact) > sends(&plain),
        "chunking at 16 B must post more sends than the stock lowering"
    );
}

/// A killed rank's log truncates at the kill point and the replayer blames
/// that rank at the first missing step.
#[test]
fn chaos_kill_replays_to_the_victims_first_missing_step() {
    let artifact = run_case(
        CollectiveOp::Allreduce,
        Algorithm::Ring,
        6,
        FaultClass::Kill,
        42,
        48,
    )
    .artifact;
    let report = replay(&Artifact::from_json(&artifact.to_json()).unwrap()).unwrap();
    assert!(!report.is_clean());
    let victim = 1; // the campaign kills rank 1 % p at its first op
    let d = report
        .divergences
        .iter()
        .find(|d| d.rank == victim)
        .expect("victim rank diverges");
    assert_eq!(
        d.step,
        artifact.ranks[victim].events.len(),
        "divergence sits exactly where the log stops"
    );
}

/// An artifact an older build wrote still replays: the checked-in
/// `exacoll record allreduce --alg recmult:2 --ranks 4 --size 64` output of
/// the `exacoll-replay/v1` writer, whose events carry no times and no waits.
#[test]
fn a_v1_artifact_from_an_older_build_replays_clean() {
    let text = include_str!("fixtures/allreduce-recmult_2-p4-v1.replay.json");
    assert!(text.contains("\"format\": \"exacoll-replay/v1\""));
    let report = replay(&Artifact::from_json(text).expect("the v1 artifact parses")).unwrap();
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.events_checked, 32, "{}", report.render());
}
