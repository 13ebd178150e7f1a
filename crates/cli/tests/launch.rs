//! End-to-end tests for `exacoll launch`: real OS processes over real TCP
//! sockets, driven through the actual binary (`CARGO_BIN_EXE_exacoll`, not
//! in-process dispatch — worker processes re-invoke `current_exe`, which
//! must be the CLI itself, not the test runner).

use std::path::PathBuf;
use std::process::{Command, Output};

fn exacoll(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exacoll"))
        .args(args)
        .output()
        .expect("spawn exacoll binary")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("exacoll-launch-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn acceptance_allreduce_8_processes() {
    // The ISSUE acceptance command, verbatim: positional op after flags.
    let out = exacoll(&[
        "launch",
        "--ranks",
        "8",
        "--backend",
        "tcp",
        "allreduce",
        "--alg",
        "recmult:4",
        "--size",
        "65536",
        "--timeout",
        "60",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "launch failed:\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("verified on 8 process(es)"),
        "missing verification line: {stdout}"
    );
}

#[test]
fn acceptance_chrome_trace_has_one_track_per_rank() {
    let trace = tmp("accept.json");
    let out = exacoll(&[
        "launch",
        "--ranks",
        "8",
        "--backend",
        "tcp",
        "allreduce",
        "--alg",
        "recmult:4",
        "--size",
        "65536",
        "--timeout",
        "60",
        "--chrome",
        trace.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "launch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc = exacoll_json::parse(&text).expect("trace is valid JSON");
    let tracks = exacoll_obs::rank_tracks(&doc).expect("trace is Chrome-shaped");
    assert_eq!(tracks.len(), 8, "expected one track per rank");
    for ((_, _), slices) in tracks {
        assert!(slices > 0, "every rank track has at least one slice");
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn bcast_and_barrier_worlds_verify() {
    let out = exacoll(&[
        "launch",
        "bcast",
        "--alg",
        "knomial:3",
        "--ranks",
        "4",
        "--size",
        "4K",
        "--timeout",
        "60",
    ]);
    assert!(
        out.status.success(),
        "bcast launch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = exacoll(&[
        "launch",
        "barrier",
        "--alg",
        "dissemination:2",
        "--ranks",
        "5",
        "--timeout",
        "60",
    ]);
    assert!(
        out.status.success(),
        "barrier launch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn launch_record_rejects_partial_spawn() {
    let out = exacoll(&[
        "launch",
        "allreduce",
        "--alg",
        "ring",
        "--ranks",
        "2",
        "--spawn",
        "1",
        "--record",
        "/tmp/never-used",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--record needs all ranks local"),
        "got: {stderr}"
    );
}

#[test]
fn unknown_backend_error_lists_accepted_values() {
    let out = exacoll(&[
        "launch",
        "allreduce",
        "--alg",
        "ring",
        "--ranks",
        "2",
        "--backend",
        "ib",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("thread|sim|tcp|both"),
        "error should list accepted backends: {stderr}"
    );
}

#[test]
fn launch_rejects_in_process_backends() {
    let out = exacoll(&[
        "launch",
        "allreduce",
        "--alg",
        "ring",
        "--ranks",
        "2",
        "--backend",
        "thread",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tcp backend only"), "got: {stderr}");
}

#[test]
fn partial_spawn_prints_manual_env_lines() {
    // --spawn 0 starts nobody: the launcher prints one env line per rank
    // and then times out waiting for the world (bounded by --timeout).
    let out = exacoll(&[
        "launch",
        "allreduce",
        "--alg",
        "ring",
        "--ranks",
        "2",
        "--spawn",
        "0",
        "--timeout",
        "1",
    ]);
    assert!(!out.status.success(), "no workers ever joined");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("EXACOLL_RANK=0") && stdout.contains("EXACOLL_RANK=1"),
        "missing env lines: {stdout}"
    );
    assert!(
        stdout.contains("EXACOLL_ROOT="),
        "missing rendezvous address: {stdout}"
    );
}

/// The `(p, tid)` tracks of the Chrome trace at `path`, and its raw text.
fn tracks_of(path: &std::path::Path) -> (usize, String) {
    let text = std::fs::read_to_string(path).expect("trace written");
    let doc = exacoll_json::parse(&text).expect("valid JSON");
    (
        exacoll_obs::rank_tracks(&doc).expect("Chrome-shaped").len(),
        text,
    )
}

fn launch_ok(args: &[&str]) -> (String, String) {
    let out = exacoll(&[&["launch", "--timeout", "60"], args].concat());
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{args:?}\nstdout: {stdout}\nstderr: {stderr}"
    );
    (stdout, stderr)
}

const V: [&str; 7] = [
    "allgather",
    "--alg",
    "ring",
    "--ranks",
    "4",
    "--counts",
    "4K,0,64,256",
];

/// Every shape launches, verifies, records and replays through the one
/// path: a plain uniform world, a count vector with a zero-count rank, the
/// same vector pipelined, and two tenants sharing the world.
#[test]
fn launches_of_every_shape_verify_record_and_replay_clean() {
    let uniform = ["allreduce", "--alg", "recmult:2", "--ranks", "4"];
    let cases: [(&[&str], &[&str], &str); 4] = [
        (
            &uniform,
            &["--size", "2K"],
            "2 verified on 4 process(es), 2048 B per rank",
        ),
        (
            &V,
            &[],
            "ring verified on 4 process(es), 1 tenant(s), counts [4096,0,64,256] (4416 B total)",
        ),
        (
            &V,
            &["--opt", "pipeline", "--chunk", "1K"],
            "allgather/ring@pipeline verified",
        ),
        (
            &uniform,
            &["--size", "4K", "--tenants", "2"],
            "2 tenant(s), 4096 B per rank",
        ),
    ];
    let mut sends = Vec::new();
    for (i, (shape, flags, line)) in cases.into_iter().enumerate() {
        let dir = tmp(&format!("record-{i}"));
        let record = ["--record", dir.to_str().expect("utf-8 temp path")];
        let (stdout, _) = launch_ok(&[shape, flags, &record[..]].concat());
        assert!(stdout.contains(line), "case {i}: {stdout}");
        let path = std::fs::read_dir(&dir).expect("artifact directory").next();
        let path = path.expect("one artifact").expect("readable entry").path();
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        let artifact = exacoll_replay::Artifact::from_json(&text).expect("artifact parses");
        assert_eq!((artifact.request.ranks(), &*artifact.backend), (4, "tcp"));
        let report = exacoll_replay::replay(&artifact).expect("artifact replays");
        assert!(report.is_clean(), "case {i}:\n{}", report.render());
        // And through the CLI: `exacoll replay` exits 0 on a clean artifact.
        let out = exacoll(&["replay", path.to_str().expect("utf-8 temp path")]);
        let verdict = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && verdict.contains("PASS"),
            "{verdict}"
        );
        let events = artifact.ranks.iter().flat_map(|log| &log.events);
        sends.push(
            events
                .filter(|e| e.kind == exacoll_comm::EventKind::Send)
                .count(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The 4 KiB block travels as four 1 KiB chunks on every hop.
    assert!(sends[2] > sends[1], "{sends:?}");
}

/// `(alg, obs_n)` of every cell of the table at `path` under (op, p = 4,
/// bucket).
fn cells(path: &std::path::Path, op: &str, bucket: usize) -> Vec<(String, usize)> {
    let text = std::fs::read_to_string(path).expect("table written");
    let doc = exacoll_json::parse(&text).expect("table is JSON");
    let entries = doc.req("entries").unwrap().as_arr().unwrap();
    entries
        .iter()
        .filter(|e| {
            e.req("op").unwrap().as_str().unwrap() == op
                && e.req("p").unwrap().as_usize().unwrap() == 4
                && e.req("bucket").unwrap().as_usize().unwrap() == bucket
        })
        .flat_map(|e| e.req("cells").unwrap().as_arr().unwrap())
        .map(|c| {
            (
                c.req("alg").unwrap().as_str().unwrap().to_string(),
                c.req("obs_n").unwrap().as_usize().unwrap(),
            )
        })
        .collect()
}

#[test]
fn select_auto_composes_with_tenants_and_count_vectors() {
    let table = tmp("auto-table.json");
    let t = table.to_str().expect("utf-8 temp path");
    // Two tenants select and observe under the single-tenant bucket.
    let auto = ["--select", "auto", "--ranks", "4", "--table", t];
    let (stdout, _) =
        launch_ok(&[&["allreduce", "--size", "4K", "--tenants", "2"], &auto[..]].concat());
    assert!(stdout.contains("2 tenant(s), 4096 B per rank"), "{stdout}");
    let seen = cells(&table, "allreduce", exacoll_select::bucket_of_bytes(4096));
    assert_eq!(seen.iter().map(|c| c.1).sum::<usize>(), 1, "{seen:?}");

    // A count vector has no priors: the empty bucket answers the v-capable
    // default, and the observation lands under the skew-folded bucket.
    let v = ["allgather", "--counts", "4K,0,64,256"];
    let (stdout, _) = launch_ok(&[&v[..], &auto[..]].concat());
    assert!(stdout.contains("allgather/ring verified"), "{stdout}");
    let bucket = exacoll_select::table::v_bucket(&[4096, 0, 64, 256]);
    assert_eq!(
        cells(&table, "allgather", bucket),
        [("ring".to_string(), 1)]
    );

    // A Bruck winner hand-seeded into that bucket cannot lower these
    // counts: `lookup_v` filters it and the launch still runs ring, as does
    // the profiler resolving against the same table.
    std::fs::write(
        &table,
        format!(
            r#"{{"format":"exacoll-select/v1","policy":{{"prior_weight":3,"explore":0.5}},
            "entries":[{{"op":"allgather","p":4,"bucket":{bucket},
            "cells":[{{"alg":"bruck","prior_ns":1,"obs_sum_ns":0,"obs_n":0}}]}}]}}"#
        ),
    )
    .unwrap();
    let (stdout, stderr) = launch_ok(&[&v[..], &auto[..]].concat());
    assert!(stdout.contains("allgather/ring verified"), "{stdout}");
    assert!(
        stderr.contains("auto resolved allgather p=4 -> ring"),
        "{stderr}"
    );
    let out = exacoll(&[&["profile", "--backend", "sim"], &v[..], &auto[..]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("auto resolved allgather p=4 -> ring"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&table);
}

/// Drift (a): one size rule. `--size 1000` alltoall at p = 6 is the same
/// byte count under every subcommand, and it is the `Request`'s.
#[test]
fn every_subcommand_reports_the_request_s_alltoall_size() {
    use exacoll_core::{Algorithm, CollArgs, CollectiveOp, Request};
    let coll = CollArgs::new(CollectiveOp::Alltoall, Algorithm::Pairwise);
    let want = format!(
        "{} B per rank",
        Request::uniform(coll, 6, 1000).unwrap().input_len(0)
    );
    let out = tmp("a2a.replay.json");
    let shape = [
        "alltoall", "--alg", "pairwise", "--ranks", "6", "--size", "1000",
    ];
    for extra in [
        &["record", "--out", out.to_str().expect("utf-8 temp path")][..],
        &["opt", "--passes", "aggregate"],
        &["profile", "--backend", "sim"],
        &["launch", "--timeout", "60"],
    ] {
        let run = exacoll(&[extra, &shape[..]].concat());
        let said = format!(
            "{}{}",
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&run.stderr)
        );
        assert!(
            run.status.success() && said.contains(&want),
            "{extra:?} should report `{want}`: {said}"
        );
    }
    let _ = std::fs::remove_file(&out);
}

/// Drift (b): the profiler reads `--chrome`, `--metrics` and `--backend`
/// whatever the shape.
#[test]
fn profiles_of_every_shape_write_their_trace_and_metrics_on_every_backend() {
    let (trace, metrics) = (tmp("v-trace.json"), tmp("v-metrics.json"));
    let files = [
        "--chrome",
        trace.to_str().expect("utf-8 temp path"),
        "--metrics",
        metrics.to_str().expect("utf-8 temp path"),
    ];
    let uniform = [
        "allreduce",
        "--alg",
        "recmult:2",
        "--ranks",
        "4",
        "--size",
        "2K",
    ];
    let cases: [(&[&str], &str, usize, &str); 3] = [
        (&uniform, "tcp", 4, "allreduce/recmult(2)/2048/tcp"),
        (&V, "tcp", 4, "allgather/ring/4416/tcp"),
        (&V, "both", 8, "allgather/ring/4416/sim"),
    ];
    for (shape, backend, tracks, scope) in cases {
        let out = exacoll(&[&["profile", "--backend", backend], shape, &files[..]].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "profile --backend {backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("critical path"),
            "missing analysis: {stdout}"
        );
        assert_eq!(stdout.contains("== backend: tcp =="), backend == "tcp");
        let (found, text) = tracks_of(&trace);
        assert_eq!(found, tracks, "4 rank tracks per backend ({backend})");
        assert_eq!(text.contains("\"name\": \"tcp\""), backend == "tcp");
        let snap = std::fs::read_to_string(&metrics).expect("metrics written");
        assert!(snap.contains(scope), "{scope} not in {snap}");
        for f in [&trace, &metrics] {
            std::fs::remove_file(f).expect("written by this run");
        }
    }
}
