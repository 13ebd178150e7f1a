//! `exacoll verify`: the audit runs to the end, and its table is pinned.

use exacoll_cli::commands::dispatch;
use std::process::Command;

#[test]
fn a_shape_refused_at_the_requested_size_is_skipped_not_fatal() {
    // At 2000 MiB per rank a 3-rank gather or allgather addresses 4 GiB or
    // more in one region, so `Request::uniform` refuses it. Those rows are
    // skipped; every candidate that can be planned is still verified, and
    // only those decide the exit status.
    let argv: Vec<String> = ["verify", "--ranks", "3", "--size", "2000M"]
        .map(String::from)
        .to_vec();
    dispatch(&argv).unwrap();
}

#[test]
fn the_pinned_tables_match_their_goldens_byte_for_byte() {
    // Every rounds/β/γ cell, the paper-shape block and the summary lines;
    // CI diffs the release binary's stdout against the same files. At p = 6
    // every k-ring radix divides p; at p = 7 none does.
    let cases = [
        ("6", "3", include_str!("golden/verify_p6_k3.txt")),
        ("7", "6", include_str!("golden/verify_p7_k6.txt")),
    ];
    for (ranks, max_k, golden) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_exacoll"))
            .args(["verify", "--ranks", ranks, "--max-k", max_k])
            .output()
            .expect("run exacoll");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
        if let Some((i, (want, have))) = golden
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            panic!(
                "p = {ranks}: line {} differs\n golden: {want}\n    got: {have}",
                i + 1
            );
        }
        assert_eq!(
            got.len(),
            golden.len(),
            "p = {ranks}: one output is a prefix of the other"
        );
    }
}
