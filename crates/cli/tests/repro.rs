//! `exacoll repro` at quick scale against the checked-in golden.
//!
//! The golden is what the eleven per-figure binaries this subcommand
//! replaced printed under `EXACOLL_QUICK=1`, concatenated in target order;
//! only the `selection` target's two tables were regenerated (bucket rows of
//! the one selection table instead of merged ranges). CI's `repro-smoke` job
//! diffs the release binary's stdout against the same file.

use exacoll_cli::commands::dispatch;
use exacoll_cli::repro::{render, TARGETS};

#[test]
fn quick_scale_tables_match_the_golden_byte_for_byte() {
    let golden = include_str!("golden/repro_quick.txt");
    let got: String = TARGETS
        .iter()
        .map(|(_, build)| render(&build(true)))
        .collect();
    if let Some((i, (want, have))) = golden
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!("line {} differs\n golden: {want}\n    got: {have}", i + 1);
    }
    assert_eq!(
        got.len(),
        golden.len(),
        "one output is a prefix of the other"
    );
}

#[test]
fn repro_names_its_targets_when_asked_for_none_or_an_unknown_one() {
    for argv in [vec!["repro"], vec!["repro", "fig12"]] {
        let argv: Vec<String> = argv.into_iter().map(String::from).collect();
        let err = dispatch(&argv).unwrap_err();
        assert!(err.contains("fig07") && err.contains("all"), "got: {err}");
    }
}
