#!/usr/bin/env bash
# The benchmark's one command.
#
#   perf/run.sh [--seed N] [--seconds S] [--timed-only] [--out FILE]
#       self-tests, then every workload timed and traced; prints every
#       metric and writes perf/results/latest.json
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is one JSON object
#   perf/run.sh compare DIR_A DIR_B [--json]
#   perf/run.sh list
#
# Builds from source every time (a no-op when nothing changed) into
# $CARGO_TARGET_DIR, or ./target. Must be started from anywhere inside a
# checkout that holds the crates the benchmark measures; without them the
# build fails and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo=(cargo --quiet)
manifest=(--release --offline --manifest-path perf/Cargo.toml --target-dir "$target")

"${cargo[@]}" build "${manifest[@]}" >&2
case " $* " in
    *" --workload "* | " compare "* | " list "*) ;;
    *) "${cargo[@]}" test "${manifest[@]}" >&2 ;;
esac
exec "$target/release/perf" "$@"
