#!/usr/bin/env bash
# Judge this checkout against a base commit with the repository's benchmark.
#
#   scripts/perf-compare.sh <base-ref|base-checkout-dir> [pairs]
#
# Adds a git worktree of <base-ref> (or uses an existing checkout of it),
# builds each side into its own CARGO_TARGET_DIR, runs
#   perf/run.sh --seed N --seconds 20 --timed-only --out ...
# on base and head over `pairs` (default 10) seeds that no one used while
# writing the change — odd pairs base then head, even pairs head then base
# (stderr names the order of each) — and ends with
#   perf/run.sh compare DIR_BASE DIR_HEAD
# whose verdict table is this script's stdout and whose exit status is this
# script's: non-zero on a `regression` row or a higher fail ratio, zero on
# `ok`, `gain` and `unresolved` alike (a host too noisy to tell is not a
# failure of the change).
#
# It also writes the trajectory file results/bench/BENCH_<depth>.json
# (tracked; <depth> is `git rev-list --count HEAD`, the number the seeds
# derive from): the base and head SHAs, every pair's seed, run order and
# whether it was judged, and the `compare --json` document.
#
# A side that fails (the benchmark's own self-tests run before every
# measurement and have flaked) is run once more; if it fails again that
# seed's pair is dropped — both files, so the runs stay paired — and the
# compare goes on. Stderr ends with how many pairs were judged.
#
# Everything lands under target/perf-compare/ (ignored): the worktree, the two
# target directories and base-results/ + head-results/, one JSON per seed.
# The benchmark pins itself to one CPU, so run nothing else beside it.
set -euo pipefail
base="${1:?usage: scripts/perf-compare.sh <base-ref|base-checkout-dir> [pairs]}"
pairs="${2:-10}"
head_dir="$(cd "$(dirname "$0")/.." && pwd)"
work="$head_dir/target/perf-compare"
rm -rf "$work/base-results" "$work/head-results"
mkdir -p "$work/base-results" "$work/head-results"

# Whether the measured tree has uncommitted changes, read before the
# benchmark's offline build rewrites the tracked perf/Cargo.lock; the lock
# is put back as it was when the script exits.
dirty=false
[ -z "$(git -C "$head_dir" status --porcelain --untracked-files=no)" ] || dirty=true
cp "$head_dir/perf/Cargo.lock" "$work/head-Cargo.lock"
worktree=false
cleanup() {
    cp "$work/head-Cargo.lock" "$head_dir/perf/Cargo.lock"
    if $worktree; then git -C "$head_dir" worktree remove --force "$base_dir"; fi
}
trap cleanup EXIT

if [ -d "$base" ]; then
    base_dir="$(cd "$base" && pwd)"
else
    base_dir="$work/base"
    git -C "$head_dir" worktree remove --force "$base_dir" 2>/dev/null || true
    git -C "$head_dir" worktree add --detach "$base_dir" "$base" >&2
    worktree=true
fi

# Seeds a developer would not have typed: a block of 100 per commit depth.
depth=$(git -C "$head_dir" rev-list --count HEAD)
seed0=$(( depth * 100 ))

run_side() { # <checkout> <name> <seed>
    CARGO_TARGET_DIR="$work/$2-target" "$1/perf/run.sh" \
        --seed "$3" --seconds 20 --timed-only \
        --out "$work/$2-results/seed$3.json" >/dev/null
}

try_side() { # same arguments; one retry
    run_side "$@" && return
    echo "perf-compare: $2 failed on seed $3, running it once more" >&2
    run_side "$@"
}

judged=0
pair_docs=()
for i in $(seq 1 "$pairs"); do
    seed=$(( seed0 + i ))
    # Odd pairs run base first, even pairs head first, so a host that drifts
    # during a pair (warming up, throttling) favours neither side.
    if (( i % 2 )); then
        first=("$base_dir" base) second=("$head_dir" head)
    else
        first=("$head_dir" head) second=("$base_dir" base)
    fi
    echo "perf-compare: pair $i/$pairs (seed $seed): ${first[1]} -> ${second[1]}" >&2
    if try_side "${first[@]}" "$seed" && try_side "${second[@]}" "$seed"; then
        judged=$(( judged + 1 ))
        kept=true
    else
        echo "perf-compare: pair $i dropped: a side failed twice on seed $seed" >&2
        rm -f "$work/base-results/seed$seed.json" "$work/head-results/seed$seed.json"
        kept=false
    fi
    pair_docs+=("{\"pair\": $i, \"seed\": $seed, \"order\": [\"${first[1]}\", \"${second[1]}\"], \"judged\": $kept}")
done
echo "perf-compare: $judged of $pairs pairs judged" >&2

compare() {
    CARGO_TARGET_DIR="$work/head-target" "$head_dir/perf/run.sh" compare \
        "$work/base-results" "$work/head-results" "$@"
}
status=0
compare || status=$?

sha() { # <checkout>: its commit, or null when it is not a git checkout
    if [ -e "$1/.git" ]; then echo "\"$(git -C "$1" rev-parse HEAD)\""; else echo null; fi
}
doc=$(compare --json) || true
bench="$head_dir/results/bench/BENCH_$depth.json"
mkdir -p "$(dirname "$bench")"
{
    echo "{"
    echo "  \"base\": {\"ref\": \"$base\", \"sha\": $(sha "$base_dir")},"
    echo "  \"head\": {\"sha\": $(sha "$head_dir"), \"dirty\": $dirty},"
    echo "  \"pairs\": {\"asked\": $pairs, \"judged\": $judged, \"dropped\": $(( pairs - judged ))},"
    echo "  \"runs\": ["
    for i in "${!pair_docs[@]}"; do
        sep=","; (( i + 1 < ${#pair_docs[@]} )) || sep=""
        echo "    ${pair_docs[$i]}$sep"
    done
    echo "  ],"
    echo "  \"compare\": ${doc:-null}"
    echo "}"
} > "$bench"
echo "perf-compare: wrote $bench" >&2
exit "$status"
