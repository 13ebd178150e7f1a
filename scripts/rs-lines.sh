#!/usr/bin/env bash
# Count the workspace's Rust lines — every tracked `*.rs` file outside the
# benchmark package (perf/) and the vendored dependencies (vendor/) — at a
# base ref and at HEAD, and print the delta.
#
#   scripts/rs-lines.sh [base-ref]    # base-ref defaults to HEAD~1
#
# Both counts read committed trees (`git grep`), so uncommitted edits are
# not included.
set -euo pipefail

base=${1:-HEAD~1}

rs_lines() {
    git grep -c '' "$1" -- '*.rs' ':!perf' ':!vendor' | awk -F: '{ n += $NF } END { print n + 0 }'
}

if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "rs-lines: unknown base ref '$base'" >&2
    exit 1
fi

before=$(rs_lines "$base")
after=$(rs_lines HEAD)
printf '%-8s %8d  %s\n' base "$before" "$(git rev-parse --short "$base")"
printf '%-8s %8d  %s\n' HEAD "$after" "$(git rev-parse --short HEAD)"
printf '%-8s %+8d\n' delta $((after - before))
