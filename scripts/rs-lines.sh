#!/usr/bin/env bash
# Count the workspace's Rust lines — every tracked `*.rs` file outside the
# benchmark package (perf/) and the vendored dependencies (vendor/) — at a
# base ref and at HEAD, split into non-test and test lines, and print the
# delta.
#
#   scripts/rs-lines.sh [base-ref] [pathspec...]   # base-ref defaults to HEAD~1
#   scripts/rs-lines.sh HEAD~1 crates/core crates/comm   # those two crates only
#
# Pathspecs, when given, restrict the count to the `*.rs` files they match.
# A test line is a line of a file under a `tests/` directory, or a line
# from a top-level `#[cfg(test)]` that introduces a `mod` to the end of its
# file. Both counts read committed trees (`git grep`), so uncommitted edits
# are not included.
set -euo pipefail

base=${1:-HEAD~1}
shift || true
paths=("${@:-*.rs}")

# Prints "total non-test test" for the tree at ref $1.
rs_lines() {
    # A pathspec that matches nothing at a ref counts as no lines there.
    { git grep -n '' "$1" -- "${paths[@]}" ':!perf' ':!vendor' || true; } | awk -v pre="$1:" '
        {
            rest = substr($0, length(pre) + 1)
            i = index(rest, ":"); file = substr(rest, 1, i - 1); rest = substr(rest, i + 1)
            if (file !~ /\.rs$/) next
            text = substr(rest, index(rest, ":") + 1)
            if (file != cur) { cur = file; in_test = file ~ /(^|\/)tests\//; cfg = 0 }
            total++
            if (cfg && text ~ /^(pub(\([a-z]+\))? )?mod /) { in_test = 1; test++ }
            cfg = !in_test && text ~ /^#\[cfg\(test\)\]/
            if (in_test) test++
        }
        END { print total + 0, total - test, test + 0 }'
}

if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "rs-lines: unknown base ref '$base'" >&2
    exit 1
fi

read -r b_all b_src b_test <<<"$(rs_lines "$base")"
read -r h_all h_src h_test <<<"$(rs_lines HEAD)"
printf '%-8s %8s %9s %8s\n' '' total non-test test
printf '%-8s %8d %9d %8d  %s\n' base "$b_all" "$b_src" "$b_test" "$(git rev-parse --short "$base")"
printf '%-8s %8d %9d %8d  %s\n' HEAD "$h_all" "$h_src" "$h_test" "$(git rev-parse --short HEAD)"
printf '%-8s %+8d %+9d %+8d\n' delta $((h_all - b_all)) $((h_src - b_src)) $((h_test - b_test))
