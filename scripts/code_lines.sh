#!/usr/bin/env bash
# Code lines per crate: every line of the `.rs` files under `crates/*/src`
# and `vendor/*/src` that is neither blank nor a `//` comment (doc
# comments included), in-file tests counted. Prints one `<lines> <crate
# dir>` row per crate and a `<lines> total` row.
#
#   scripts/code_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for src in crates/*/src vendor/*/src; do
    n=0
    while IFS= read -r -d '' f; do
        c=$(grep -vcE '^\s*(//|$)' "$f" || true)
        n=$((n + c))
    done < <(find "$src" -name '*.rs' -print0)
    printf '%6d %s\n' "$n" "${src%/src}"
    total=$((total + n))
done
printf '%6d total\n' "$total"
