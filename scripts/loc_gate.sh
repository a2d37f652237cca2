#!/usr/bin/env bash
# LOC gate: no source file under crates/**/src/ may grow past MAX_LINES.
#
# The PR that decomposed the monolithic allocator (gallatin.rs peaked at
# 1,633 lines) installed this so the next monolith gets caught in review
# instead of accreting. Split a failing file along its tier/module seams
# rather than raising the limit.
set -euo pipefail

MAX_LINES=${MAX_LINES:-900}
cd "$(dirname "$0")/.."

scan() {
    find crates -path '*/src/*' -name '*.rs' | sort
}

# Recursion self-test: the scan must reach files nested below a crate's
# src/ root (src/<module>/<file>.rs). If a future edit to the find
# expression silently stops recursing, deep modules like tiers/ and
# serve/ would drop out of the gate without anyone noticing — fail loudly
# here instead.
for probe in \
    crates/core/src/tiers/segment.rs \
    crates/bench/src/serve/engine.rs \
    crates/bench/src/experiments/ablation.rs; do
    if ! scan | grep -qx "$probe"; then
        echo "LOC gate: self-test failed — scan does not reach $probe (recursion broken?)" >&2
        exit 1
    fi
done

status=0
scanned=0
while IFS= read -r f; do
    scanned=$((scanned + 1))
    lines=$(wc -l <"$f")
    if [ "$lines" -gt "$MAX_LINES" ]; then
        echo "LOC gate: $f has $lines lines (limit $MAX_LINES) — split it along module seams" >&2
        status=1
    fi
done < <(scan)

if [ "$status" -eq 0 ]; then
    echo "LOC gate: $scanned crates/**/src/*.rs files within $MAX_LINES lines"
fi
exit "$status"
