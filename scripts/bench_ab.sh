#!/usr/bin/env bash
# A/B benchmark: alternate perfbench runs between a parent revision and the
# working tree, so slow drift of the host (CPU steal, thermal state, page
# cache) lands on both sides instead of on one.
#
# Usage: scripts/bench_ab.sh <parent-rev> <workload> <seed>...
#
#   scripts/bench_ab.sh HEAD~1 warm_many 2 4 5 6 7
#
# The parent is exported with `git archive` into a scratch directory (no
# worktree is registered in .git); the change is this checkout as it is,
# uncommitted edits included. Each seed makes one pass: one
# `python3 perfbench/run.py` run per tree, the order flipping from seed to
# seed. Each tree builds into its own CARGO_TARGET_DIR under the scratch
# directory. Prints every end-to-end metric per run, then the medians and
# change/parent ratios; `correct`/`failed` are printed per run.
#
# Environment:
#   BENCH_AB_DIR      scratch directory; reusing one across calls reuses
#                     both builds (default: a fresh `mktemp -d`, removed
#                     at exit)
#   BENCH_AB_SECONDS  measured seconds per run (default 20)
#   BENCH_AB_TRACE    0 = end-to-end metrics, 1 = per-layer run (default 0)
#
# Nothing under perfbench/ or BENCHMARK.json is modified.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 <parent-rev> <workload> <seed>..." >&2
    exit 2
fi
rev=$1
workload=$2
shift 2
seeds=("$@")
seconds=${BENCH_AB_SECONDS:-20}
trace=${BENCH_AB_TRACE:-0}

change=$(cd "$(dirname "$0")/.." && pwd)
if [ -n "${BENCH_AB_DIR:-}" ]; then
    scratch=$BENCH_AB_DIR
    mkdir -p "$scratch"
else
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' EXIT
fi
scratch=$(cd "$scratch" && pwd)

sha=$(git -C "$change" rev-parse --verify "$rev^{commit}")
parent=$scratch/parent-$sha
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git -C "$change" archive "$sha" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi
results=$scratch/results-$workload-$$.tsv
: >"$results"

# run <side> <tree> <seed>: one perfbench run; appends "side seed json".
run() {
    local side=$1 tree=$2 seed=$3 out
    echo "== $side seed $seed ($workload, ${seconds}s) ==" >&2
    out=$(cd "$tree" && CARGO_TARGET_DIR="$scratch/target-$side" \
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" | tail -n 1)
    printf '%s\t%s\t%s\n' "$side" "$seed" "$out" >>"$results"
}

for i in "${!seeds[@]}"; do
    seed=${seeds[$i]}
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
done

python3 - "$results" "$workload" "$sha" <<'EOF'
import json
import statistics
import sys

path, workload, sha = sys.argv[1:4]
runs = {"parent": [], "change": []}
for line in open(path):
    side, seed, doc = line.rstrip("\n").split("\t", 2)
    runs[side].append((seed, json.loads(doc)))
names = list(runs["parent"][0][1]["metrics"])
print(f"workload {workload}, parent {sha[:7]} vs working tree")
header = ["side", "seed", "correct", "failed"] + names
print("\t".join(header))
for side in ("parent", "change"):
    for seed, doc in runs[side]:
        row = [side, seed, str(doc["correct"]).lower(), str(doc["failed"])]
        row += [f'{doc["metrics"][n]["value"]:.4f}' for n in names]
        print("\t".join(row))
print()
print("metric\tparent_median\tchange_median\tchange/parent")
for n in names:
    p = statistics.median(doc["metrics"][n]["value"] for _, doc in runs["parent"])
    c = statistics.median(doc["metrics"][n]["value"] for _, doc in runs["change"])
    ratio = f"{c / p:.3f}" if p else "-"
    print(f"{n}\t{p:.4f}\t{c:.4f}\t{ratio}")
EOF
