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
# uncommitted edits included. Each seed argument makes one pass: one
# `python3 perfbench/run.py` run per tree, the order flipping from pass to
# pass. A seed may repeat; passes are told apart by their position. Each
# tree builds into its own CARGO_TARGET_DIR under the scratch directory.
# Prints every metric per run (`correct`/`failed` too), then per metric
# each side's median and quartiles, the change/parent ratio of the
# medians, and the change's pair wins: the passes in which the change's
# run beat the parent's in the metric's `better` direction
# (BENCHMARK.json), out of the passes where the two differ (ties are left
# out).
#
# Environment:
#   BENCH_AB_DIR      scratch directory; reusing one across calls reuses
#                     both builds (default: a fresh `mktemp -d`, removed
#                     at exit)
#   BENCH_AB_SECONDS  measured seconds per run (default 20)
#   BENCH_AB_TRACE    0 = end-to-end metrics, 1 = per-layer run (default 0)
#   BENCH_AB_OUT      when set, also write the summary as JSON rows, one
#                     per metric, to this file (appended to the rows
#                     already in it): metric, workload, clock, unit, each
#                     side's median, quartiles, IQR and values, the seeds,
#                     the pair wins, the host record, both revisions and
#                     the sha256 of both `tracto` binaries
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

# run <side> <tree> <pass> <seed>: one perfbench run; keeps its standard
# output and appends "side pass seed output-file".
run() {
    local side=$1 tree=$2 pass=$3 seed=$4 log
    log=$scratch/run-$workload-$side-p$pass-s$seed-t$trace-$$.txt
    echo "== $side seed $seed ($workload, ${seconds}s) ==" >&2
    (cd "$tree" && CARGO_TARGET_DIR="$scratch/target-$side" \
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace") >"$log"
    printf '%s\t%s\t%s\t%s\n' "$side" "$pass" "$seed" "$log" >>"$results"
}

for i in "${!seeds[@]}"; do
    seed=${seeds[$i]}
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent" "$i" "$seed"
        run change "$change" "$i" "$seed"
    else
        run change "$change" "$i" "$seed"
        run parent "$parent" "$i" "$seed"
    fi
done

change_rev=$(git -C "$change" rev-parse HEAD)
if [ -n "$(git -C "$change" status --porcelain --untracked-files=no)" ]; then
    change_rev=$change_rev-dirty
fi

python3 - "$results" "$workload" "$sha" "$change_rev" "$scratch" "$change/BENCHMARK.json" \
    "$trace" "${BENCH_AB_OUT:-}" <<'EOF'
import hashlib
import json
import os
import statistics
import sys

path, workload, sha, change_rev, scratch, bench_json, trace, out_path = sys.argv[1:9]
better = {}
with open(bench_json) as f:
    decl = json.load(f)
for m in decl.get("end_to_end", []) + decl.get("per_layer", []):
    better[m["name"]] = m.get("better", "lower")

# Per side, (pass, seed, result) in run order; a pass is one seed
# argument, so a repeated seed makes a pass of its own.
runs = {"parent": [], "change": []}
hosts = {"parent": [], "change": []}
clock = {}
for line in open(path):
    side, pass_, seed, log = line.rstrip("\n").split("\t", 3)
    lines = open(log).read().splitlines()
    doc = json.loads(lines[-1])
    runs[side].append((int(pass_), seed, doc))
    for text in lines[:-1]:
        if text.startswith("host "):
            hosts[side].append(json.loads(text[5:]))
        parts = text.split()
        if len(parts) == 4 and parts[0] in doc["metrics"]:
            clock[parts[0]] = parts[3]
names = list(runs["parent"][0][2]["metrics"])
print(f"workload {workload}, parent {sha[:7]} vs working tree ({change_rev[:7]})")
header = ["side", "seed", "correct", "failed"] + names
print("\t".join(header))
for side in ("parent", "change"):
    for _, seed, doc in runs[side]:
        row = [side, seed, str(doc["correct"]).lower(), str(doc["failed"])]
        row += [f'{doc["metrics"][n]["value"]:.4f}' for n in names]
        print("\t".join(row))


def summary(values):
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "values": values,
    }


def sha256(file):
    h = hashlib.sha256()
    with open(file, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


binaries = {
    side: sha256(os.path.join(scratch, f"target-{side}", "release", "tracto"))
    for side in ("parent", "change")
}
host = dict(hosts["change"][0]) if hosts["change"] else {}
host["steal_ticks"] = {
    side: [h.get("steal_ticks", 0) for h in hosts[side]] for side in ("parent", "change")
}

print()
print("metric\tparent_median\tparent_q1\tparent_q3\tchange_median\tchange_q1\tchange_q3"
      "\tchange/parent\tchange_wins")
rows = []
for n in names:
    values = {
        side: {pass_: doc["metrics"][n]["value"] for pass_, _, doc in runs[side]}
        for side in ("parent", "change")
    }
    passes = [(pass_, seed) for pass_, seed, _ in runs["parent"] if pass_ in values["change"]]
    p = summary([values["parent"][i] for i, _, _ in runs["parent"]])
    c = summary([values["change"][i] for i, _, _ in runs["change"]])
    sign = -1.0 if better.get(n, "lower") == "lower" else 1.0
    diffs = [sign * (values["change"][i] - values["parent"][i]) for i, _ in passes]
    wins = sum(d > 0 for d in diffs)
    decided = sum(d != 0 for d in diffs)
    ratio = f'{c["median"] / p["median"]:.3f}' if p["median"] else "-"
    print(f'{n}\t{p["median"]:.4f}\t{p["q1"]:.4f}\t{p["q3"]:.4f}\t{c["median"]:.4f}'
          f'\t{c["q1"]:.4f}\t{c["q3"]:.4f}\t{ratio}\t{wins}/{decided}')
    rows.append({
        "metric": n,
        "workload": workload,
        "trace": int(trace),
        "clock": clock.get(n, ""),
        "unit": runs["parent"][0][2]["metrics"][n].get("unit", ""),
        "better": better.get(n, "lower"),
        "parent": p,
        "change": c,
        "seeds": [int(seed) for _, seed in passes],
        "pair_wins": {"change": wins, "decided": decided, "ties": len(passes) - decided},
        "correct": {
            side: [bool(doc["correct"]) for _, _, doc in runs[side]]
            for side in ("parent", "change")
        },
        "host": host,
        "rev": {"parent": sha, "change": change_rev},
        "tracto_sha256": binaries,
    })

if out_path:
    existing = []
    if os.path.exists(out_path) and os.path.getsize(out_path) > 0:
        with open(out_path) as f:
            existing = json.load(f)
    with open(out_path, "w") as f:
        # One row per line, so a record diffs row by row.
        f.write("[\n" + ",\n".join(json.dumps(r) for r in existing + rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {out_path}")
EOF
