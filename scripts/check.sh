#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== modality matrix (per-getter suites) =="
for modality in getter analytic tensorline stop; do
    echo "-- modality leg: ${modality} --"
    cargo test -q -p tracto-tracking "${modality}::"
done
cargo test -q -p tracto-cli modality

# perfbench is a Cargo workspace of its own, so the workspace commands above
# never build it; its self-tests also compile it against the repo crates.
echo "== perfbench self-tests =="
cargo test -q --manifest-path perfbench/Cargo.toml

echo "all checks passed"
