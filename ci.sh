#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, rustdoc warnings are errors: no dead or private doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> v10-lint (determinism, panic-freedom & dead public surface; any finding fails)"
cargo run -q -p v10-lint -- --check

echo "==> v10-lint --check --json (machine-readable diagnostics smoke)"
cargo run -q -p v10-lint -- --check --json

echo "==> cargo test"
cargo test --workspace -q

echo "==> sampler tests pinned to one CPU (the pinned stream digests, read through the recipes)"
if command -v taskset > /dev/null; then
    taskset -c 0 cargo test -q -p v10-workloads --lib sampler_tests
else
    echo "taskset not found: skipped the one-CPU sampler run"
fi

echo "==> benchmark package tests (an API change that breaks benchmark/ fails here)"
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo bench --no-run (bench targets must keep building)"
cargo bench --workspace --no-run -q

echo "==> serving_overload bench (smoke run, fixed thread pool)"
V10_BENCH_THREADS=2 cargo bench -q -p v10-bench --bench serving_overload > /dev/null

echo "==> sim_throughput bench (smoke run: schema + 0.9x throughput gate vs checked-in baseline)"
V10_BENCH_SMOKE=1 \
    V10_BENCH_JSON_OUT="$(mktemp -t sim_throughput.XXXXXX.json)" \
    V10_BENCH_BASELINE="$PWD/BENCH_sim_throughput.json" \
    cargo bench -q -p v10-bench --bench sim_throughput > /dev/null

echo "==> serving_fleet bench (smoke run: schema + 0.9x scan-reduction gate vs checked-in baseline)"
V10_BENCH_SMOKE=1 \
    V10_BENCH_THREADS=2 \
    V10_BENCH_JSON_OUT="$(mktemp -t serving_fleet.XXXXXX.json)" \
    V10_BENCH_BASELINE="$PWD/BENCH_serving_fleet.json" \
    cargo bench -q -p v10-bench --bench serving_fleet > /dev/null

echo "==> serving_fleet_faults bench (smoke run: disarmed bit-identity gate + schema + committed artifact)"
V10_BENCH_SMOKE=1 \
    V10_BENCH_THREADS=2 \
    V10_BENCH_JSON_OUT="$PWD/BENCH_fleet_faults.json" \
    cargo bench -q -p v10-bench --bench serving_fleet_faults > /dev/null
grep -q '"bench": "serving_fleet_faults"' BENCH_fleet_faults.json \
    || { echo "BENCH_fleet_faults.json missing schema marker"; exit 1; }
git diff --exit-code BENCH_fleet_faults.json \
    || { echo "BENCH_fleet_faults.json is out of date: commit the regenerated artifact"; exit 1; }

echo "==> adversary_sweep bench (smoke run: every profile under the full oracle, fails on unshrunk violations)"
V10_BENCH_SMOKE=1 \
    V10_BENCH_JSON_OUT="$PWD/BENCH_adversary.json" \
    cargo bench -q -p v10-bench --bench adversary_sweep > /dev/null
grep -q '"schema": "v10-adversary/1"' BENCH_adversary.json \
    || { echo "BENCH_adversary.json missing adversary schema marker"; exit 1; }
git diff --exit-code BENCH_adversary.json \
    || { echo "BENCH_adversary.json is out of date: commit the regenerated artifact"; exit 1; }

echo "==> examples (smoke tests)"
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "--> example $name"
    cargo run -q --release --example "$name" > /dev/null
done

echo "CI OK"
