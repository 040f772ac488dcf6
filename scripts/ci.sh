#!/usr/bin/env bash
# Workspace CI gate: release build, full test suite, lint-clean clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

# What git sees before the run: the gates below write only to ignored
# places (target/, bench/out/), and the last check holds them to it.
tree_before=$(git status --porcelain)

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q --no-fail-fast"
# --no-fail-fast: one red test binary must not hide the ones after it.
cargo test -q --no-fail-fast

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== code lines per crate (report, not a gate)"
scripts/loc.sh

echo "== chaos smoke (fault-injection resilience gate)"
# Seeded fault schedule through the continuous tuning loop; exits non-zero on
# a consistency violation, a leaked partial pass, or disarmed-run divergence.
./target/release/chaos_smoke

echo "== explain smoke (explainability & introspection gate)"
# Validates the ExplainPlan JSON contract from a live `aim_cli explain` run,
# then exercises the introspection endpoint lifecycle (/metrics quantiles,
# /ledger chain, /profile, 404, shutdown port release).
./target/release/aim_cli explain --json demo \
    "SELECT id FROM orders WHERE customer_id = 7" \
    | ./target/release/explain_smoke

echo "== storage smoke (disk-engine durability & costing gate)"
# Runs the full bench_storage harness in smoke mode against a scratch
# directory: memory-vs-disk result equality, crash/reopen durability with
# index survival, buffer-pool + WAL traffic, and est-vs-actual page error.
./target/release/bench_storage smoke

echo "== fleet smoke (fleet-scale budget-allocation gate)"
# Tunes a 12-tenant Zipf-skewed fleet through the FleetSession driver:
# every tenant must converge, the fleet-level knapsack split must not lose
# to the uniform per-shard split, budget must actually move beyond the
# uniform share, and the emitted artifact must be well-formed JSON
# (validated in-process via aim_telemetry::jsonv).
./target/release/bench_fleet smoke

echo "== aim-e2e smoke + verify (end-to-end benchmark gate)"
# Builds bench/ (its own package, same target directory) and runs the four
# workloads at a tenth of their size, untraced then traced: exits non-zero
# when a correctness gate fails (passes repeat, staged pass == session,
# no template regressed, disk == memory, crash recovery, ingest
# conservation, no failed operation). `verify` then runs every workload
# twice per seed and requires the count metrics, the generated inputs and
# the gates to repeat bit for bit. Timings from a smoke run mean nothing;
# `bench/run.sh full` and `compare` are for measuring.
bench/run.sh smoke
bench/run.sh verify

echo "== aim-e2e unit tests (BENCHMARK.json and bench/src/metrics.rs in step)"
# bench/ is outside the workspace, so `cargo test -q` above never reaches
# its tests; one of them fails when BENCHMARK.json and the metric
# definitions in bench/src/metrics.rs name different metrics.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
    cargo test --release --offline --quiet --manifest-path bench/Cargo.toml

echo "== clean tree (the run changed nothing git tracks or would add)"
tree_after=$(git status --porcelain)
if [ "$tree_after" != "$tree_before" ]; then
    echo "FAIL: the CI run changed the working tree:"
    diff <(echo "$tree_before") <(echo "$tree_after") | sed -n 's/^[<>] /  /p'
    exit 1
fi

echo "== ci: all checks passed"
