#!/usr/bin/env bash
# Workspace CI gate: release build, full test suite, lint-clean clippy, the
# end-to-end benchmark's correctness gates, and a tree no gate wrote into.
set -euo pipefail
cd "$(dirname "$0")/.."

# What git sees before the run: the gates below write only to ignored
# places (target/, bench/out/), and the last check holds them to it — the
# test suite included, which runs every experiment of the paper
# (`paper_claims`) and `aim_cli` itself (`cli`). results/ has one writer,
# scripts/figures.sh, and it is not part of this gate.
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

echo "== pub fns only tests reach (report, not a gate)"
# Anything listed is new dead surface: delete it, or add it to
# scripts/unrun.allow with the rule that keeps it.
scripts/unrun.sh || true

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
