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

echo "== cargo fmt --all --check"
# The tree is rustfmt-clean; a diff here is formatting drift. bench/ is its
# own package outside the workspace and is not formatted by this stage.
cargo fmt --all --check

echo "== cargo build --release"
cargo build --release

echo "== cargo build --release --offline --manifest-path bench/Cargo.toml"
# The frozen end-to-end harness (bench/, its own package outside the
# workspace) calls the public API of aim-core and its neighbours. Building
# it here, before the tests, makes a change that breaks an API it uses fail
# first instead of after the whole suite and clippy.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
    cargo build --release --offline --manifest-path bench/Cargo.toml

echo "== cargo test -q --no-fail-fast"
# --no-fail-fast: one red test binary must not hide the ones after it.
cargo test -q --no-fail-fast

echo "== release-profile count pins"
# The count tests pin a release build's numbers beside the test profile's,
# and the run above checks only the test profile's. `alloc_budget` holds
# the same numbers in both. `validation_counts` pins the same numbers in
# both too; a release build answers reused statements without executing
# them (`validate::audited` runs only with debug assertions), so this is
# the run that checks the validation memo as it ships. The test profile's
# `planning_counts` bound counts the what-if audit; this run holds
# ranking's bound to the path as it ships. `exec_golden` holds the join's
# shortcuts (a kept full scan probed by its key, an index entry tested
# before its row is fetched) and the streamed index-ordered LIMIT (a probe
# read stopped at the limit, charged for what it read, its page touches
# pinned by the four-frame pool's faults) to the executor golden as they
# ship, without the debug audits that re-derive what each skipped.
cargo test --release -q -p aim-integration --test clone_counts --test storage_counts \
    --test alloc_budget --test validation_counts --test planning_counts --test exec_golden

echo "== pager proofs at stride 1 (release)"
# The test profile flips every 61st bit of a sealed page and of a WAL
# record; a release build flips every bit (DESIGN.md §9, the checksum's
# proof obligation). About 2 s.
cargo test --release -q -p aim-storage --lib pager

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace --offline"
# A doc link to a private item, or one that names two items, is a warning
# rustdoc prints and no other stage fails on; here it fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== code lines per crate (report, not a gate)"
scripts/loc.sh

echo "== knob census (report, not a gate)"
# Every pub field of the pass's configuration structs, its default and the
# non-test lines that write it: a knob nothing sets is a constant.
scripts/knobs.sh

echo "== pub fns only tests reach (gate: nothing ships unrun)"
# Fails on any `pub fn` only tests reach that scripts/unrun.allow does not
# name, and on a stale allow entry: delete the function, or add it there
# with the rule that keeps it.
scripts/unrun.sh

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
