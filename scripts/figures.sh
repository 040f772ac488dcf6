#!/usr/bin/env bash
# Regenerates the recorded tables under results/ — the only writer of that
# directory. Each file is the stdout of one printer at full scale; the
# printers write no file themselves, and `cargo test -p aim-bench --test
# paper_claims` asserts the paper's claims on the same functions at the
# `quick` scale. Everything is seeded: a rerun changes nothing but fig4's
# `runtime_s` column (wall clock). A few minutes on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p aim-bench
bin="${CARGO_TARGET_DIR:-target}/release"
mkdir -p results
"$bin/table2" > results/table2.txt
"$bin/fig3" > results/fig3.csv
for benchmark in tpch job tpcds; do
    "$bin/fig4" "$benchmark" > "results/fig4_$benchmark.csv"
done
"$bin/fig5" > results/fig5.csv
"$bin/fig6" > results/fig6.csv
"$bin/continuous" > results/continuous.csv
