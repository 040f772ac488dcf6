#!/usr/bin/env bash
# Builds the benchmark and runs it. From anywhere:
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is its result. This is
#       what BENCHMARK.json's command does.
#   bench/run.sh [full|smoke] [NAME]
#       a set: the four workloads untraced, then traced, every metric by name
#       on standard error, reports in bench/out/ and all of them together in
#       bench/out/NAME.json. Exits non-zero when a correctness gate fails.
#       SEED (default 7) is the workload seed and rotates the order.
#   bench/run.sh verify | compare A.json B.json
#       the subcommands of aim-e2e.
set -euo pipefail
cd "$(dirname "$0")/.."

# The driver names the target directory; by hand it is the repository's own.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/aim-e2e"

case "${1:-full}" in
--*) exec "$bin" run "$@" ;;
verify | compare) exec "$bin" "$@" ;;
full) size=full seconds=16 ;;
smoke) size=smoke seconds=1 ;;
*)
    echo "usage: bench/run.sh [full|smoke] [NAME] | --workload NAME ... | verify | compare A B" >&2
    exit 2
    ;;
esac

name="${2:-${1:-full}}"
seed="${SEED:-7}"
out=bench/out
workloads=(tpch_validate prod_advise ingest_stream disk_oltp)
reports=()
status=0
for trace in 0 1; do
    for i in 0 1 2 3; do
        w="${workloads[$(((seed + i) % 4))]}"
        rm -f "$out/$w.trace$trace.json"
        "$bin" run --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            --size "$size" --out "$out" >/dev/null || status=1
        reports+=("$out/$w.trace$trace.json")
    done
done

{
    printf '{"runs": ['
    sep=''
    for r in "${reports[@]}"; do
        [[ -f "$r" ]] || continue
        printf '%s' "$sep"
        cat "$r"
        sep=', '
    done
    printf ']}\n'
} >"$out/$name.json"
echo "wrote $out/$name.json" >&2
exit "$status"
