#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree: the
# procedure a performance claim rests on (choosing-metrics §8).
#
#   scripts/pairs.sh PARENT_REF WORKLOAD[,WORKLOAD...]|all [SEED=7] [PAIRS=10]
#
# Exports PARENT_REF into a scratch checkout, refuses to run unless
# BENCHMARK.json and bench/ are byte-identical on both sides, builds each
# side once into its own CARGO_TARGET_DIR, then for each workload in turn
# (`all`: those of BENCHMARK.json) runs PAIRS alternating pairs of
# `bench/run.sh --workload W --seed S --seconds 16 --trace 0`; which side
# goes first flips each pair. Every result line is kept, and for each
# end-to-end metric of BENCHMARK.json the report gives each side's median
# [q1, q3], the pairs the change won and a verdict, then failed/attempted
# per side.
#
# The verdict is choosing-metrics §8's: `gain` when the change wins at
# least nine tenths of the pairs and the medians are further apart than the
# parent's q3 - q1; otherwise `unresolved` when either side's q3 - q1 is a
# larger share of its median than the metric's bound in BENCHMARK.json
# (unless every run of the change reads better than every run of the
# parent), `regressed` when the change's median is worse than the parent's
# by more than the bound, and `within bound` when it is not.
#
# The scratch directory is $PAIRS_DIR (default ${TMPDIR:-/tmp}/aim-pairs):
# parent/, target-parent/, target-change/ and one .jsonl per side, workload
# and seed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
    echo "usage: scripts/pairs.sh PARENT_REF WORKLOAD[,WORKLOAD...]|all [SEED=7] [PAIRS=10]" >&2
    exit 2
fi
parent_ref="$1"
if [[ "$2" == all ]]; then
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
else
    IFS=, read -r -a workloads <<<"$2"
fi
seed="${3:-7}"
pairs="${4:-10}"
scratch="${PAIRS_DIR:-${TMPDIR:-/tmp}/aim-pairs}"

# Identical benchmark code on both sides, tracked and untracked.
if ! git diff --quiet "$parent_ref" -- BENCHMARK.json bench ||
    [[ -n "$(git ls-files --others --exclude-standard -- BENCHMARK.json bench)" ]]; then
    echo "pairs: BENCHMARK.json or bench/ differs from $parent_ref; a change that claims a gain may not edit the benchmark" >&2
    exit 1
fi

mkdir -p "$scratch"
rm -rf "$scratch/parent"
mkdir "$scratch/parent"
git archive "$parent_ref" | tar -x -C "$scratch/parent"

declare -A root=([parent]="$scratch/parent" [change]="$PWD")
for side in parent change; do
    echo "pairs: building $side" >&2
    CARGO_TARGET_DIR="$scratch/target-$side" cargo build --release --offline --quiet \
        --manifest-path "${root[$side]}/bench/Cargo.toml" >&2
done

run() { # side workload -> appends the run's result line to the side's file
    local side="$1" workload="$2"
    CARGO_TARGET_DIR="$scratch/target-$side" "${root[$side]}/bench/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 16 --trace 0 2>/dev/null |
        tail -n 1 >>"$scratch/$side.$workload.$seed.jsonl"
}

status=0
for workload in "${workloads[@]}"; do
    : >"$scratch/parent.$workload.$seed.jsonl"
    : >"$scratch/change.$workload.$seed.jsonl"
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            run "$side" "$workload"
        done
        echo "pairs: $workload seed $seed pair $((i + 1))/$pairs done" >&2
    done

    echo "== $workload seed $seed: $pairs pairs, parent $parent_ref vs working tree"
    jq -r -n \
        --slurpfile parent "$scratch/parent.$workload.$seed.jsonl" \
        --slurpfile change "$scratch/change.$workload.$seed.jsonl" \
        --slurpfile bench BENCHMARK.json '
        def quantile($p): sort as $s | ((($s | length) - 1) * $p) as $pos
            | ($pos | floor) as $lo | ($pos | ceil) as $hi
            | $s[$lo] + ($s[$hi] - $s[$lo]) * ($pos - $lo);
        def r: if . >= 1000 then round else (. * 1000000 | round) / 1000000 end;
        def iqr: quantile(0.75) - quantile(0.25);
        def spread: "\(quantile(0.5) | r) [\(quantile(0.25) | r), \(quantile(0.75) | r)]";
        def tally: "\(map(.failed) | add)/\(map(.attempted) | add) failed/attempted, \(map(select(.correct | not)) | length) incorrect";
        ($bench[0].end_to_end[] | . as $m
            | (if $m.better == "higher" then 1 else -1 end) as $sign
            | [$parent[] | .metrics[$m.name].value] as $p
            | [$change[] | .metrics[$m.name].value] as $c
            | [range(0; $p | length) | ($c[.] - $p[.]) * $sign] as $gain
            | ($gain | map(select(. > 0)) | length) as $won
            | ($p | quantile(0.5)) as $pm | ($c | quantile(0.5)) as $cm
            # By how much of the parent median the change median is worse.
            | (if $pm == 0 then 0 else ($pm - $cm) * $sign / ($pm | fabs) end) as $worse
            | ([$p, $c] | map(if quantile(0.5) == 0 then 0 else iqr / (quantile(0.5) | fabs) end) | max) as $noise
            | (([$c[] * $sign] | min) > ([$p[] * $sign] | max)) as $all_better
            | (if $won * 10 >= ($p | length) * 9 and ($cm - $pm) * $sign > ($p | iqr) then "gain"
               elif $noise > $m.bound and ($all_better | not) then "unresolved"
               elif $worse > $m.bound then "regressed"
               else "within bound" end) as $verdict
            | "\($m.name) (\($m.unit), \($m.better) is better, bound \($m.bound))\n  parent \($p | spread)\n  change \($c | spread)\n  change/parent \(if $pm == 0 then "-" else $cm / $pm | r end)  won \($won) lost \($gain | map(select(. < 0)) | length) of \($p | length)  => \($verdict)"),
        "parent: \($parent | tally)",
        "change: \($change | tally)"'

    if jq -e -s 'any(.[]; .correct | not)' \
        "$scratch/parent.$workload.$seed.jsonl" "$scratch/change.$workload.$seed.jsonl" >/dev/null; then
        echo "pairs: a run of $workload failed a correctness gate" >&2
        status=1
    fi
done
exit "$status"
