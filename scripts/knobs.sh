#!/usr/bin/env bash
# Knob census: every `pub` field of the structs a caller configures a pass
# with, its value in the struct's `Default` impl, and every line of non-test
# code that writes it. Non-test code is what scripts/unrun.sh scans:
# crates/*/src (bins included) and bench/src, minus `//` comment lines and
# minus each file's trailing `#[cfg(test)]` module.
#
# A write is a struct-literal field (`name: value` or the shorthand
# `name,`), an assignment (`.name = value`) or a builder call with an
# argument (`.name(x)`, or `.setter(x)` for a builder setter of another
# name that assigns the field, such as `.ledger(true)` for
# `record_ledger`). Not counted: the struct's own definition, every
# `Default` impl, the named constructor of a struct without one, every line
# of a `…Builder` struct and of its `impl` blocks (a builder forwards what
# its caller sets), a parameter or binding typed `name: usize` / `&T` /
# `Option<T>` / …, a destructuring `let S { name, .. } = …` and the elements
# of an array literal. A name-occurrence scan, coarse on purpose: a field
# sharing its name with another struct's field shows that one's lines too.
# Read the lines.
#
# The ROADMAP rule it reports on: a knob no non-test code sets to another
# value than its default is a constant (EXPERIMENTS.md, "Knob census").
# Report stage of scripts/ci.sh, not a gate: always exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."

# STRUCT FILE [CONSTRUCTOR]: the constructor whose values are the defaults,
# `impl Default for STRUCT` when none is named.
structs=(
    "AimConfig crates/aim-core/src/session.rs"
    "ValidationConfig crates/aim-core/src/validate.rs"
    "CandidateGenConfig crates/aim-core/src/candidates.rs"
    "SelectionConfig crates/aim-monitor/src/selection.rs"
    "FleetConfig crates/aim-core/src/fleet.rs"
    "CostModel crates/aim-exec/src/cost.rs"
    "ContinuousTuner crates/aim-core/src/continuous.rs with_session"
)

# A builder: its struct and every `impl` block of it, to the closing brace
# at column 0.
builder_re='^((pub )?struct|impl(<[^>]*>)?( [A-Za-z0-9_:<>]+ for)?) [A-Za-z0-9_]*Builder[ <{]'

# FILE:LINE:TEXT for every line of non-test code outside a destructuring,
# an array literal (its elements are values, not fields), a `Default` impl
# (any struct's: its values are defaults, not writes) and a builder.
nontest=$(find crates/*/src bench/src -name '*.rs' -print0 | sort -z | xargs -0 awk -v builder="$builder_re" '
    FNR == 1 { in_tests = 0; in_let = 0; in_array = 0; in_default = 0; in_builder = 0 }
    /^#!?\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*($|\/\/)/ { next }
    $0 ~ builder { in_builder = 1 }
    in_builder { if (/^}/) in_builder = 0; next }
    /^[[:space:]]*let [A-Z][A-Za-z]* \{$/ { in_let = 1 }
    in_let { if (/^[[:space:]]*\} = /) in_let = 0; next }
    /^impl Default for / { in_default = 1 }
    in_default { if (/^}/) in_default = 0; next }
    / = \[$/ { in_array = 1 }
    in_array { if (/^[[:space:]]*\];/) in_array = 0; next }
    { print FILENAME ":" FNR ":" $0 }')

# SETTER FIELD for every builder setter that assigns a field of another
# name (`fn ledger(…)` … `self.cfg.record_ledger = record;`).
setters=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk -v builder="$builder_re" '
    FNR == 1 { on = 0 }
    $0 ~ builder && /^impl/ { on = 1; next }
    on && /^}/ { on = 0 }
    on && match($0, /fn [a-z_0-9]+\(/) { setter = substr($0, RSTART + 3, RLENGTH - 4) }
    on && match($0, /self\.(cfg\.)?[a-z_0-9]+ = /) {
        field = substr($0, RSTART + 5, RLENGTH - 8); sub(/^cfg\./, "", field)
        if (field != setter) print setter, field
    }')

fields_total=0
unwritten_total=0
for entry in "${structs[@]}"; do
    read -r name file ctor <<<"$entry"
    if [[ -n "$ctor" ]]; then
        ctor_re="fn $ctor\\("
    else
        ctor_re="^impl Default for $name \\{"
    fi
    # `pub` fields of the struct, in declaration order.
    mapfile -t fields < <(awk -v s="$name" '
        $0 ~ "^pub struct " s " \\{" { on = 1; next }
        on && /^}/ { exit }
        on && match($0, /^    pub [a-z_0-9]+:/) {
            f = substr($0, RSTART + 8, RLENGTH - 9); print f
        }' "$file")
    # Lines of its constructor, to leave out as writers.
    read -r d_from d_to < <(awk -v re="$ctor_re" '
        !on && $0 ~ re { from = FNR; on = 1; indent = match($0, /[^ ]/) }
        on && FNR > from && match($0, /[^ ]/) == indent && /^ *}/ {
            print from, FNR; found = 1; exit
        }
        END { if (!found) print 0, 0 }' "$file")
    echo "== $name ($file): ${#fields[@]} pub fields"
    # A derived `Default` has no lines to read the values from.
    [[ $d_from == 0 ]] && unread=derived || unread=-
    for f in "${fields[@]}"; do
        fields_total=$((fields_total + 1))
        default=$(awk -v from="$d_from" -v to="$d_to" -v f="$f" '
            FNR > from && FNR < to && $0 ~ "^ +" f "[:,]" {
                sub("^ +", ""); sub("^" f ": *", ""); sub(/,$/, ""); print; exit
            }' "$file")
        calls="\\.$f\\([^)]"
        for setter in $(awk -v f="$f" '$2 == f { print $1 }' <<<"$setters"); do
            calls+="|\\.$setter\\([^)]"
        done
        writers=$(grep -E "(^|[^a-z_0-9.])$f: |^[^:]*:[0-9]+: *$f,\$|\.$f = |$calls" <<<"$nontest" |
            grep -vE "pub $f:|fn $f\(|$f: (&|impl |(usize|u64|u32|i64|f64|bool|String|Option<|Vec<)[^a-zA-Z_:])" |
            awk -F: -v file="$file" -v from="$d_from" -v to="$d_to" '
                !($1 == file && $2 >= from && $2 <= to)' || true)
        if [[ -z "$writers" ]]; then
            unwritten_total=$((unwritten_total + 1))
            printf '  %-28s default %-32s no non-test writer\n' "$f" "${default:-$unread}"
        else
            printf '  %-28s default %-32s %d non-test writer line(s)\n' \
                "$f" "${default:-$unread}" "$(wc -l <<<"$writers")"
            sed -E 's/^([^:]*:[0-9]+): */      \1  /' <<<"$writers"
        fi
    done
done
echo "== $fields_total fields, $unwritten_total with no non-test writer"
