#!/usr/bin/env bash
# Public surface nothing runs: every `pub fn` / `pub(crate) fn` under
# crates/*/src whose name occurs nowhere in non-test code except at its own
# definition. Non-test code is what `cargo test` or `aim-e2e` reaches through
# a non-test caller: crates/*/src (bins included) and bench/src, minus `//`
# comment lines (a doc example is a test), minus `pub use` re-exports and
# minus each file's trailing `#[cfg(test)]` module — the cut scripts/loc.sh
# makes. A name-occurrence
# scan, coarse on purpose: a name shared with a trait method, a field or
# another type's method is never reported. What it reports is either deleted
# or listed in scripts/unrun.allow with the rule that keeps it.
#
# Report stage of scripts/ci.sh: prints the names that are neither referenced
# nor allowed, and the allowed ones that are referenced after all or gone
# (stale entries); exits non-zero if there is either.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/unrun.allow
report=$(find crates/*/src bench/src -name '*.rs' -print0 | sort -z | xargs -0 awk -v allow="$allow" '
    BEGIN {
        while ((getline line < allow) > 0) {
            sub(/#.*/, "", line)
            if (split(line, f, " ") > 0) allowed[f[1]] = 1
        }
    }
    FNR == 1 { in_tests = 0 }
    /^#!?\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*($|\/\/)/ { next }
    # A re-export is not a caller.
    /^[[:space:]]*pub use / { in_use = 1 }
    in_use { if (/;/) in_use = 0; next }
    {
        line = $0
        if (FILENAME ~ /^crates\// &&
            match(line, /pub(\(crate\))? (const )?fn [a-z_0-9]+/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", name)
            if (!(name in where)) where[name] = FILENAME ":" FNR
        }
        # Every identifier of the line that is not the name after `fn `.
        prev = ""
        while (match(line, /[A-Za-z_][A-Za-z_0-9]*/)) {
            id = substr(line, RSTART, RLENGTH)
            if (prev != "fn") refs[id]++
            prev = id
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END {
        for (name in where) {
            scanned++
            if (refs[name] > 0) continue
            if (name in allowed) { kept++; used[name] = 1 }
            else printf "1 %-36s %s\n", name, where[name]
        }
        for (name in allowed) if (!(name in used)) print "2 " name
        printf "0 unrun: %d pub fns scanned, %d kept by %s\n", scanned, kept, allow
    }' | sort)

sed -n 's/^0 //p' <<< "$report"
if grep -q '^1 ' <<< "$report"; then
    echo "referenced by tests only (delete, or add to $allow with the rule that keeps it):"
    sed -n 's/^1 /  /p' <<< "$report"
fi
if grep -q '^2 ' <<< "$report"; then
    echo "on $allow but referenced by non-test code, or gone (remove the entry):"
    sed -n 's/^2 /  /p' <<< "$report"
fi
! grep -q '^[12] ' <<< "$report"
