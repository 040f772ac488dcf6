#!/usr/bin/env bash
# Code lines per crate and in total: Rust lines under crates/*/src that are
# not blank, not `//` comments (doc comments included) and not inside a
# file's trailing `#[cfg(test)]` module (or in a file that is one:
# `#![cfg(test)]`). This is the number ROADMAP's "smaller" is judged by;
# tests, benches, examples and bench/ are not in it.
set -euo pipefail
cd "$(dirname "$0")/.."

for src in crates/*/src; do
    find "$src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$(dirname "$src")")" '
        FNR == 1 { in_tests = 0 }
        /^#!?\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*($|\/\/)/ { next }
        { n++ }
        END { printf "%-16s %6d\n", crate, n }'
done | sort -k2,2nr | awk '{ print; total += $2 } END { printf "%-16s %6d\n", "total", total }'
