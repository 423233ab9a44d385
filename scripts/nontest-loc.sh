#!/usr/bin/env bash
# Non-test lines of Rust per crate: for every file under a crate's src/,
# the lines above its first `#[cfg(test)]` (or `#[cfg(all(test, ...))]`)
# attribute, i.e. everything but the trailing test modules. This is the
# count ROADMAP.md's "Shrink the column engine" item tracks.
# Informational: prints a table, enforces nothing.
#
# usage: scripts/nontest-loc.sh [crate-dir ...]
#   no arguments: one line per crate under crates/
#   with arguments: those crates, one line per file as well
set -euo pipefail
cd "$(dirname "$0")/.."

per_file=$#
[ $# -gt 0 ] || set -- crates/*

total=0
for crate in "$@"; do
    [ -d "$crate/src" ] || continue
    sum=0
    while IFS= read -r f; do
        n=$(awk '/^[[:space:]]*#\[cfg\((all\()?test/ { exit } { n++ } END { print n + 0 }' "$f")
        sum=$((sum + n))
        [ "$per_file" -eq 0 ] || printf '  %6d  %s\n' "$n" "$f"
    done < <(find "$crate/src" -name '*.rs' | sort)
    printf '%6d  %s\n' "$sum" "$crate"
    total=$((total + sum))
done
printf '%6d  total\n' "$total"
