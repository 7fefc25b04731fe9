#!/bin/sh
# Counts the non-test Rust lines under crates/, the figure every change
# reports: for each source file, the lines before its first `#[cfg(test)]`
# that starts in column 0 (the whole file if it has none).  An indented
# `#[cfg(test)]` marks a test-only item inside the code and does not end the
# count.  Integration tests (crates/*/tests/) are not counted.
#
# Usage: scripts/nontest_lines.sh [--files]
#   Prints one line per crate and the total; with --files, one line per
#   file instead, to compare two checkouts file by file.
set -eu
cd "$(dirname "$0")/.."
find crates -name '*.rs' ! -path 'crates/*/tests/*' | LC_ALL=C sort | xargs awk -v files="${1:-}" '
    FNR == 1 { split(FILENAME, part, "/"); counting = 1; order[++nfiles] = FILENAME; n[FILENAME] = 0 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { n[FILENAME]++; crate[part[2]] += 1; total++ }
    END {
        if (files == "--files") {
            for (i = 1; i <= nfiles; i++) printf "%6d %s\n", n[order[i]], order[i]
        } else {
            for (i = 1; i <= nfiles; i++) {
                split(order[i], part, "/")
                if (!(part[2] in shown)) { shown[part[2]] = 1; printf "%6d %s\n", crate[part[2]], part[2] }
            }
        }
        printf "%6d total\n", total
    }'
