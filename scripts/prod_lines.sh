#!/bin/sh
# Print the production Rust line count: every `.rs` file under
# `crates/*/src` and `src`, counted up to (not including) its first
# `#[cfg(test)]` line. With `-v`, print each file's count before the total.
#
# Usage: scripts/prod_lines.sh [-v]   (run from the repository root)
set -eu
v=0
[ "${1:-}" = "-v" ] && v=1
find crates/*/src src -name '*.rs' | LC_ALL=C sort | xargs awk -v v="$v" '
    function report() { t += n; if (v) printf "%6d %s\n", n, f }
    FNR == 1 { if (f != "") report(); f = FILENAME; n = 0; skip = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++ }
    END { report(); print t }
'
