#!/usr/bin/env sh
# Non-test source lines per crate: the lines of every `src/**/*.rs` outside
# its `#[cfg(test)]` items, summed per crate, then the workspace total. An
# item runs from its `#[cfg(test)]` line to its first `;` outside any
# bracket or the `}` that closes its body (the same rule `parfact-lint`'s
# R7 uses for test code), so a test helper in the middle of a file skips
# only itself. This is the number a change quotes when it claims to make a
# crate smaller; run it before and after.
#
#   scripts/loc.sh

set -eu

cd "$(dirname "$0")/.."

total=0
for src in crates/*/src src; do
    n=$(find "$src" -name '*.rs' -exec awk '
        # Scan `s` for the end of the skipped item; 1 when it ends here.
        function ends(s,    i, c) {
            sub(/\/\/.*/, "", s)
            for (i = 1; i <= length(s); i++) {
                c = substr(s, i, 1)
                if (c == "(" || c == "[" || c == "{") depth++
                else if (c == ")" || c == "]") depth--
                else if (c == "}") { if (--depth == 0) return 1 }
                else if (c == ";" && depth == 0) return 1
            }
            return 0
        }
        FNR == 1 { skip = 0 }
        !skip && /^[ \t]*#\[cfg\(test\)\]/ {
            depth = 0
            s = $0
            sub(/^[ \t]*#\[cfg\(test\)\]/, "", s)
            skip = !ends(s)
            next
        }
        skip { skip = !ends($0); next }
        { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-20s %6d\n' "$src" "$n"
    total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
