#!/usr/bin/env sh
# Non-test source lines per crate: the lines of every `src/**/*.rs` above
# its first `#[cfg(test)]` (the whole file when it has none), summed per
# crate, then the workspace total. This is the number a change quotes when
# it claims to make a crate smaller; run it before and after.
#
#   scripts/loc.sh

set -eu

cd "$(dirname "$0")/.."

total=0
for src in crates/*/src src; do
    n=$(find "$src" -name '*.rs' -exec awk '
        FNR == 1 { intest = 0 }
        /^#\[cfg\(test\)\]/ { intest = 1 }
        !intest { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-20s %6d\n' "$src" "$n"
    total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
