#!/usr/bin/env bash
# A/A check: two full sets of the same build, then `compare` holds the
# second against the first by the benchmark's own bounds. A set is every
# workload end to end under ten seeds and traced once. `compare` takes the
# median of the ten reported values and their quartile spread over that
# median, which is how the benchmark itself is accepted: for an unchanged
# program every spread must stay within its metric's bound, and so must the
# second set's median against the first's. What it prints is the noise
# floor of this host.
#
#   benchmark/aa.sh [--seeds N] [--seconds S] [DIR]
#
# Writes DIR/set-a.json and DIR/set-b.json (default benchmark/baseline) with
# their span dumps beside them. Exit status is that of `compare`: non-zero
# also when a metric is unresolved.
set -euo pipefail

here="$(dirname "$0")"
dir="$here/baseline"
seeds=10
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seeds) seeds="$2"; shift 2 ;;
        --seconds) args+=("$1" "$2"); shift 2 ;;
        *) dir="$1"; shift ;;
    esac
done
mkdir -p "$dir"

# Set B's seeds follow set A's: the claim is about the program, not a seed.
seed=0
for set in a b; do
    rm -f "$dir/set-$set.json" "$dir/set-$set.json.spans.tsv"
    for _ in $(seq "$seeds"); do
        seed=$((seed + 1))
        "$here/run.sh" --out "$dir/set-$set.json" --seed "$seed" "${args[@]}"
    done
    "$here/run.sh" --out "$dir/set-$set.json" --trace 1 "${args[@]}"
done

"$here/run.sh" compare "$dir/set-a.json" "$dir/set-b.json"
