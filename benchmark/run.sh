#!/usr/bin/env bash
# The one command: build the benchmark, run each workload in its own
# process, print every metric by name with its unit and bound, and (with
# --out) write the result file.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--quick] [--out FILE]
#   benchmark/run.sh compare A.json B.json
#
# Without --workload all four run, one after the other. --trace 1 is the
# per-layer run; with --out it also appends its spans to FILE.spans.tsv.
# --quick shrinks the grids and runs the fewest trials, a smoke test of
# seconds whose numbers are not comparable. `compare` holds result file B
# against A by the benchmark's bounds (see README.md).
#
# Run from the root of the repository or of a checkout of it. The last line
# printed for each workload is that run's result as one JSON object.
set -euo pipefail

here="$(dirname "$0")"
root="$here/.."
[ -f "$root/Cargo.toml" ] || { echo "run.sh: $root is not the repository" >&2; exit 2; }

# The benchmark is a package outside the workspace, so Cargo does not read
# the root manifest's [profile.release] for it. Hand that table over key by
# key: the benchmark is built the way the workspace ships.
while IFS='=' read -r key value; do
    export "CARGO_PROFILE_RELEASE_$key=$value"
done < <(awk -F' *= *' '
    /^\[/ { on = ($0 == "[profile.release]") }
    on && NF == 2 { k = toupper($1); gsub("-", "_", k); gsub("\"", "", $2); print k "=" $2 }
' "$root/Cargo.toml")

# A relative CARGO_TARGET_DIR is relative to the directory cargo runs in,
# which is this shell's.
: "${CARGO_TARGET_DIR:=$root/.bench_build}"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/parfact-benchmark"
[ "${1:-}" = compare ] && exec "$bin" "$@"

workload=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --quick) args+=("$1"); shift ;;
        --seed | --seconds | --trace | --out) args+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

PARFACT_BENCH_RUSTC="$(rustc --version)"
PARFACT_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PARFACT_BENCH_RUSTC PARFACT_BENCH_COMMIT

for w in ${workload:-$("$bin" list)}; do
    "$bin" --workload "$w" "${args[@]}"
done
