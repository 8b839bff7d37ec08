#!/usr/bin/env bash
# The repo benchmark's one command. Builds offline from this directory,
# then either runs one workload once (the form BENCHMARK.json names):
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# or the whole suite, one process per run:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--passes K] [--workload NAME]...
#                    [--traced] [--smoke] [--out FILE]
#   benchmark/run.sh compare A.json B.json
#
# --traced  runs every workload with --trace 1 as well (per-layer table,
#           layer-replay spans written next to the build).
# --smoke   2 s windows, one pass, traced and untraced: schema and
#           correctness only; the numbers mean nothing.
# --out     writes every run's result line into one JSON document for
#           `compare`.
#
# Exit status: 0 when every run was correct, 1 otherwise, 2 on usage.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(runtime-paced socket-paced runtime-flood socket-flood
           socket-trickle runtime-lossy socket-crash sim-scale)

# Build. --offline makes cargo fail instead of touching the network, and
# --locked makes it fail instead of re-resolving: the dependency code is
# exactly what Cargo.lock and shims/ say.
target="${CARGO_TARGET_DIR:-$here/target}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR="$target" CARGO_NET_OFFLINE=true
log="$target/seqnet-benchmark-build.log"
if ! cargo build --release --offline --locked \
        --manifest-path "$here/Cargo.toml" >"$log" 2>&1; then
    echo "benchmark: offline build failed (cargo may have wanted the network); log follows" >&2
    cat "$log" >&2
    exit 1
fi
bin="$target/release/seqnet-benchmark"

# The socket deployment's run directories go under the build directory,
# never the system temp dir; each run removes its own on exit.
export SEQNET_BENCH_TMP="$target/run-tmp"
export SEQNET_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export SEQNET_BENCH_GIT_SHA="$(git -C "$here/.." rev-parse HEAD 2>/dev/null || echo unknown)"

if [[ "${1:-}" == "compare" ]]; then
    [[ $# -eq 3 ]] || { echo "usage: run.sh compare A.json B.json" >&2; exit 2; }
    exec "$bin" compare "$here/../BENCHMARK.json" "$2" "$3"
fi

# One workload, once: hand the arguments straight through.
single=0
for arg in "$@"; do
    [[ "$arg" == "--trace" ]] && single=1
done
if (( single )); then
    exec "$bin" "$@"
fi

seed=1 seconds=10 passes=1 traced=0 out="" chosen=()
while (( $# )); do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --passes) passes="$2"; shift 2 ;;
        --workload) chosen+=("$2"); shift 2 ;;
        --traced) traced=1; shift ;;
        --smoke) seconds=2; passes=1; traced=1; shift ;;
        --out) out="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
(( ${#chosen[@]} )) && workloads=("${chosen[@]}")

status=0
results=()
provenance="{}"
run_one() { # workload seed trace
    local text line
    local extra=()
    if [[ "$3" == 1 ]]; then
        mkdir -p "$target/bench-out"
        extra=(--spans-out "$target/bench-out/spans-$1.json")
    fi
    if ! text="$("$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" ${extra[@]+"${extra[@]}"})"; then
        echo "benchmark: $1 (seed $2, trace $3) exited with an error" >&2
        status=1
        return
    fi
    printf '%s\n' "$text" | sed '$d'
    line="$(printf '%s\n' "$text" | tail -n 1)"
    provenance="$(printf '%s\n' "$text" | sed -n 's/^provenance: //p' | head -n 1)"
    [[ "$line" == '{"correct": true,'* ]] || { echo "benchmark: $1 (seed $2, trace $3) was NOT correct" >&2; status=1; }
    results+=("{\"workload\": \"$1\", \"seed\": $2, \"trace\": $3, ${line#\{}")
    echo
}
for (( pass = 0; pass < passes; pass++ )); do
    for w in "${workloads[@]}"; do
        run_one "$w" "$seed" 0
        (( traced )) && run_one "$w" "$seed" 1
    done
done

if [[ -n "$out" ]]; then
    {
        printf '{"provenance": %s,\n"runs": [\n' "$provenance"
        for (( i = 0; i < ${#results[@]}; i++ )); do
            (( i )) && printf ',\n'
            printf '%s' "${results[i]}"
        done
        printf '\n]}\n'
    } >"$out"
    echo "benchmark: ${#results[@]} runs written to $out"
fi
exit "$status"
