#!/usr/bin/env bash
# The benchmark's one command. Builds the package in release mode, then:
#
#   run.sh                       every workload at its full fixed op count,
#                                untraced, then the traced run (--traced)
#   run.sh --smoke               all four workloads at 1/50 scale, untraced
#                                and traced, for CI and pre-commit use
#   run.sh --traced              only the traced runs, at 1/10 scale
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                one run of one workload, measured for S
#                                seconds; the last line of output is one
#                                JSON object (the form BENCHMARK.json's
#                                driver calls)
#
# Every metric is printed as `workload/metric value unit`; lines starting
# with `#` are diagnostics. The exit code is non-zero when a result
# disagreed with the reference model, a metric is missing, or the
# driver's own share of the window reached 5 %.
#
# Environment: OUT (default benchmark/out) receives the probe output and
# trace_<workload>.jsonl; CARGO_TARGET_DIR is honoured.
set -euo pipefail

cd "$(dirname "$0")/.."
# The builder's default engine is what is measured.
unset LOCUS_ENGINE
OUT="${OUT:-benchmark/out}"
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release"
WORKLOADS=(mixed_64 scale_read_512 write_share_64 reconfig_32)

build() { # build <bin>
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin "$1" >&2
}

untraced() { # untraced <workload> <seed> <extra args...>
    local w="$1" seed="$2"
    shift 2
    "$BIN/lbench" --workload "$w" --seed "$seed" --trace 0 "$@"
}

# The traced run is two programs: the layer probes, which time single
# layers through APIs a later change may remove, and the driver, whose
# spans and counters give the rest. The driver merges the probe lines.
traced() { # traced <workload> <seed> <warm-up scale> <extra args...>
    local w="$1" seed="$2" wscale="$3"
    shift 3
    mkdir -p "$OUT"
    "$BIN/lprobe" --workload "$w" --seed "$seed" --warmup-scale "$wscale" >"$OUT/probes_$w.txt"
    "$BIN/lbench" --workload "$w" --seed "$seed" --trace 1 --warmup-scale "$wscale" \
        --probes "$OUT/probes_$w.txt" --out "$OUT" "$@"
}

# Fixed op counts, seed 1: <untraced scale, 0 = skip> <traced scale>
# <warm-up scale> <set-ups per untraced run>.
pass() {
    local scale="$1" tscale="$2" wscale="$3" setups="$4" failed=0
    build lbench
    build lprobe
    for w in "${WORKLOADS[@]}"; do
        if [ "$scale" != 0 ]; then
            untraced "$w" 1 --scale "$scale" --warmup-scale "$wscale" --setups "$setups" || failed=1
        fi
        traced "$w" 1 "$wscale" --scale "$tscale" || failed=1
    done
    return "$failed"
}

case "${1:-}" in
"") pass 1 10 1 3 ;;
--smoke) pass 50 50 50 1 ;;
--traced) pass 0 10 1 1 ;;
*)
    workload="" seed=1 seconds="" trace=0
    while [ $# -gt 0 ]; do
        case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        *)
            echo "run.sh: unknown argument $1" >&2
            exit 2
            ;;
        esac
        shift 2
    done
    if [ -z "$workload" ] || [ -z "$seconds" ]; then
        echo "run.sh: --workload and --seconds are required" >&2
        exit 2
    fi
    build lbench
    if [ "$trace" = 1 ]; then
        build lprobe
        traced "$workload" "$seed" 1 --seconds "$seconds"
    else
        untraced "$workload" "$seed" --seconds "$seconds"
    fi
    ;;
esac
