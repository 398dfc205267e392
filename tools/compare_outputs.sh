#!/usr/bin/env bash
# Compare the deterministic outputs of two build trees.
#
# Usage: tools/compare_outputs.sh BASE_BUILD NEW_BUILD
#        tools/compare_outputs.sh --list
#
# Runs the figure and table benches (fig5/6/7/8/9, table1,
# ablation_migration) and the five non-server examples in both trees,
# diffs their stdout and fig8's --json summary, and exits 1 on any
# difference (0 when every output is byte-identical).  The wall-clock
# server is left out: its output depends on the machine.  A non-zero exit of a binary is
# reported but only a difference in output fails the comparison, so a
# bench gate that goes red in both trees still compares.  --list prints
# the compared binaries, one per line (the CMake targets to build in
# both trees).
set -u

binaries=(
    bench_fig5_traces
    bench_fig6_stable_latency
    bench_fig7_cost
    bench_fig8_fluctuating
    bench_fig9_ablation
    bench_table1_models
    bench_ablation_migration
    example_quickstart
    example_spot_trace_serving
    example_autoscaling_fleet
    example_custom_model_planning
    example_migration_plan_inspector
)

if [ "$#" -eq 1 ] && [ "$1" = --list ]; then
    printf '%s\n' "${binaries[@]}"
    exit 0
fi
if [ "$#" -ne 2 ]; then
    echo "usage: $0 BASE_BUILD NEW_BUILD | --list" >&2
    exit 2
fi
base=$1
new=$2

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

differ=0
for bin in "${binaries[@]}"; do
    for side in base new; do
        tree=$base
        [ "$side" = new ] && tree=$new
        if [ ! -x "$tree/$bin" ]; then
            echo "missing: $tree/$bin" >&2
            exit 2
        fi
        args=()
        if [ "$bin" = bench_fig8_fluctuating ]; then
            args=(--json "$out/$side.fig8.json")
        fi
        # The --json line names the output path; drop it before diffing.
        "$tree/$bin" "${args[@]}" 2>/dev/null |
            grep -v '^wrote .* summary rows to ' >"$out/$side.$bin.txt"
        status=${PIPESTATUS[0]}
        [ "$status" -ne 0 ] && echo "note: $side $bin exited $status"
    done
    if cmp -s "$out/base.$bin.txt" "$out/new.$bin.txt"; then
        echo "same:    $bin"
    else
        echo "DIFFERS: $bin"
        diff -u "$out/base.$bin.txt" "$out/new.$bin.txt" | head -n 40
        differ=1
    fi
done

if cmp -s "$out/base.fig8.json" "$out/new.fig8.json"; then
    echo "same:    bench_fig8_fluctuating --json"
else
    echo "DIFFERS: bench_fig8_fluctuating --json"
    diff -u "$out/base.fig8.json" "$out/new.fig8.json" | head -n 40
    differ=1
fi
exit "$differ"
