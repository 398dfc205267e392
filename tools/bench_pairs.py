#!/usr/bin/env python3
"""Alternating-pair perfbench comparison of two source trees.

    python3 tools/bench_pairs.py --parent TREE --change TREE \\
        --workload steady-fewshot --seeds 631-636 --seconds 20 \\
        [--cxxflags=-falign-functions=64] [--build-root DIR] [--out FILE]
        [--trace 1]

--workload takes one workload, a comma-separated list, or "all" (every
workload BENCHMARK.json declares, in its order); each runs on every seed.
Runs perfbench/run.py (trace 0) from each tree on every seed, one parent
and one change run per seed, flipping which side goes first every pair so
neither side always runs on a warmer machine.  Each side builds into its
own CARGO_TARGET_DIR, <build-root>/<tag>/{parent,change}, where the tag
names the compiler flags: --cxxflags is handed to CMake as CXXFLAGS on
the first configure of that directory (the layout check builds both sides
with -falign-functions=64, so a gain is not an artefact of code layout).

Prints, per workload, every pair's wall-clock metrics
(sim_us_per_request, setup_s, peak_rss_mb), then for each of them both
medians, both interquartile ranges, the median change in percent, "change
better in k/n" and the verdict against that metric's "bound" and
"better" in BENCHMARK.json.  Exits 1 if a run is not "correct", if any
simulated metric (every end-to-end metric of BENCHMARK.json except the
wall-clock ones) differs within a pair on any workload, or if a
wall-clock median is worse than the parent's by more than its bound (a
fraction of the parent median).  --out writes one JSON with a section per
workload under "workloads", each holding its summary and every run's
result line.

--trace 1 runs both sides traced instead (run.py --trace 1) and compares
their per-layer rows: per workload, every row BENCHMARK.json declares
under "per_layer", with both sides' medians and interquartile ranges, the
median change and "change better in k/n", side by side in the printout
and in --out.  Per-layer rows declare no bound, so none is applied; the
tool exits 1 only on a run that is not "correct".
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# End-to-end metrics measured on the wall clock; every other one is
# simulated and must be bit-identical between two trees that claim to
# change only speed.
WALL_CLOCK = ("sim_us_per_request", "setup_s", "peak_rss_mb")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def check_flags(target_dir, cxxflags):
    """Refuse to reuse a build tree configured with other flags."""
    cache = os.path.join(target_dir, "perfbench", "CMakeCache.txt")
    if not os.path.exists(cache):
        return
    with open(cache) as f:
        m = re.search(r"^CMAKE_CXX_FLAGS:STRING=(.*)$", f.read(), re.M)
    have = (m.group(1) if m else "").strip()
    if have != cxxflags.strip():
        sys.exit("bench_pairs: %s was configured with CXXFLAGS %r, not %r; "
                 "pick another --build-root" % (target_dir, have, cxxflags))


def run_side(tree, target_dir, cxxflags, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if cxxflags:
        env["CXXFLAGS"] = cxxflags
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("bench_pairs: run.py failed in %s (seed %d, exit %d)" %
                 (tree, seed, done.returncode))
    return json.loads(lines[-1])


def run_pairs(args, workload, seeds, trees, targets, runs):
    """Yield (seed, first side, {side: result}) for every seed, flipping
    which side runs first every pair; append each result to runs."""
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            result = run_side(trees[side], targets[side], args.cxxflags,
                              workload, seed, args.seconds, args.trace)
            pair[side] = result
            runs.append(dict(workload=workload, side=side, seed=seed,
                             seconds=args.seconds, trace=args.trace,
                             cxxflags=args.cxxflags, **result))
            if not result.get("correct"):
                print("run not correct: %s seed %d" % (side, seed))
        yield seed, order[0], pair


def side_by_side(values, better_pairs):
    """Quartiles of both sides, the median change and the better count."""
    stats = {side: quartiles(v) for side, v in values.items()}
    parent_median = stats["parent"][1]
    change_pct = (100.0 * (stats["change"][1] / parent_median - 1.0)
                  if parent_median else 0.0)
    return {
        **{side: dict(zip(("q1", "median", "q3"),
                          (round(v, 4) for v in stats[side])))
           for side in stats},
        "median_change_pct": round(change_pct, 1),
        "change_better_pairs": better_pairs,
    }


def compare_layers(args, workload, seeds, trees, targets, declared):
    """Run traced pairs of one workload; return (summary, runs, ok).  The
    per-layer rows carry no bound: they are reported, never judged."""
    runs = []
    values = {m: {"parent": [], "change": []} for m in declared}
    better = {m: 0 for m in declared}
    print("== %s (traced)" % workload)
    for seed, first, pair in run_pairs(args, workload, seeds, trees,
                                       targets, runs):
        print("seed %d, %s first" % (seed, first))
        for m in declared:
            got = {side: pair[side]["metrics"][m]["value"] for side in trees}
            for side in trees:
                values[m][side].append(got[side])
            if declared[m]["better"] == "lower":
                better[m] += got["change"] < got["parent"]
            else:
                better[m] += got["change"] > got["parent"]
    print("%-36s %12s %12s %8s %7s" % ("row", "parent", "change", "change",
                                       "better"))
    rows = {}
    for m in declared:
        rows[m] = side_by_side(values[m], better[m])
        print("%-36s %12.6g %12.6g %+7.1f%% %3d/%-3d" % (
            m, rows[m]["parent"]["median"], rows[m]["change"]["median"],
            rows[m]["median_change_pct"], better[m], len(seeds)))
    correct = all(r.get("correct") for r in runs)
    print("all runs correct: %s" % correct)
    summary = {
        "workload": workload, "seconds": args.seconds, "trace": 1,
        "seeds": [seeds[0], seeds[-1]], "pairs": len(seeds),
        "cxxflags": args.cxxflags, "all_correct": correct,
        "per_layer": rows,
    }
    return summary, runs, correct


def compare_workload(args, workload, seeds, trees, targets, declared):
    """Run the pairs of one workload; return (summary, runs, ok)."""
    simulated = sorted(n for n in declared if n not in WALL_CLOCK)

    def lower_is_better(metric):
        return declared[metric]["better"] == "lower"

    runs = []
    values = {m: {"parent": [], "change": []} for m in WALL_CLOCK}
    better = {m: 0 for m in WALL_CLOCK}
    identical = True
    print("== %s" % workload)
    print("%-6s %-6s" % ("seed", "first") +
          "".join(" %26s" % m for m in WALL_CLOCK))
    for seed, first, pair in run_pairs(args, workload, seeds, trees,
                                       targets, runs):
        cells = []
        for m in WALL_CLOCK:
            got = {side: pair[side]["metrics"][m]["value"] for side in trees}
            for side in trees:
                values[m][side].append(got[side])
            if lower_is_better(m):
                better[m] += got["change"] < got["parent"]
            else:
                better[m] += got["change"] > got["parent"]
            cells.append("%9.4g %9.4g %+6.1f%%" % (
                got["parent"], got["change"],
                100.0 * (got["change"] / got["parent"] - 1.0)))
        differ = [n for n in simulated
                  if pair["parent"]["metrics"][n]["value"] !=
                  pair["change"]["metrics"][n]["value"]]
        print("%-6d %-6s" % (seed, first) +
              "".join(" %26s" % c for c in cells) +
              ("  DIFFERS: " + ", ".join(differ) if differ else ""))
        identical = identical and not differ

    summary_metrics, within_bounds = {}, True
    for m in WALL_CLOCK:
        row = side_by_side(values[m], better[m])
        change_pct = row["median_change_pct"]
        worse_pct = change_pct if lower_is_better(m) else -change_pct
        bound_pct = 100.0 * declared[m]["bound"]
        ok = worse_pct <= bound_pct
        within_bounds = within_bounds and ok
        print("%s (%s is better):" % (m, declared[m]["better"]))
        for side in trees:
            print("  %s median %.4f (IQR %.4f-%.4f)" % (
                side, row[side]["median"], row[side]["q1"], row[side]["q3"]))
        print("  median change %+.1f%%; change better in %d/%d; bound %.0f%%"
              " worse: %s" % (change_pct, better[m], len(seeds), bound_pct,
                              "within" if ok else "EXCEEDED"))
        summary_metrics[m] = {**row, "bound_pct": bound_pct,
                              "within_bound": ok}
    correct = all(r.get("correct") for r in runs)
    print("simulated metrics (%d) %s; all runs correct: %s" % (
        len(simulated), "identical in every pair" if identical else "DIFFER",
        correct))
    summary = {
        "workload": workload, "seconds": args.seconds,
        "seeds": [seeds[0], seeds[-1]], "pairs": len(seeds),
        "cxxflags": args.cxxflags,
        "simulated_metrics_bit_identical": identical,
        "all_correct": correct,
        **summary_metrics,
    }
    return summary, runs, identical and correct and within_bounds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or all")
    parser.add_argument("--seeds", required=True,
                        help="seed list, e.g. 631-636 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--cxxflags", default="",
                        help="CXXFLAGS for both sides' first configure")
    parser.add_argument("--build-root", default=".bench_pairs",
                        help="parent of the per-side CARGO_TARGET_DIRs")
    parser.add_argument("--out", help="write summaries and runs as JSON here")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the traced per-layer rows instead")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in benchmark[section]}
    compare = compare_layers if args.trace else compare_workload
    known = [w["name"] for w in benchmark["workloads"]]
    if args.workload == "all":
        workloads = known
    else:
        workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
        unknown = [w for w in workloads if w not in known]
        if unknown or not workloads:
            sys.exit("bench_pairs: unknown workload(s) %s; BENCHMARK.json "
                     "declares %s" % (", ".join(unknown) or "(none)",
                                      ", ".join(known)))
    tag = re.sub(r"[^A-Za-z0-9]+", "_", args.cxxflags).strip("_") or "default"
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    targets = {side: os.path.abspath(os.path.join(args.build_root, tag, side))
               for side in trees}
    for side in trees:
        check_flags(targets[side], args.cxxflags)

    seeds = parse_seeds(args.seeds)
    sections, all_ok = {}, True
    for workload in workloads:
        summary, runs, ok = compare(args, workload, seeds, trees, targets,
                                    declared)
        sections[workload] = {"summary": summary, "runs": runs}
        all_ok = all_ok and ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workloads": sections}, f, indent=1)
    sys.exit(0 if all_ok else 1)

if __name__ == "__main__":
    main()
