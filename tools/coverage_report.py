#!/usr/bin/env python3
"""Per-file line coverage of the spotserve library from a --coverage build.

Configure and run a coverage tree first:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
        "-DCMAKE_CXX_FLAGS=--coverage -O0"
    cmake --build build-cov -j
    (cd build-cov && ctest -j)
    python3 tools/coverage_report.py build-cov > coverage.tsv

To see what only unit tests reach, delete the .gcda files, run just the
benches and examples, and report again (CI's coverage job does both):

    find build-cov -name '*.gcda' -delete
    (cd build-cov && ctest -L 'bench|example')
    python3 tools/coverage_report.py build-cov > coverage-workloads.tsv

The optional second argument names the library target whose objects are
read (default spotserve).  The benchmark's own build compiles the same
sources as spotserve_lib, so pre-configuring its tree with coverage flags
shows what the benchmark workloads reach (CI's coverage job does this too):

    cmake -S perfbench -B bench-cov/perfbench -DCMAKE_BUILD_TYPE=Debug \
        "-DCMAKE_CXX_FLAGS=--coverage -O0"
    for w in fig8-churn steady-fewshot fleet-churn; do
        CARGO_TARGET_DIR=bench-cov python3 perfbench/run.py \
            --workload $w --seed 1 --seconds 1
    done
    python3 tools/coverage_report.py bench-cov/perfbench spotserve_lib \
        > coverage-benchmark.tsv

The script runs gcov over every .gcda of the library's objects and merges
the per-translation-unit counts by source line, so a header line counts
as executed when any translation unit executed it.  It prints one
tab-separated row per file under src/: executed lines, unexecuted lines,
and the unexecuted line numbers, then a TOTAL row.  Informational only;
it never fails on low coverage.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src") + os.sep


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit("usage: coverage_report.py BUILD_DIR [LIBRARY_TARGET]")
    target = sys.argv[2] if len(sys.argv) == 3 else "spotserve"
    objdir = os.path.join(os.path.realpath(sys.argv[1]), "CMakeFiles",
                          target + ".dir")
    gcdas = sorted(os.path.join(dirpath, f)
                   for dirpath, _, files in os.walk(objdir)
                   for f in files if f.endswith(".gcda"))
    if not gcdas:
        sys.exit("no .gcda under %s: build with --coverage and run the "
                 "tests first" % objdir)

    # file -> line -> executed in any translation unit
    lines = {}
    with tempfile.TemporaryDirectory() as tmp:
        for gcda in gcdas:
            out = subprocess.run(["gcov", "--json-format", "--stdout", gcda],
                                 cwd=tmp, capture_output=True, check=True)
            # One JSON document per input file, one per line.
            for doc in map(json.loads, out.stdout.splitlines()):
                cwd = doc["current_working_directory"]
                for f in doc["files"]:
                    path = os.path.realpath(os.path.join(cwd, f["file"]))
                    if not path.startswith(SRC):
                        continue
                    per = lines.setdefault(path[len(ROOT) + 1:], {})
                    for ln in f["lines"]:
                        n = ln["line_number"]
                        per[n] = per.get(n, False) or ln["count"] > 0

    print("file\texecuted\tunexecuted\tunexecuted_lines")
    total_hit = total_miss = 0
    for path in sorted(lines):
        miss = sorted(n for n, hit in lines[path].items() if not hit)
        hit = len(lines[path]) - len(miss)
        total_hit += hit
        total_miss += len(miss)
        print("%s\t%d\t%d\t%s" % (path, hit, len(miss),
                                  ",".join(map(str, miss))))
    print("TOTAL\t%d\t%d\t" % (total_hit, total_miss))


if __name__ == "__main__":
    main()
