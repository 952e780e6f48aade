#!/bin/sh
# selfcheck.sh — the benchmark's agreement check: run the untraced suite
# twice on this commit (RUNS seeds per workload, default 3) and compare the
# two result sets row by row against each metric's bound. Exits non-zero on
# any "regressed" row. The two sets see the same code and the same seeds,
# so a regressed row means the ruler, or the box, is not steady enough.
set -eu
cd "$(dirname "$0")"
runs=${RUNS:-3}
mkdir -p out
go build -o out/lmeperf ./cmd/lmeperf
out/lmeperf -trace 0 -runs "$runs" -json out/selfcheck_a.json
out/lmeperf -trace 0 -runs "$runs" -json out/selfcheck_b.json
out/lmeperf -compare out/selfcheck_a.json out/selfcheck_b.json
