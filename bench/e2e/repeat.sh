#!/usr/bin/env bash
# Runs the untraced benchmark N times per workload (seeds 1..N) and prints,
# for every end-to-end metric, the median, the quartiles and the spread
# (quartile distance / median) next to the metric's bound in
# BENCHMARK.json. The bounds were set with it; re-run it to re-check them.
#
#   bench/e2e/repeat.sh 10
set -euo pipefail
n="${1:?usage: repeat.sh N}"
cd "$(dirname "$0")/../.."
exec python3 bench/e2e/run.py --repeat "$n"
