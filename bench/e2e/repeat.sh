#!/usr/bin/env bash
# Runs every workload K times (seeds N..N+K-1) and reports each end-to-end
# metric's median, IQR and max/min spread as shares of the median.  Fails
# when an IQR share exceeds the metric's bound in BENCHMARK.json (setup_s
# is held to its bound only between two sets of runs).
#
#   bench/e2e/repeat.sh K [--seed N] [--workload W ...]
if [ $# -lt 1 ]; then
  echo "usage: $0 K [--seed N] [--workload W ...]" >&2
  exit 2
fi
k="$1"
shift
exec python3 "$(dirname "$0")/run.py" --repeat "$k" "$@"
