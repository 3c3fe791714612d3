#!/usr/bin/env bash
# The benchmark's single command: builds lbbench and lbd, runs every
# workload in its own process, prints one "workload metric value unit" line
# per metric, and writes the result document under build/e2e/.  Exits
# non-zero on any correctness failure.
#
#   bench/e2e/run.sh [--seed N] [--traced] [--smoke]
exec python3 "$(dirname "$0")/run.py" "$@"
