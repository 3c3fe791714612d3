#!/usr/bin/env bash
# Performance-trajectory capture: runs the benchmark harnesses with
# --json-out and writes machine-readable result files (lb-bench-v1 schema,
# see bench/bench_util.hpp) stamped with the current git revision, so CI
# can archive one point per commit and performance can be plotted over the
# repo's history.
#
#   scripts/bench_trajectory.sh [build-dir] [out-dir]
#
# Produces <out-dir>/BENCH_arbiters.json (arbiter_microbench: cost per
# arbitration decision + whole-testbed cycles/s),
# <out-dir>/BENCH_iqswitch.json (iq_switch_throughput: switch slots/s),
# <out-dir>/BENCH_kernel.json (kernel_fastforward: naive vs fast-forward
# kernel cycles/s plus the speedup per idle level;
# its --guard flag fails the run outright if the fast kernel is slower
# than the naive stepper on the highest-idle sweep, or if the two modes'
# statistics diverge) and
# <out-dir>/BENCH_noc.json (noc_mesh_latency: mesh simulation cycles/s per
# load-sweep point; its --guard flag fails the run if any sub-saturation
# point misses the analytical model by more than the documented 10%) and
# <out-dir>/BENCH_obs.json (obs_overhead: lbd requests/sec with the full
# introspection layer on vs off; its --guard flag fails the run if
# telemetry costs more than 3% of bare saturated throughput) and
# <out-dir>/BENCH_replication.json (replication_confidence: sequential vs
# lockstep-batched replica stepping in simulated cycles/s; its --guard
# flag fails the run if the aggregates diverge at all, or if the batched
# runner misses the 1.5x floor at 16 replicas on multi-core machines).
# All files are validated as JSON before the script exits 0.  Benchmarks
# run with reduced repetitions/slots — this is a trajectory smoke, not a
# publication-grade measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
OUT="${2:-$BUILD/bench-results}"
MICRO="$BUILD/bench/arbiter_microbench"
IQ="$BUILD/bench/iq_switch_throughput"
KERNEL="$BUILD/bench/kernel_fastforward"
NOC="$BUILD/bench/noc_mesh_latency"
OBS="$BUILD/bench/obs_overhead"
REPL="$BUILD/bench/replication_confidence"
for bin in "$MICRO" "$IQ" "$KERNEL" "$NOC" "$OBS" "$REPL"; do
  [[ -x "$bin" ]] || { echo "bench_trajectory: missing $bin (build first)"; exit 1; }
done
mkdir -p "$OUT"

LB_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export LB_GIT_REV
echo "bench_trajectory: rev $LB_GIT_REV -> $OUT"

# Per-decision arbiter cost for the 4-master configs plus the full-testbed
# cycles/s figure; min_time trimmed so the whole sweep stays in seconds.
"$MICRO" --benchmark_filter='/4$|BM_FullTestbed/10000$' \
         --benchmark_min_time=0.05 \
         --json-out "$OUT/BENCH_arbiters.json" \
  > "$OUT/arbiters.log" 2>&1 \
  || { echo "bench_trajectory: arbiter_microbench failed"; tail -20 "$OUT/arbiters.log"; exit 1; }

"$IQ" --slots 20000 --json-out "$OUT/BENCH_iqswitch.json" \
  > "$OUT/iqswitch.log" 2>&1 \
  || { echo "bench_trajectory: iq_switch_throughput failed"; tail -20 "$OUT/iqswitch.log"; exit 1; }

# Kernel stepping perf-smoke: --guard makes this step fail if fast mode is
# slower than naive on the highest-idle sweep or diverges from it at all.
"$KERNEL" --cycles 1000000 --guard --json-out "$OUT/BENCH_kernel.json" \
  > "$OUT/kernel.log" 2>&1 \
  || { echo "bench_trajectory: kernel_fastforward failed"; tail -20 "$OUT/kernel.log"; exit 1; }

# Mesh NoC accuracy + throughput smoke: --guard fails this step if any
# sub-saturation sweep point misses the analytical model by more than 10%.
"$NOC" --cycles 100000 --guard --json-out "$OUT/BENCH_noc.json" \
  > "$OUT/noc.log" 2>&1 \
  || { echo "bench_trajectory: noc_mesh_latency failed"; tail -20 "$OUT/noc.log"; exit 1; }

# Introspection overhead smoke: --guard fails this step if running with the
# flight recorder, history ring, slow-request exemplars, and a live
# health/history scraper costs more than 3% of bare requests/sec.
"$OBS" --requests 512 --conns 16 --trials 3 --guard \
       --json-out "$OUT/BENCH_obs.json" \
  > "$OUT/obs.log" 2>&1 \
  || { echo "bench_trajectory: obs_overhead failed"; tail -20 "$OUT/obs.log"; exit 1; }

# Replication runner smoke: --guard fails this step if lockstep-batched
# replication ever diverges from sequential replication, or if it misses
# the batched-speedup floor (1.5x at 16 replicas given >= 2 hardware
# threads; "not slower" on single-core machines).
"$REPL" --cycles 100000 --guard --json-out "$OUT/BENCH_replication.json" \
  > "$OUT/replication.log" 2>&1 \
  || { echo "bench_trajectory: replication_confidence failed"; tail -20 "$OUT/replication.log"; exit 1; }

validate() {
  local file="$1"
  [[ -s "$file" ]] || { echo "bench_trajectory: $file missing or empty"; exit 1; }
  python3 - "$file" <<'PY' || { echo "bench_trajectory: $file is not valid lb-bench-v1 JSON"; exit 1; }
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
assert doc["schema"] == "lb-bench-v1", doc.get("schema")
assert doc["git_rev"], "empty git_rev"
assert isinstance(doc["results"], list) and doc["results"], "no results"
for row in doc["results"]:
    # Derived rows (e.g. kernel_speedup/*) carry only a rate, no wall time.
    assert row["name"] and (row["wall_ns"] > 0 or row["items_per_sec"] > 0), row
PY
  echo "bench_trajectory: $file OK ($(python3 -c "import json;print(len(json.load(open('$file'))['results']))") results)"
}
validate "$OUT/BENCH_arbiters.json"
validate "$OUT/BENCH_iqswitch.json"
validate "$OUT/BENCH_kernel.json"
validate "$OUT/BENCH_noc.json"
validate "$OUT/BENCH_obs.json"
validate "$OUT/BENCH_replication.json"

echo "bench_trajectory: OK"
