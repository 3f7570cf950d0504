#!/usr/bin/env bash
# Bench smoke guard: fail if BenchmarkEngineParallel regresses more than
# TOLERANCE (default 20%) against the checked-in baseline BENCH_N.json,
# on a host with the baseline's logical CPU count; on any other host the
# comparison is skipped (see below) and the script is a smoke only.
# Usage:
#
#   scripts/bench_guard.sh [baseline-N]     # default baseline 1
#   TOLERANCE=0.3 BENCHTIME=20x scripts/bench_guard.sh
#
# Intended as a CI smoke: short -benchtime keeps it fast, the generous
# tolerance absorbs run-to-run noise, and a real engine regression (like
# losing the persistent-pool or batch-path wins) blows well past it.
#
# Caveat: the baseline's ns/op were recorded on the repo's bench host
# (see the json's "cpu" field). On a substantially different machine the
# absolute comparison degrades — raise TOLERANCE there, or re-record a
# local baseline with scripts/bench.sh and pass its N.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="BENCH_${1:-1}.json"
TOLERANCE="${TOLERANCE:-0.20}"
BENCHTIME="${BENCHTIME:-20x}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

[ -f "$BASE" ] || { echo "bench_guard: missing baseline $BASE" >&2; exit 2; }

# The engine's headline numbers are parallel-speedup claims; on a
# starved host they are noise. Warn loudly rather than fail — CI
# runners vary — but make the verdict's weakness impossible to miss.
NCPU="$(go run ./scripts/numcpu)"

# ns/op baselines only transfer between hosts with the same logical CPU
# count: BenchmarkEngineParallel's shape is a function of GOMAXPROCS,
# so comparing a 1-vCPU recording against an 8-core run (or vice versa)
# yields a verdict about the hardware, not the code. Baselines that
# predate the "num_cpu" field (BENCH_1-6) were recorded on 1-vCPU CI
# hosts. On a mismatch the regression comparison is SKIPPED — the
# smokes below still run, so the benchmarks cannot silently rot.
BASE_NCPU="$(sed -n 's/.*"num_cpu": *\([0-9][0-9]*\).*/\1/p' "$BASE" | head -1)"
[ -n "$BASE_NCPU" ] || BASE_NCPU=1
SKIP_COMPARE=0
if [ "$NCPU" != "$BASE_NCPU" ]; then
  SKIP_COMPARE=1
  echo "bench_guard: ############################################################" >&2
  echo "bench_guard: WARNING: ${BASE} was recorded on a ${BASE_NCPU}-CPU host;" >&2
  echo "bench_guard: this host has ${NCPU} logical CPUs. The ns/op comparison" >&2
  echo "bench_guard: would judge the hardware, not the code, so the regression" >&2
  echo "bench_guard: check is SKIPPED. Re-record a local baseline with" >&2
  echo "bench_guard: scripts/bench.sh and pass its N to restore the guard." >&2
  echo "bench_guard: ############################################################" >&2
fi
if [ "$NCPU" -lt 4 ]; then
  echo "bench_guard: ############################################################" >&2
  echo "bench_guard: WARNING: only ${NCPU} logical CPUs on this host." >&2
  echo "bench_guard: BenchmarkEngineParallel is a parallel-speedup measurement;" >&2
  echo "bench_guard: under 4 cores its ns/op (and any regression verdict drawn" >&2
  echo "bench_guard: from it) does not reflect the engine. Treat this run as" >&2
  echo "bench_guard: smoke only and re-run on a >=4-core host before trusting" >&2
  echo "bench_guard: or recording numbers (see BENCH_*.json \"num_cpu\")." >&2
  echo "bench_guard: ############################################################" >&2
fi

# Sweep-runner smoke: one iteration of both worker counts. No baseline
# comparison (grid wall-clock is hardware-bound); this exists so the
# multi-simulation batch runner and its shared-pool path can never
# silently stop compiling or start erroring.
echo "bench_guard: sweep-runner smoke (-benchtime 1x)"
go test -run '^$' -bench 'BenchmarkSweepRunner$' -benchtime 1x -count 1 . \
  || { echo "bench_guard: BenchmarkSweepRunner smoke failed" >&2; exit 1; }

# Simulation-service smoke: one fresh POST→stream round trip per worker
# count plus one cache replay. No baseline comparison (wall-clock is
# simulation-bound); this exists so the HTTP layer, wire codec, and
# cache path can never silently stop compiling or start erroring.
echo "bench_guard: simulation-service smoke (-benchtime 1x)"
go test -run '^$' -bench 'BenchmarkServerSweep$|BenchmarkServerSweepCached$' \
  -benchtime 1x -count 1 ./internal/simserver \
  || { echo "bench_guard: BenchmarkServerSweep smoke failed" >&2; exit 1; }

go test -run '^$' -bench 'BenchmarkEngineParallel$' -benchtime "$BENCHTIME" -count 1 . | tee "$TMP"

if [ "$SKIP_COMPARE" = 1 ]; then
  echo "bench_guard: regression comparison skipped (CPU-count mismatch with $BASE); smokes passed"
  exit 0
fi

awk -v base="$BASE" -v tol="$TOLERANCE" '
  BEGIN {
    # Baseline entries come in two schemas: bench.sh emits
    # {"benchmark": ..., "ns_op": M}; annotated baselines carry
    # before/after pairs, where "after_ns_op" is the recorded value.
    while ((getline line < base) > 0) {
      if (line ~ /BenchmarkEngineParallel/ && line ~ /"(after_)?ns_op"/) {
        name = line; sub(/.*"benchmark": *"/, "", name); sub(/".*/, "", name)
        ns = line
        if (ns ~ /"after_ns_op"/) sub(/.*"after_ns_op": *[^0-9]*/, "", ns)
        else sub(/.*"ns_op": *[^0-9]*/, "", ns)
        sub(/[^0-9].*/, "", ns)
        want[name] = ns + 0
      }
    }
    close(base)
    if (length(want) == 0) { print "bench_guard: no baseline entries in " base; exit 2 }
  }
  /^BenchmarkEngineParallel/ && $4 == "ns/op" {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in want)) next
    got = $3 + 0
    limit = want[name] * (1 + tol)
    checked++
    if (got > limit) {
      printf("bench_guard: REGRESSION %s: %.0f ns/op > %.0f (baseline %.0f +%d%%)\n",
             name, got, limit, want[name], tol * 100)
      failed++
    } else {
      printf("bench_guard: ok %s: %.0f ns/op <= %.0f (baseline %.0f +%d%%)\n",
             name, got, limit, want[name], tol * 100)
    }
  }
  END {
    if (checked == 0) { print "bench_guard: no benchmark output matched the baseline"; exit 2 }
    if (failed > 0) exit 1
    printf("bench_guard: %d benchmarks within %d%% of %s\n", checked, tol * 100, base)
  }
' "$TMP"
