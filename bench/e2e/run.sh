#!/usr/bin/env bash
# askel end-to-end benchmark. Builds askel_e2e on first use (standalone,
# into build-e2e/ at the repository root), then runs the workloads.
#
#   bash bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds 20]
#                         [--trace 0|1] [--runs N]
#
#   --workload  wordcount_cpu | paper_goal | service_slo | remote_named
#               (default: all four, in that order)
#   --seed      input seed of the first run (default 42)
#   --seconds   must be 20 if given: every run measures for a fixed 20 s
#               (BENCHMARK.json's run_seconds, which its command is run with)
#   --trace     1 = traced run: per-layer metrics on stdout, Chrome trace
#               in build-e2e/traces/ (default 0: end-to-end metrics)
#   --runs      runs per workload, with seeds N, N+1, ... (default 1)
#
# Each run prints a "# {...}" provenance line, then its result JSON as its
# last line. Exits nonzero if any run fails or reports an output violation.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

workloads=(wordcount_cpu paper_goal service_slo remote_named)
seed=42
trace=0
runs=1

usage() {
  echo "usage: run.sh [--workload NAME] [--seed N] [--seconds 20] [--trace 0|1] [--runs N]" >&2
  exit 2
}

while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workload) workloads=("$2") ;;
    --seed) seed="$2" ;;
    --seconds)
      [ "$2" = 20 ] || { echo "run.sh: runs are a fixed 20 s; --seconds must be 20" >&2; exit 2; } ;;
    --trace) trace="$2" ;;
    --runs) runs="$2" ;;
    *) usage ;;
  esac
  shift 2
done
[[ "$seed" =~ ^[0-9]+$ && "$runs" =~ ^[1-9][0-9]*$ && "$trace" =~ ^[01]$ ]] || usage

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -f "$root/src/askel.hpp" ]; then
  echo "run.sh: the askel sources are not in $root; nothing to benchmark" >&2
  exit 2
fi
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

# The code that runs: HEAD, marked -dirty when the work tree differs from it.
commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)"
fi
export ASKEL_E2E_COMMIT="$commit"

status=0
for wl in "${workloads[@]}"; do
  for ((r = 0; r < runs; r++)); do
    s=$((seed + r))
    args=(--workload "$wl" --seed "$s" --trace "$trace")
    if [ "$trace" = 1 ]; then
      mkdir -p "$build/traces"
      args+=(--trace-file "$build/traces/$wl-seed$s.json")
    fi
    "$build/askel_e2e" "${args[@]}" || status=$?
  done
done
exit "$status"
