#!/usr/bin/env bash
# Perf-trajectory runner: builds Release, runs the hot-path microbenchmarks,
# the WCT-algorithm comparison and the multi-tenant coordinator scenarios, and
# distills the numbers every perf PR tracks into one JSON file:
#   * EventBus dispatch ns/op (0/1/4/16 listeners, 4-thread contended),
#   * pool churn tasks/sec at LP in {1, 4, 8},
#   * EstimateRegistry snapshot cost, clean (the previous snapshot again) vs
#     dirty (rebuild of the written fragments) under the registry's one lock,
#   * multi-tenant staggered: K=4 controllers on one budget, run under BOTH
#     arbitration policies (deadline-pressure and weighted-share),
#   * multi-tenant aggressor: victim vs flooding aggressor, weighted
#     isolation vs the FIFO dispatch baseline,
#   * transport/backend comparison (PR 5): real subprocess-worker join
#     latency vs the simulated provision delay, the per-task transport
#     bracket cost, and fig5 under --backend thread vs subprocess,
#   * raw-speed pass (PR 6): incremental-snapshot cost (one dirty shard vs
#     all shards dirty), the lease-batching sweep (K in {1,4,16,64}), the
#     injection-queue comparison (retired mutex+deque vs lock-free MPSC)
#     and the per-LP scaling curve. Multi-tenant staggered traffic is now
#     Zipf-skewed (--zipf-skew 1.1) instead of uniform,
#   * coordinator scale (PR 7): per-arbitration latency at 1M registered /
#     10K armed vs 10K/10K (the active-set flatness ratio, must stay <= 2x)
#     and sharded-registry registration throughput,
#   * latency-SLO service (PR 9): the seeded open-loop request stream with a
#     p99 goal against a flooding aggressor, coordinated (tail-driven grants
#     + weighted dispatch) vs the FIFO baseline — per-tenant attainment
#     curves and the attainment ratio the regression gate tracks,
#   * TCP transport (PR 10): the bracket churn over a real loopback socket at
#     lease_batch 1 and 16, connect->Hello join latency and the named-muscle
#     echo round trip (rides inside <out>.transport.json's "tcp" section),
#   * autonomic overhead: the wordcount_cpu job shape at a fixed LP 4,
#     an armed controller that cannot move LP vs trackers alone, median job
#     time over >= 100 jobs a side in one process; the ratio is the top-level
#     "autonomic_overhead_ratio" the regression gate tracks.
# The per-scenario raw JSONs are kept next to the output
# (<out>.pressure.json / <out>.weighted.json / <out>.aggressor.json /
# <out>.transport.json / <out>.scaling.json / <out>.coordinator.json /
# <out>.service.json / <out>.overhead.json) so CI can upload each artifact
# individually.
#
# Usage: bench/run_bench.sh [--smoke] [output.json]
#   --smoke: CI smoke mode — tiny iteration counts, no timing assertions;
#            proves the bench pipeline runs and uploads an inspectable JSON.
#   default output: BENCH_LOCAL.json in cwd (git-ignored). Name the file
#            yourself to keep a run, but never after a checked-in baseline:
#            CI's check_regression.py gates against those.

set -euo pipefail

smoke=0
out_json=""
for arg in "$@"; do
  case "${arg}" in
    --smoke) smoke=1 ;;
    *) out_json="${arg}" ;;
  esac
done
out_json="${out_json:-BENCH_LOCAL.json}"

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-bench"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release \
      -DASKEL_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${build_dir}" -j"$(nproc)" --target wct_algorithms multi_tenant \
      transport_bench scaling_bench coordinator_scale_bench service_bench \
      >/dev/null

micro_ok=1
if [[ ! -x "${build_dir}/micro_bench" ]]; then
  if ! cmake --build "${build_dir}" -j"$(nproc)" --target micro_bench \
       >/dev/null 2>&1; then
    echo "google-benchmark not available: skipping micro_bench" >&2
    micro_ok=0
  fi
fi

raw_json="$(mktemp)"
mt_pressure_json="${out_json%.json}.pressure.json"
mt_weighted_json="${out_json%.json}.weighted.json"
mt_aggressor_json="${out_json%.json}.aggressor.json"
transport_json="${out_json%.json}.transport.json"
scaling_json="${out_json%.json}.scaling.json"
coord_scale_json="${out_json%.json}.coordinator.json"
service_json="${out_json%.json}.service.json"
overhead_json="${out_json%.json}.overhead.json"
trap 'rm -f "${raw_json}"' EXIT

min_time=0.2
[[ ${smoke} -eq 1 ]] && min_time=0.01

if [[ ${micro_ok} -eq 1 ]]; then
  "${build_dir}/micro_bench" \
    --benchmark_filter='BM_EventDispatch|BM_PoolChurn|BM_PoolSubmitDrain|BM_PoolInjectDrain|BM_EstimateSnapshot' \
    --benchmark_min_time="${min_time}" \
    --benchmark_format=json > "${raw_json}"
else
  echo '{"benchmarks": [], "context": {"error": "micro_bench unavailable"}}' \
    > "${raw_json}"
fi

# Multi-tenant coordinator scenarios (budget invariant asserted always; goal
# and isolation assertions only outside --smoke). The staggered scenario runs
# under both arbitration policies for the A/B trajectory; the aggressor
# scenario compares weighted isolation against the FIFO dispatch baseline.
mt_args=()
[[ ${smoke} -eq 1 ]] && mt_args+=(--smoke)
"${build_dir}/multi_tenant" "${mt_args[@]+"${mt_args[@]}"}" \
  --policy pressure --zipf-skew 1.1 > "${mt_pressure_json}"
"${build_dir}/multi_tenant" "${mt_args[@]+"${mt_args[@]}"}" \
  --policy weighted --zipf-skew 1.1 > "${mt_weighted_json}"
"${build_dir}/multi_tenant" "${mt_args[@]+"${mt_args[@]}"}" \
  --scenario aggressor > "${mt_aggressor_json}"

# Transport/backend comparison (PR 5) + lease-batching sweep (PR 6):
# subprocess vs thread backend, and tasks/sec at lease_batch K in {1,4,16,64}.
tb_args=()
[[ ${smoke} -eq 1 ]] && tb_args+=(--smoke)
"${build_dir}/transport_bench" "${tb_args[@]+"${tb_args[@]}"}" \
  > "${transport_json}"

# Raw-speed scaling numbers (PR 6): injection-queue before/after and the
# per-LP scaling curve behind docs/perf.md.
sc_args=()
[[ ${smoke} -eq 1 ]] && sc_args+=(--smoke)
"${build_dir}/scaling_bench" "${sc_args[@]+"${sc_args[@]}"}" \
  > "${scaling_json}"

# Coordinator scale (PR 7): arbitration-flatness ratio (1M registered / 10K
# armed vs 10K/10K). Smoke mode shrinks to 50K/1K and skips the wall-clock
# flatness assertion.
cs_args=()
[[ ${smoke} -eq 1 ]] && cs_args+=(--smoke)
"${build_dir}/coordinator_scale_bench" "${cs_args[@]+"${cs_args[@]}"}" \
  > "${coord_scale_json}"

# Latency-SLO service scenario (PR 9): the same seeded open-loop stream
# replayed coordinated vs FIFO baseline; the SLO-win assertion only fires
# outside smoke.
svc_args=()
[[ ${smoke} -eq 1 ]] && svc_args+=(--smoke)
"${build_dir}/service_bench" "${svc_args[@]+"${svc_args[@]}"}" \
  > "${service_json}"

# Autonomic overhead: armed controller at fixed LP 4 vs trackers
# alone on the wordcount_cpu job shape. Smoke mode runs 10 jobs a side.
oh_args=(--overhead)
[[ ${smoke} -eq 1 ]] && oh_args+=(--smoke)
"${build_dir}/wct_algorithms" "${oh_args[@]}" > "${overhead_json}"

# WCT algorithm comparison rides along for the scheduling-cost trajectory
# (skipped in smoke mode: it is the slowest piece and purely informational).
if [[ ${smoke} -eq 0 ]]; then
  "${build_dir}/wct_algorithms" > "${build_dir}/wct_algorithms.csv" || true
fi

python3 - "${raw_json}" "${mt_pressure_json}" "${mt_weighted_json}" \
  "${mt_aggressor_json}" "${out_json}" "${smoke}" "${transport_json}" \
  "${scaling_json}" "${coord_scale_json}" "${service_json}" \
  "${overhead_json}" <<'EOF'
import json, sys

raw = json.load(open(sys.argv[1]))
mt_pressure = json.load(open(sys.argv[2]))
mt_weighted = json.load(open(sys.argv[3]))
mt_aggressor = json.load(open(sys.argv[4]))
transport = json.load(open(sys.argv[7]))
scaling = json.load(open(sys.argv[8]))
coordinator = json.load(open(sys.argv[9]))
service = json.load(open(sys.argv[10]))
overhead = json.load(open(sys.argv[11]))
by_name = {b["name"]: b for b in raw.get("benchmarks", [])}

def ns(name):
    b = by_name.get(name)
    return round(b["real_time"], 2) if b else None

def items_per_sec(name):
    b = by_name.get(name)
    return round(b["items_per_second"]) if b and "items_per_second" in b else None

out = {
    "smoke": sys.argv[6] == "1",
    "context": raw.get("context", {}),
    "event_dispatch_ns": {
        "no_listeners": ns("BM_EventDispatch_NoListeners"),
        "listeners_1": ns("BM_EventDispatch_Listeners/1"),
        "listeners_4": ns("BM_EventDispatch_Listeners/4"),
        "listeners_16": ns("BM_EventDispatch_Listeners/16"),
        "contended_4_threads": ns("BM_EventDispatch_Contended/real_time/threads:4"),
    },
    "pool_tasks_per_sec": {
        "submit_drain_lp2": items_per_sec("BM_PoolSubmitDrain"),
        "inject_contended_4": items_per_sec(
            "BM_PoolInjectDrain_Contended/real_time/threads:4"),
        "churn_lp1": items_per_sec("BM_PoolChurn/1/real_time"),
        "churn_lp4": items_per_sec("BM_PoolChurn/4/real_time"),
        "churn_lp8": items_per_sec("BM_PoolChurn/8/real_time"),
    },
    "estimate_snapshot_ns": {
        "clean_16": ns("BM_EstimateSnapshot_Clean/16"),
        "clean_128": ns("BM_EstimateSnapshot_Clean/128"),
        "clean_1024": ns("BM_EstimateSnapshot_Clean/1024"),
        "dirty_16": ns("BM_EstimateSnapshot_Dirty/16"),
        "dirty_128": ns("BM_EstimateSnapshot_Dirty/128"),
        "dirty_all_128": ns("BM_EstimateSnapshot_DirtyAll/128"),
    },
    "multi_tenant": {
        "staggered_pressure": mt_pressure,
        "staggered_weighted": mt_weighted,
        "aggressor": mt_aggressor,
    },
    "transport": transport,
    "scaling": scaling,
    "coordinator_scale": coordinator,
    "service": service,
    "autonomic_overhead": overhead,
    "autonomic_overhead_ratio": overhead.get("autonomic_overhead_ratio"),
}
json.dump(out, open(sys.argv[5], "w"), indent=2)
print(f"wrote {sys.argv[5]}")
EOF
