#!/usr/bin/env python3
"""Compare two sets of askel end-to-end benchmark runs, or validate one.

    python3 bench/e2e/compare.py A B        # A = before, B = after
    python3 bench/e2e/compare.py --validate RESULTS

A, B and RESULTS are files holding run.sh output (any number of runs and
workloads; a directory means every file in it). Each run is a "# {...}"
provenance line followed by its result JSON line.

The comparison prints one row per (workload, end-to-end metric): each side's
median and quartiles, the bound, and a label:

  better / worse  the medians differ by more than the bound
  unchanged       they differ by no more than the bound
  unresolved      either side's quartile spread is wider than the bound,
                  unless every run of one side is better than every run of
                  the other (then better / worse)

The bound is WORKLOAD_BOUNDS' for that workload and metric where it has one,
else the metric's bound in BENCHMARK.json. Each workload also gets a
`failed` row, failed / attempted summed over its runs: worse whenever B's
share is higher than A's. All runs of a workload must have the same length.

--validate checks that every run printed exactly the declared metrics of
its kind (end-to-end untraced, per-layer traced) with their units, that
every name matches [A-Za-z0-9_.-]+, and that the result line is well
formed and correct. Exit status 1 on any problem.
"""

import argparse
import json
import math
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# Per-workload bounds, tighter than BENCHMARK.json's. Every workload prints
# every end-to-end metric, so BENCHMARK.json gives each metric one bound,
# and that one has to hold on the noisiest workload. Here a (workload,
# metric) gets the smallest of 0.10, 0.15 and 0.20 that is more than three
# times its widest quartile spread over ten seeds in the rounds measured;
# the rest keep BENCHMARK.json's (README.md, "Bounds").
WORKLOAD_BOUNDS = {
    "wordcount_cpu": {"latency_ms_p50": 0.20, "goodput_per_s": 0.20},
    "paper_goal": {"latency_ms_p50": 0.10, "goodput_per_s": 0.10, "lp_s_per_op": 0.10},
    "service_slo": {"latency_ms_p50": 0.20, "latency_ms_p99": 0.20,
                    "goodput_per_s": 0.10, "lp_s_per_op": 0.10},
}


def load_bench(path):
    with open(path) as f:
        bench = json.load(f)
    shared = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl, bounds in WORKLOAD_BOUNDS.items():
        for name, bound in bounds.items():
            if not bound <= shared.get(name, -1):
                raise SystemExit(f"WORKLOAD_BOUNDS[{wl}][{name}] is not within BENCHMARK.json's bound")
    return bench


def bound_of(wl, metric):
    return WORKLOAD_BOUNDS.get(wl, {}).get(metric["name"], metric["bound"])


def read_runs(path):
    """[(info, result)] from run.sh output files."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, n) for n in os.listdir(path))
    runs = []
    for name in files:
        info = None
        with open(name) as f:
            for line in f:
                line = line.strip()
                if line.startswith("# {"):
                    info = json.loads(line[2:])
                elif line.startswith("{"):
                    if info is None:
                        raise SystemExit(f"{name}: result line without a provenance line")
                    runs.append((info, json.loads(line)))
                    info = None
    return runs


def spread(values):
    """(median, q1, q3)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def label(a, b, bound, higher_is_better):
    def better(x, y):  # x better than y
        return x > y if higher_is_better else x < y

    med_a, q1a, q3a = spread(a)
    med_b, q1b, q3b = spread(b)
    wide = max((q3a - q1a) / abs(med_a) if med_a else math.inf,
               (q3b - q1b) / abs(med_b) if med_b else math.inf)
    if wide > bound:
        if all(better(y, x) for x in a for y in b):
            return "better"
        if all(better(x, y) for x in a for y in b):
            return "worse"
        return "unresolved"
    change = (med_b - med_a) / abs(med_a) if med_a else math.inf
    gain = change if higher_is_better else -change
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "unchanged"


def untraced_values(runs):
    """{workload: {metric: [values]}} over untraced runs, with the summed
    attempted and failed counts under "attempted" / "failed" and the set of
    run lengths under "seconds"."""
    out = {}
    for info, res in runs:
        if info.get("trace"):
            continue
        per = out.setdefault(info["workload"], {"attempted": 0, "failed": 0, "seconds": set()})
        per["attempted"] += res["attempted"]
        per["failed"] += res["failed"]
        per["seconds"].add(info.get("seconds"))
        for name, m in res["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def failed_label(a, b):
    rate_a = a["failed"] / a["attempted"]
    rate_b = b["failed"] / b["attempted"]
    return "worse" if rate_b > rate_a else "better" if rate_b < rate_a else "unchanged"


def compare(bench, path_a, path_b):
    a = untraced_values(read_runs(path_a))
    b = untraced_values(read_runs(path_b))
    fmt = "{:<14} {:<16} {:>34} {:>34} {:>6}  {}"
    print(fmt.format("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "label"))
    for wl in [w["name"] for w in bench["workloads"]]:
        if wl not in a or wl not in b:
            print(f"{wl:<14} (no runs on {'A' if wl not in a else 'B'})")
            continue
        lengths = a[wl]["seconds"] | b[wl]["seconds"]
        if len(lengths) != 1:
            raise SystemExit(f"{wl}: runs of different lengths ({sorted(map(str, lengths))}) are not comparable")
        for m in bench["end_to_end"]:
            va, vb = a[wl].get(m["name"]), b[wl].get(m["name"])
            if not va or not vb:
                print(fmt.format(wl, m["name"], "-", "-", "", "missing"))
                continue
            cells = []
            for v in (va, vb):
                med, q1, q3 = spread(v)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(v)}")
            bound = bound_of(wl, m)
            print(fmt.format(wl, m["name"], cells[0], cells[1], f"{bound:.2f}",
                             label(va, vb, bound, m["better"] == "higher")))
        cells = [f"{s['failed']} / {s['attempted']}" for s in (a[wl], b[wl])]
        print(fmt.format(wl, "failed", cells[0], cells[1], "", failed_label(a[wl], b[wl])))


def validate(bench, path):
    problems = []
    decls = {False: bench["end_to_end"], True: bench["per_layer"]}
    runs = read_runs(path)
    if not runs:
        problems.append("no runs found")
    for info, res in runs:
        where = f"{info.get('workload')} seed {info.get('seed')} trace {info.get('trace')}"
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(res)}")
            continue
        if res["correct"] is not True:
            problems.append(f"{where}: correct is {res['correct']}")
        for key in ("attempted", "failed"):
            if not isinstance(res[key], int) or isinstance(res[key], bool) or res[key] < 0:
                problems.append(f"{where}: {key} is {res[key]!r}")
        if isinstance(res["attempted"], int) and res["attempted"] < 1:
            problems.append(f"{where}: attempted < 1")
        want = {m["name"]: m["unit"] for m in decls[bool(info.get("trace"))]}
        got = res["metrics"]
        for name in sorted(set(want) - set(got)):
            problems.append(f"{where}: missing metric {name}")
        for name in sorted(set(got) - set(want)):
            problems.append(f"{where}: undeclared metric {name}")
        for name, m in got.items():
            if not NAME_RE.match(name):
                problems.append(f"{where}: bad metric name {name!r}")
            if name in want and m.get("unit") != want[name]:
                problems.append(f"{where}: {name} unit {m.get('unit')!r}, declared {want[name]!r}")
            v = m.get("value")
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                problems.append(f"{where}: {name} value {v!r}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME_RE.match(m["name"]):
            problems.append(f"BENCHMARK.json: bad metric name {m['name']!r}")
    for p in problems:
        print("INVALID", p)
    print(f"{len(runs)} runs checked, {len(problems)} problems")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bench", default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    ap.add_argument("--validate", metavar="RESULTS")
    ap.add_argument("paths", nargs="*", metavar="A B")
    args = ap.parse_args()
    bench = load_bench(args.bench)
    if args.validate:
        return validate(bench, args.validate)
    if len(args.paths) != 2:
        ap.error("give two result sets A B, or --validate RESULTS")
    compare(bench, *args.paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())
