#!/usr/bin/env python3
"""Reports over repeated benchmark runs.

Run from the repository root:

  python3 perfbench/report.py spread --workload fig16-mt --runs 10
      Runs the benchmark command of BENCHMARK.json for run_seconds once
      per seed (1, 2, ...), then prints each end-to-end metric's
      median, quartiles and quartile spread relative to the median, and
      flags every spread above the metric's bound. Exits 1 if any
      metric is flagged or any run reports failed ops.

  python3 perfbench/report.py layers [--workload kv-crash]
      Runs each workload once traced at the default seed (0) and prints
      its per-layer self-time table: every layer's share of the traced
      pass wall time, and the part no span covers (trace.unattributed_s).
"""

import argparse
import json
import statistics
import subprocess
import sys

ROOT_FILE = "BENCHMARK.json"

# The layer report runs the default seed; the spread report starts one
# above it.
DEFAULT_SEED = 0
FIRST_SEED = 1


def load_benchmark():
    with open(ROOT_FILE) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {proc.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def spread(args):
    bench = load_benchmark()
    results = []
    for i in range(args.runs):
        seed = FIRST_SEED + i
        r = run_once(bench, args.workload, seed, 0)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
              flush=True)
    print(f"\n{args.workload}: {args.runs} runs, {bench['run_seconds']} s each")
    print(f"{'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    flagged = []
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        rel = (q3 - q1) / med if med else float("inf")
        flag = ""
        if rel > m["bound"]:
            flag = "  OVER BOUND"
            flagged.append(m["name"])
        elif rel > m["bound"] / 3:
            flag = "  over a third of the bound"
        print(f"{m['name']:<14} {m['unit']:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{rel:>8.4f} {m['bound']:>6}{flag}")
    bad = [r for r in results if not r["correct"] or r["failed"]]
    if bad:
        print(f"{len(bad)} runs reported failed ops")
    return 1 if flagged or bad else 0


def layers(args):
    bench = load_benchmark()
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        r = run_once(bench, workload, DEFAULT_SEED, 1)
        m = {k: v["value"] for k, v in r["metrics"].items()}
        units = {k: v["unit"] for k, v in r["metrics"].items()}
        # Self times of the traced pass (set-up is timed outside it).
        spans = {k: v for k, v in m.items()
                 if units[k] == "s" and not k.startswith("trace.")
                 and k != "workloads.kv_spec_s"}
        wall = sum(spans.values()) + m["trace.unattributed_s"]
        print(f"\n{workload} (seed {DEFAULT_SEED}): low-decile traced pass {wall:.4f} s, "
              f"trace overhead x{m['trace.overhead_ratio']:.3f}, "
              f"correct={r['correct']}")
        print(f"  {'layer':<28} {'self s':>10} {'share':>7}")
        for k, v in sorted(spans.items(), key=lambda kv: -kv[1]):
            if v > 0:
                print(f"  {k:<28} {v:>10.4f} {v / wall:>7.1%}")
        u = m["trace.unattributed_s"]
        print(f"  {'trace.unattributed_s':<28} {u:>10.4f} {u / wall:>7.1%}")
        print(f"  set-up (workloads.kv_spec_s on kv-crash): "
              f"{m['workloads.kv_spec_s']:.6f} s")
        others = {k: v for k, v in m.items() if units[k] != "s" and v}
        print("  " + " ".join(f"{k}={v:.6g}" for k, v in others.items()))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread", help="run one workload over N seeds")
    s.add_argument("--workload", required=True)
    s.add_argument("--runs", type=int, default=10)
    s.set_defaults(func=spread)
    t = sub.add_parser("layers", help="per-layer self-time table")
    t.add_argument("--workload")
    t.set_defaults(func=layers)
    args = p.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
