#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and run-to-run spread (interquartile range over median, from
statistics.quantiles(values, n=4)) beside its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload fig12 --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --json

Run from the root of a source checkout, like run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import ROOT, WORKLOADS  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--json", action="store_true",
                    help="print the summary as one JSON object")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    for w in names:
        values = {}
        for seed in parse_seeds(args.seeds):
            r = one_run(w, seed, args.seconds)
            if not r["correct"]:
                sys.exit(f"{w} seed {seed}: {r['failed']} of "
                         f"{r['attempted']} points failed")
            for k, m in r["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in r["metrics"].items()),
                file=sys.stderr, flush=True)
        summary[w] = {}
        for k, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            summary[w][k] = {"median": med, "spread": spread,
                             "bound": bounds[k], "runs": len(v)}
    if args.json:
        print(json.dumps(summary, indent=2))
        return
    for w, metrics in summary.items():
        for k, s in metrics.items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (> bound/3)"
            print(f"{w:11s} {k:20s} median {s['median']:<12.6g} spread "
                  f"{s['spread']:.4f} bound {s['bound']}{flag}")


if __name__ == "__main__":
    main()
