#!/usr/bin/env python3
"""Compare a fresh BENCH_hotpath.json against the committed baseline.

Rows are matched by (topology, routing, load, mode, window); artifacts
without a column default to load 0.1, mode "serial", window "-".
Closed-loop rows (mode "closed-loop") carry a window depth instead of
a load. The guarded metric is cycles_per_sec.

Only serial rows are gated: a row regresses when

    fresh < baseline * (1 - threshold)

with threshold 30% by default — wide enough that genuine optimizations
and deoptimizations dominate run-to-run noise on a quiet machine.
Closed-loop rows are reported (and their deltas printed) but never
fail the gate. Shared CI runners sit inside a jitter band wider than
the gate, so CI invokes this with --warn-only: the delta table is
still printed and uploaded as an artifact, but regressions exit 0.

Usage:
    scripts/bench_compare.py BASELINE FRESH [--threshold 0.30]
                             [--warn-only] [--out REPORT]

Exit status: 0 when no gated row regresses (or --warn-only), 1
otherwise, 2 on malformed input.
"""

import argparse
import json
import sys


def row_key(row):
    """Identity of a bench row; defaults cover artifacts without the
    mode or window columns."""
    return (str(row.get("topology")), str(row.get("routing")),
            str(row.get("load", "0.1")),
            str(row.get("mode", "serial")),
            str(row.get("window", "-")))


def load_rows(path, metric):
    """Flatten every table in a bench artifact into {key: row}."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for table in doc:
        for row in table.get("rows", []):
            key = row_key(row)
            # A silently-defaulted metric would make every comparison
            # 0.0 vs 0.0 and neuter the gate; schema drift must fail.
            if metric not in row:
                raise ValueError(
                    f"{path}: row {key} has no '{metric}' column")
            rows[key] = row
    if not rows:
        raise ValueError(f"{path}: no benchmark rows found")
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_hotpath.json")
    ap.add_argument("fresh", help="freshly generated BENCH_hotpath.json")
    ap.add_argument("--metric", default="cycles_per_sec")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="regression fraction that fails (default 0.30)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 (shared-runner "
                         "jitter band)")
    ap.add_argument("--out", default=None,
                    help="also write the delta table to this file")
    args = ap.parse_args()

    try:
        base = load_rows(args.baseline, args.metric)
        fresh = load_rows(args.fresh, args.metric)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    lines = []
    header = (f"{'topology':<14} {'routing':<10} {'load':<6} "
              f"{'mode':<11} {'window':<6} "
              f"{'baseline':>10} {'fresh':>10} {'delta':>8}  verdict")
    lines.append(header)
    lines.append("-" * len(header))

    regressions = []
    for key in sorted(base):
        topo, routing, load, mode, window = key
        gated = mode == "serial"
        b = float(base[key].get(args.metric, 0.0))
        row = fresh.get(key)
        if row is None:
            verdict = ("REGRESSED (row gone)" if gated
                       else f"{mode} row gone (not gated)")
            lines.append(f"{topo:<14} {routing:<10} {load:<6} "
                         f"{mode:<11} {window:<6} "
                         f"{b:>10.0f} {'missing':>10} {'':>8}  "
                         f"{verdict}")
            if gated:
                regressions.append(key)
            continue
        f = float(row.get(args.metric, 0.0))
        delta = (f - b) / b if b > 0 else 0.0
        if gated and b > 0 and f < b * (1.0 - args.threshold):
            verdict = f"REGRESSED (>{args.threshold:.0%})"
            regressions.append(key)
        elif not gated:
            verdict = f"{mode} (not gated)"
        elif delta >= 0:
            verdict = "ok (faster)" if delta > 0.02 else "ok"
        else:
            verdict = "ok (within band)"
        lines.append(f"{topo:<14} {routing:<10} {load:<6} {mode:<11} "
                     f"{window:<6} "
                     f"{b:>10.0f} {f:>10.0f} {delta:>+7.1%}  {verdict}")

    for key in sorted(set(fresh) - set(base)):
        topo, routing, load, mode, window = key
        lines.append(f"{topo:<14} {routing:<10} {load:<6} {mode:<11} "
                     f"{window:<6} {'new':>10} "
                     f"{float(fresh[key].get(args.metric, 0.0)):>10.0f} "
                     f"{'':>8}  new row")

    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report + "\n")

    if regressions:
        msg = (f"bench_compare: {len(regressions)} serial row(s) "
               f"regressed more than {args.threshold:.0%} on "
               f"{args.metric}")
        print(msg, file=sys.stderr)
        if not args.warn_only:
            return 1
        print("bench_compare: --warn-only set; not failing the build",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
