#!/usr/bin/env python3
"""Campaign benchmark: `snoc run` on the committed plans, end to end
and layer by layer. See perfbench/README.md.

    python3 perfbench/run.py                      # every workload, both modes
    python3 perfbench/run.py --workload fig12 --seed 3 --seconds 10 --trace 0

Run from the root of a source checkout. The benchmark builds the
library, the `snoc` CLI and its own driver under .bench_build/, and
reads and writes nothing outside the checkout.

--trace 0 times `snoc run` processes back to back (one client, closed
loop) for --seconds and prints the end-to-end metrics. --trace 1
replays the same plan through the library's public calls with spans
and prints the per-layer metrics. Either way the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SNOC = BUILD / "repo" / "snoc"
DRIVER = BUILD / "perfbench_driver"

# Each workload is a committed plan run as users run it. `divisor`
# shortens every simulation window (and fault time) so one `snoc run`
# takes about 2-3 s and a run can take the median of several; every
# load grid stays whole. `threads` is the `snoc run --threads` value,
# chosen for steady numbers (README.md, "Thread counts"). `setup_reps`
# cold set-ups (about 0.3 s in all) follow each timed process.
WORKLOADS = {
    "fig12": {"plan": "plans/fig12.json", "divisor": 8, "threads": 2,
              "setup_reps": 4},
    "table5": {"plan": "plans/table5.json", "divisor": 16, "threads": 2,
               "setup_reps": 2},
    "fig18": {"plan": "plans/fig18.json", "divisor": 2, "threads": 1,
              "setup_reps": 5},
    "resilience": {"plan": "plans/resilience.json", "divisor": 8,
                   "threads": 2, "setup_reps": 5},
}

# A child that runs longer than this is killed, and its points count as
# failed, so that a hang cannot keep the benchmark from finishing.
CHILD_TIMEOUT_S = 120

# Seed 0 keeps every scenario's committed seed; its output must also
# match the reference recorded beside this file.
DEFAULT_SEED = 0


class BenchError(Exception):
    """The benchmark cannot produce a result (no JSON is printed)."""


def threads_for(name):
    """The workload's `--threads`, capped at the machine's CPU count."""
    return min(WORKLOADS[name]["threads"], os.cpu_count() or 1)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_metrics():
    """Metric name -> unit, per mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- build ------------------------------------------------------------------

def check_sources(workload):
    plan = ROOT / WORKLOADS[workload]["plan"]
    for p in (ROOT / "CMakeLists.txt", ROOT / "src", plan):
        if not p.exists():
            raise BenchError(f"missing {p.relative_to(ROOT)}: run from the "
                             "root of a source checkout")


def run_logged(cmd, logfile):
    with open(logfile, "ab") as out:
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                             cwd=ROOT)
    if rc != 0:
        tail = Path(logfile).read_text(errors="replace")[-4000:]
        raise BenchError(f"{' '.join(map(str, cmd))} failed "
                         f"(exit {rc}):\n{tail}")


def build():
    """Configure once, then bring `snoc` and perfbench_driver up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    logfile = BUILD / "build.log"
    if not (BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release", "-DSNOC_SANITIZE="],
                   logfile)
    run_logged(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                "--target", "snoc_cli", "perfbench_driver"], logfile)

    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    sanitize = re.search(r"^SNOC_SANITIZE:\w+=(.*)$", cache, re.M)
    if not build_type or build_type.group(1) not in ("Release",
                                                     "RelWithDebInfo"):
        raise BenchError("refusing to time an unoptimised build")
    if sanitize and sanitize.group(1).strip():
        raise BenchError("refusing to time a sanitizer build")
    info = driver_json(["info"])
    if not info["optimized"] or info["sanitized"]:
        raise BenchError("refusing to time an unoptimised or sanitizer "
                         "build")
    return info


# --- environment ------------------------------------------------------------

def pinned_env():
    """The caller's environment with every `snoc list knobs` knob (and
    any other SNOC_* variable) removed: a stray result store, fast mode,
    batching or sharding setting would change what is measured. Thread
    count, manifest and journal paths are passed as flags instead."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SNOC_")}
    listing = subprocess.run([str(SNOC), "list", "knobs"], env=env,
                             capture_output=True, text=True, check=True)
    knobs = re.findall(r"^(SNOC_[A-Z0-9_]+)\s", listing.stdout, re.M)
    if not knobs:
        raise BenchError("`snoc list knobs` listed no knobs")
    for k in knobs:
        env.pop(k, None)
    return env, knobs


def driver_json(args, env=None):
    try:
        res = subprocess.run([str(DRIVER)] + [str(a) for a in args],
                             env=env, capture_output=True, text=True,
                             cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench_driver {args[0]} timed out")
    if res.returncode != 0:
        raise BenchError(f"perfbench_driver {args[0]} failed "
                         f"(exit {res.returncode}): {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])


# --- one timed `snoc run` ---------------------------------------------------

def timed_snoc(plan, threads, tmp, env):
    """Run `snoc run` once; return (wall s, cpu s, peak RSS MB, exit
    code, stdout bytes, manifest)."""
    out_path = tmp / "stdout.txt"
    manifest = tmp / "manifest.json"
    cmd = [str(SNOC), "run", str(plan), "--threads", str(threads),
           "--manifest", str(manifest), "--journal", str(tmp / "journal.jsonl")]
    with open(out_path, "wb") as out, open(tmp / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=tmp)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    try:
        man = json.loads(manifest.read_text())
        manifest.unlink()
    except (OSError, ValueError):
        man = None
    return wall, cpu, rss_mb, proc.returncode, out_path.read_bytes(), man


# --- the two modes ----------------------------------------------------------

def run_untraced(name, plan, seed, seconds, tmp, env, units):
    w = WORKLOADS[name]
    walls, cpus, rsss, setup, outputs = [], [], [], [], []
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        wall, cpu, rss, rc, out, man = timed_snoc(plan, threads_for(name),
                                                  tmp, env)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        ok = rc == 0 and man is not None and man.get("jobsFailed") == 0
        outputs.append(out if ok else None)
        # Set-up samples are spread over the run, like the processes,
        # so that both medians see the same machine.
        setup += driver_json(["setup", plan, w["setup_reps"]],
                             env)["setup_s"]

    check = driver_json(["check", plan, tmp / "reference.txt"], env)
    expected = [(tmp / "reference.txt").read_bytes()]
    if seed == DEFAULT_SEED:
        expected.append(
            (BENCH_DIR / "reference" / f"{name}.txt").read_bytes())
    bad_iters = sum(1 for out in outputs
                    if out is None or any(out != e for e in expected))
    if bad_iters:
        log(f"{name}: {bad_iters} of {len(outputs)} `snoc run` processes "
            "failed or printed other output than the reference")

    points = check["points"]
    attempted = points * len(walls)
    failed = min(attempted, points * bad_iters + check["failed_rows"] +
                 check["mismatched_points"])
    rates = [check["router_cycles"] / wl for wl in walls]
    values = {
        "wall_s": stats.median(walls),
        "cpu_s": stats.median(cpus),
        "peak_rss_mb": stats.median(rsss),
        "setup_s": stats.median(setup),
        "router_cycles_per_s": stats.median(rates),
        "pass_ratio": 1.0 - stats.fail_ratio(failed, attempted),
    }
    summary = {"iterations": stats.summarize(walls),
               "fail_ratio": stats.fail_ratio(failed, attempted)}
    return result(values, units, attempted, failed), summary


def run_traced(name, plan, seed, tmp, env, units):
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{name}-seed{seed}.json"
    t = driver_json(["trace", plan, threads_for(name), tmp, trace_file],
                    env)

    values = dict(t["metrics"])
    walls = t["job_walls_s"]
    runner_s = values["exp.runner_s"]
    values["exp.job_wall_p50_s"] = stats.median(walls)
    values["exp.job_wall_max_s"] = max(walls)
    values["exp.pool_idle_frac"] = (
        1.0 - sum(walls) / (t["runner_workers"] * runner_s))

    attempted = t["points"]
    failed = min(attempted, t["mismatched_points"] +
                 (0 if t["reports_match"] else attempted))
    summary = {"trace_file": str(trace_file.relative_to(ROOT)),
               "runner_threads": t["runner_threads"],
               "runner_batch_lanes": t["runner_batch_lanes"],
               "job_wall": stats.summarize(walls),
               "fail_ratio": stats.fail_ratio(failed, attempted)}
    return result(values, units, attempted, failed), summary


def result(values, units, attempted, failed):
    if set(values) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}


def run_workload(name, seed, seconds, trace, info):
    e2e_units, layer_units = declared_metrics()
    env, knobs = pinned_env()
    version = subprocess.run([str(SNOC), "version"], env=env,
                             capture_output=True, text=True).stdout.strip()
    w = WORKLOADS[name]
    tmp = BUILD / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        plan = tmp / "plan.json"
        driver_json(["prepare", ROOT / w["plan"], plan, w["divisor"], seed],
                    env)
        if trace:
            res, summary = run_traced(name, plan, seed, tmp, env,
                                      layer_units)
        else:
            res, summary = run_untraced(name, plan, seed, seconds, tmp, env,
                                        e2e_units)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = {"workload": name, "seed": seed, "trace": trace,
              "nproc": os.cpu_count(), "compiler": info["compiler"],
              "snoc_version": version, "threads": threads_for(name),
              "window_divisor": w["divisor"], "knobs_unset": knobs,
              **summary}
    return res, record


def print_table(name, trace, res):
    mode = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {name}: {mode}  correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for k, m in res["metrics"].items():
        print(f"   {k:32s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.trace is None else [args.trace]
    try:
        for n in names:
            check_sources(n)
        info = build()
        results = []
        for trace in modes:
            for n in names:
                res, record = run_workload(n, args.seed, args.seconds,
                                           trace, info)
                print("perfbench-record: " + json.dumps(record))
                results.append((n, trace, res))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    if len(results) > 1:
        for n, trace, res in results:
            print_table(n, trace, res)
    for _, _, res in results:
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
