"""Repeat the benchmark over seeds and record its spread.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 [--write]

For every workload in BENCHMARK.json, runs the untraced benchmark once
per seed 1..runs, one after another, for BENCHMARK.json's run_seconds,
then prints every end-to-end metric's median, quartiles
(statistics.quantiles, n=4) and spread (interquartile distance over the
median) against its bound, and the spread of the same metric computed
from raw, not rescaled, times (calibrate.py).  With --write the
figures, what the first seed's run reports about its inputs
(run.describe) and the machine details go to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics

import run


def machine():
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "child_env": run.CHILD_ENV}


def run_once(workload, seed, seconds):
    """One untraced run; its report is kept and printed only on failure."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        correct, _, failed, metrics, desc = run.end_to_end(workload, seed,
                                                           seconds)
    if not correct or failed:
        print(text.getvalue())
        raise SystemExit("%s seed %d: incorrect output" % (workload, seed))
    values = {k: v["value"] for k, v in metrics.items()}
    return values, desc.pop("raw"), desc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    os.chdir(run.ROOT)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    record = {"machine": machine(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    worst = 0.0
    for wl in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        raw_values = {name: [] for name in bounds}
        first = None
        counts = []
        for seed in seeds:
            metrics, raw, desc = run_once(wl, seed, seconds)
            for name in bounds:
                values[name].append(metrics[name])
                raw_values[name].append(raw[name])
            counts.append(sum(desc["job_mix"].values()))
            first = first or desc
            print("%s seed %d: %s" % (wl, seed, "  ".join(
                "%s=%.6g" % (k, v[-1]) for k, v in values.items())),
                flush=True)
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            r1, r2, r3 = statistics.quantiles(raw_values[name], n=4)
            rows[name] = {"median": q2, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name],
                          "raw_median": r2, "raw_spread": (r3 - r1) / r2}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                  "%.4f  (bound %.2f, spread/bound %.2f; raw spread %.4f)"
                  % (name, q2, q1, q3, spread, bounds[name],
                     spread / bounds[name], (r3 - r1) / r2), flush=True)
        record["workloads"][wl] = {"metrics": rows, "jobs_attempted": counts,
                                   "run_seed_%d" % seeds[0]: first}
    print("largest spread/bound (setup_s excluded): %.2f" % worst)
    if args.write:
        path = os.path.join(run.HERE, "baseline.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", os.path.relpath(path, run.ROOT))


if __name__ == "__main__":
    main()
