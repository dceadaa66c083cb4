"""The modlat benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see each module's docstring for its job mix and checks):
  oracle        Gram matrix -> exact theta coefficients -> decomposition
  closed_form   exact q-series work with almost no enumeration
  gram_secrecy  numeric theta values and secrecy functions from Grams

Each run is a closed loop with one client: a fresh interpreter runs one
job after another on one thread, anchors first, then whole cycles of the
workload's job mix until the first cycle boundary after --seconds of job
time.  Every job's output is checked outside the timed path.  The inputs
are made from --seed, and the package sees only those generated inputs.

On a shared host the machine's speed changes from second to second, so
every end-to-end time is rescaled to a reference machine speed
(calibrate.py).  A fixed pure-Python kernel, run in a process of its own,
is timed before the first job, after every 0.2 s of job time and after
the last job, and the run's job times are scaled by the machine's mean
speed over those readings; the set-up times likewise by readings taken
in this process before and after each set-up interpreter.  The raw
figures are printed next to them.  All of the benchmark's processes are
pinned to one CPU, the one the readings describe; they never run at the
same time.

--trace 0 prints the end-to-end metrics:
  setup_s      interpreter start to first job (import modlat and build the
               inputs), median of SETUP_SAMPLES fresh interpreters
  jobs_per_s   jobs that completed and passed their check / time in jobs
  job_p50_s    median job latency
  job_tail_s   job latency at the workload's TAIL_PERCENTILE, the highest
               percentile with at least ten samples beyond it at baseline
  peak_rss_mb  ru_maxrss of the run's process
and, for people, failed_ratio (jobs that raised or failed their check /
jobs attempted) with each failure and its reason, the known baseline
defects, the measured share of each input property and the memo-cache
hit ratios.

--trace 1 runs a fixed job list, the anchors and the workload's
TRACE_CYCLES cycles whatever --seconds says, with every public function
of the package's layers wrapped (tracer.py), and prints the per-layer
metrics; so counts and seconds describe the same work on every commit.
It then runs the same jobs untraced in another fresh interpreter to give
trace.overhead_ratio, the ratio of their rescaled job times.  Spans are
written to .perfbench/.

The last line of output is one JSON object: correct, attempted, failed
and metrics.  The exit code is 0 only if that line was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from calibrate import calibrate, to_reference
from tracer import METRICS, metric_unit
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 11
CHILD_TIMEOUT = 170
SPAN_DIR = ".perfbench"

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


#: Set in every worker: thread pools pinned to one thread, fixed hashing.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def child_env():
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def spawn(workload, seed, seconds, mode, trace=0, cycles=None, spans=None):
    """Run worker.py in a fresh interpreter; (spawn time, its JSON)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--trace", str(trace)]
    if cycles is not None:
        cmd += ["--cycles", str(cycles)]
    if spans is not None:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s timed out after %d s" % (mode,
                                                             CHILD_TIMEOUT))
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d: %s" % (
            mode, proc.returncode, proc.stderr.strip()[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker %s printed nothing" % mode)
    return spawned, json.loads(lines[-1])


def nearest_rank(sorted_values, p):
    """Value at rank ceil(p/100 * n) and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def summarize(workload, out, setups):
    """Raw metrics and counts of a run."""
    records = out["records"]
    attempted = len(records)
    ok = [r for r in records if r[2] == "ok"]
    failed = [r for r in records if r[2] == "failed"]
    defects = [r for r in records if r[2] == "defect"]
    lat = sorted(r[1] for r in records)
    busy = sum(lat)
    percentile = WORKLOADS[workload].TAIL_PERCENTILE
    tail, beyond = nearest_rank(lat, percentile)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(ok) / busy,
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail,
        "peak_rss_mb": out["rss_mb"],
    }
    info = {
        "attempted": attempted, "ok": len(ok), "failed": len(failed),
        "defects": len(defects), "busy_s": busy, "cycles": out["cycles"],
        "setup_samples": len(setups), "tail_percentile": percentile,
        "tail_beyond": beyond,
    }
    return metrics, info


def describe(out, info):
    """What a run did besides its metrics: input-property shares, job
    mix, memo-cache hit ratios, tail percentile and known defects."""
    groups = {}
    for key, count in out["props"].items():
        prop, value = key.split("=", 1)
        groups.setdefault(prop, {})[value] = count
    inputs = {prop: {v: c / sum(counts.values())
                     for v, c in sorted(counts.items())}
              for prop, counts in sorted(groups.items())}
    mix = {}
    for kind, *_ in out["records"]:
        mix[kind] = mix.get(kind, 0) + 1
    caches = {name: {"hits": hits, "calls": total, "ratio": hits / total}
              for name, (hits, total) in (out.get("caches") or {}).items()
              if total}
    return {"inputs": inputs, "job_mix": dict(sorted(mix.items())),
            "caches": caches, "tail_percentile": info["tail_percentile"],
            "known_defects": ["%s: %s" % tuple(d) for d in out["defects"]]}


def report(workload, seed, metrics, raw, info, out, desc):
    p = print
    n = info["attempted"]
    p("== %s  seed %d  %d jobs in %d cycles + anchors, %.2f s in jobs; "
      "figures at the reference speed, raw ones in brackets"
      % (workload, seed, n, info["cycles"], info["busy_s"]))
    p("  setup_s       %12.6f s     [%.6f] median of %d fresh interpreters"
      % (metrics["setup_s"], raw["setup_s"], info["setup_samples"]))
    p("  jobs_per_s    %12.6f 1/s   [%.6f] %d passed, n=%d"
      % (metrics["jobs_per_s"], raw["jobs_per_s"], info["ok"], n))
    p("  job_p50_s     %12.6f s     [%.6f] n=%d"
      % (metrics["job_p50_s"], raw["job_p50_s"], n))
    p("  job_tail_s    %12.6f s     [%.6f] p%g, %d samples beyond it, n=%d"
      % (metrics["job_tail_s"], raw["job_tail_s"], info["tail_percentile"],
         info["tail_beyond"], n))
    p("  failed_ratio  %12.6f       %d failed / %d attempted"
      % (info["failed"] / n, info["failed"], n))
    p("  peak_rss_mb   %12.3f MB" % metrics["peak_rss_mb"])
    p("  known baseline defects: %d / %d attempted (not counted as failed)"
      % (info["defects"], n))
    for defect in desc["known_defects"]:
        p("    defect  %s" % defect)
    for label, reason in out["failures"]:
        p("    FAILED  %s: %s" % (label, reason))
    for problem in out["selfcheck"]:
        p("    SELF-CHECK  %s" % problem)
    for prop, shares in desc["inputs"].items():
        p("  input %-10s %s" % (prop, ", ".join(
            "%s %.1f%%" % (v, 100.0 * share) for v, share in shares.items())))
    p("  job mix       %s" % ", ".join("%s %d" % kv
                                       for kv in desc["job_mix"].items()))
    for name, c in desc["caches"].items():
        p("  cache %-17s hit ratio %.3f (%d / %d calls)"
          % (name, c["ratio"], c["hits"], c["calls"]))


def rescale(raw, setup_factor, job_factor):
    """Raw metrics at the reference machine speed."""
    return {"setup_s": raw["setup_s"] * setup_factor,
            "jobs_per_s": raw["jobs_per_s"] / job_factor,
            "job_p50_s": raw["job_p50_s"] * job_factor,
            "job_tail_s": raw["job_tail_s"] * job_factor,
            "peak_rss_mb": raw["peak_rss_mb"]}


def end_to_end(workload, seed, seconds):
    """Run one workload untraced; (correct, attempted, failed, metrics,
    description)."""
    readings, setups = [calibrate()], []
    for _ in range(SETUP_SAMPLES):
        spawned, out = spawn(workload, seed, seconds, "setup")
        setups.append(out["ready"] - spawned)
        readings.append(calibrate())
    _, out = spawn(workload, seed, seconds, "run")
    raw, info = summarize(workload, out, setups)
    metrics = rescale(raw, to_reference(readings), out["to_reference"])
    desc = describe(out, info)
    desc["raw"] = raw
    report(workload, seed, metrics, raw, info, out, desc)
    correct = info["failed"] == 0 and not out["selfcheck"]
    units = dict(END_TO_END)
    return correct, info["attempted"], info["failed"], {
        k: {"value": metrics[k], "unit": units[k]} for k, _ in END_TO_END}, \
        desc


def per_layer(workload, seed, seconds):
    spans = os.path.join(SPAN_DIR, "spans-%s-%d.csv.gz" % (workload, seed))
    cycles = WORKLOADS[workload].TRACE_CYCLES
    _, traced = spawn(workload, seed, seconds, "run", trace=1, cycles=cycles,
                      spans=spans)
    _, plain = spawn(workload, seed, seconds, "run", cycles=cycles)
    n = len(traced["records"])
    t_traced = sum(r[1] for r in traced["records"]) * traced["to_reference"]
    t_plain = sum(r[1] for r in plain["records"]) * plain["to_reference"]
    failed = sum(r[2] == "failed" for r in traced["records"])
    layers = traced["layers"]
    print("== %s  seed %d  traced: %d jobs in %d cycles + anchors, %d spans "
          "(%s), %.2f s in jobs traced, %.2f s untraced (rescaled)"
          % (workload, seed, n, cycles, traced["spans"], spans, t_traced,
             t_plain))
    metrics = {}
    for name in METRICS:
        metrics[name] = {"value": layers[name], "unit": metric_unit(name)}
        print("  %-32s %14.6f %s" % (name, layers[name], metric_unit(name)))
    metrics["trace.overhead_ratio"] = {"value": t_traced / t_plain,
                                       "unit": "ratio"}
    print("  %-32s %14.6f ratio" % ("trace.overhead_ratio",
                                     t_traced / t_plain))
    for label, reason in traced["failures"]:
        print("    FAILED  %s: %s" % (label, reason))
    correct = failed == 0 and not traced["selfcheck"]
    return correct, n, failed, metrics, None


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    # Workers and calibration processes inherit this; the readings then
    # come from the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            c, a, f, m, _ = run(name, args.seed, args.seconds)
            correct, attempted, failed = correct and c, attempted + a, \
                failed + f
            if len(names) > 1:
                m = {"%s.%s" % (name, k): v for k, v in m.items()}
            metrics.update(m)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
