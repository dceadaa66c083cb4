"""One benchmark process: set up a workload, then run its closed loop.

Started by run.py in a fresh interpreter for every run; prints one JSON
object as its last line of output.  Modes:
  setup   import modlat, build the inputs, report when ready, exit;
  run     the same, then run jobs one after another on one thread: the
          anchors, then whole cycles until the first cycle boundary
          after --seconds of job time or, with --cycles N, exactly N
          cycles (the fixed job list of a traced run and its untraced
          twin).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import time
import traceback
from collections import Counter

import common
import closed_form
import gram_secrecy
import oracle
from calibrate import Calibrator, to_reference

WORKLOADS = {"oracle": oracle, "closed_form": closed_form,
             "gram_secrecy": gram_secrecy}


def job_stream(wl, st):
    """(job, is_first_job_of_a_cycle) for the anchors, then cycles."""
    for job in wl.anchors(st):
        yield job, False
    while True:
        for i, job in enumerate(wl.cycle(st)):
            yield job, i == 0


#: Job seconds between two readings of the host's speed.
CALIBRATION_INTERVAL = 0.2


def run_loop(wl, st, seconds, max_cycles, tracer, calibrator):
    records = []        # [kind, seconds, status]
    failures = []       # [label, reason]
    defects = []        # [label, reason]
    props = Counter()
    first_ok = {}       # kind -> (job, output)
    readings = [calibrator.measure()]
    busy = since = 0.0
    cycles = 0
    for job, new_cycle in job_stream(wl, st):
        if new_cycle:
            if max_cycles is None and busy >= seconds or \
                    cycles == max_cycles:
                break
            cycles += 1
        span = tracer.begin_job(len(records), job.kind) if tracer else None
        t0 = time.perf_counter()
        err = None
        try:
            out = job.run()
        except job.known_errors as exc:
            err, known = exc, True
        except Exception as exc:  # a job's failure is data, not a crash
            err, known = exc, False
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_job(span)
            tracer.paused = True
        if err is None:
            try:
                note = job.check(out)
                status = "defect" if note else "ok"
                if note:
                    defects.append([job.label, note])
                else:
                    first_ok.setdefault(job.kind, (job, out))
            except common.Mismatch as exc:
                status = "failed"
                failures.append([job.label, "check: %s" % exc])
        elif known:
            status = "defect"
            defects.append([job.label, "%s: %s" % (type(err).__name__, err)])
        else:
            status = "failed"
            failures.append([job.label, "".join(
                traceback.format_exception_only(type(err), err)).strip()])
        if tracer:
            tracer.paused = False
        records.append([job.kind, dt, status])
        for key, value in job.props.items():
            props["%s=%s" % (key, value)] += 1
        busy += dt
        since += dt
        if since >= CALIBRATION_INTERVAL:
            readings.append(calibrator.measure())
            since = 0.0
    readings.append(calibrator.measure())
    selfcheck = negative_selfcheck(first_ok, tracer)
    return {"records": records, "failures": failures, "defects": defects,
            "props": dict(props), "cycles": cycles, "selfcheck": selfcheck,
            "to_reference": to_reference(readings)}


def negative_selfcheck(first_ok, tracer):
    """Each job kind's check must reject a perturbed passing output."""
    if tracer:
        tracer.paused = True
    problems = []
    for kind, (job, out) in sorted(first_ok.items()):
        try:
            job.check(job.perturb(out))
        except common.Mismatch:
            continue
        problems.append("%s: check accepted a perturbed output of %s"
                        % (kind, job.label))
    return problems


def cache_ratios(modlat):
    out = {}
    for name, fn in (("theta.expand", modlat.theta.expand),
                     ("codes.coset_theta", modlat.codes.coset_theta)):
        info = fn.cache_info()
        total = info.hits + info.misses
        out[name] = [info.hits, total]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cycles", type=int, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    modlat = common.import_package()
    wl = WORKLOADS[args.workload]
    st = wl.setup(modlat, random.Random(args.seed))
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return
    wl.load_refs(st)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(modlat)
    calibrator = Calibrator()
    try:
        result = run_loop(wl, st, args.seconds, args.cycles, tracer,
                          calibrator)
    finally:
        calibrator.close()
    result["ready"] = ready
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        / 1024.0
    result["caches"] = cache_ratios(modlat) if not tracer else None
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.span_start)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
