"""One workload process: set up, then run passes of jobs until the window
closes, with a machine-speed calibration between passes.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready``
once set-up is done (interpreter start, ``import troptorus`` and the
generated problem files) and, in ``run`` mode, writes its record as JSON to
``<workdir>/result.json``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction


def calibrate(n: int = 6000) -> float:
    """A fixed stdlib Fraction loop; imports nothing from troptorus."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, n):
        a = Fraction(k, k + 1)
        b = Fraction(k + 2, 2 * k + 3)
        acc += (a * b + a / b - b).numerator % 7
    return time.perf_counter() - t0


def run_pass(workload, tracer=None):
    """Run every job once; job times exclude the untimed output checks."""
    times, failures, attempted = {}, [], 0
    out = workload.out
    for job in workload.jobs:
        if os.path.exists(out):
            os.remove(out)
        attempted += 1
        if tracer is not None:
            tracer.begin_job(job.name)
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a job that raises counts as failed
            times[job.name] = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            failures.append(f"{job.name}: raised {type(exc).__name__}: {exc}")
            continue
        times[job.name] = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
        try:
            errors = job.check(result)
        except Exception as exc:
            errors = [f"{job.name}: check raised {type(exc).__name__}: {exc}"]
        if errors:
            more = f" (and {len(errors) - 1} more)" if len(errors) > 1 else ""
            failures.append(errors[0] + more)
    return times, failures, attempted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--problems", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import troptorus

    src = os.path.realpath(args.src)
    if not os.path.realpath(troptorus.__file__).startswith(src + os.sep):
        sys.stderr.write(f"troptorus imported from {troptorus.__file__}, not {src}\n")
        return 2
    import jobs

    workload = jobs.build(args.workload, args.seed, args.workdir, args.problems)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()  # raises if a listed function is missing
        tracer.uninstall()
    window_start = time.perf_counter()
    deadline = window_start + args.seconds

    passes, failures, calib = [], [], []
    attempted = 0
    # warm-up: fills caches and finishes lazy set-up; checked, not timed
    _, warm_failures, warm_attempted = run_pass(workload)
    failures.extend(warm_failures)
    attempted += warm_attempted
    kinds = [False, True] if tracer is not None else [False]
    est = {}
    k = 0
    while True:
        traced = kinds[k % len(kinds)]
        now = time.perf_counter()
        done = {p["traced"] for p in passes}
        if set(kinds) <= done and now + est.get(traced, 0.0) > deadline:
            break
        gc.collect()
        calib.append(calibrate())
        if traced:
            tracer.install()
            tracer.begin_pass()
        times, pass_failures, n = run_pass(workload, tracer if traced else None)
        if traced:
            tracer.uninstall()
            tracer.end_pass()
        attempted += n
        failures.extend(pass_failures)
        passes.append({"traced": traced, "jobs": times})
        est[traced] = statistics.median(
            sum(p["jobs"].values()) + 0.1 for p in passes if p["traced"] == traced
        )
        k += 1
    calib.append(calibrate())

    record = {
        "passes": passes,
        "calib_s": calib,
        "window_s": time.perf_counter() - window_start,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": [
            {"name": j.name, "kind": j.kind, "sizes": j.sizes} for j in workload.jobs
        ],
        "troptorus_file": troptorus.__file__,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write_spans(os.path.join(args.workdir, "spans.jsonl"))
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
