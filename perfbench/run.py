"""Benchmark for troptorus: four exact-arithmetic workloads, each a closed
loop with one client running its jobs back to back in a fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload refine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the lines before it print every metric by name and unit.
Each run also writes a record to ``.perfbench/results/``: machine, load,
commit, seed, jobs with their input sizes, passes and calibration times.
``compare.py`` compares runs of two checkouts.

The program is imported from ``--src`` (default ``src`` of the checkout);
problem files come from ``problems/``.  Without them the run exits 2.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import spans  # noqa: E402

# set-up-only launches before and as many after the measured one, so the
# samples see the host at two moments
SETUP_LAUNCHES = 4
# A stdlib-only process start (the worker's own stdlib imports), launched
# right after each set-up launch.  It moves with the host's speed as set-up
# does, and not with the program: the host's speed drifts by half within an
# hour, which raw seconds would show as a change of set-up time between two
# sets of runs of the same code.  setup_s is the median over launches of
# set-up time over the paired reference start, times REFERENCE_START_S: the
# set-up time in seconds at the host speed where the reference start takes
# REFERENCE_START_S.  That is the median of 352 reference starts measured on
# a 2-CPU Intel Xeon host under shared load (0.0698 s).  setup_raw_s, the
# median of the plain set-up times, is printed and recorded beside it.
REFERENCE_START = (
    "import argparse, contextlib, dataclasses, fractions, gc, io, json, math,"
    " random, resource, statistics, typing; print('ready', flush=True)"
)
REFERENCE_START_S = 0.07
# seconds a worker may run past its window before it is stopped
WORKER_GRACE_S = 100

# The bounded end-to-end metrics (names, units and bounds) are those of
# BENCHMARK.json; summarize() computes exactly that set or the run fails.
# Pass times in seconds swing by a third with the speed of the shared host,
# so the bounded timings are relative: each pass is divided by the mean of
# the calibration runs just before and after it, which moves with the host
# and not with the program.
# Printed and recorded beside them: the timings in plain seconds, and
# fail_ratio, which is 0 on a correct program (it is also in the
# attempted/failed counts of the result line).
REPORTED = [
    ("setup_raw_s", "s"),
    ("wall_s", "s"),
    ("wall_hi_s", "s"),
    ("slowest_job_s", "s"),
    ("fail_ratio", "1"),
]


class BenchError(RuntimeError):
    pass


def job_metric_names():
    return [f"job.{name}.s" for wl in jobs.WORKLOADS for name in jobs.JOB_NAMES[wl]]


def layer_metrics():
    """name -> (unit, better) of every per-layer metric the traced run gives."""
    metrics = {name: (unit, better) for name, unit, better in spans.LAYER_METRICS}
    metrics.update({name: ("s", "lower") for name in job_metric_names()})
    metrics["trace.overhead_ratio"] = ("1", "lower")
    metrics["trace.unattributed_s"] = ("s", "lower")
    return metrics


def declared_metrics(root):
    """(end_to_end, per_layer) of BENCHMARK.json, each name -> (unit, better)."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    return tuple(
        {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        for key in ("end_to_end", "per_layer")
    )


def check_declared(kind, declared, given):
    """Fail unless the metric names (and units) given are those declared."""
    if declared != given:
        names = sorted(set(declared) ^ set(given)) or sorted(
            n for n in declared if declared[n] != given[n]
        )
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: {names}")


# --- machine record -----------------------------------------------------------


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def loadavg():
    text = _read("/proc/loadavg")
    return text.split()[:3] if text else None


def machine():
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
    }


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(src):
    pkg = os.path.join(src, "troptorus")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# --- worker processes ---------------------------------------------------------


def start(cmd, workdir):
    """Start a process that prints ``ready``; return (process, seconds from
    launch to ready)."""
    os.makedirs(workdir, exist_ok=True)
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, 30)
        raise BenchError(f"process failed during set-up:\n{_read(err_path) or ''}")
    return proc, ready


def launch(opts, mode, workdir):
    """Start a worker; return (process, seconds from launch to ready)."""
    return start([
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--mode", mode,
        "--workload", opts.workload,
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--trace", str(opts.trace),
        "--workdir", workdir,
        "--src", opts.src,
        "--problems", opts.problems,
    ], workdir)


def finish(proc, timeout):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish in time; stopped")
    finally:
        if proc.stdout:
            proc.stdout.close()


def setup_only(opts, base, tag):
    """(set-up time, reference start time) of SETUP_LAUNCHES launch pairs."""
    pairs = []
    for k in range(SETUP_LAUNCHES):
        proc, ready = launch(opts, "setup", os.path.join(base, f"setup-{tag}{k}"))
        finish(proc, 60)
        ref, ref_ready = start(
            [sys.executable, "-c", REFERENCE_START], os.path.join(base, f"ref-{tag}{k}")
        )
        finish(ref, 60)
        if proc.returncode != 0 or ref.returncode != 0:
            raise BenchError("set-up launch failed")
        pairs.append((ready, ref_ready))
    return pairs


def run_workload(opts, root):
    base = os.path.join(root, ".perfbench", "work", f"{os.getpid()}-{time.time_ns()}")
    load_start = loadavg()
    try:
        setup = setup_only(opts, base, "before")
        workdir = os.path.join(base, "run")
        proc, _ = launch(opts, "run", workdir)
        finish(proc, opts.seconds + WORKER_GRACE_S)
        if proc.returncode != 0:
            raise BenchError(
                f"worker exited {proc.returncode}:\n"
                f"{_read(os.path.join(workdir, 'stderr.txt')) or ''}"
            )
        setup += setup_only(opts, base, "after")
        with open(os.path.join(workdir, "result.json"), "r", encoding="utf-8") as fh:
            record = json.load(fh)
        spans_path = os.path.join(workdir, "spans.jsonl")
        return summarize(opts, root, record, setup, load_start, spans_path)
    finally:
        shutil.rmtree(base, ignore_errors=True)


# --- metrics ------------------------------------------------------------------


def high_percentile(values, beyond=10):
    """The highest percentile with at least ``beyond`` passes above it.

    With fewer than beyond + 1 passes the minimum is reported: it is the
    percentile with the most passes above it.
    """
    ordered = sorted(values)
    rank = max(1, len(ordered) - beyond)  # 1-based
    return ordered[rank - 1], {
        "percentile": 100.0 * rank / len(ordered),
        "passes_beyond": len(ordered) - rank,
        "passes": len(ordered),
    }


def summarize(opts, root, record, setup, load_start, spans_path):
    untraced = [p for p in record["passes"] if not p["traced"]]
    traced = [p for p in record["passes"] if p["traced"]]
    if not untraced:
        raise BenchError("no untraced pass completed")
    calib_s = record["calib_s"]
    # pass i ran between calibrations i and i + 1
    bracket = [(calib_s[i] + calib_s[i + 1]) / 2 for i in range(len(record["passes"]))]
    rel = [sum(p["jobs"].values()) / c for p, c in zip(record["passes"], bracket)]
    bracket = [c for p, c in zip(record["passes"], bracket) if not p["traced"]]
    rels = [r for p, r in zip(record["passes"], rel) if not p["traced"]]
    walls = [sum(p["jobs"].values()) for p in untraced]
    slowest = [max(p["jobs"].values()) for p in untraced]
    wall_s = statistics.median(walls)
    wall_hi, hi_info = high_percentile(walls)
    failed = len(record["failures"])
    attempted = record["attempted"]
    e2e = {
        "setup_s": statistics.median(s / r for s, r in setup) * REFERENCE_START_S,
        "wall_rel": statistics.median(rels),
        "wall_hi_rel": high_percentile(rels)[0],
        "slowest_job_rel": statistics.median(s / c for s, c in zip(slowest, bracket)),
        "peak_rss_mib": record["peak_rss_kib"] / 1024.0,
    }
    reported = {
        "setup_raw_s": statistics.median(s for s, _ in setup),
        "wall_s": wall_s,
        "wall_hi_s": wall_hi,
        "slowest_job_s": statistics.median(slowest),
        "fail_ratio": failed / attempted,
    }
    job_s = {
        name: statistics.median(p["jobs"][name] for p in untraced)
        for name in jobs.JOB_NAMES[opts.workload]
    }
    check_declared("end_to_end", set(opts.end_to_end), set(e2e))
    units = {name: unit for name, (unit, _) in opts.end_to_end.items()}
    if opts.trace:
        layer = record["trace"]
        units = {name: unit for name, (unit, _) in opts.per_layer.items()}
        values = {name: layer.get(name, 0) for name, _, _ in spans.LAYER_METRICS}
        for name in job_metric_names():
            values[name] = 0.0
        values.update({f"job.{k}.s": v for k, v in job_s.items()})
        # calibrated pass times, so a change of host speed between the
        # interleaved passes does not show as overhead
        values["trace.overhead_ratio"] = statistics.median(
            r for p, r in zip(record["passes"], rel) if p["traced"]
        ) / statistics.median(rels)
        values["trace.unattributed_s"] = layer["trace.unattributed_s"]
    else:
        values = e2e
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    result_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(result_dir, exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}-{time.time_ns()}"
    full = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(opts.src),
        "program": record["troptorus_file"],
        "machine": dict(
            machine(),
            loadavg_start=load_start,
            loadavg_end=loadavg(),
            calib_s=calib_s,
            calib_median_s=statistics.median(calib_s),
        ),
        "jobs": record["jobs"],
        "passes": {"warmup": 1, "untraced": len(untraced), "traced": len(traced)},
        "window_s": record["window_s"],
        "setup_samples_s": [s for s, _ in setup],
        "reference_starts_s": [r for _, r in setup],
        "pass_times_s": walls,
        "job_times_s": {name: [p["jobs"][name] for p in untraced] for name in job_s},
        "pass_rel": rels,
        "wall_hi": hi_info,
        "end_to_end": e2e,
        "reported": reported,
        "attempted": attempted,
        "failed": failed,
        "failures": record["failures"],
        "metrics": metrics,
    }
    if opts.trace:
        full["trace"] = record["trace"]
        # traced functions this workload never calls: their metrics read 0
        full["not_called"] = [q for q, n in record["trace"]["calls"].items() if not n]
        if os.path.exists(spans_path):
            full["spans_file"] = f"{stem}.spans.jsonl.gz"
            with open(spans_path, "rb") as src, gzip.open(
                os.path.join(result_dir, full["spans_file"]), "wb"
            ) as dst:
                shutil.copyfileobj(src, dst)
    with open(os.path.join(result_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    return full


# --- entry --------------------------------------------------------------------


def print_lines(result):
    wl = result["workload"]
    info = result["wall_hi"]
    notes = {
        "wall_hi_s": f"p{info['percentile']:.0f} of {info['passes']} passes",
        "wall_hi_rel": f"p{info['percentile']:.0f} of {info['passes']} passes",
        "fail_ratio": f"{result['failed']} of {result['attempted']} jobs",
    }
    lines = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if not result["trace"]:
        lines += [(name, result["reported"][name], unit) for name, unit in REPORTED]
    for name, value, unit in lines:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{wl:9s} {name:45s} {value:.6g} {unit}{note}")
    for failure in result["failures"][:10]:
        print(f"{wl:9s} FAILED {failure}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", default=None, help="program source dir (default: src)")
    opts = ap.parse_args(argv)
    if opts.seconds <= 0:
        ap.error("--seconds must be positive")
    return opts


def main(argv=None) -> int:
    opts = parse_args(argv)
    root = os.getcwd()
    opts.src = os.path.abspath(opts.src or os.path.join(root, "src"))
    opts.problems = os.path.join(root, "problems")
    missing = [
        p
        for p in (
            os.path.join(opts.src, "troptorus", "__init__.py"),
            os.path.join(opts.problems, "n1.json"),
            os.path.join(opts.problems, "n2.json"),
            os.path.join(opts.problems, "bad.json"),
        )
        if not os.path.isfile(p)
    ]
    if missing:
        sys.stderr.write(
            "perfbench: run from the root of a troptorus checkout; missing "
            + ", ".join(missing) + "\n"
        )
        return 2
    names = jobs.WORKLOADS if opts.workload == "all" else (opts.workload,)
    results = []
    try:
        opts.end_to_end, opts.per_layer = declared_metrics(root)
        check_declared("per_layer", opts.per_layer, layer_metrics())
        for name in names:
            opts.workload = name
            results.append(run_workload(opts, root))
            print_lines(results[-1])
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
