"""Compare two checkouts of troptorus with the benchmark.

    python3 perfbench/compare.py --base ../parent --head .

Run from the root of the checkout whose benchmark is used.  Both sides run
this benchmark's code and problem files; only the program differs (each
side's ``src``).  For every workload it runs ten pairs of runs at
BENCHMARK.json's ``run_seconds``, alternating which side goes first, pair k
on seed k, and prints for every end-to-end metric one verdict:

- improved: the head wins at least 9 of 10 pairs (ties count for neither),
  the medians differ by more than the base's interquartile range and the
  head fails no more jobs than the base (median ``fail_ratio``);
- unresolved: the run-to-run spread (interquartile range over median) of
  either side exceeds the metric's bound, unless every head run is better
  than every base run;
- worse: the head median is worse than the base median by more than the
  bound (a share of the base median);
- no worse: otherwise.

Every ratio is printed with its base.  ``fail_ratio`` has bound 0: any
rise in failed jobs is worse.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402

RUN_TIMEOUT_GRACE_S = 170
PAIRS = 10


def load_benchmark(root):
    """(metric -> (bound, better, unit), run_seconds) from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: (m["bound"], m["better"], m["unit"]) for m in bench["end_to_end"]}
    metrics["fail_ratio"] = (0.0, "lower", "1")
    return metrics, bench["run_seconds"]


def run_once(side, workload, seed, seconds):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
        "--src", os.path.join(side, "src"),
    ]
    out = subprocess.run(
        cmd, capture_output=True, text=True, timeout=seconds + RUN_TIMEOUT_GRACE_S
    )
    if out.returncode != 0:
        raise SystemExit(f"compare: run failed on {side}:\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in res["metrics"].items()}
    values["fail_ratio"] = res["failed"] / res["attempted"]
    return values


def quartiles(values):
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, head, bound, better):
    """(verdict, details) for paired runs of one metric on one workload."""
    worse_sign = 1 if better == "lower" else -1  # > 0 when the head is worse
    wins = sum(1 for b, h in zip(base, head) if worse_sign * (h - b) < 0)
    qb, qh = quartiles(base), quartiles(head)
    mb, mh = qb[1], qh[1]
    iqr_b = qb[2] - qb[0]
    spread = max(
        iqr_b / mb if mb else 0.0,
        (qh[2] - qh[0]) / mh if mh else 0.0,
    )
    if better == "lower":
        all_better = max(head) < min(base)
    else:
        all_better = min(head) > max(base)
    gain = worse_sign * (mh - mb) < 0
    if wins >= 0.9 * len(base) and gain and abs(mh - mb) > iqr_b:
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_sign * (mh - mb) > bound * mb:
        result = "worse"
    else:
        result = "no worse"
    return result, {
        "base_median": mb,
        "base_quartiles": [qb[0], qb[2]],
        "head_median": mh,
        "head_quartiles": [qh[0], qh[2]],
        "ratio_to_base": mh / mb if mb else None,
        "wins": wins,
        "pairs": len(base),
        "spread": spread,
        "bound": bound,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Paired comparison of two checkouts.")
    ap.add_argument("--base", required=True, help="parent checkout root")
    ap.add_argument("--head", required=True, help="changed checkout root")
    opts = ap.parse_args(argv)
    root = os.getcwd()
    metrics, seconds = load_benchmark(root)
    sides = {"base": os.path.abspath(opts.base), "head": os.path.abspath(opts.head)}
    report = {}
    for wl in jobs.WORKLOADS:
        runs = {"base": [], "head": []}
        for k in range(PAIRS):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(sides[side], wl, k + 1, seconds))
        # a gain does not count where more jobs fail than at the base
        more_failures = statistics.median(
            r["fail_ratio"] for r in runs["head"]
        ) > statistics.median(r["fail_ratio"] for r in runs["base"])
        report[wl] = {}
        for name, (bound, better, unit) in metrics.items():
            base = [r[name] for r in runs["base"]]
            head = [r[name] for r in runs["head"]]
            result, info = verdict(base, head, bound, better)
            if result == "improved" and more_failures:
                result = "unresolved"
            report[wl][name] = dict(info, verdict=result, unit=unit)
            ratio = info["ratio_to_base"]
            ratio_text = "n/a (base 0)" if ratio is None else f"{ratio:.4f} of base"
            print(
                f"{wl:9s} {name:16s} {result:10s} head {info['head_median']:.6g} {unit}"
                f" / base {info['base_median']:.6g} {unit} = {ratio_text};"
                f" head better in {info['wins']}/{info['pairs']} pairs;"
                f" base IQR {info['base_quartiles'][1] - info['base_quartiles'][0]:.4g} {unit};"
                f" spread {info['spread']:.3f} vs bound {bound}"
            )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
