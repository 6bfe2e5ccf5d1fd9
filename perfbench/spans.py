"""Out-of-program trace of troptorus: spans around calls into each module's
public functions, recorded from the benchmark's side.

The package binds names with ``from .x import y``, so a function is wrapped
in every ``troptorus`` namespace that binds it, not only where it is
defined; calls inside the package (``paf.tate_iterate`` calling
``dyadic_refine_step``) are then traced too.  Bindings are found by
identity, so each one is wrapped whatever its name; ``install`` fails when a
listed function is missing from the module that should define it, so a
rename or a move shows as an error instead of a zero.

Span record, one JSON object per line, the shape an in-program tracer
should emit as well::

    {"id": 7, "parent": 3, "job": "tate_n2", "name": "paf.tate_iterate",
     "start": 12.5, "end": 12.9, "attrs": {"i": 2}}

``start`` and ``end`` are ``time.perf_counter()`` seconds; ``parent`` is the
id of the enclosing span (a job span named ``job.<job>`` at the top);
``attrs`` holds counts read from the call's arguments and return value.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# module -> public functions traced in it
TRACED = {
    "lattice": ("reduce_mod",),
    "linalg": ("solve", "inverse"),
    "complexes": (
        "dyadic_refine_step",
        "is_refinement",
        "adjacent_pairs",
        "unfold",
        "barycentric_triangulation",
    ),
    "paf": (
        "check_strongly_convex",
        "auto_epsilon",
        "tate_iterate",
        "sup_distance_to_quadratic",
        "build_model_function",
        "hat_test_functions",
        "locate_cell",
    ),
    "measures": (
        "empirical_averages",
        "integrate",
        "haar",
        "monte_carlo_pushforward",
        "mass_near",
    ),
    "equidist": (
        "torsion_grid",
        "discrepancy",
        "fixed_denominator_obstruction",
        "collapse_experiment",
    ),
    "serialization": ("canonical_dumps",),
    "cli": ("load_problem",),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _complex_key(c):
    return hash((c.period, c.level, len(c.cells), c.cells[0], c.cells[-1]))


def _mass_near_points(args, kwargs, result):
    mu = _arg(args, kwargs, 0, "mu")
    return {"points": len(mu.points) if hasattr(mu, "points") else len(mu.atoms)}


# counts read from (args, kwargs, result) of each call
COUNTERS = {
    "complexes.dyadic_refine_step": lambda a, k, r: {"cells_out": len(r[0].cells)},
    "complexes.is_refinement": lambda a, k, r: {
        "cells_checked": len(_arg(a, k, 0, "fine").cells)
    },
    "complexes.adjacent_pairs": lambda a, k, r: {
        "pairs": len(r),
        "complex": _complex_key(_arg(a, k, 0, "c")),
    },
    "paf.check_strongly_convex": lambda a, k, r: {"faces": len(r.slacks)},
    "paf.tate_iterate": lambda a, k, r: {"i": _arg(a, k, 1, "i")},
    "paf.sup_distance_to_quadratic": lambda a, k, r: {
        "cells": len(_arg(a, k, 0, "f").complex.cells)
    },
    "paf.hat_test_functions": lambda a, k, r: {"tests": len(r)},
    "measures.empirical_averages": lambda a, k, r: {
        "points": len(_arg(a, k, 1, "e").points)
    },
    "measures.monte_carlo_pushforward": lambda a, k, r: {"samples": len(r.points)},
    "measures.mass_near": _mass_near_points,
    "equidist.torsion_grid": lambda a, k, r: {"points": len(r.points)},
    "serialization.canonical_dumps": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
}

# (metric, unit, better): the per-layer metrics of a traced run
LAYER_METRICS = [
    ("lattice.reduce_mod.calls", "count", "lower"),
    ("lattice.reduce_mod.self_s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("linalg.inverse.calls", "count", "lower"),
    ("complexes.dyadic_refine_step.self_s", "s", "lower"),
    ("complexes.dyadic_refine_step.calls", "count", "lower"),
    ("complexes.dyadic_refine_step.cells_out", "count", "lower"),
    ("complexes.is_refinement.self_s", "s", "lower"),
    ("complexes.is_refinement.cells_checked", "count", "lower"),
    ("complexes.adjacent_pairs.self_s", "s", "lower"),
    ("complexes.adjacent_pairs.calls", "count", "lower"),
    ("complexes.adjacent_pairs.pairs", "count", "lower"),
    ("complexes.adjacent_pairs.useful_ratio", "1", "higher"),
    ("complexes.unfold.self_s", "s", "lower"),
    ("complexes.barycentric_triangulation.self_s", "s", "lower"),
    ("paf.check_strongly_convex.self_s", "s", "lower"),
    ("paf.check_strongly_convex.calls", "count", "lower"),
    ("paf.check_strongly_convex.faces", "count", "lower"),
    ("paf.auto_epsilon.certificates", "count", "lower"),
    ("paf.auto_epsilon.useful_ratio", "1", "higher"),
    ("paf.tate_iterate.self_s", "s", "lower"),
    ("paf.tate_iterate.steps", "count", "lower"),
    ("paf.tate_iterate.useful_ratio", "1", "higher"),
    ("paf.sup_distance_to_quadratic.self_s", "s", "lower"),
    ("paf.sup_distance_to_quadratic.cells", "count", "lower"),
    ("paf.build_model_function.self_s", "s", "lower"),
    ("paf.hat_test_functions.self_s", "s", "lower"),
    ("paf.hat_test_functions.tests", "count", "lower"),
    ("paf.locate_cell.calls", "count", "lower"),
    ("paf.locate_cell.self_s", "s", "lower"),
    ("measures.empirical_averages.self_s", "s", "lower"),
    ("measures.empirical_averages.points", "count", "lower"),
    ("measures.integrate.self_s", "s", "lower"),
    ("measures.integrate.calls", "count", "lower"),
    ("measures.haar.self_s", "s", "lower"),
    ("measures.monte_carlo_pushforward.self_s", "s", "lower"),
    ("measures.monte_carlo_pushforward.samples", "count", "lower"),
    ("measures.mass_near.self_s", "s", "lower"),
    ("measures.mass_near.points", "count", "lower"),
    ("equidist.torsion_grid.self_s", "s", "lower"),
    ("equidist.torsion_grid.points", "count", "lower"),
    ("equidist.discrepancy.self_s", "s", "lower"),
    ("equidist.discrepancy.calls", "count", "lower"),
    ("equidist.fixed_denominator_obstruction.self_s", "s", "lower"),
    ("equidist.collapse_experiment.self_s", "s", "lower"),
    ("serialization.canonical_dumps.self_s", "s", "lower"),
    ("serialization.canonical_dumps.bytes", "count", "lower"),
    ("cli.load_problem.self_s", "s", "lower"),
    ("cli.load_problem.calls", "count", "lower"),
]


class CoverageError(RuntimeError):
    pass


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        # span: [name, start, end, parent index, job, attrs]
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.pass_ranges: list = []
        self._patched: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.job, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every listed function in every troptorus module binding it."""
        import troptorus  # noqa: F401

        for mod in TRACED:
            __import__(f"troptorus.{mod}")
        namespaces = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "troptorus" or key.startswith("troptorus."))
        ]
        for mod, names in TRACED.items():
            home = sys.modules[f"troptorus.{mod}"]
            for fn_name in names:
                qual = f"{mod}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original) or getattr(original, "__module__", None) != home.__name__:
                    self.uninstall()
                    raise CoverageError(f"traced function {qual} is missing from troptorus.{mod}")
                wrapper = self._wrap(qual, original, COUNTERS.get(qual))
                # every binding of the function object, under any name
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    # -- jobs and passes -----------------------------------------------------

    def begin_job(self, job):
        self.job = job
        idx = len(self.spans)
        self.spans.append([f"job.{job}", time.perf_counter(), 0.0, None, job, None])
        self.stack.append(idx)

    def end_job(self):
        idx = self.stack.pop()
        self.spans[idx][2] = time.perf_counter()
        self.job = None

    def begin_pass(self):
        self.pass_ranges.append([len(self.spans), None])

    def end_pass(self):
        self.pass_ranges[-1][1] = len(self.spans)

    # -- aggregation ---------------------------------------------------------

    def _pass_metrics(self, lo, hi):
        spans = self.spans
        child = [0.0] * (hi - lo)
        for s in spans[lo:hi]:
            if s[3] is not None:
                child[s[3] - lo] += s[2] - s[1]

        def ancestor(idx, name):
            p = spans[idx][3]
            while p is not None:
                if spans[p][0] == name:
                    return p
                p = spans[p][3]
            return None

        calls, self_s, counts = {}, {}, {}
        complexes_seen = set()
        unattributed = 0.0
        certificates = 0
        tate_steps = 0
        tate_top: dict = {}
        for idx in range(lo, hi):
            name, t0, t1, parent, job, attrs = spans[idx]
            own = (t1 - t0) - child[idx - lo]
            if name.startswith("job."):
                unattributed += own
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if attrs:
                for key, value in attrs.items():
                    if key == "complex":
                        complexes_seen.add(value)
                    else:
                        counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            if name == "paf.check_strongly_convex" and ancestor(idx, "paf.auto_epsilon") is not None:
                certificates += 1
            if name == "complexes.dyadic_refine_step" and ancestor(idx, "paf.tate_iterate") is not None:
                tate_steps += 1
            if name == "paf.tate_iterate" and attrs:
                tate_top[job] = max(tate_top.get(job, 0), attrs["i"])

        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(counts)
        pairs_calls = calls.get("complexes.adjacent_pairs", 0)
        out["complexes.adjacent_pairs.useful_ratio"] = (
            len(complexes_seen) / pairs_calls if pairs_calls else 0.0
        )
        out["paf.auto_epsilon.certificates"] = certificates
        eps_calls = calls.get("paf.auto_epsilon", 0)
        out["paf.auto_epsilon.useful_ratio"] = eps_calls / certificates if certificates else 0.0
        out["paf.tate_iterate.steps"] = tate_steps
        out["paf.tate_iterate.useful_ratio"] = (
            sum(tate_top.values()) / tate_steps if tate_steps else 0.0
        )
        out["trace.unattributed_s"] = unattributed
        return out

    def summary(self):
        """Per-layer metrics: the median over traced passes of each pass's
        value; a function never called in a pass counts 0 there."""
        per_pass = [self._pass_metrics(lo, hi) for lo, hi in self.pass_ranges]
        names = [m for m, _, _ in LAYER_METRICS] + ["trace.unattributed_s"]
        result = {
            name: statistics.median(p.get(name, 0) for p in per_pass) if per_pass else 0
            for name in names
        }
        result["calls"] = {
            qual: statistics.median(p.get(f"{qual}.calls", 0) for p in per_pass)
            if per_pass
            else 0
            for qual in (f"{m}.{f}" for m, fns in TRACED.items() for f in fns)
        }
        result["spans"] = len(self.spans)
        return result

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, t0, t1, parent, job, attrs) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "parent": parent,
                            "job": job,
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )
