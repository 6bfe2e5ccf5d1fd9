"""The benchmark's four workloads: seeded inputs, the jobs of one pass, and
the check of every job's output.

Inputs vary with the seed through symmetries of the problem: every problem
file is mapped by a seeded signed permutation P (generators g -> P g, gram
G -> P G P^T).  The mapped problem is isomorphic to the original, so each
job does the same amount of work on every seed and every exact scalar it
reports (certified epsilon, sup-distances, discrepancies, obstruction
bounds) equals the value frozen in ``expected.json``.  The seed also drives
the Monte Carlo seed of the collapse jobs and the random empirical
measures of the obstruction check.

A job's ``run`` is the timed part; ``check`` reads what ``run`` produced,
untimed, and returns a list of failures (empty when correct).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("refine", "certify", "equidist", "collapse")
JOB_NAMES = {
    "refine": ("chain_n2", "pairs_n2", "chain_n3", "pairs_n3"),
    "certify": (
        "certify_n1",
        "certify_n2",
        "certify_n3",
        "certify_zero_n2",
        "tate_n1",
        "tate_n2",
        "triangulate_n2",
        "certify_bad",
    ),
    "equidist": (
        "equidist_n1",
        "equidist_n2",
        "obstruction_n1",
        "obstruction_n2",
        "grid_bound_n1",
    ),
    "collapse": ("collapse_c2", "collapse_c3"),
}

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# (n, top level) of the refinement chains: every level pair j < j' is
# checked with is_refinement, plus one reversed pair as a control.
REFINE_CHAINS = ((2, 4), (3, 2))
TATE_ITERATIONS = {"n1": 6, "n2": 2}
TRIANGULATE_LEVEL = 4
EQUIDIST_N2 = {"test_level": 1, "grid_orders": [8, 16]}
GRID_BOUND_MEASURES = 100
# Sample counts make a false failure of the ratio check unlikely: the
# exact binomial probability is below 1e-5 for copies=2 (its own verdict
# needs ratio < 5/9) and below 5e-5 for copies=3 (ratio within 1/5 of 1/4).
COLLAPSE = {
    "c2": {"copies": 2, "deltas": ["1/4", "1/8"], "samples": 3000},
    "c3": {"copies": 3, "deltas": ["1/4", "1/8"], "samples": 5000},
}
MIN_EPSILON = Fraction(1, 2 ** 20)


def signed_permutation(n: int, rng: random.Random) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[j] if i == perm[j] else 0 for j in range(n)] for i in range(n)]


def _apply(p, v):
    return [sum(p[i][j] * v[j] for j in range(len(v))) for i in range(len(p))]


def map_problem(raw: dict, p) -> dict:
    """The problem transported by the linear map p (a signed permutation)."""
    fr = Fraction
    gens = [[fr(x) for x in g] for g in raw["lattice"]]
    gram = [[fr(x) for x in row] for row in raw["gram"]]
    n = len(gram)
    pg = [[sum(p[i][k] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    pgpt = [[sum(pg[i][k] * p[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    out = dict(raw)
    out["lattice"] = [[_fmt(x) for x in _apply(p, g)] for g in gens]
    out["gram"] = [[_fmt(x) for x in row] for row in pgpt]
    if "linear" in raw:
        out["linear"] = [_fmt(x) for x in _apply(p, [fr(x) for x in raw["linear"]])]
    return out


def _fmt(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def cell_count(n: int, level: int) -> int:
    return 2 ** n * math.factorial(n) * 2 ** (n * level)


@dataclass
class Job:
    """One named unit of work; ``sizes`` records its input sizes."""

    name: str
    kind: str
    sizes: dict
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    jobs: list
    out: str  # where the CLI jobs write; cleared before every job


def _frozen(expected: dict, name: str, actual: dict, variant=None) -> list[str]:
    """Compare each frozen key; keys the output adds are not compared.

    A value that depends on the seeded symmetry is frozen per variant,
    keyed by the signed permutation as compact JSON.
    """
    frozen = expected[name]
    if "by_variant" in frozen:
        frozen = frozen["by_variant"][json.dumps(variant, separators=(",", ":"))]
    errors = []
    for key, want in frozen.items():
        got = actual.get(key)
        if got != want:
            errors.append(f"{name}: {key} is {got!r}, frozen value {want!r}")
    return errors


def _cli_job(name, sizes, cli, argv, out_path, verify):
    """An in-process ``troptorus.cli.main`` call writing to ``out_path``;
    ``verify`` gets (exit code, stderr, parsed output or None)."""
    argv = list(argv) + ["--out", out_path]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def check(result):
        code, err = result
        data = None
        if os.path.exists(out_path):
            try:
                with open(out_path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                return [f"{name}: unreadable output: {exc}"]
        if "Traceback" in err:
            return [f"{name}: traceback on stderr"]
        return verify(code, err, data)

    return Job(name, "cli", sizes, run, check)


# --- workloads ---------------------------------------------------------------


def build(name: str, seed: int, workdir: str, problems_dir: str) -> Workload:
    """Write the seeded problem files into ``workdir`` and return the jobs."""
    from troptorus import cli, complexes, equidist, lattice, measures

    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    rng = random.Random(seed)
    perms = {n: signed_permutation(n, rng) for n in (1, 2, 3)}
    sub_seed = rng.randrange(2 ** 31)

    def load(fname):
        with open(os.path.join(problems_dir, fname), "r", encoding="utf-8") as fh:
            return json.load(fh)

    raw = {
        "n1": map_problem(load("n1.json"), perms[1]),
        "n2": map_problem(load("n2.json"), perms[2]),
        "n3": map_problem(
            {
                "version": 1,
                "lattice": [[1 if i == j else 0 for i in range(3)] for j in range(3)],
                "gram": [[1 if i == j else 0 for i in range(3)] for j in range(3)],
                "linear": [0, 0, 0],
                "level": 0,
            },
            perms[3],
        ),
    }
    if name == "equidist":
        raw["n2"]["equidist"] = dict(EQUIDIST_N2)
    if name == "collapse":
        for key, opts in COLLAPSE.items():
            raw[f"n1_{key}"] = dict(raw["n1"], collapse=dict(opts))
    paths = {}
    for key, body in raw.items():
        paths[key] = os.path.join(workdir, f"{key}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(body, fh)
    bad = load("bad.json")
    paths["bad"] = os.path.join(workdir, "bad.json")
    with open(paths["bad"], "w", encoding="utf-8") as fh:
        json.dump(bad, fh)

    out = os.path.join(workdir, "out.json")
    env = dict(
        expected=expected,
        paths=paths,
        out=out,
        perms=perms,
        sub_seed=sub_seed,
        cli=cli,
        complexes=complexes,
        lattice=lattice,
        measures=measures,
        equidist=equidist,
    )
    makers = {
        "refine": _refine_jobs,
        "certify": _certify_jobs,
        "equidist": _equidist_jobs,
        "collapse": _collapse_jobs,
    }
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}")
    built = makers[name](env)
    if tuple(j.name for j in built) != JOB_NAMES[name]:
        raise ValueError(f"workload {name} built jobs other than JOB_NAMES lists")
    return Workload(name, built, out)


def _refine_jobs(env):
    complexes = env["complexes"]
    lattice = env["lattice"]
    jobs = []
    for n, top in REFINE_CHAINS:
        p = env["perms"][n]
        gens = tuple(
            tuple(Fraction(p[i][j]) for i in range(n)) for j in range(n)
        )
        chain: list = []

        def build_chain(n=n, top=top, gens=gens, chain=chain):
            lat = lattice.Lattice(gens)
            b = lattice.identity_polarization(n)
            orth = lattice.orthogonalize(lat, b)
            _, prime = lattice.superlattice(orth, lat)
            c = complexes.barycentric_triangulation(prime.generators, prime)
            chain[:] = [c]
            for _ in range(top):
                c, _ = complexes.dyadic_refine_step(c)
                chain.append(c)
            return [len(c.cells) for c in chain]

        def check_chain(counts, n=n, top=top):
            want = [cell_count(n, j) for j in range(top + 1)]
            if counts != want:
                return [f"chain_n{n}: cell counts {counts}, expected {want}"]
            return []

        def all_pairs(top=top, chain=chain):
            forward = {
                (j, jp): complexes.is_refinement(chain[jp], chain[j])
                for j in range(top + 1)
                for jp in range(j + 1, top + 1)
            }
            control = complexes.is_refinement(chain[0], chain[1])
            return forward, control

        def check_pairs(result, n=n, chain=chain):
            chain.clear()  # free the chain here, outside the timed jobs
            forward, control = result
            errors = [
                f"pairs_n{n}: is_refinement(level {jp}, level {j}) is False"
                for (j, jp), ok in forward.items()
                if ok is not True
            ]
            if control is not False:
                errors.append(f"pairs_n{n}: reversed pair (0, 1) is not False")
            return errors

        sizes = {"n": n, "top_level": top, "cells_top": cell_count(n, top)}
        jobs.append(Job(f"chain_n{n}", "library", sizes, build_chain, check_chain))
        jobs.append(
            Job(
                f"pairs_n{n}",
                "library",
                dict(sizes, pairs=top * (top + 1) // 2 + 1),
                all_pairs,
                check_pairs,
            )
        )
    return jobs


def _certify_jobs(env):
    cli, paths, out, expected = env["cli"], env["paths"], env["out"], env["expected"]
    jobs = []

    for key, n in (("n1", 1), ("n2", 2), ("n3", 3)):
        name = f"certify_{key}"

        def verify(code, err, data, name=name):
            if code != 0 or data is None:
                return [f"{name}: exit {code}, expected 0 ({err.strip()})"]
            errors = []
            if data.get("passed") is not True:
                errors.append(f"{name}: certificate did not pass")
            if Fraction(data["epsilon"]) < MIN_EPSILON:
                errors.append(f"{name}: epsilon {data['epsilon']} below 2^-20")
            slacks = [Fraction(s) for s in data.get("slacks", {}).values()]
            if not slacks or any(s <= 0 for s in slacks):
                errors.append(f"{name}: a face slack is not positive")
            actual = dict(data, slack_values=sorted(str(s) for s in slacks))
            return errors + _frozen(expected, name, actual)

        jobs.append(
            _cli_job(
                name,
                {"n": n, "epsilon": "auto", "cells": cell_count(n, 0)},
                cli,
                ["certify", "--problem", paths[key], "--epsilon", "auto"],
                out,
                verify,
            )
        )

    def verify_zero(code, err, data):
        if code != 5 or data is None:
            return [f"certify_zero_n2: exit {code}, expected 5"]
        errors = []
        if data.get("passed") is not False:
            errors.append("certify_zero_n2: unperturbed interpolant passed")
        if data.get("witness_slack") != "0/1" or data.get("witness") is None:
            errors.append(
                f"certify_zero_n2: witness slack {data.get('witness_slack')}, expected 0"
            )
        return errors

    jobs.append(
        _cli_job(
            "certify_zero_n2",
            {"n": 2, "epsilon": "0"},
            cli,
            ["certify", "--problem", paths["n2"], "--epsilon", "0/1"],
            out,
            verify_zero,
        )
    )

    for key, n in (("n1", 1), ("n2", 2)):
        name = f"tate_{key}"
        its = TATE_ITERATIONS[key]

        def verify_tate(code, err, data, name=name, its=its):
            if code != 0 or data is None:
                return [f"{name}: exit {code}, expected 0 ({err.strip()})"]
            rows = data.get("rows", [])
            errors = []
            if [r.get("i") for r in rows] != list(range(its + 1)):
                errors.append(f"{name}: rows do not cover i = 0..{its}")
            for r in rows[1:]:
                if r.get("ratio") != "1/4":
                    errors.append(f"{name}: ratio {r.get('ratio')} at i={r.get('i')}")
            actual = dict(data, sup_distance=[r.get("sup_distance") for r in rows])
            return errors + _frozen(expected, name, actual)

        jobs.append(
            _cli_job(
                name,
                {"n": n, "iterations": its, "cells_last": cell_count(n, its)},
                cli,
                ["tate", "--problem", paths[key], "--iterations", str(its)],
                out,
                verify_tate,
            )
        )

    def verify_tri(code, err, data):
        if code != 0 or data is None:
            return [f"triangulate_n2: exit {code}, expected 0 ({err.strip()})"]
        cells = data.get("cells", [])
        want = cell_count(2, TRIANGULATE_LEVEL)
        errors = []
        if data.get("level") != TRIANGULATE_LEVEL or len(cells) != want:
            errors.append(
                f"triangulate_n2: level {data.get('level')} with {len(cells)} cells, "
                f"expected level {TRIANGULATE_LEVEL} with {want}"
            )
        if any(len(c["vertices"]) != 3 for c in cells):
            errors.append("triangulate_n2: a cell is not a triangle")
        return errors

    jobs.append(
        _cli_job(
            "triangulate_n2",
            {"n": 2, "level": TRIANGULATE_LEVEL, "cells": cell_count(2, TRIANGULATE_LEVEL)},
            cli,
            ["triangulate", "--problem", paths["n2"], "--level", str(TRIANGULATE_LEVEL)],
            out,
            verify_tri,
        )
    )

    def verify_bad(code, err, data):
        if code != 2:
            return [f"certify_bad: exit {code}, expected 2"]
        if not err.startswith("parse error"):
            return [f"certify_bad: stderr {err.strip()!r} does not name a parse error"]
        return []

    jobs.append(
        _cli_job(
            "certify_bad",
            {"file": "bad.json"},
            cli,
            ["certify", "--problem", paths["bad"]],
            out,
            verify_bad,
        )
    )
    return jobs


def _equidist_jobs(env):
    cli, paths, out, expected = env["cli"], env["paths"], env["out"], env["expected"]
    equidist, measures, lattice = env["equidist"], env["measures"], env["lattice"]
    jobs = []
    with open(paths["n1"], "r", encoding="utf-8") as fh:
        orders = {
            "n1": json.load(fh)["equidist"]["grid_orders"],
            "n2": EQUIDIST_N2["grid_orders"],
        }

    for key, n in (("n1", 1), ("n2", 2)):
        name = f"equidist_{key}"

        def verify_eq(code, err, data, name=name):
            if code != 0 or data is None:
                return [f"{name}: exit {code}, expected 0 ({err.strip()})"]
            errors = []
            if data.get("verdict") != "pass":
                errors.append(f"{name}: verdict {data.get('verdict')}")
            discs = {str(m): d for m, d, _ in data.get("entries", [])}
            for m1, m2, r in data.get("ratios", []):
                if r is None:
                    if Fraction(discs[str(m1)]) != 0 or Fraction(discs[str(m2)]) != 0:
                        errors.append(f"{name}: ratio missing at m={m1}")
                elif Fraction(r) > Fraction(3, 4):
                    errors.append(f"{name}: ratio {r} > 3/4 at m={m1}")
            actual = dict(data, discrepancy=discs)
            return errors + _frozen(expected, name, actual)

        jobs.append(
            _cli_job(
                name,
                {"n": n, "grid_orders": orders[key], "test_level": 1},
                cli,
                ["equidist", "--problem", paths[key]],
                out,
                verify_eq,
            )
        )

    for key, n in (("n1", 1), ("n2", 2)):
        name = f"obstruction_{key}"

        def verify_ob(code, err, data, name=name, n=n):
            if code != 0 or data is None:
                return [f"{name}: exit {code}, expected 0 ({err.strip()})"]
            errors = []
            if data.get("verdict") != "pass" or Fraction(data["bound"]) <= 0:
                errors.append(f"{name}: no positive obstruction bound")
            return errors + _frozen(expected, name, data, env["perms"][n])

        jobs.append(
            _cli_job(
                name,
                {"n": n, "denominator": 1},
                cli,
                ["obstruction", "--problem", paths[key]],
                out,
                verify_ob,
            )
        )

    # acceptance criterion 9: every empirical measure supported on the
    # 1-grid is at least the obstruction bound away from Haar
    p = env["perms"][1]
    gens = ((Fraction(p[0][0]),),)
    rng_seed = env["sub_seed"]

    def grid_bound():
        lat = lattice.Lattice(gens)
        b = lattice.identity_polarization(1)
        bound, witness, _ = equidist.fixed_denominator_obstruction(lat, 1, 0, b)
        mu = measures.haar(lat, witness.complex)
        grid_pts = equidist.torsion_grid(lat, 1).points
        rng = random.Random(rng_seed)
        discs = []
        for _ in range(GRID_BOUND_MEASURES):
            pts = [rng.choice(grid_pts) for _ in range(rng.randint(1, 20))]
            discs.append(
                equidist.discrepancy(measures.empirical(lat, pts), mu, (witness,))
            )
        return bound, discs

    def check_grid_bound(result):
        bound, discs = result
        errors = []
        if bound < Fraction(1, 12):
            errors.append(f"grid_bound_n1: bound {bound} < 1/12")
        if any(d < bound for d in discs):
            errors.append("grid_bound_n1: a grid measure beats the obstruction bound")
        return errors + _frozen(expected, "grid_bound_n1", {"bound": _fmt(bound)})

    jobs.append(
        Job(
            "grid_bound_n1",
            "library",
            {"n": 1, "measures": GRID_BOUND_MEASURES, "max_points": 20},
            grid_bound,
            check_grid_bound,
        )
    )
    return jobs


def _collapse_jobs(env):
    cli, paths, out = env["cli"], env["paths"], env["out"]
    jobs = []
    for key, opts in COLLAPSE.items():
        name = f"collapse_{key}"
        copies = opts["copies"]
        target = Fraction(1, 2 ** (copies - 1))  # 2^-dim with dim = n (N - 1), n = 1

        def verify(code, err, data, name=name, copies=copies, target=target, opts=opts):
            if code != 0 or data is None:
                return [f"{name}: exit {code}, expected 0 ({err.strip()})"]
            errors = []
            details = data.get("details", {})
            if data.get("verdict") != "pass":
                errors.append(f"{name}: verdict {data.get('verdict')}")
            if details.get("kernel_image_is_origin") is not True:
                errors.append(f"{name}: kernel image is not the origin")
            if details.get("copies") != copies or details.get("samples") != opts["samples"]:
                errors.append(f"{name}: ran with other copies or samples")
            ratios = data.get("ratios", [])
            if len(ratios) != len(opts["deltas"]) - 1:
                errors.append(f"{name}: {len(ratios)} ratios")
            for d1, _, r in ratios:
                if r is None or abs(Fraction(r) - target) > target / 5:
                    errors.append(f"{name}: ratio {r} at delta {d1} not within 1/5 of {target}")
            return errors

        jobs.append(
            _cli_job(
                name,
                {"n": 1, **opts},
                cli,
                ["collapse", "--problem", paths[f"n1_{key}"], "--seed", str(env["sub_seed"])],
                out,
                verify,
            )
        )
    return jobs
