"""Command-line front end: problem files in, canonical JSON reports out.

Exit codes are a stable contract: 0 success/pass, 2 problem-file parse
error, 3 library invariant failure, 4 search exhausted, 5 experiment or
certification verdict failed.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import Simplex, barycentric_triangulation, dyadic_refine
from .equidist import (
    ExperimentConfig,
    ExperimentError,
    collapse_experiment,
    fixed_denominator_obstruction,
    run_equidistribution,
)
from .lattice import (
    Lattice,
    LatticeError,
    NotPositiveDefiniteError,
    Polarization,
    orthogonalize,
    superlattice,
)
from .linalg import TroptorusError, zero_vec
from .paf import (
    Cocycle,
    NotCertifiedError,
    PafError,
    auto_epsilon,
    build_model_function,
    check_strongly_convex,
    sup_distance_to_quadratic,
    tate_iterate,
)
from .serialization import (
    SerializationError,
    canonical_dumps,
    certificate_to_json,
    complex_to_json,
    format_rational,
    parse_matrix,
    parse_rational,
    parse_vector,
    report_to_json,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_SEARCH = 4
EXIT_VERDICT = 5


@dataclass(frozen=True)
class Problem:
    """A validated problem file; each experiment block maps its keys to
    parsed values, with the defaults filled in."""

    lattice: Lattice
    polarization: Polarization
    linear: tuple
    epsilon: Optional[Fraction]
    level: int
    equidist: dict
    collapse: dict
    obstruction: dict


def _integer(x, name: str, least: int) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or x < least:
        raise SerializationError(f"{name} must be an integer >= {least}, got {x!r}")
    return x


def _block(raw: dict, name: str) -> dict:
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise SerializationError(f"{name} must be an object, got {block!r}")
    return block


def _list(x, name: str) -> list:
    if not isinstance(x, list):
        raise SerializationError(f"{name} must be a list, got {x!r}")
    return x


def load_problem(path: str) -> Problem:
    """Read and validate a problem file; every defect of the file raises
    SerializationError.  The experiment blocks come back with their
    defaults filled in and their values parsed."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read problem file: {exc}") from exc
    if not isinstance(raw, dict):
        raise SerializationError("problem file must be a JSON object")
    if raw.get("version") != 1:
        raise SerializationError("unsupported problem version")
    try:
        basis = parse_matrix(raw["lattice"])
        gram = parse_matrix(raw["gram"])
    except KeyError as exc:
        raise SerializationError(f"missing problem field {exc}") from exc
    n = len(basis)
    linear = parse_vector(raw["linear"]) if "linear" in raw else zero_vec(n)
    if len(gram) != n or len(linear) != n:
        raise SerializationError("lattice, gram and linear differ in dimension")
    try:
        lattice = Lattice(basis)
    except LatticeError as exc:
        raise SerializationError(f"lattice: {exc}") from exc
    try:
        polarization = Polarization(gram)
    except NotPositiveDefiniteError as exc:
        raise SerializationError(f"gram: {exc}") from exc
    equidist = _block(raw, "equidist")
    collapse = _block(raw, "collapse")
    obstruction = _block(raw, "obstruction")
    grid_orders = _list(
        equidist.get("grid_orders", [8, 16, 32, 64, 128, 256, 512]),
        "equidist.grid_orders",
    )
    return Problem(
        lattice=lattice,
        polarization=polarization,
        linear=linear,
        epsilon=parse_rational(raw["epsilon"]) if "epsilon" in raw else None,
        level=_integer(raw.get("level", 0), "level", 0),
        equidist={
            "test_level": _integer(
                equidist.get("test_level", 1), "equidist.test_level", 0
            ),
            "grid_orders": tuple(
                _integer(m, "equidist.grid_orders entry", 1) for m in grid_orders
            ),
        },
        collapse={
            "copies": _integer(collapse.get("copies", 2), "collapse.copies", 2),
            "deltas": tuple(
                parse_rational(d)
                for d in _list(
                    collapse.get("deltas", ["1/4", "1/8", "1/16", "1/32"]),
                    "collapse.deltas",
                )
            ),
            "samples": _integer(
                collapse.get("samples", 100_000), "collapse.samples", 1
            ),
        },
        obstruction={
            "denominator": _integer(
                obstruction.get("denominator", 1), "obstruction.denominator", 1
            ),
            "witness_level": _integer(
                obstruction.get("witness_level", 0),
                "obstruction.witness_level",
                0,
            ),
        },
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _base_complex(p: Problem, level: int):
    orth = orthogonalize(p.lattice, p.polarization)
    _, prime = superlattice(orth, p.lattice)
    c = barycentric_triangulation(prime.generators, prime)
    return dyadic_refine(c, level)


def cmd_triangulate(p: Problem, args) -> int:
    level = args.level if args.level is not None else p.level
    c = _base_complex(p, level)
    _emit(canonical_dumps(complex_to_json(c)), args.out)
    return EXIT_OK


def cmd_certify(p: Problem, args) -> int:
    c = _base_complex(p, 0)
    z = Cocycle(polarization=p.polarization, linear=p.linear)
    spec = args.epsilon
    if spec is None:
        spec = "auto" if p.epsilon is None else format_rational(p.epsilon)
    if spec == "auto":
        try:
            eps, _, cert = auto_epsilon(c, z)
        except NotCertifiedError as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_SEARCH
    else:
        eps = parse_rational(spec)
        cert = check_strongly_convex(build_model_function(c, z, eps))
    body = {"epsilon": format_rational(eps)}
    body.update(certificate_to_json(cert))
    _emit(canonical_dumps(body), args.out)
    return EXIT_OK if cert.passed else EXIT_VERDICT


def cmd_tate(p: Problem, args) -> int:
    iterations = _integer(args.iterations, "--iterations", 0)
    c = _base_complex(p, 0)
    z = Cocycle(polarization=p.polarization, linear=p.linear)
    if p.epsilon is None:
        eps, f0, _ = auto_epsilon(c, z)
    else:
        eps = p.epsilon
        f0 = build_model_function(c, z, eps)
    rows = []
    prev = None
    fi = f0
    for i in range(iterations + 1):
        if i:
            fi = tate_iterate(fi, 1)
        if not check_strongly_convex(fi).passed:
            raise PafError(f"convexity lost at iteration {i}")
        d = sup_distance_to_quadratic(fi)
        ratio = None if prev in (None, 0) else d / prev
        if ratio is not None and ratio != Fraction(1, 4):
            raise PafError(f"contraction ratio {ratio} != 1/4 at step {i}")
        rows.append({"i": i, "sup_distance": d, "ratio": ratio})
        prev = d
    if args.format == "csv":
        lines = ["i,sup_distance,ratio"]
        for r in rows:
            ratio = "" if r["ratio"] is None else format_rational(r["ratio"])
            lines.append(f"{r['i']},{format_rational(r['sup_distance'])},{ratio}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(canonical_dumps({"epsilon": eps, "rows": rows}), args.out)
    return EXIT_OK


def _report_exit(report, args, csv_header: str) -> int:
    if args.format == "csv":
        lines = [csv_header]
        for entry in report.entries:
            lines.append(
                ",".join(
                    format_rational(x) if isinstance(x, Fraction) else str(x)
                    for x in entry
                )
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(canonical_dumps(report_to_json(report)), args.out)
    return EXIT_OK if report.verdict == "pass" else EXIT_VERDICT


def cmd_equidist(p: Problem, args) -> int:
    cfg = ExperimentConfig(
        lattice=p.lattice, polarization=p.polarization, **p.equidist
    )
    return _report_exit(
        run_equidistribution(cfg), args, "m,discrepancy,exact_zero"
    )


def _diagonal_face(p: Problem, copies: int) -> Simplex:
    base = _base_complex(p, 0)
    cell = base.cells[0]
    return Simplex(tuple(v * copies for v in cell.vertices))


def cmd_collapse(p: Problem, args) -> int:
    opts = p.collapse
    copies = opts["copies"]
    samples = opts["samples"]
    if args.samples is not None:
        samples = _integer(args.samples, "--samples", 1)
    report = collapse_experiment(
        p.lattice,
        _diagonal_face(p, copies),
        copies,
        opts["deltas"],
        samples=samples,
        seed=args.seed,
    )
    return _report_exit(report, args, "delta,mass")


def cmd_obstruction(p: Problem, args) -> int:
    e = p.obstruction["denominator"]
    level = p.obstruction["witness_level"]
    try:
        bound, witness, integral = fixed_denominator_obstruction(
            p.lattice, e, level, p.polarization
        )
    except ExperimentError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_SEARCH
    body = {
        "kind": "obstruction",
        "verdict": "pass",
        "denominator": e,
        "bound": bound,
        "witness_integral": integral,
        "witness_level": witness.complex.level,
    }
    _emit(canonical_dumps(body), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troptorus",
        description="Exact polyhedral toolkit for periodic convex functions "
        "and torus equidistribution experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("triangulate", cmd_triangulate),
        ("certify", cmd_certify),
        ("tate", cmd_tate),
        ("equidist", cmd_equidist),
        ("collapse", cmd_collapse),
        ("obstruction", cmd_obstruction),
    ):
        s = sub.add_parser(name)
        s.set_defaults(handler=fn)
        s.add_argument("--problem", required=True)
        s.add_argument("--out", default=None)
        s.add_argument("--level", type=int, default=None)
        s.add_argument("--epsilon", default=None, help="'auto' or 'p/q'")
        s.add_argument("--iterations", type=int, default=4)
        s.add_argument("--seed", type=int, default=0)
        s.add_argument("--samples", type=int, default=None)
        s.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(args.problem)
    except SerializationError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    try:
        return args.handler(problem, args)
    except SerializationError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except TroptorusError as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return EXIT_INVARIANT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
