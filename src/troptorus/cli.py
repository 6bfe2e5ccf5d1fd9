"""Command-line front end: problem files in, canonical JSON reports out.

Exit codes are a stable contract: 0 success/pass, 2 problem-file parse
error, 3 library invariant failure, 4 search exhausted, 5 experiment or
certification verdict failed.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import Simplex
from .equidist import (
    MAX_LEVEL,
    SAMPLES,
    ExperimentConfig,
    ExperimentError,
    barycentric_complex,
    checks_collapse_decay,
    checks_grid_decay,
    collapse_experiment,
    fixed_denominator_obstruction,
    run_equidistribution,
)
from .lattice import (
    Lattice,
    LatticeError,
    NotPositiveDefiniteError,
    Polarization,
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


def _integer(x, name: str, least: int, most: Optional[int] = None) -> int:
    if (
        not isinstance(x, int)
        or isinstance(x, bool)
        or x < least
        or (most is not None and x > most)
    ):
        bounds = f">= {least}" if most is None else f"in {least}..{most}"
        raise SerializationError(f"{name} must be an integer {bounds}, got {x!r}")
    return x


def _positive(x: Fraction, name: str) -> Fraction:
    if x <= 0:
        raise SerializationError(f"{name} must be positive, got {x}")
    return x


def _block(raw: dict, name: str) -> dict:
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise SerializationError(f"{name} must be an object, got {block!r}")
    return block


def _list(x, name: str) -> list:
    if not isinstance(x, list) or not x:
        raise SerializationError(f"{name} must be a nonempty list, got {x!r}")
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
    grid_orders = tuple(
        _integer(m, "equidist.grid_orders entry", 1)
        for m in _list(
            equidist.get("grid_orders", list(ExperimentConfig.grid_orders)),
            "equidist.grid_orders",
        )
    )
    if not checks_grid_decay(grid_orders):
        raise SerializationError(
            "equidist.grid_orders must hold some m >= 8 together with 2 m,"
            f" got {list(grid_orders)}"
        )
    deltas = tuple(
        _positive(parse_rational(d), "collapse.deltas entry")
        for d in _list(
            collapse.get("deltas", ["1/4", "1/8", "1/16", "1/32"]),
            "collapse.deltas",
        )
    )
    if not checks_collapse_decay(deltas):
        raise SerializationError(
            "collapse.deltas must hold some delta followed by delta / 2, got "
            + ", ".join(map(format_rational, deltas))
        )
    return Problem(
        lattice=lattice,
        polarization=polarization,
        linear=linear,
        epsilon=parse_rational(raw["epsilon"]) if "epsilon" in raw else None,
        level=_integer(raw.get("level", 0), "level", 0),
        equidist={
            "test_level": _integer(
                equidist.get("test_level", ExperimentConfig.test_level),
                "equidist.test_level",
                0,
                MAX_LEVEL,
            ),
            "grid_orders": grid_orders,
        },
        collapse={
            "copies": _integer(collapse.get("copies", 2), "collapse.copies", 2),
            "deltas": deltas,
            "samples": _integer(
                collapse.get("samples", SAMPLES), "collapse.samples", 1
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
                MAX_LEVEL,
            ),
        },
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_triangulate(p: Problem, args) -> int:
    level = p.level
    if args.level is not None:
        level = _integer(args.level, "--level", 0)
    c = barycentric_complex(p.lattice, p.polarization, level)
    _emit(canonical_dumps(c), args.out)
    return EXIT_OK


def _model_function(p: Problem, args):
    """(eps, f0, cert): the model function at the epsilon that --epsilon
    or else the problem file asks for ('auto' when neither does), with its
    convexity certificate.  An exhausted 'auto' search raises
    NotCertifiedError."""
    c = barycentric_complex(p.lattice, p.polarization, 0)
    z = Cocycle(polarization=p.polarization, linear=p.linear)
    if args.epsilon is None and p.epsilon is not None:
        eps = p.epsilon
    elif args.epsilon in (None, "auto"):
        return auto_epsilon(c, z)
    else:
        eps = parse_rational(args.epsilon)
    f0 = build_model_function(c, z, eps)
    return eps, f0, check_strongly_convex(f0)


def cmd_certify(p: Problem, args) -> int:
    eps, _, cert = _model_function(p, args)
    body = {"epsilon": eps}
    body.update(certificate_to_json(cert))
    _emit(canonical_dumps(body), args.out)
    return EXIT_OK if cert.passed else EXIT_VERDICT


def cmd_tate(p: Problem, args) -> int:
    iterations = _integer(args.iterations, "--iterations", 0)
    eps, fi, cert = _model_function(p, args)
    rows = []
    prev = None
    for i in range(iterations + 1):
        if i:
            fi = tate_iterate(fi, 1)
            cert = check_strongly_convex(fi)
        if not cert.passed:
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
    base = barycentric_complex(p.lattice, p.polarization, 0)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process; each
    ``parse_args`` gives a fresh namespace from its defaults."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
    except NotCertifiedError as exc:  # an exhausted epsilon search
        sys.stderr.write(f"{exc}\n")
        return EXIT_SEARCH
    except TroptorusError as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return EXIT_INVARIANT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
