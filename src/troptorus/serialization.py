"""Canonical JSON forms for lattices, complexes, certificates and reports.

Rationals are always written as "p/q" in lowest terms with q > 0 (the
denominator is kept even when it is 1), keys are sorted, and dumps end
with a newline, so equal objects serialize to identical bytes.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .complexes import PeriodicComplex, Simplex
from .lattice import Lattice
from .linalg import Mat, TroptorusError, Vec

_RATIONAL = re.compile(r"^(-?\d+)/(\d+)$")


class SerializationError(TroptorusError):
    pass


def parse_rational(s) -> Fraction:
    if not isinstance(s, str):
        raise SerializationError(f"rational must be a string, got {s!r}")
    m = _RATIONAL.match(s)
    if m is None:
        raise SerializationError(f"malformed rational {s!r}")
    p, q = int(m.group(1)), int(m.group(2))
    if q == 0:
        raise SerializationError(f"zero denominator in {s!r}")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_vector(xs) -> Vec:
    if not isinstance(xs, list):
        raise SerializationError(f"vector must be a list, got {xs!r}")
    return tuple(parse_rational(x) for x in xs)


def parse_matrix(rows) -> Mat:
    if not isinstance(rows, list) or not rows:
        raise SerializationError(f"matrix must be a nonempty list, got {rows!r}")
    out = tuple(parse_vector(r) for r in rows)
    if len({len(r) for r in out}) != 1:
        raise SerializationError("ragged matrix")
    return out


def format_vector(v: Vec) -> list:
    return [format_rational(x) for x in v]


def format_matrix(m: Mat) -> list:
    return [format_vector(r) for r in m]


def to_jsonable(obj):
    """Recursively rewrite Fractions as "p/q" strings for json.dumps."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def lattice_to_json(lat: Lattice) -> dict:
    return {"generators": format_matrix(lat.generators)}


def simplex_to_json(s: Simplex) -> dict:
    return {"vertices": format_matrix(s.vertices)}


def complex_to_json(c: PeriodicComplex) -> dict:
    return {
        "period": lattice_to_json(c.period),
        "level": c.level,
        "cells": [simplex_to_json(s) for s in c.cells],
    }


def certificate_to_json(cert) -> dict:
    from .paf import _pair_key

    return {
        "passed": cert.passed,
        "min_slack": None if cert.min_slack is None else format_rational(cert.min_slack),
        "witness": None if cert.witness is None else _pair_key(cert.witness),
        "witness_slack": (
            None if cert.witness_slack is None else format_rational(cert.witness_slack)
        ),
        "slacks": {k: format_rational(v) for k, v in sorted(cert.slacks.items())},
    }


def report_to_json(r) -> dict:
    return {
        "kind": r.kind,
        "verdict": r.verdict,
        "entries": to_jsonable(r.entries),
        "ratios": to_jsonable(r.ratios),
        "details": to_jsonable(r.details),
    }
