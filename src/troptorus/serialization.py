"""Canonical JSON forms for lattices, complexes, certificates and reports.

Rationals are always written as "p/q" in lowest terms with q > 0 (the
denominator is kept even when it is 1), keys are sorted, and dumps end
with a newline, so equal objects serialize to identical bytes.
"""
from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .complexes import PeriodicComplex, _cell_vertices
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


def _text(obj, nl: str) -> str:
    """The canonical text of obj; nl is the line break and indent of the
    line obj starts on."""
    if isinstance(obj, Fraction):
        return f'"{obj.numerator}/{obj.denominator}"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        parts = [_text(x, inner) for x in obj]
        return f"[{inner}" + f",{inner}".join(parts) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = sorted({str(k): v for k, v in obj.items()}.items())
        parts = [f"{_quote(k)}: {_text(v, inner)}" for k, v in items]
        return "{" + inner + f",{inner}".join(parts) + nl + "}"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """What json.dumps(obj, sort_keys=True, indent=2) + "\\n" gives once
    each Fraction is the string "p/q" and each key is str(key), written
    in one pass."""
    return _text(obj, "\n") + "\n"


def complex_to_json(c: PeriodicComplex) -> dict:
    return {
        "period": {"generators": c.period.generators},
        "level": c.level,
        "cells": [{"vertices": vs} for vs in _cell_vertices(c)],
    }


def certificate_to_json(cert) -> dict:
    return {
        "passed": cert.passed,
        "min_slack": cert.min_slack,
        "witness": None if cert.witness is None else cert.witness.key,
        "witness_slack": cert.witness_slack,
        "slacks": cert.slacks,
    }


def report_to_json(r) -> dict:
    return {
        "kind": r.kind,
        "verdict": r.verdict,
        "entries": r.entries,
        "ratios": r.ratios,
        "details": r.details,
    }
