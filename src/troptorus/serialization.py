"""Canonical JSON forms for lattices, complexes, certificates and reports.

Rationals are always written as "p/q" in lowest terms with q > 0 (the
denominator is kept even when it is 1), keys are sorted, and dumps end
with a newline, so equal objects serialize to identical bytes.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .complexes import LazyTuple, PeriodicComplex
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
        return _join([_text(x, nl + "  ") for x in obj], nl)
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        parts = [f"{_quote(k)}: {_text(v, nl + '  ')}" for k, v in items]
        return _join(parts, nl, "{}")
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, PeriodicComplex):
        return _complex_text(obj, nl)
    if isinstance(obj, LazyTuple):  # last: its abstract base checks slowly
        return _text(tuple(obj), nl)
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def _join(parts: list, nl: str, brackets: str = "[]") -> str:
    """The text of an array (an object if brackets is "{}") of the parts."""
    if not parts:
        return brackets
    inner = nl + "  "
    return brackets[0] + inner + f",{inner}".join(parts) + nl + brackets[1]


def _complex_text(c: PeriodicComplex, nl: str) -> str:
    """The text of {"cells": [{"vertices": ...}], "level", "period":
    {"generators"}} for c, written from the integer images a = t v of its
    vertices, as the complex keeps them in ``_images``: one "p/q" per
    distinct integer, one block per distinct image."""
    n, t = c.dim, c.period.frame.g * c._coords[0]
    images = c._images
    distinct = {a for w in images for a in zip(*[iter(w)] * n)}
    nums = {x for a in distinct for x in a}
    rats = {x: f'"{x // g}/{t // g}"' for x in nums for g in (math.gcd(x, t),)}
    i1, i3 = nl + "  ", nl + "      "
    head, tail = f'{{{i3}"vertices": ', nl + "    }"
    verts = {a: _join(list(map(rats.get, a)), i3 + "  ") for a in distinct}
    cells = (zip(*[iter(w)] * n) for w in images)
    texts = [head + _join(list(map(verts.get, vs)), i3) + tail for vs in cells]
    period = _text({"generators": c.period.generators}, i1)
    parts = [f'"cells": {_join(texts, i1)}', f'"level": {_text(c.level, i1)}']
    return _join(parts + [f'"period": {period}'], nl, "{}")


def canonical_dumps(obj) -> str:
    """What json.dumps(obj, sort_keys=True, indent=2) + "\\n" gives once each
    Fraction is the string "p/q", each key is str(key) and each complex is
    its object of cells, level and period; written in one pass."""
    return _text(obj, "\n") + "\n"


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
