"""Exact linear algebra over tuples of Fractions.

Vectors are tuples of Fraction, matrices are tuples of row vectors.
Everything here is pure and allocation-light; callers are expected to
keep dimensions small (n <= 3 ambient, a few more for product spaces).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


class TroptorusError(ValueError):
    """Base class of every error the library raises."""


class SingularMatrixError(TroptorusError):
    pass


class DimensionMismatchError(TroptorusError):
    pass


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def from_columns(cols: Sequence[Vec]) -> Mat:
    return transpose(tuple(cols))


def _eliminate(m: Mat) -> tuple[list[list[Fraction]], list[int], int]:
    """Row echelon form; returns (rows, pivot column indices, sign)."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            if rows[i][c] != 0:
                f = rows[i][c] / piv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, sign


def rank(m: Mat) -> int:
    if not m:
        return 0
    _, pivots, _ = _eliminate(m)
    return len(pivots)


def det(m: Mat) -> Fraction:
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("det: matrix not square")
    if n == 0:
        return Fraction(1)
    # fraction-free (Bareiss) elimination of the integer matrix d * m:
    # every division is exact, and the last pivot is det(d * m)
    d, rows = integer_matrix(m)
    rows, sign, prev = [list(r) for r in rows], 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pr is None:
                return Fraction(0)
            rows[k], rows[pr], sign = rows[pr], rows[k], -sign
        rk = rows[k]
        for ri in rows[k + 1 :]:
            ri[k + 1 :] = [(rk[k] * x - ri[k] * y) // prev for x, y in
                           zip(ri[k + 1 :], rk[k + 1 :])]
        prev = rk[k]
    return Fraction(sign * rows[-1][-1], d ** n)


def solve(m: Mat, rhs: Vec) -> Vec:
    """Solve m x = rhs for square m; raises SingularMatrixError."""
    n = len(m)
    if len(rhs) != n:
        raise DimensionMismatchError("solve: rhs length mismatch")
    aug = [list(row) + [b] for row, b in zip(m, rhs)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pr is None:
            raise SingularMatrixError("solve: singular matrix")
        aug[c], aug[pr] = aug[pr], aug[c]
        piv = aug[c][c]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c] / piv
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return tuple(aug[i][n] / aug[i][i] for i in range(n))


def inverse(m: Mat) -> Mat:
    n = len(m)
    cols = [solve(m, tuple(Fraction(1 if i == j else 0) for i in range(n)))
            for j in range(n)]
    return from_columns(cols)


def integer_matrix(m: Mat) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, rows): the integer matrix rows = d * m for the least common
    denominator d of the entries of m."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return d, tuple(
        tuple(x.numerator * (d // x.denominator) for x in row) for row in m
    )


def solve_underdetermined_nullvec(m: Mat, n: int) -> Vec:
    """One nonzero vector v of length n with m v = 0 (m has rank n-1)."""
    rows, pivots, _ = _eliminate(m) if m else ([], [], 1)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise SingularMatrixError("nullvec: matrix has full column rank")
    f = free[0]
    v = [Fraction(0)] * n
    v[f] = Fraction(1)
    # back substitution over pivot rows
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        s = sum((rows[i][j] * v[j] for j in range(c + 1, n)), Fraction(0))
        v[c] = -s / rows[i][c]
    return tuple(v)


def primitive_integer_vector(v: Vec) -> Vec:
    """Scale a nonzero rational vector to integer entries with gcd 1."""
    from math import gcd, lcm

    if all(x == 0 for x in v):
        raise TroptorusError("primitive_integer_vector: zero vector")
    scale = lcm(*(x.denominator for x in v)) if len(v) > 1 else v[0].denominator
    ints = [int(x * scale) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(Fraction(x, g) for x in ints)
