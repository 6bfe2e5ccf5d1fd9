"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row vectors.
Determinants, adjugates, inverses, solutions, ranks and null vectors all
come from one fraction-free (Bareiss) elimination of the integer matrix
d * m: a forward pass (:func:`_echelon`), and for all but the
determinant and the rank a back substitution (:func:`_reduced`).
Everything is pure; dimensions are small (n <= 3 ambient, up to a few
more in product spaces).
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


def _echelon(m, ncols: int) -> tuple[list[list[int]], list[int], int, int]:
    """Bareiss's fraction-free forward elimination of a copy of the integer
    rows m over their first ncols columns; later columns are carried.

    Returns (the rows, the pivot columns, the sign of the row swaps, the
    last pivot).  After pivot r, each entry of a row below it is the minor
    on the pivot rows and columns so far, that row and that column, so the
    division by the previous pivot is exact (Bareiss, Math. Comp. 22,
    1968); a column with no pivot left is skipped.  The last pivot is the
    minor on all pivot rows and columns: sign * det for a square matrix of
    full rank.  The entries left of each row's pivot are not cleared.
    """
    rows, pivots, sign, prev = [list(r) for r in m], [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        if not rows[r][c]:
            pr = next((i for i in range(r + 1, len(rows)) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr], sign = rows[pr], rows[r], -sign
        rk = rows[r]
        p = rk[c]
        for ri in rows[r + 1 :]:
            a = ri[c]
            ri[c + 1 :] = [(p * x - a * y) // prev for x, y in
                           zip(ri[c + 1 :], rk[c + 1 :])]
        pivots.append(c)
        prev = p
    return rows, pivots, sign, prev


def _reduced(m, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """(rows, pivot columns, p): :func:`_echelon`, then back substitution
    from the last pivot row up, row_k <- (p row_k - sum_{j>k} row_k[c_j]
    row_j) / d_k with d_k the pivot of row k and p the last one.  Pivot
    row k becomes p times row k of the reduced row echelon form, from its
    pivot column on; each division is exact, the results being minors."""
    rows, pivots, _, p = _echelon(m, ncols)
    for k in reversed(range(len(pivots) - 1)):
        rk, ck = rows[k], pivots[k]
        acc = [p * x for x in rk[ck:]]
        for cj, rj in zip(pivots[k + 1 :], rows[k + 1 :]):
            f = rk[cj]
            if f:
                acc[cj - ck :] = [a - f * b for a, b in
                                  zip(acc[cj - ck :], rj[cj:])]
        d = rk[ck]
        rk[ck:] = [a // d for a in acc]
    return rows, pivots, p


def rank(m: Mat) -> int:
    return len(_echelon(integer_matrix(m)[1], len(m[0]) if m else 0)[1])


def det(m: Mat) -> Fraction:
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("det: matrix not square")
    # the last pivot of the integer matrix d * m is det(d * m) up to sign
    d, rows = integer_matrix(m)
    _, pivots, sign, p = _echelon(rows, n)
    return Fraction(sign * p, d ** n) if len(pivots) == n else Fraction(0)


def det_adj(m) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(|det M|, |det M| M^-1) for the square integer matrix M with rows
    m: the determinant and adjugate up to one sign, so the first is >= 0.
    (0, ()) when M is singular, (1, ()) when it is 0 x 0."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("det_adj: matrix not square")
    aug = [(*r, *(0,) * i, 1, *(0,) * (n - i - 1)) for i, r in enumerate(m)]
    rows, pivots, p = _reduced(aug, n)
    if len(pivots) < n:
        return 0, ()
    s = 1 if p > 0 else -1
    return s * p, tuple(tuple(s * x for x in r[n:]) for r in rows)


def inverse(m: Mat) -> Mat:
    d, rows = integer_matrix(m)
    det_m, adj = det_adj(rows)
    if not det_m:
        raise SingularMatrixError("inverse: singular matrix")
    return tuple(tuple(Fraction(d * x, det_m) for x in r) for r in adj)


def solve(m: Mat, rhs: Vec) -> Vec:
    """Solve m x = rhs for square m; raises SingularMatrixError."""
    n = len(m)
    if len(rhs) != n or any(len(r) != n for r in m):
        raise DimensionMismatchError("solve: shape mismatch")
    _, aug = integer_matrix(tuple((*r, b) for r, b in zip(m, rhs)))
    rows, pivots, p = _reduced(aug, n)
    if len(pivots) < n:
        raise SingularMatrixError("solve: singular matrix")
    return tuple(Fraction(r[n], p) for r in rows)


def null_vector(m: Mat, n: int) -> tuple[int, ...]:
    """The primitive integer vector v with m v = 0 for the rational rows m
    of length n whose first free coordinate (that of the first column
    without a pivot) is positive and whose other free coordinates are 0.
    For a facet's n - 1 independent edges it is a normal of the facet."""
    rows, pivots, p = _reduced(integer_matrix(m)[1], n)
    f = next((c for c in range(n) if c not in pivots), None)
    if f is None:
        raise SingularMatrixError("null_vector: matrix has full column rank")
    # columns 0..f-1 are pivot columns, pivot row k of column k holding
    # p times the reduced row, so v_k = -row_k[f] / p and v_f = 1
    v = [-rows[k][f] for k in range(f)] + [p] + [0] * (n - f - 1)
    g = math.gcd(*v) if p > 0 else -math.gcd(*v)
    return tuple(x // g for x in v)


def integer_matrix(m: Mat) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, rows): the integer matrix rows = d * m for the least common
    denominator d of the entries of m."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return d, tuple(
        tuple(x.numerator * (d // x.denominator) for x in row) for row in m
    )
