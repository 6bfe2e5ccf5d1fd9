"""Exact rational lattices and positive definite polarization forms.

A lattice is given by a full-rank rational basis (columns are
generators).  The polarized setting needs three constructions: an
orthogonal system inside the lattice, the superlattice spanned by the
rescaled orthogonal vectors, and reduction to the half-open fundamental
parallelotope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Iterator, NamedTuple

from .linalg import (
    DimensionMismatchError,
    Mat,
    TroptorusError,
    Vec,
    det,
    dot,
    from_columns,
    integer_matrix,
    inverse,
    mat_vec,
    vadd,
    vsub,
    vscale,
    zero_vec,
)


class NotPositiveDefiniteError(TroptorusError):
    pass


class LatticeError(TroptorusError):
    pass


class Frame(NamedTuple):
    """A lattice basis L and its inverse on integer scales: ``basis`` is
    g L and ``inv`` is q L^-1, as integer rows, for the least such g and
    q; ``inverse`` is L^-1 in Fractions."""

    inverse: Mat
    g: int
    basis: tuple[tuple[int, ...], ...]
    q: int
    inv: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice in R^n; ``generators`` are the basis columns."""

    generators: tuple[Vec, ...]

    def __post_init__(self):
        n = len(self.generators)
        if n == 0 or any(len(g) != n for g in self.generators):
            raise LatticeError("lattice basis must be a nonempty square system")
        if det(self.matrix) == 0:
            raise LatticeError("lattice basis is singular")

    @property
    def dim(self) -> int:
        return len(self.generators)

    @cached_property
    def matrix(self) -> Mat:
        return from_columns(self.generators)

    @cached_property
    def frame(self) -> Frame:
        """The integer forms of the basis."""
        inv = inverse(self.matrix)
        return Frame(inv, *integer_matrix(self.matrix), *integer_matrix(inv))

    def from_coords(self, coords: Vec) -> Vec:
        """Point with the given coordinates w.r.t. the basis."""
        v = zero_vec(self.dim)
        for c, g in zip(coords, self.generators, strict=True):
            v = vadd(v, vscale(c, g))
        return v

    def coords(self, v: Vec) -> Vec:
        if len(v) != self.dim:
            raise DimensionMismatchError("coords: wrong vector length")
        return mat_vec(self.frame.inverse, v)

    def integer_coords(self, points) -> tuple[int, Iterator[tuple[int, ...]]]:
        """(d, ws): the period coordinates of a sequence of rational points
        on one integer scale, ws yielding d * coords(p) for each point p in
        turn.  d is q times the least common denominator of the points."""
        if any(len(p) != self.dim for p in points):
            raise DimensionMismatchError("integer_coords: wrong point length")
        den = math.lcm(*{x.denominator for p in points for x in p})
        inv = self.frame.inv

        def scaled():
            for p in points:
                num = [x.numerator * (den // x.denominator) for x in p]
                yield tuple(sum(map(mul, row, num)) for row in inv)

        return self.frame.q * den, scaled()

    def contains(self, v: Vec) -> bool:
        return all(c.denominator == 1 for c in self.coords(v))


def standard_lattice(n: int) -> Lattice:
    return Lattice(tuple(
        tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)
    ))


@dataclass(frozen=True)
class Polarization:
    """Symmetric positive definite rational form on the ambient space."""

    gram: Mat

    def __post_init__(self):
        n = len(self.gram)
        if any(len(r) != n for r in self.gram):
            raise NotPositiveDefiniteError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise NotPositiveDefiniteError("gram matrix not symmetric")
        # exact Sylvester criterion: all leading principal minors positive
        for k in range(1, n + 1):
            minor = det(tuple(row[:k] for row in self.gram[:k]))
            if minor <= 0:
                raise NotPositiveDefiniteError(
                    f"leading principal minor {k} is {minor} <= 0"
                )

    @property
    def dim(self) -> int:
        return len(self.gram)


def identity_polarization(n: int) -> Polarization:
    from .linalg import identity

    return Polarization(identity(n))


def bilinear(b: Polarization, u: Vec, v: Vec) -> Fraction:
    """u^T gram v."""
    if len(u) != b.dim or len(v) != b.dim:
        raise DimensionMismatchError("bilinear: dimension mismatch")
    return dot(u, mat_vec(b.gram, v))


def quadratic(b: Polarization, u: Vec) -> Fraction:
    """q(u) = b(u, u) / 2."""
    return bilinear(b, u, u) / 2


def orthogonalize(lat: Lattice, b: Polarization) -> tuple[Vec, ...]:
    """Pairwise b-orthogonal lattice vectors via Gram-Schmidt.

    Processes the basis in given column order; each step is rescaled by
    the least positive integer making the lattice coordinates integral,
    so the output vectors lie in the lattice.
    """
    if b.dim != lat.dim:
        raise DimensionMismatchError("orthogonalize: dimension mismatch")
    out: list[Vec] = []
    for g in lat.generators:
        w = g
        for prev in out:
            coeff = bilinear(b, g, prev) / bilinear(b, prev, prev)
            w = vsub(w, vscale(coeff, prev))
        coords = lat.coords(w)
        scale = math.lcm(*(c.denominator for c in coords))
        out.append(vscale(Fraction(scale), w))
    return tuple(out)


def superlattice(orth: tuple[Vec, ...], lat: Lattice) -> tuple[int, Lattice]:
    """Least N with lat contained in Z(orth_1/N) + ... + Z(orth_n/N)."""
    span = Lattice(orth)
    denoms = [c.denominator for g in lat.generators for c in span.coords(g)]
    n_min = math.lcm(*denoms)
    prime = Lattice(tuple(vscale(Fraction(1, n_min), v) for v in orth))
    for g in lat.generators:  # exact inclusion check
        if not prime.contains(g):
            raise LatticeError("superlattice inclusion failed")
    return n_min, prime


def covolume(lat: Lattice) -> Fraction:
    return abs(det(lat.matrix))


def reduce_mod(u: Vec, lat: Lattice) -> Vec:
    """Representative of u with basis coordinates in [0, 1)."""
    coords = lat.coords(u)
    frac_part = tuple(c - math.floor(c) for c in coords)
    return lat.from_coords(frac_part)


def box_translates(lo, hi, a, b, s):
    """The integer vectors k for which the box [lo + s k, hi + s k] meets
    the box [a, b]; the bounds are ints or Fractions.

    In period coordinates, where the lattice is s * Z^n, these are the
    translates of a set with bounding box [lo, hi] that can meet a set
    with bounding box [a, b], whatever the period basis.
    """
    return product(*(
        range(-((h - x) // s), (y - l) // s + 1)
        for l, h, x, y in zip(lo, hi, a, b, strict=True)
    ))


def sup_distances(lat: Lattice, v: Vec, r: Fraction):
    """The sup-norm distances |v - lam| <= r from v to lattice vectors lam.

    Such a lam has period coordinates within r times the row sums of
    |L^-1| of coords(v), and :func:`box_translates` enumerates that box.
    The distances are computed in integers, on one scale for v, r and
    the basis.
    """
    s, rows = integer_matrix((tuple(v), (r,)) + lat.generators)
    w, (t,), basis = rows[0], rows[1], tuple(zip(*rows[2:]))
    q, inv = lat.frame.q, lat.frame.inv
    cw = [sum(map(mul, row, w)) for row in inv]  # q * s * coords(v)
    reach = [t * sum(map(abs, row)) for row in inv]
    lo = [x - e for x, e in zip(cw, reach)]
    hi = [x + e for x, e in zip(cw, reach)]
    zero = (0,) * lat.dim
    for k in box_translates(zero, zero, lo, hi, q * s):
        d = max(abs(x - sum(map(mul, k, col))) for x, col in zip(w, basis))
        if d <= t:
            yield Fraction(d, s)
