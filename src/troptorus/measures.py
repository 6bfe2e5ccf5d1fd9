"""Piecewise Haar measures, empirical measures and affine pushforwards.

All masses and densities are exact rationals.  Pushforwards that would
need irrational volume distortions are rejected and routed to the
seeded Monte Carlo fallback.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, mul

from .complexes import (
    PeriodicComplex,
    Simplex,
    _containment_index,
    _period_coords,
    canonical_cell,
    unfold,
)
from .lattice import Lattice, covolume, reduce_mod
from .linalg import (
    Mat,
    Vec,
    det,
    dot,
    from_columns,
    integer_matrix,
    inverse,
    mat_mul,
    mat_vec,
    rank,
    vadd,
    vsub,
    vscale,
)
from .paf import TestFunction, evaluate_test


class MeasureError(ValueError):
    pass


class NoCommonRefinementError(MeasureError):
    pass


class NonInjectiveAtomError(MeasureError):
    pass


def _exact_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def simplex_k_volume(s: Simplex) -> Fraction:
    """k-volume of a k-simplex in R^n, exact; raises if irrational."""
    edges = s.edge_matrix()
    if not edges:
        return Fraction(1)  # a point atom carries its density as mass
    gram = tuple(tuple(dot(a, b) for b in edges) for a in edges)
    g = det(gram)
    root = _exact_sqrt(g)
    if root is None:
        raise MeasureError("simplex k-volume is irrational")
    return root / math.factorial(s.dim)


@dataclass(frozen=True)
class PolytopalMeasure:
    lattice: Lattice
    atoms: tuple[tuple[Simplex, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise MeasureError("measure needs at least one atom")
        dims = {s.dim for s, _ in self.atoms}
        if len(dims) != 1:
            raise MeasureError("atoms must share a common dimension")
        if any(d <= 0 for _, d in self.atoms):
            raise MeasureError("densities must be positive")

    @property
    def dim(self) -> int:
        return self.atoms[0][0].dim

    def total_mass(self) -> Fraction:
        return sum(
            (d * simplex_k_volume(s) for s, d in self.atoms), Fraction(0)
        )


@dataclass(frozen=True)
class EmpiricalMeasure:
    lattice: Lattice
    points: tuple[Vec, ...]

    def __post_init__(self):
        if not self.points:
            raise MeasureError("empirical measure needs at least one point")


def empirical(lat: Lattice, points) -> EmpiricalMeasure:
    return EmpiricalMeasure(
        lattice=lat, points=tuple(reduce_mod(p, lat) for p in points)
    )


@dataclass(frozen=True)
class IntegralAffineMap:
    matrix: Mat
    offset: Vec
    source: Lattice
    target: Lattice

    def __post_init__(self):
        if len(self.matrix) != self.target.dim or len(self.offset) != self.target.dim:
            raise MeasureError("map shape does not match the target")
        if any(len(r) != self.source.dim for r in self.matrix):
            raise MeasureError("map shape does not match the source")
        for g in self.source.generators:
            if not self.target.contains(mat_vec(self.matrix, g)):
                raise MeasureError(
                    "linear part does not map the source lattice into the target"
                )

    def apply(self, p: Vec) -> Vec:
        return vadd(mat_vec(self.matrix, p), self.offset)


def haar(lat: Lattice, c: PeriodicComplex) -> PolytopalMeasure:
    """Haar probability measure with atoms from one lattice-fundamental set."""
    cells = unfold(c, lat).cells
    density = 1 / covolume(lat)
    return PolytopalMeasure(
        lattice=lat, atoms=tuple((cell, density) for cell in cells)
    )


def integrate(t: TestFunction, mu: PolytopalMeasure) -> Fraction:
    """Exact integral of a piecewise-affine test against a polytopal measure.

    One side's decomposition must refine the other's: either every atom
    is inside a single cell of t, or every cell of t is inside a single
    atom, up to the period.  Both are decided by containment indexes.
    An affine integrand over a simplex integrates to volume times the
    barycenter value.
    """
    # fast path: the atoms are exactly t's cells (e.g. Haar on t's complex)
    if len(mu.atoms) == len(t.complex.cells) and all(
        s == cell for (s, _), cell in zip(mu.atoms, t.complex.cells)
    ):
        total = Fraction(0)
        for (s, d), (m, c) in zip(mu.atoms, t.pieces):
            bc = s.barycenter()
            total += d * simplex_k_volume(s) * (dot(m, bc) + c)
        return total
    # branch 1: each atom inside a cell translate cells[i] + lam of t
    index = _containment_index(t.complex)
    total = Fraction(0)
    for s, d in mu.atoms:
        hit = index.locate(s.vertices)
        if hit is None:
            break
        i, lam = hit
        m, c = t.pieces[i]
        value = dot(m, vsub(s.barycenter(), lam)) + c
        total += d * simplex_k_volume(s) * value
    else:
        return total
    # branch 2: t's cells refine the atoms
    if t.complex.period != mu.lattice:
        raise NoCommonRefinementError(
            "test complex period differs from the measure lattice"
        )
    n = mu.lattice.dim
    if mu.dim != n:
        raise NoCommonRefinementError("flat atoms hold no test cell")
    atoms = PeriodicComplex(
        period=mu.lattice, cells=tuple(s for s, _ in mu.atoms)
    )
    index = _containment_index(atoms)
    scale, coords = _period_coords(t.complex)
    total = Fraction(0)
    for cell, w, (m, c) in zip(t.complex.cells, coords, t.pieces):
        hit = index.find_cell_containing_simplex(
            [w[k : k + n] for k in range(0, len(w), n)], scale
        )
        if hit is None:
            raise NoCommonRefinementError("test cell not inside one atom")
        d = mu.atoms[hit[0]][1]
        total += d * simplex_k_volume(cell) * (dot(m, cell.barycenter()) + c)
    return total


def integrate_empirical(t: TestFunction, e: EmpiricalMeasure) -> Fraction:
    total = sum((evaluate_test(t, p) for p in e.points), Fraction(0))
    return total / len(e.points)


def empirical_averages(
    tests: tuple[TestFunction, ...], e: EmpiricalMeasure
) -> tuple[Fraction, ...]:
    """Averages of several tests on one complex, locating each point once."""
    if not tests:
        return ()
    base = tests[0].complex
    if any(t.complex is not base and t.complex != base for t in tests):
        return tuple(integrate_empirical(t, e) for t in tests)
    index = _containment_index(base)
    # integer arithmetic: points at the common scale den, their period
    # coordinates at scale q * den
    den = math.lcm(*{x.denominator for p in e.points for x in p})
    q, inv_i = integer_matrix(inverse(base.period.matrix))
    qd = q * den
    # aggregate per cell translate: the per-point work is then
    # independent of the number of tests
    counts: dict[tuple, int] = {}
    num_sums: dict[tuple, list] = {}
    for p in e.points:
        p_num = [x.numerator * (den // x.denominator) for x in p]
        w = tuple(sum(map(mul, row, p_num)) for row in inv_i)
        key = index.find_cell_containing_simplex((w,), qd)
        if key is None:
            raise MeasureError(f"point {p} not covered by the test complex")
        counts[key] = counts.get(key, 0) + 1
        acc = num_sums.get(key)
        num_sums[key] = p_num if acc is None else list(map(add, acc, p_num))
    sums = [Fraction(0)] * len(tests)
    for (i, k), cnt in counts.items():
        lam = base.period.from_coords(k)
        # the sum of the points, each minus its translation lam
        vsum = tuple(
            Fraction(x, den) - cnt * y for x, y in zip(num_sums[i, k], lam)
        )
        for j, t in enumerate(tests):
            m, c = t.pieces[i]
            sums[j] += dot(m, vsum) + c * cnt
    return tuple(s / len(e.points) for s in sums)


def pushforward(mu, a: IntegralAffineMap):
    """Exact pushforward; same kind in, same kind out."""
    if isinstance(mu, EmpiricalMeasure):
        return empirical(a.target, tuple(a.apply(p) for p in mu.points))
    atoms = []
    for s, d in mu.atoms:
        edges = s.edge_matrix()
        image_edges = tuple(mat_vec(a.matrix, e) for e in edges)
        if rank(image_edges) != s.dim:
            raise NonInjectiveAtomError(
                "map collapses an atom; use monte_carlo_pushforward"
            )
        img = Simplex(tuple(a.apply(v) for v in s.vertices))
        vol_src = simplex_k_volume(s)
        vol_img = simplex_k_volume(img)  # raises if irrational
        canon, _ = canonical_cell(img.vertices, a.target)
        atoms.append((canon, d * vol_src / vol_img))
    return PolytopalMeasure(lattice=a.target, atoms=tuple(atoms))


def monte_carlo_pushforward(
    mu: PolytopalMeasure, a: IntegralAffineMap, samples: int, seed: int
) -> EmpiricalMeasure:
    """Seeded sampling per atom proportional to mass, mapped forward.

    Sample counts are allocated deterministically by largest remainder;
    each atom uses its own derived sub-seed so results are reproducible
    bit for bit regardless of evaluation order.  A sample of a k-simplex
    takes k sorted 32-bit cuts of [0, 1) as its barycentric weights.

    The work runs on one integer grid: the map followed by the target's
    period coordinates is affine, so each vertex is mapped once, and a
    sample is the integer combination of its atom's mapped vertices with
    the cut gaps as weights, reduced by ``%``.  Each output coordinate is
    built as one Fraction at the end.
    """
    if samples <= 0:
        raise MeasureError("samples must be positive")
    masses = [d * simplex_k_volume(s) for s, d in mu.atoms]
    total = sum(masses, Fraction(0))
    quotas = [m / total * samples for m in masses]
    counts = [math.floor(q) for q in quotas]
    remainders = sorted(
        range(len(quotas)),
        key=lambda i: (quotas[i] - counts[i], i),
        reverse=True,
    )
    short = samples - sum(counts)
    for i in remainders[:short]:
        counts[i] += 1
    lat = a.target
    # x -> lat.coords(a.apply(x)) as the integer rows g * [L^-1 M | L^-1 b]
    g, to_coords = integer_matrix(mat_mul(
        inverse(lat.matrix),
        tuple(row + (b,) for row, b in zip(a.matrix, a.offset)),
    ))
    den, verts = integer_matrix(
        tuple(v for s, _ in mu.atoms for v in s.vertices)
    )
    top = 1 << 32
    modulus = top * g * den  # period coordinates of a sample times this
    t, basis = integer_matrix(lat.matrix)
    out_den = t * modulus
    points = []
    first = 0
    for idx, ((s, _), cnt) in enumerate(zip(mu.atoms, counts)):
        k = s.dim
        images = [
            [sum(map(mul, row, v)) + row[-1] * den for row in to_coords]
            for v in verts[first : first + k + 1]
        ]
        first += k + 1
        # with cuts c_1 <= ... <= c_k the weights are the gaps c_1 - 0,
        # c_2 - c_1, ..., top - c_k; summed by parts, coordinate m is
        # top * images[k][m] + sum_i c_i * (images[i-1][m] - images[i][m])
        pairs = list(zip(images, images[1:]))
        axes = [
            (top * images[k][m], [u[m] - w[m] for u, w in pairs])
            for m in range(len(to_coords))
        ]
        bits = random.Random(f"{seed}:{idx}").getrandbits
        for _ in range(cnt):
            cuts = sorted([bits(32) for _ in range(k)])
            r = [(b + sum(map(mul, cuts, col))) % modulus for b, col in axes]
            points.append(tuple(
                Fraction(sum(map(mul, row, r)), out_den) for row in basis
            ))
    return EmpiricalMeasure(lattice=lat, points=tuple(points))


def _clip_simplex(verts: tuple[Vec, ...], a: Vec, beta: Fraction):
    """Pieces of conv(verts) inside the half-space a.x <= beta.

    Supports full-dimensional simplices of dimension 1 to 3; degenerate
    zero-volume pieces are dropped by the caller.
    """
    g = [dot(a, v) - beta for v in verts]
    kept = [v for v, x in zip(verts, g) if x <= 0]
    out = [(v, x) for v, x in zip(verts, g) if x > 0]
    if not out:
        return [verts]
    if not any(x < 0 for x in g):
        return []

    def cross(pi: int, qv: Vec, qg: Fraction) -> Vec:
        gp = g_kept[pi]
        if gp == 0:
            return kept[pi]
        tpar = gp / (gp - qg)
        return vadd(kept[pi], vscale(tpar, vsub(qv, kept[pi])))

    g_kept = [x for x in g if x <= 0]
    d = len(verts) - 1
    if d == 1:
        (k,) = kept
        (qv, qg) = out[0]
        return [(k, cross(0, qv, qg))]
    if d == 2:
        if len(out) == 1:
            a0, b0 = kept
            qv, qg = out[0]
            return [
                (a0, b0, cross(1, qv, qg)),
                (a0, cross(1, qv, qg), cross(0, qv, qg)),
            ]
        (q1, g1), (q2, g2) = out
        (a0,) = kept
        return [(a0, cross(0, q1, g1), cross(0, q2, g2))]
    if d == 3:
        if len(out) == 1:
            a0, b0, c0 = kept
            qv, qg = out[0]
            a1, b1, c1 = (cross(i, qv, qg) for i in range(3))
            return [(a0, b0, c0, c1), (a0, b0, b1, c1), (a0, a1, b1, c1)]
        if len(out) == 2:
            a0, b0 = kept
            (q1, g1), (q2, g2) = out
            e = cross(0, q1, g1)
            f = cross(0, q2, g2)
            gg = cross(1, q1, g1)
            h = cross(1, q2, g2)
            return [(a0, e, f, h), (a0, e, gg, h), (a0, b0, gg, h)]
        (a0,) = kept
        return [tuple([a0] + [cross(0, qv, qg) for qv, qg in out])]
    raise MeasureError("box clipping supports dimensions 1 to 3 only")


def _box_clip_volume(s: Simplex, center: Vec, delta: Fraction) -> Fraction:
    n = s.ambient_dim
    pieces = [s.vertices]
    for k in range(n):
        e = tuple(Fraction(1 if i == k else 0) for i in range(n))
        neg = vscale(Fraction(-1), e)
        new_pieces = []
        for p in pieces:
            new_pieces.extend(_clip_simplex(p, e, center[k] + delta))
        pieces = new_pieces
        new_pieces = []
        for p in pieces:
            new_pieces.extend(_clip_simplex(p, neg, delta - center[k]))
        pieces = new_pieces
    total = Fraction(0)
    for p in pieces:
        edges = tuple(vsub(v, p[0]) for v in p[1:])
        total += abs(det(from_columns(edges))) / math.factorial(len(p) - 1)
    return total


def _wrap_guard(lat: Lattice, delta: Fraction) -> None:
    n = lat.dim
    shortest = None
    for k in product((-1, 0, 1), repeat=n):
        if all(x == 0 for x in k):
            continue
        lam = lat.from_coords(tuple(Fraction(x) for x in k))
        norm = max(abs(x) for x in lam)
        if shortest is None or norm < shortest:
            shortest = norm
    if delta > shortest / 4:
        raise MeasureError(
            f"delta {delta} wraps around the torus (limit {shortest / 4})"
        )


def _box_translates(inv, scale, cw, reach, verts):
    """The integer vectors k for which the period-coordinate bounding box
    of verts + k meets that of a box.

    The vertices are integer tuples at one scale and ``inv`` is the
    integer matrix of the inverse period basis with inv * v equal to
    scale * coords(v).  Along period axis m the box's bounding box is
    centred at cw[m] / scale with half width reach[m] / scale.
    """
    ranges = []
    for row, cm, e in zip(inv, cw, reach):
        ys = [cm - sum(map(mul, row, v)) for v in verts]
        ranges.append(
            range((min(ys) - e + scale - 1) // scale, (max(ys) + e) // scale + 1)
        )
    return product(*ranges)


def mass_near(mu, center: Vec, delta: Fraction) -> Fraction:
    """Measure of the closed sup-norm box of radius delta around center.

    The period translates tried for a point or an atom are those whose
    period-coordinate bounding box meets the box's, so any rational
    period basis is handled.  Points are tested in integers.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise MeasureError("delta must be positive")
    _wrap_guard(mu.lattice, delta)
    lat = mu.lattice
    n = lat.dim
    empirical_case = isinstance(mu, EmpiricalMeasure)
    if not empirical_case and mu.dim != n:
        raise MeasureError("box masses need full-dimensional atoms")
    pts = (
        mu.points if empirical_case
        else tuple(v for s, _ in mu.atoms for v in s.vertices)
    )
    # the points, the center, delta and the period basis on one scale s
    s, rows = integer_matrix(
        pts + (tuple(center), (delta,)) + lat.generators
    )
    q, inv = integer_matrix(inverse(lat.matrix))
    c, (d,) = rows[len(pts)], rows[len(pts) + 1]
    basis_rows = tuple(zip(*rows[len(pts) + 2 :]))  # the rows of s * L
    reach = [d * sum(map(abs, row)) for row in inv]
    cw = [sum(map(mul, row, c)) for row in inv]
    if empirical_case:
        hits = 0
        for p in rows[: len(pts)]:
            for k in _box_translates(inv, q * s, cw, reach, (p,)):
                if all(
                    abs(x + sum(map(mul, k, col)) - y) <= d
                    for x, y, col in zip(p, c, basis_rows)
                ):
                    hits += 1
                    break
        return Fraction(hits, len(pts))
    total = Fraction(0)
    first = 0
    for atom, dens in mu.atoms:
        verts = rows[first : first + n + 1]
        first += n + 1
        for k in _box_translates(inv, q * s, cw, reach, verts):
            lam = lat.from_coords(k)
            total += dens * _box_clip_volume(atom.translate(lam), center, delta)
    return total
