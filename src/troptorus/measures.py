"""Piecewise Haar measures, empirical measures and affine pushforwards.

All masses and densities are exact rationals.  Pushforwards that would
need irrational volume distortions are rejected and routed to the
seeded Monte Carlo fallback.
"""
from __future__ import annotations

import math
import random
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add, itemgetter, mul, sub

from .complexes import (
    LazyTuple,
    PeriodicComplex,
    Simplex,
    _ambient,
    _clip,
    _coord_box,
    _from_coords,
    _lifted,
    _rational_view,
    _volume,
    lazy_field,
    simplex_volume,
    unfold,
)
from .lattice import Lattice, box_translates, covolume, sup_distances
from .linalg import (
    DimensionMismatchError,
    Mat,
    TroptorusError,
    Vec,
    det,
    dot,
    integer_matrix,
    mat_mul,
    mat_vec,
    vadd,
    zero_vec,
)
from .paf import TestFunction, _restrict


class MeasureError(TroptorusError):
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
    """k-volume of a k-simplex in R^n, exact; raises if irrational.

    For k = n it is |det E| / n!, the square root of the Gram determinant
    det(E E^T) = det(E)^2 taken in closed form.
    """
    if s.dim == 0:
        return Fraction(1)  # a point atom carries its density as mass
    if s.dim == s.ambient_dim:
        return simplex_volume(s)
    edges = s.edge_matrix()
    gram = tuple(tuple(dot(a, b) for b in edges) for a in edges)
    root = _exact_sqrt(det(gram))
    if root is None:
        shown = ", ".join(f"({', '.join(map(str, v))})" for v in s.vertices)
        raise MeasureError(
            f"simplex {s.dim}-volume is irrational for vertices {shown}"
        )
    return root / math.factorial(s.dim)


@dataclass(frozen=True)
class PolytopalMeasure:
    """Atoms (simplex, density) modulo the lattice."""

    lattice: Lattice
    atoms: tuple[tuple[Simplex, Fraction], ...]

    @lazy_field
    def atoms(self) -> LazyTuple:
        """The atoms of a measure of :func:`_measure`: each cell of its
        complex, as the complex keeps it, with its density."""
        c, dens = self._cells
        return LazyTuple(
            len(dens), lambda i: (c.cells[i], dens[i]), lambda: zip(c.cells, dens)
        )

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
        c = self._cells[0]
        return len(c._coords[1][0]) // c.dim - 1

    @cached_property
    def _cells(self) -> tuple[PeriodicComplex, tuple[Fraction, ...]]:
        """(complex over the lattice, densities) of the atoms; seeded by
        :func:`_measure`."""
        cells = PeriodicComplex(self.lattice, tuple(s for s, _ in self.atoms))
        return cells, tuple(d for _, d in self.atoms)

    @cached_property
    def _masses(self) -> tuple[Fraction, ...]:
        """d * vol(s) per atom (s, d).  The cells of a complex with a J1
        level are congruent under signed permutations of the period
        coordinates, so each has the volume covol(period) / size."""
        c, dens = self._cells
        if c._j1 is not None:
            vol = covolume(c.period) / c.size
            return tuple(d * vol for d in dens)
        t = c.period.frame.g * c._coords[0]
        return tuple(map(mul, dens, _volumes(t, c.dim, c._images)))

    @cached_property
    def _mass_classes(self) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
        """(masses, ids): the distinct values of ``_masses``, and per atom
        the index of its own; integrate sums its integer values per class."""
        pos: dict[Fraction, int] = {}
        ids = tuple(pos.setdefault(w, len(pos)) for w in self._masses)
        return tuple(pos), ids

    @cached_property
    def _integrals(self) -> dict[int, tuple]:
        """id(t) -> (t, the integral of t against self): the integrals
        that ``equidist.discrepancy`` keeps."""
        return {}

    @cached_property
    def _located(self) -> dict[int, tuple]:
        """id(c) -> (c, this measure on the cells of c): the measures that
        branch 2 of :func:`integrate` builds, each cell of a test complex c
        taking the density of the atom that holds it; c is held so that
        its id is not reused."""
        return {}


def _measure(lat: Lattice, c: PeriodicComplex, densities) -> PolytopalMeasure:
    """The measure whose atoms are the cells of c, c.period = lat."""
    mu = object.__new__(PolytopalMeasure)
    mu.__dict__.update(lattice=lat, _cells=(c, tuple(densities)))
    return mu


def _volumes(t: int, n: int, cells):
    """Lazily, the k-volume of each cell from the flat integer images
    a = t v of its vertices v in R^n (as ``PeriodicComplex._images``), one
    volume per shape (the flat edges from the first vertex); raises as
    simplex_k_volume does."""
    shapes: dict[tuple, Fraction] = {}  # flat edges -> volume
    for a in cells:
        edges = tuple(map(sub, a[n:], a[:n] * (len(a) // n - 1)))
        vol = shapes.get(edges)
        if vol is None:
            rows = tuple(zip(*[iter(edges)] * n))
            s = Simplex(((0,) * n,) + rows)
            vol = shapes[edges] = simplex_k_volume(s) / t ** len(rows)
        yield vol


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Equal weights on points of R^n / lattice: point i is L w / scale
    for the integer period coordinates w = coords[i], 0 <= w_j < scale."""

    lattice: Lattice
    scale: int
    coords: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.coords:
            raise MeasureError("empirical measure needs at least one point")
        if self.scale < 1:
            raise MeasureError(f"empirical scale {self.scale} is not positive")
        if set(map(len, self.coords)) != {self.lattice.dim}:
            raise DimensionMismatchError("empirical coordinates of the wrong length")
        if (
            min(chain.from_iterable(self.coords)) < 0
            or max(chain.from_iterable(self.coords)) >= self.scale
        ):
            raise MeasureError(f"empirical coordinates outside [0, {self.scale})")

    @cached_property
    def points(self) -> LazyTuple:
        """The points as rational vectors."""
        return _rational_view(self.lattice, self.scale, self.coords, itemgetter(0))

    @cached_property
    def _distinct(self) -> tuple[tuple, tuple]:
        """(coords, counts): the distinct points of ``coords`` in
        first-seen order, and how many times each occurs;
        ``equidist.torsion_grid``, whose points are distinct, seeds it."""
        counts = Counter(self.coords)
        return tuple(counts), tuple(counts.values())


def empirical(lat: Lattice, points) -> EmpiricalMeasure:
    """The empirical measure of rational points, each reduced modulo lat,
    on the least scale."""
    d, ws = lat.integer_coords(tuple(points))
    ws = tuple([tuple([x % d for x in w]) for w in ws])
    e = math.gcd(d, *chain.from_iterable(ws))
    if e > 1:
        d, ws = d // e, tuple(tuple(x // e for x in w) for w in ws)
    return EmpiricalMeasure(lattice=lat, scale=d, coords=ws)


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
        _check_sends(self, self.source, "source")

    def apply(self, p: Vec) -> Vec:
        return vadd(mat_vec(self.matrix, p), self.offset)


def haar(lat: Lattice, c: PeriodicComplex) -> PolytopalMeasure:
    """Haar probability measure with atoms from one lattice-fundamental
    set, the cells of c unfolded over lat."""
    c = unfold(c, lat)
    return _measure(lat, c, (1 / covolume(lat),) * c.size)


def integrate(t: TestFunction, mu: PolytopalMeasure) -> Fraction:
    """Exact integral of a piecewise-affine test against a polytopal measure.

    One side's decomposition must refine the other's: either every atom
    is inside a single cell of t, or every cell of t is inside a single
    atom, up to the period; both are decided by containment indexes, and
    the measure that the second case moves onto t's cells is kept on mu.
    An affine integrand over a simplex integrates to volume times the
    barycenter value.  For t's integer form (P.x + C) / den at period
    coordinates x on the cells summed over (its own, or ``paf._restrict``
    on the atoms), s the scale of a cell's k + 1 vertices and S their sum,
    that value is (P.S + (k + 1) s C) / ((k + 1) s den).  Each distinct
    atom mass multiplies its summed values once, and zero pieces add
    nothing.
    """
    atoms, dens = mu._cells
    c, form = t.complex, t._form
    if atoms is not c:
        # branch 1: each atom inside a cell translate of t, which is then
        # affine on it; the first atom in no cell sends it to branch 2
        restricted = _restrict(t, atoms.period, *atoms._coords)
        if restricted is not None:
            c, form = atoms, restricted
        # branch 2: t's cells refine the atoms; each takes its atom's density
        elif c.period != mu.lattice:
            raise NoCommonRefinementError(
                "test complex period differs from the measure lattice"
            )
        elif mu.dim != c.dim:
            raise NoCommonRefinementError("flat atoms hold no test cell")
        else:
            hit = mu._located.get(id(c))
            if hit is None:
                find = atoms._index.find_cell_containing_simplex
                scale, coords = c._coords
                hits = [find(list(zip(*[iter(w)] * c.dim)), scale) for w in coords]
                if None in hits:
                    raise NoCommonRefinementError("test cell not inside one atom")
                located = _measure(c.period, c, [dens[i] for i, _ in hits])
                hit = mu._located[id(c)] = c, located
            mu = hit[1]
    n = c.dim
    den, rows = form
    scale, coords = c._coords
    m = len(coords[0]) // n
    nums = [
        0 if r is None
        else sum(sum(w[j::n]) * x for j, x in enumerate(r[0])) + m * scale * r[1]
        for w, r in zip(coords, rows)
    ]
    return _mass_sum(mu, nums, m * scale * den)


def _mass_sum(mu: PolytopalMeasure, nums, den: int) -> Fraction:
    """sum_i mass_i * nums[i] / den over the atoms of mu, with one
    multiplication per distinct mass."""
    masses, ids = mu._mass_classes
    acc = [0] * len(masses)
    for k, x in zip(ids, nums):
        if x:
            acc[k] += x
    return sum(map(mul, masses, acc), Fraction(0)) / den


def integrate_empirical(t: TestFunction, e: EmpiricalMeasure) -> Fraction:
    return empirical_averages((t,), e)[0]


def empirical_averages(
    tests: tuple[TestFunction, ...], e: EmpiricalMeasure
) -> tuple[Fraction, ...]:
    """Averages of several tests on one complex, locating each distinct
    point once by its integer period coordinates in the complex's period."""
    if not tests:
        return ()
    base = tests[0].complex
    if any(t.complex is not base and t.complex != base for t in tests):
        return tuple(empirical_averages((t,), e)[0] for t in tests)
    index = base._index
    # aggregate per cell translate: the per-point work is then
    # independent of the number of tests
    counts: dict[tuple, int] = {}
    coord_sums: dict[tuple, list] = {}
    if e.lattice != base.period:
        e = empirical(base.period, e.points)
    d = e.scale
    for w, cnt in zip(*e._distinct):
        key = index.find_cell_containing_simplex((w,), d)
        if key is None:
            p = base.period.from_coords(tuple(Fraction(x, d) for x in w))
            raise MeasureError(f"point {p} not covered by the test complex")
        if cnt > 1:
            w = [cnt * x for x in w]
        counts[key] = counts.get(key, 0) + cnt
        acc = coord_sums.get(key)
        coord_sums[key] = w if acc is None else list(map(add, acc, w))
    # in each test's integer form (P.x + C) / den, the cnt points w / d of
    # a translate k sum to (P.(S - cnt d k) + cnt d C) / (d den), S their
    # coordinate sum: one integer per test, one Fraction at the end
    forms = [t._form for t in tests]
    sums = [0] * len(tests)
    live: dict[int, list] = {}  # cell -> the tests nonzero on it
    for (i, k), cnt in counts.items():
        pieces = live.get(i)
        if pieces is None:
            pieces = live[i] = [
                (j, rows[i]) for j, (_, rows) in enumerate(forms)
                if rows[i] is not None
            ]
        if not pieces:
            continue
        cd = cnt * d
        s = [x - cd * y for x, y in zip(coord_sums[i, k], k)]
        for j, (p, c) in pieces:
            sums[j] += sum(map(mul, p, s)) + cd * c
    size = d * len(e.coords)
    return tuple(Fraction(s, size * den) for s, (den, _) in zip(sums, forms))


def _atom_images(mu: PolytopalMeasure, a: IntegralAffineMap):
    """(s, cells, image): the flat integer vertex images of the atoms (see
    ``PeriodicComplex._images``), and the map taking those of one atom to
    the target period coordinates, times s, of its vertices mapped by a."""
    # x -> a.target.coords(a.apply(x)) as the integer rows g * [L^-1 M | L^-1 b]
    g, rows = integer_matrix(mat_mul(
        a.target.frame.inverse,
        tuple(row + (b,) for row, b in zip(a.matrix, a.offset)),
    ))
    # the atom vertices a / t over their least common denominator t / e
    c = mu._cells[0]
    n, t, cells = c.dim, c.period.frame.g * c._coords[0], c._images
    e = math.gcd(t, *chain.from_iterable(cells))
    den = t // e
    return g * den, cells, lambda cell: [
        [sum(map(mul, row, v)) // e + row[-1] * den for row in rows]
        for v in zip(*[iter(cell)] * n)
    ]


def _check_sends(a: IntegralAffineMap, lat: Lattice, name: str) -> None:
    """Raise unless the linear part of a maps each generator of lat into
    a.target: a map's source when made, a pushforward's other lattice."""
    if not all(a.target.contains(mat_vec(a.matrix, g)) for g in lat.generators):
        raise MeasureError(
            f"linear part does not map the {name} lattice into the target"
        )


def pushforward(mu, a: IntegralAffineMap):
    """Exact pushforward; same kind in, same kind out.

    Each atom is mapped in integers and put in canonical form as the
    complex builders do; its image has volume 0 exactly when a collapses
    it, and the atoms are checked in order.
    """
    if mu.lattice != a.source:
        _check_sends(a, mu.lattice, "measure's")
    if isinstance(mu, EmpiricalMeasure):
        return empirical(a.target, tuple(a.apply(p) for p in mu.points))
    lat = a.target
    scale, cells, image = _atom_images(mu, a)
    coords, images = [], []
    for cell in cells:
        # vertices by ambient image, the first one's shift by floor division
        verts = sorted((_ambient(lat.frame.basis, w), w) for w in image(cell))
        k = [scale * (x // scale) for x in verts[0][1]]
        coords.append(tuple(x - y for _, w in verts for x, y in zip(w, k)))
        images.append(tuple(x for v, _ in verts for x in v))
    densities = []
    for w, vol in zip(mu._masses, _volumes(lat.frame.g * scale, lat.dim, images)):
        if not vol:
            raise NonInjectiveAtomError(
                "map collapses an atom; use monte_carlo_pushforward"
            )
        densities.append(w / vol)
    e = math.gcd(scale, *(x for w in coords for x in w))
    c = _from_coords(lat, scale // e, tuple(tuple(x // e for x in w) for w in coords), 0)
    return _measure(lat, c, densities)


def monte_carlo_pushforward(
    mu: PolytopalMeasure, a: IntegralAffineMap, samples: int, seed: int
) -> EmpiricalMeasure:
    """Seeded sampling per atom proportional to mass, mapped forward.

    Sample counts are allocated deterministically by largest remainder;
    each atom uses its own derived sub-seed so results are reproducible
    bit for bit regardless of evaluation order.  A sample of a k-simplex
    takes k sorted 32-bit cuts of [0, 1) as its barycentric weights.

    In integers: with the masses x_i / D on one denominator and X their
    sum, atom i gets divmod(samples x_i, X), and the remainders order the
    extra samples.  An atom's cuts come from one ``getrandbits`` call,
    split into 32-bit words from the least significant: the values, in
    order, of as many ``getrandbits(32)`` calls.  The map followed by the
    target's period coordinates is affine, so a sample is the combination
    of its atom's mapped integer vertices with the cut gaps as weights,
    reduced by ``%``, which gives the output's period coordinates; each
    target axis is built over all the atom's samples from k columns, the
    i-th smallest cut of each sample.
    """
    if samples <= 0:
        raise MeasureError("samples must be positive")
    if mu.lattice != a.source:
        _check_sends(a, mu.lattice, "measure's")
    masses = mu._masses
    den = math.lcm(*(m.denominator for m in masses))
    xs = [m.numerator * (den // m.denominator) for m in masses]
    total = sum(xs)
    if not total:
        raise MeasureError("measure has zero mass; nothing to sample")
    counts, rems = zip(*(divmod(samples * x, total) for x in xs))
    counts = list(counts)
    order = sorted(range(len(rems)), key=lambda i: (rems[i], i), reverse=True)
    for i in order[: samples - sum(counts)]:
        counts[i] += 1
    scale, cells, image = _atom_images(mu, a)
    top = 1 << 32
    modulus = top * scale  # period coordinates of a sample times this
    coords = []
    for idx, (cell, cnt) in enumerate(zip(cells, counts)):
        if not cnt:
            continue
        images = image(cell)
        k = len(images) - 1
        # with cuts c_1 <= ... <= c_k the weights are the gaps c_1 - 0,
        # c_2 - c_1, ..., top - c_k; summed by parts, coordinate m is
        # top * images[k][m] + sum_i c_i * (images[i-1][m] - images[i][m])
        pairs = list(zip(images, images[1:]))
        words = cnt * k
        bits = random.Random(f"{seed}:{idx}").getrandbits(32 * words)
        draws = struct.unpack(f"<{words}I", bits.to_bytes(4 * words, "little"))
        ranks = list(zip(*map(sorted, zip(*[iter(draws)] * k))))
        columns = [
            [x % modulus for x in _axis(
                top * images[k][m], [u[m] - w[m] for u, w in pairs], ranks, cnt
            )]
            for m in range(a.target.dim)
        ]
        coords.extend(zip(*columns))
    return EmpiricalMeasure(lattice=a.target, scale=modulus, coords=tuple(coords))


def _axis(base: int, steps, columns, size: int) -> list:
    """base + sum_i steps[i] * columns[i][j] for j < size: one list pass
    per nonzero step."""
    terms = [(s, column) for s, column in zip(steps, columns) if s]
    if not terms:
        return [base] * size
    (s, column), *rest = terms
    col = [base + s * y for y in column]
    for s, column in rest:
        col = [x + s * y for x, y in zip(col, column)]
    return col


def _wrap_guard(lat: Lattice, delta: Fraction) -> None:
    """Raise unless delta <= shortest / 4, shortest being the sup-norm of
    a shortest nonzero period vector.  Only vectors within 4 delta
    decide, and a generator bounds the shortest one."""
    r = min([4 * delta] + [max(map(abs, g)) for g in lat.generators])
    short = [d for d in sup_distances(lat, zero_vec(lat.dim), r) if d]
    if short and min(short) < 4 * delta:
        raise MeasureError(
            f"delta {delta} wraps around the torus (limit {min(short) / 4})"
        )


def mass_near(mu, center: Vec, delta: Fraction) -> Fraction:
    """Measure of the closed sup-norm box of radius delta around center.

    The period translates tried for an atom are those whose
    period-coordinate bounding box meets the box's, so any rational
    period basis is handled.  Points share one set of translates, that of
    the box holding every reduced point, and are tested in integers, per
    translate one axis at a time; the hits of the translates add up, as no
    point has two translates within delta of the center: the wrap guard
    keeps every nonzero period vector at sup-norm 4 delta or more.  Atom
    translates are clipped by the box on their integer vertex images
    at one scale t (``complexes._clip``): the sum of density times
    ``_volume`` over n! t^n."""
    delta = Fraction(delta)
    if delta <= 0:
        raise MeasureError("delta must be positive")
    lat = mu.lattice
    n = lat.dim
    if len(center) != n:
        raise DimensionMismatchError("mass_near: wrong center length")
    _wrap_guard(lat, delta)
    _, g, rows, q, inv = lat.frame
    empirical_case = isinstance(mu, EmpiricalMeasure)
    if empirical_case:
        unit = g * mu.scale
    elif mu.dim != n:
        raise MeasureError("box masses need full-dimensional atoms")
    else:
        c = mu._cells[0]
        unit, cells = g * c._coords[0], c._images
    # the center and delta as c / t and d / t, t a multiple of unit, and
    # the period-coordinate bounding box of the box, at scale q * t
    t = math.lcm(unit, delta.denominator, *(x.denominator for x in center))
    c = [x.numerator * (t // x.denominator) for x in center]
    d = delta.numerator * (t // delta.denominator)
    reach = [d * sum(map(abs, row)) for row in inv]
    cw = [sum(map(mul, row, c)) for row in inv]
    lo = [x - e for x, e in zip(cw, reach)]
    hi = [x + e for x, e in zip(cw, reach)]
    qt = q * t
    if empirical_case:
        # at scale t the point L w / scale plus the period vector L k is
        # g L (a w + b k); every 0 <= w < scale lies in one box, so one
        # set of translates k serves all points, each kept as the offset
        # g L b k - c of the box center
        a, b = t // unit, t // g
        f = qt // mu.scale  # w / scale as period coordinates at scale q t
        offsets = [
            tuple(map(sub, _ambient(rows, [b * y for y in k]), c))
            for k in box_translates((0,) * n, (qt - f,) * n, lo, hi, qt)
        ]
        # a point can hit only if each of its period coordinates f w has
        # a translate inside [lo, hi]: with L = lo mod qt and H = L + hi
        # - lo, L <= f w <= H or f w <= H - qt, as bounds on w
        ws = mu.coords
        for m, (l, h) in enumerate(zip(lo, hi)):
            if h - l < qt:
                low = l % qt
                high = low + h - l
                a0, a1, a2 = -(-low // f), high // f, (high - qt) // f
                ws = [w for w in ws if a0 <= w[m] <= a1 or w[m] <= a2]
        # the survivors' images g L a w, one list per axis
        cols = list(zip(*ws))
        axes = [_axis(0, [a * x for x in row], cols, len(ws)) for row in rows]
        hits = 0
        for o in offsets:
            keep = range(len(ws))
            for p, y in zip(axes, o):
                low, high = -d - y, d - y
                keep = [i for i in keep if low <= p[i] <= high]
            hits += len(keep)
        return Fraction(hits, len(mu.coords))
    # at scale t, L k is step g L k; c is taken off to center the box at 0
    r, step = t // unit, t // g
    sides = [tuple(s * (i == m) for i in range(n)) for s in (1, -1) for m in range(n)]
    total = Fraction(0)
    for cell, dens in zip(cells, mu._cells[1]):
        a = [r * x for x in cell]
        ws = [_ambient(inv, a[k : k + n]) for k in range(0, len(a), n)]
        for k in box_translates(*_coord_box(sum(ws, ()), n), lo, hi, qt):
            shift = [step * x - y for x, y in zip(_ambient(rows, k), c)]
            pieces = [_lifted(a, n, shift)]
            for side in sides:
                pieces = [q for p in pieces for q in _clip(p, side, d)]
            total += dens * sum(map(_volume, pieces))
    return total / (math.factorial(n) * t**n)
