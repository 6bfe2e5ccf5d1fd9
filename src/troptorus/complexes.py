"""Periodic simplicial complexes from the barycentric cuboid triangulation.

Cells are stored as canonical representatives modulo the period lattice:
vertex lists sorted lexicographically and translated so the smallest
vertex has period-basis coordinates in [0, 1)^n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from operator import add, mul, sub

from .lattice import Lattice, box_translates, covolume
from .linalg import (
    DimensionMismatchError,
    TroptorusError,
    Vec,
    det,
    dot,
    from_columns,
    integer_matrix,
    inverse,
    primitive_integer_vector,
    rank,
    solve_underdetermined_nullvec,
    vadd,
    vsub,
    vscale,
    zero_vec,
)

HALF = Fraction(1, 2)


class ComplexError(TroptorusError):
    pass


class IncompatiblePeriodsError(ComplexError):
    pass


@dataclass(frozen=True)
class Simplex:
    vertices: tuple[Vec, ...]

    def __post_init__(self):
        lengths = set(map(len, self.vertices))
        if not lengths:
            raise ComplexError("simplex needs at least one vertex")
        if len(lengths) != 1:
            raise ComplexError("simplex vertices of unequal length")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    def edge_matrix(self):
        v0 = self.vertices[0]
        return tuple(vsub(v, v0) for v in self.vertices[1:])

    def is_nondegenerate(self) -> bool:
        return rank(self.edge_matrix()) == self.dim

    def barycenter(self) -> Vec:
        s = zero_vec(self.ambient_dim)
        for v in self.vertices:
            s = vadd(s, v)
        return vscale(Fraction(1, len(self.vertices)), s)

    def translate(self, t: Vec) -> "Simplex":
        return Simplex(tuple(vadd(v, t) for v in self.vertices))


def simplex_volume(s: Simplex) -> Fraction:
    """|det(v_1-v_0, ..., v_n-v_0)| / n! for a full-dimensional simplex."""
    if s.dim != s.ambient_dim:
        raise DimensionMismatchError("simplex_volume needs an n-simplex in R^n")
    return abs(det(s.edge_matrix())) / math.factorial(s.dim)


def barycentric_coords(s: Simplex, p: Vec) -> tuple[Fraction, ...]:
    """Barycentric coordinates of p w.r.t. a full-dimensional simplex."""
    from .linalg import solve

    v0 = s.vertices[0]
    m = from_columns(s.edge_matrix())
    lam = solve(m, vsub(p, v0))
    lam0 = Fraction(1) - sum(lam, Fraction(0))
    return (lam0,) + tuple(lam)


def canonical_cell(vertices: tuple[Vec, ...], period: Lattice) -> tuple[Simplex, Vec]:
    """Canonical representative and the period shift that was subtracted."""
    vs = sorted(vertices)
    coords = period.coords(vs[0])
    shift = period.from_coords(tuple(Fraction(math.floor(c)) for c in coords))
    if any(c != 0 for c in shift):
        vs = [vsub(v, shift) for v in vs]
    return Simplex(tuple(vs)), shift


@dataclass(frozen=True)
class PeriodicComplex:
    """Finitely many maximal cells whose period translates tile R^n."""

    period: Lattice
    cells: tuple[Simplex, ...]
    level: int = 0
    # (scale, flat integer vertex coordinates per cell); see _period_coords
    _coords: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # the _ContainmentIndex of the cells; see _containment_index
    _index: object = field(default=None, init=False, repr=False, compare=False)
    # the AdjacentPairs of the cells; see adjacent_pairs
    _pairs: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return self.period.dim


def _period_coords(c: PeriodicComplex) -> tuple[int, tuple]:
    """Vertex coordinates in the period basis, times one common scale.

    Returns ``(scale, cells)``: ``cells[i]`` is the flat integer tuple
    ``scale * coords(v)`` over the vertices v of ``c.cells[i]`` in order,
    so vertex k is ``cells[i][k*n:(k+1)*n]`` and coordinate m of every
    vertex is ``cells[i][m::n]``.  Computed from the Fractions at most
    once per complex and kept on it; :func:`dyadic_refine_step` hands its
    output the coordinates it built.
    """
    if c._coords is None:
        fracs: dict[Vec, Vec] = {}
        for cell in c.cells:
            for v in cell.vertices:
                if v not in fracs:
                    fracs[v] = c.period.coords(v)
        scale = math.lcm(
            1, *(x.denominator for w in fracs.values() for x in w)
        )
        ints = {
            v: tuple(x.numerator * (scale // x.denominator) for x in w)
            for v, w in fracs.items()
        }
        cells = tuple(
            tuple(x for v in cell.vertices for x in ints[v])
            for cell in c.cells
        )
        object.__setattr__(c, "_coords", (scale, cells))
    return c._coords


def _coord_box(w: tuple, n: int) -> tuple[list, list]:
    """Per-axis minima and maxima of a flat coordinate tuple of
    :func:`_period_coords`."""
    return [min(w[m::n]) for m in range(n)], [max(w[m::n]) for m in range(n)]


def make_complex(
    period: Lattice, simplices, level: int = 0, expected: int | None = None
) -> PeriodicComplex:
    seen: dict[tuple, Simplex] = {}
    for s in simplices:
        canon, _ = canonical_cell(s.vertices, period)
        seen.setdefault(canon.vertices, canon)
    cells = tuple(seen[k] for k in sorted(seen))
    if expected is not None and len(cells) != expected:
        raise ComplexError(f"expected {expected} cells, got {len(cells)}")
    return PeriodicComplex(period=period, cells=cells, level=level)


def fundamental_cuboid(orth_prime: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """The 2^n vertices sum(eps_j b_j') with eps in {0,1}."""
    if rank(orth_prime) != len(orth_prime):
        raise ComplexError("cuboid generators must be linearly independent")
    n = len(orth_prime)
    out = []
    for eps in product((0, 1), repeat=n):
        v = zero_vec(len(orth_prime[0]))
        for e, b in zip(eps, orth_prime):
            if e:
                v = vadd(v, b)
        out.append(v)
    return tuple(sorted(set(out)))


def barycentric_triangulation(
    orth_prime: tuple[Vec, ...], period: Lattice
) -> PeriodicComplex:
    """Complete barycentric subdivision of the period cuboid, level 0.

    Maximal cells are generated from the reference flag simplex with
    vertices 0, b_1'/2, (b_1'+b_2')/2, ... by sign flips and
    permutations, then reduced to canonical representatives.
    """
    if tuple(orth_prime) != tuple(period.generators):
        raise ComplexError("period must be generated by the cuboid basis")
    n = len(orth_prime)
    ambient = len(orth_prime[0])
    cells = []
    for signs in product((1, -1), repeat=n):
        for perm in permutations(range(n)):
            verts = [zero_vec(ambient)]
            acc = zero_vec(ambient)
            for idx in perm:
                acc = vadd(acc, vscale(HALF * signs[idx], orth_prime[idx]))
                verts.append(acc)
            cells.append(Simplex(tuple(verts)))
    expected = (2 ** n) * math.factorial(n)
    return make_complex(period, cells, level=0, expected=expected)


def dyadic_refine_step(
    c: PeriodicComplex,
) -> tuple[PeriodicComplex, tuple[tuple[int, Vec], ...]]:
    """One halving step; also returns, per new cell, (parent index,
    parent translation lam) such that 2 * new_cell = parent + lam.

    The loop runs on integer period-basis coordinates (see
    :func:`_period_coords`): the new cells (u + k)/2, k in {0,1}^n, are
    exact at twice the scale, and the canonical shift is a floor
    division.  Translation keeps the lexicographic vertex order, so each
    parent is sorted once; the ambient integer coordinates that order
    needs are a fixed integer image of the period coordinates.  The new
    complex keeps its period coordinates.
    """
    n = c.dim
    scale, coords = _period_coords(c)
    g, rows = integer_matrix(c.period.matrix)

    def ambient(w):
        # g * (scale of w) * (the point with period coordinates w)
        return tuple(sum(map(mul, w, row)) for row in rows)

    two_s = 2 * scale
    # (vertex count m, d) -> (the ambient image and the period coordinates
    # of the step scale * d, each repeated m times; the parent translation
    # sum(d_j b_j))
    steps: dict[tuple, tuple] = {}
    flat_parents = []
    records: dict[tuple, tuple[int, tuple]] = {}
    for i, cell in enumerate(coords):
        m = len(cell) // n
        verts = sorted(
            (ambient(w), w)
            for w in (cell[k : k + n] for k in range(0, m * n, n))
        )
        amb = tuple(x for a, _ in verts for x in a)
        flat_parents.append(tuple(x for _, w in verts for x in w))
        # 2 * new = parent + sum(d_j b_j) for d = k - 2 * shift, k in
        # {0,1}^n; the canonical shift takes the first vertex's period
        # coordinates into [0, 1)
        options = [
            (-2 * (x // two_s), 1 - 2 * ((x + scale) // two_s))
            for x in verts[0][1]
        ]
        for d in product(*options):
            step = steps.get((m, d))
            if step is None:
                sd = tuple(scale * x for x in d)
                step = steps[m, d] = (
                    ambient(sd) * m,
                    sd * m,
                    tuple(Fraction(x, g) for x in ambient(d)),
                )
            records.setdefault(tuple(map(add, amb, step[0])), (i, d))
    if len(records) != len(c.cells) * 2 ** n:
        raise ComplexError("dyadic refinement produced colliding cells")
    t = two_s * g  # ambient keys are t * vertex
    frac_cache: dict[int, Fraction] = {}
    verts_f: dict[tuple, Vec] = {}
    cells = []
    new_coords = []
    parents = []
    for key in sorted(records):
        i, d = records[key]
        vs = []
        for k in range(0, len(key), n):
            a = key[k : k + n]
            v = verts_f.get(a)
            if v is None:
                fs = []
                for x in a:
                    f = frac_cache.get(x)
                    if f is None:
                        f = frac_cache[x] = Fraction(x, t)
                    fs.append(f)
                v = verts_f[a] = tuple(fs)
            vs.append(v)
        cells.append(Simplex(tuple(vs)))
        _, sd, lam = steps[len(vs), d]
        new_coords.append(tuple(map(add, flat_parents[i], sd)))
        parents.append((i, lam))
    refined = PeriodicComplex(
        period=c.period, cells=tuple(cells), level=c.level + 1
    )
    object.__setattr__(refined, "_coords", (two_s, tuple(new_coords)))
    return refined, tuple(parents)


def dyadic_refine(c: PeriodicComplex, steps: int) -> PeriodicComplex:
    if steps < 0:
        raise ComplexError("steps must be >= 0")
    for _ in range(steps):
        c, _ = dyadic_refine_step(c)
    return c


def _int_det_adj(cols):
    """Determinant and adjugate of an integer matrix given by columns.

    Closed cofactor forms for n <= 3; Fraction elimination otherwise.
    """
    n = len(cols)
    if n == 1:
        return cols[0][0], ((1,),)
    if n == 2:
        (a, c), (b, d) = cols  # matrix [[a, b], [c, d]]
        return a * d - b * c, ((d, -b), (-c, a))
    if n == 3:
        (a, d, g), (b, e, h), (c, f, i) = cols
        det_i = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        adj = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
        return det_i, adj
    m = from_columns(tuple(tuple(Fraction(x) for x in col) for col in cols))
    d = det(m)
    if d == 0:
        return 0, ()
    return int(d), tuple(tuple(int(x * d) for x in row) for row in inverse(m))


class _ContainmentIndex:
    """Which period translate of which cell of a complex holds a point.

    Runs on the integer period coordinates of :func:`_period_coords`,
    where the period lattice is ``scale * Z^n``: a translate is an
    integer vector k, and a query is first reduced into the unit cell
    [0, 1)^n by floor division.  The entries are the translates
    cells[i] + k whose coordinate box meets [0, 1]^n, the range of k
    per axis coming from the cell's own box; each is registered in every
    bucket of a regular grid on the unit cell that its box meets.  Build
    it through :func:`_containment_index`, which keeps it on the complex.
    """

    def __init__(self, c: PeriodicComplex):
        n = c.dim
        scale, coords = _period_coords(c)
        self.period, self.scale = c.period, scale
        entries = []
        for i, w in enumerate(coords):
            base = [w[k : k + n] for k in range(0, len(w), n)]
            det_i, adj = _int_det_adj(
                tuple(tuple(map(sub, v, base[0])) for v in base[1:])
            )
            if det_i == 0:
                continue  # a flat cell holds no point that others miss
            lo0, hi0 = _coord_box(w, n)
            for k in box_translates(lo0, hi0, (0,) * n, (scale,) * n, scale):
                sh = [scale * x for x in k]
                entries.append((
                    tuple(map(add, base[0], sh)),
                    adj,
                    det_i,
                    tuple(map(add, lo0, sh)),
                    tuple(map(add, hi0, sh)),
                    i,
                    k,
                ))
        # entries register in every bucket their box meets, so any size
        # is sound; the cell extent balances list length against
        # registration cost
        self.size = size = max(
            (max(map(sub, e[4], e[3])) for e in entries), default=1
        )
        last = scale // size
        self.buckets: dict[tuple, list] = {}
        for e in entries:
            ranges = [
                range(max(lo // size, 0), min(hi // size, last) + 1)
                for lo, hi in zip(e[3], e[4])
            ]
            for key in product(*ranges):
                self.buckets.setdefault(key, []).append(e)

    @staticmethod
    def _inside(entry, p_num, denom) -> bool:
        """Whether the point p_num / denom (scaled period coordinates)
        lies in the entry's translate."""
        v0, adj, det_i, lo, hi, _, _ = entry
        n = len(p_num)
        for k in range(n):
            p = p_num[k]
            if p < lo[k] * denom or p > hi[k] * denom:
                return False
        diff = [p_num[k] - denom * v0[k] for k in range(n)]
        d_scaled = det_i * denom
        total = 0
        if det_i > 0:
            for row in adj:
                y = 0
                for k in range(n):
                    y += row[k] * diff[k]
                if y < 0:
                    return False
                total += y
            return total <= d_scaled
        for row in adj:
            y = 0
            for k in range(n):
                y += row[k] * diff[k]
            if y > 0:
                return False
            total += y
        return total >= d_scaled

    def find_cell_containing_simplex(
        self, verts, den: int
    ) -> tuple[int, tuple[int, ...]] | None:
        """(i, k) with every point w / den of ``verts`` in cells[i] + k.

        The points are integer tuples w, with w / den the period
        coordinates of a vertex; a single point is a one-vertex simplex.
        None if no cell holds them all.
        """
        m = len(verts)
        scale = self.scale
        md = m * den
        # md * barycenter, reduced by the integer vector k0
        bary = verts[0] if m == 1 else [sum(col) for col in zip(*verts)]
        k0 = [x // md for x in bary]
        b = [scale * (x - md * k) for x, k in zip(bary, k0)]
        pts = [
            [scale * (x - den * k) for x, k in zip(v, k0)]
            for v in (verts if m > 1 else ())
        ]
        inside = self._inside
        step = md * self.size
        for e in self.buckets.get(tuple(x // step for x in b), ()):
            # the barycenter is interior, so test it before the vertices
            if inside(e, b, md) and all(inside(e, p, den) for p in pts):
                return e[5], tuple(map(add, k0, e[6]))
        return None

    def locate(self, points) -> tuple[int, Vec] | None:
        """(i, lam), lam a period vector, with every rational point of
        ``points`` in cells[i] + lam; None if no cell holds them all."""
        coords = [self.period.coords(p) for p in points]
        den = math.lcm(*(x.denominator for w in coords for x in w))
        hit = self.find_cell_containing_simplex(
            [
                tuple(x.numerator * (den // x.denominator) for x in w)
                for w in coords
            ],
            den,
        )
        if hit is None:
            return None
        return hit[0], self.period.from_coords(hit[1])


def _containment_index(c: PeriodicComplex) -> _ContainmentIndex:
    """The containment index of c, built at most once and kept on c."""
    if c._index is None:
        object.__setattr__(c, "_index", _ContainmentIndex(c))
    return c._index


def is_refinement(fine: PeriodicComplex, coarse: PeriodicComplex) -> bool:
    """True iff every fine cell sits inside a coarse cell mod the period.

    Exact for any two complexes with the same period.  Against a J1
    complex (see :func:`_j1_level`) the one candidate parent of each fine
    cell is found in closed form; any other coarse complex takes the
    bucket search of :func:`_is_refinement_search`.
    """
    if fine.period != coarse.period:
        raise IncompatiblePeriodsError("refinement check needs equal periods")
    j = _j1_level(coarse)
    if j is None:
        return _is_refinement_search(fine, coarse)
    return _is_refinement_j1(fine, j)


def _j1_level(c: PeriodicComplex) -> int | None:
    """j if the cells of c are, mod the period, exactly the level-j J1
    cells of its period basis; else None.

    Todd's J1 ("Union Jack") triangulation at level j: in the scaled
    period coordinates y = 2^j u, the cell with center a in Z^n, signs s
    and permutation pi is
    {1/2 >= s_pi1 (y-a)_pi1 >= ... >= s_pin (y-a)_pin >= 0}.  At scale
    2^(j+1) its vertices are 2a, then 2a + s_pi1 e_pi1, and so on, each
    with one more odd coordinate.  barycentric_triangulation builds
    level 0 and dyadic_refine_step maps level j to level j + 1.  The
    ``level`` field is not trusted: the cells themselves are checked,
    and there must be all 2^n n! 2^(nj) of them, distinct mod the period.
    """
    n = c.dim
    r, rem = divmod(len(c.cells), 2 ** n * math.factorial(n))
    j = (r.bit_length() - 1) // n
    if rem or r == 0 or r != 1 << (n * j):
        return None
    scale, coords = _period_coords(c)
    t = 2 << j
    mask = (1 << j) - 1
    seen = set()
    for cell in coords:
        if scale != t:
            if any(x * t % scale for x in cell):
                return None
            cell = tuple(x * t // scale for x in cell)
        odd = sorted(
            (sum(x & 1 for x in v), v)
            for v in (cell[k : k + n] for k in range(0, len(cell), n))
        )
        if [k for k, _ in odd] != list(range(n + 1)):
            return None
        moves = []
        for (_, a), (_, b) in zip(odd, odd[1:]):
            diff = [(m, y - x) for m, (x, y) in enumerate(zip(a, b)) if y != x]
            if len(diff) != 1 or abs(diff[0][1]) != 1:
                return None
            moves.append(diff[0])
        center = tuple((x >> 1) & mask for x in odd[0][1])
        seen.add((center, tuple(moves)))
    return j if len(seen) == len(coords) else None


def _is_refinement_j1(fine: PeriodicComplex, j: int) -> bool:
    """is_refinement(fine, the level-j J1 complex of fine's period).

    Take a fine cell's barycenter b in scaled period coordinates, its
    nearest integer point a (rounding halves up) and z = b - a.  The J1
    cell of a with the signs of z (+ for 0) and |z| in descending order
    holds b.  A coarse cell that contains the fine cell meets that one
    in a common face (J1 is a triangulation) holding b, which is in the
    relative interior of the fine cell; so the face, and the candidate,
    hold the whole fine cell.  Hence the fine cell refines iff its
    vertices satisfy the candidate's inequalities, checked here in
    integers.
    """
    n = fine.dim
    scale, coords = _period_coords(fine)
    p2 = 2 << j  # 2 * scale * y = p2 * w for period coordinates w / scale
    s2 = 2 * scale
    columns = [slice(k, None, n) for k in range(n)]
    for cell in coords:
        m = len(cell) // n
        ms = m * scale
        rows = []
        for k in columns:
            col = cell[k]
            total = p2 * sum(col)  # 2 * scale * m * b
            off = s2 * ((total + ms) // (2 * ms))  # 2 * scale * a
            z = total - m * off  # 2 * scale * m * (b - a)
            if z >= 0:
                rows.append((z, [p2 * w - off for w in col]))
            else:
                rows.append((-z, [off - p2 * w for w in col]))
        # per vertex: scale >= row_1 >= ... >= row_n >= 0, row_k being
        # s_pik * 2 * scale * (y - a)_pik
        rows.sort(reverse=True)
        if max(rows[0][1]) > scale or min(rows[-1][1]) < 0:
            return False
        for (_, hi), (_, lo) in zip(rows, rows[1:]):
            if min(map(sub, hi, lo)) < 0:
                return False
    return True


def _is_refinement_search(
    fine: PeriodicComplex, coarse: PeriodicComplex
) -> bool:
    """is_refinement by the containment index of coarse; any complexes."""
    index = _containment_index(coarse)
    n = fine.dim
    scale, coords = _period_coords(fine)
    return all(
        index.find_cell_containing_simplex(
            [w[k : k + n] for k in range(0, len(w), n)], scale
        )
        is not None
        for w in coords
    )


@dataclass(frozen=True)
class AdjacentPair:
    """Two maximal cells meeting in a codimension-1 face, one per orbit.

    The actual simplices are cells[i] + shift_i and cells[j] + shift_j;
    ``normal`` is the primitive integer inner normal of the first cell
    at the shared face.
    """

    i: int
    j: int
    shift_i: Vec
    shift_j: Vec
    face: tuple[Vec, ...]
    normal: Vec

    def delta(self, c: PeriodicComplex) -> Simplex:
        return c.cells[self.i].translate(self.shift_i)

    def sigma(self, c: PeriodicComplex) -> Simplex:
        return c.cells[self.j].translate(self.shift_j)


def _facet_normal(edges: tuple[Vec, ...], n: int) -> Vec:
    """A primitive integer normal, of either sign, of the hyperplane
    spanned by the n - 1 rational edge vectors of a facet in R^n."""
    if not edges:
        if n > 1:
            raise ComplexError("codim-1 face must have n vertices")
        return (Fraction(1),)
    return primitive_integer_vector(solve_underdetermined_nullvec(edges, n))


def _inner_normal(face: tuple[Vec, ...], opposite: Vec) -> Vec:
    w0 = face[0]
    nu = _facet_normal(tuple(vsub(w, w0) for w in face[1:]), len(w0))
    s = dot(nu, vsub(opposite, w0))
    if s == 0:
        raise ComplexError("degenerate face/opposite configuration")
    return nu if s > 0 else vscale(Fraction(-1), nu)


def adjacent_pairs(c: PeriodicComplex) -> tuple[AdjacentPair, ...]:
    """All codim-1 adjacent cell pairs, one per period orbit.

    Facets are hashed by their canonical representative (as
    :func:`canonical_cell` makes it); since translates of the cells tile
    space, every facet orbit is shared by exactly two cell copies.  The
    pairs come in the order of the canonical facets, the first cell copy
    of a pair being the first in cell and vertex order.

    The work runs on the integer period coordinates of
    :func:`_period_coords`, ordered by their ambient integer image as in
    :func:`dyadic_refine_step`; the canonical shift is a floor division
    and the normal is computed once per facet shape.  Computed at most
    once per complex and kept on it.
    """
    if c._pairs is not None:
        return c._pairs
    n = c.dim
    scale, coords = _period_coords(c)
    g, rows = integer_matrix(c.period.matrix)
    t = g * scale  # ambient images are t * vertex

    def ambient(w):
        return tuple(sum(map(mul, w, row)) for row in rows)

    steps: dict[tuple, tuple] = {}  # k -> the ambient image of scale * k
    buckets: dict[tuple, list] = {}
    for i, cell in enumerate(coords):
        verts = sorted(
            (ambient(cell[k : k + n]), cell[k : k + n], k // n)
            for k in range(0, len(cell), n)
        )
        for drop in range(len(verts)):
            face = [v for v in verts if v[2] != drop]
            k = tuple(x // scale for x in face[0][1])
            step = steps.get(k)
            if step is None:
                step = steps[k] = ambient(tuple(scale * x for x in k))
            key = tuple(x for a, _, _ in face for x in map(sub, a, step))
            buckets.setdefault(key, []).append((i, k, drop, step))
    normals: dict[tuple, Vec] = {}  # facet edges -> normal of either sign
    shifts: dict[tuple, Vec] = {}  # k -> the period vector -k
    points: dict[tuple, Vec] = {}  # ambient image -> vertex
    pairs = []
    for key in sorted(buckets):
        entries = buckets[key]
        if len(entries) != 2:
            raise ComplexError(
                f"facet orbit shared by {len(entries)} cells; tiling broken"
            )
        (i, ki, drop, step), (j, kj, _, _) = entries
        face = [key[m : m + n] for m in range(0, len(key), n)]
        edges = tuple(tuple(map(sub, a, face[0])) for a in face[1:])
        nu = normals.get(edges)
        if nu is None:
            nu = normals[edges] = _facet_normal(
                tuple(tuple(map(Fraction, e)) for e in edges), n
            )
        opp = map(sub, ambient(coords[i][drop * n : drop * n + n]), step)
        side = sum(int(x) * (y - z) for x, y, z in zip(nu, opp, face[0]))
        if side == 0:
            raise ComplexError("degenerate face/opposite configuration")
        for k in (ki, kj):
            if k not in shifts:
                shifts[k] = tuple(Fraction(-x, g) for x in ambient(k))
        for a in face:
            if a not in points:
                points[a] = tuple(Fraction(x, t) for x in a)
        pairs.append(AdjacentPair(
            i=i,
            j=j,
            shift_i=shifts[ki],
            shift_j=shifts[kj],
            face=tuple(points[a] for a in face),
            normal=nu if side > 0 else vscale(Fraction(-1), nu),
        ))
    object.__setattr__(c, "_pairs", tuple(pairs))
    return c._pairs


def check_tiling(c: PeriodicComplex) -> None:
    total = sum((simplex_volume(cell) for cell in c.cells), Fraction(0))
    if total != covolume(c.period):
        raise ComplexError(
            f"cells cover volume {total}, period covolume {covolume(c.period)}"
        )


def check_common_faces(c: PeriodicComplex) -> None:
    """Exhaustive pairwise face-intersection check (small complexes only).

    Two cells, or a cell and a translate whose period-coordinate box
    meets its own, must have disjoint interiors, and their shared
    vertices must span a face.
    """
    from .measures import _clip_simplex

    n = c.dim
    scale, coords = _period_coords(c)
    boxes = [_coord_box(w, n) for w in coords]
    for i, a in enumerate(c.cells):
        for j in range(i, len(c.cells)):
            for k in box_translates(*boxes[j], *boxes[i], scale):
                if j == i and not any(k):
                    continue
                b = c.cells[j].translate(c.period.from_coords(k))
                shared = set(a.vertices) & set(b.vertices)
                # interiors must be disjoint: clip a by b's facet
                # half-spaces and demand the leftover volume vanish
                pieces = [a.vertices]
                for k, w in enumerate(b.vertices):
                    face = b.vertices[:k] + b.vertices[k + 1 :]
                    normal = _inner_normal(face, w)
                    beta = -dot(normal, face[0])
                    neg = vscale(Fraction(-1), normal)
                    pieces = [
                        q
                        for p in pieces
                        for q in _clip_simplex(p, neg, beta)
                    ]
                overlap = sum(
                    (simplex_volume(Simplex(p)) for p in pieces
                     if Simplex(p).is_nondegenerate()),
                    Fraction(0),
                )
                if overlap != 0:
                    raise ComplexError("overlapping cell interiors")
                if shared:
                    sub = Simplex(tuple(sorted(shared)))
                    if not sub.is_nondegenerate():
                        raise ComplexError("shared vertices not a face")


def unfold(c: PeriodicComplex, lat: Lattice) -> PeriodicComplex:
    """Re-periodize a complex over a sublattice of its period.

    ``lat`` must be contained in ``c.period``; the result has period
    ``lat`` and one cell per (cell, coset) pair.
    """
    from .lattice import covolume as _covol, reduce_mod

    for g in lat.generators:
        if not c.period.contains(g):
            raise IncompatiblePeriodsError("unfold target must be a sublattice")
    index = _covol(lat) / _covol(c.period)
    if index.denominator != 1:
        raise IncompatiblePeriodsError("non-integer lattice index")
    index = int(index)
    reps: dict[tuple, Vec] = {}
    bound = max(index, 1)
    for k in product(range(bound), repeat=c.dim):
        lam = c.period.from_coords(tuple(Fraction(x) for x in k))
        r = reduce_mod(lam, lat)
        reps.setdefault(r, r)
        if len(reps) == index:
            break
    if len(reps) != index:
        raise ComplexError("could not enumerate coset representatives")
    cells = []
    for cell in c.cells:
        for r in reps.values():
            cells.append(cell.translate(r))
    return make_complex(lat, cells, level=c.level, expected=index * len(c.cells))


def unfold_with_shifts(
    c: PeriodicComplex, lat: Lattice
) -> tuple[PeriodicComplex, tuple[tuple[int, Vec], ...]]:
    """Like :func:`unfold` but also returns, per new cell, the source
    cell index and the period shift lam with new_cell = cells[i] + lam."""
    unfolded = unfold(c, lat)
    mapping = []
    originals = {cell.vertices: i for i, cell in enumerate(c.cells)}
    for cell in unfolded.cells:
        canon, shift = canonical_cell(cell.vertices, c.period)
        i = originals.get(canon.vertices)
        if i is None:
            raise ComplexError("unfolded cell lost its source")
        mapping.append((i, shift))
    return unfolded, tuple(mapping)
