"""Periodic simplicial complexes from the barycentric cuboid triangulation.

Cells are stored as canonical representatives modulo the period lattice:
vertex lists sorted lexicographically and translated so the smallest
vertex has period-basis coordinates in [0, 1)^n.  A complex the library
builds keeps integer period coordinates and builds its cells on access.
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
    inverse,
    primitive_integer_vector,
    rank,
    solve_underdetermined_nullvec,
    vadd,
    vsub,
    vscale,
    zero_vec,
)


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


@dataclass(frozen=True)
class PeriodicComplex:
    """Finitely many maximal cells whose period translates tile R^n.  One
    the library builds is (period, ``_coords``): see :func:`_from_coords`."""

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
    # j when the cells are the level-j cells of Todd's J1 triangulation
    # of the period basis (see barycentric_triangulation); set only by
    # that builder and dyadic_refine_step; see is_refinement
    _j1: int | None = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name):
        # reached only for the unbuilt cells of a complex of _from_coords
        if name != "cells" or self._coords is None:
            raise AttributeError(name)
        object.__setattr__(self, "cells", tuple(map(Simplex, _cell_vertices(self))))
        return self.cells

    @property
    def dim(self) -> int:
        return self.period.dim

    @property
    def size(self) -> int:
        """The number of cells, read without building them."""
        return len(self.cells if self._coords is None else self._coords[1])


def _from_coords(period, scale, coords, level, j1=None) -> PeriodicComplex:
    """The complex with these :func:`_period_coords`, as an
    ``EmpiricalMeasure`` is (lattice, scale, coords); cells on access."""
    c = object.__new__(PeriodicComplex)
    c.__dict__.update(period=period, level=level, _coords=(scale, coords), _j1=j1)
    return c


def _period_coords(c: PeriodicComplex) -> tuple[int, tuple]:
    """Vertex coordinates in the period basis, times one common scale.

    Returns ``(scale, cells)``: ``cells[i]`` is the flat integer tuple
    ``scale * coords(v)`` over the vertices v of ``c.cells[i]`` in order,
    so vertex k is ``cells[i][k*n:(k+1)*n]`` and coordinate m of every
    vertex is ``cells[i][m::n]``, on the least scale.  Computed once,
    from the Fractions, on a complex the library did not build.
    """
    if c._coords is None:
        den, ws = c.period.integer_coords([v for s in c.cells for v in s.vertices])
        ws = list(ws)
        e = math.gcd(den, *(x for w in ws for x in w))
        it = iter(ws)
        cells = tuple(tuple(x // e for _ in s.vertices for x in next(it)) for s in c.cells)
        object.__setattr__(c, "_coords", (den // e, cells))
    return c._coords


def _vertex_images(c: PeriodicComplex) -> tuple[int, list, dict]:
    """(t, cells, images): per cell, the period coordinates w of its
    vertices, as tuples; and the image a = t v (see :func:`_ambient`)
    of each distinct w, for the vertex v = L w / scale; t = g scale."""
    n, (scale, coords) = c.dim, _period_coords(c)
    cells = [tuple(zip(*[iter(w)] * n)) for w in coords]
    rows = c.period.frame.basis
    images = {w: _ambient(rows, w) for w in set().union(*cells)}
    return c.period.frame.g * scale, cells, images


def _ambient_cells(c: PeriodicComplex) -> tuple[int, list]:
    """(t, cells): ``cells[i]`` lists the images a = t v of the vertices
    v of ``c.cells[i]``, as :func:`_vertex_images` gives them."""
    t, cells, images = _vertex_images(c)
    return t, [tuple(map(images.get, cell)) for cell in cells]


def _cell_vertices(c: PeriodicComplex) -> list[tuple[Vec, ...]]:
    """The rational vertex tuples of the cells of c, made from its
    integer form without building a Simplex."""
    t, cells, images = _vertex_images(c)
    fracs = {x: Fraction(x, t) for x in {x for a in images.values() for x in a}}
    verts = {w: tuple(map(fracs.get, a)) for w, a in images.items()}
    return [tuple(map(verts.get, cell)) for cell in cells]


def _ambient(rows, w: tuple) -> tuple[int, ...]:
    """The integer image g L w of integer period coordinates w, for rows
    ``period.frame.basis`` = g L.  A vertex with coordinates w / scale in
    :func:`_period_coords` is the point a / t with a = g L w, t = g scale;
    a lattice vector with coordinates k is the point g L k / g.
    """
    return tuple(sum(map(mul, w, row)) for row in rows)


def _coord_box(w: tuple, n: int) -> tuple[list, list]:
    """Per-axis minima and maxima of a flat coordinate tuple of
    :func:`_period_coords`."""
    return [min(w[m::n]) for m in range(n)], [max(w[m::n]) for m in range(n)]


def barycentric_triangulation(
    orth_prime: tuple[Vec, ...], period: Lattice
) -> PeriodicComplex:
    """Complete barycentric subdivision of the period cuboid, level 0.

    Maximal cells are generated from the reference flag simplex with
    vertices 0, b_1'/2, (b_1'+b_2')/2, ... by sign flips and
    permutations, then reduced to canonical representatives.  These are
    the level-0 cells of Todd's J1 ("Union Jack") triangulation of the
    period basis, and the complex records that level.  At level j, in the
    scaled period coordinates y = 2^j u, the J1 cell with center a in
    Z^n, signs s and permutation pi is
    {1/2 >= s_pi1 (y-a)_pi1 >= ... >= s_pin (y-a)_pin >= 0}.  At scale
    2^(j+1) its vertices are 2a, then 2a + s_pi1 e_pi1, and so on, each
    with one more odd coordinate; there are 2^n n! 2^(nj) cells mod the
    period.  :func:`dyadic_refine_step` maps level j to level j + 1.
    Written at scale 2 in period coordinates, ordered by ambient image.
    """
    if tuple(orth_prime) != tuple(period.generators):
        raise ComplexError("period must be generated by the cuboid basis")
    n = len(orth_prime)
    rows = period.frame.basis
    cols = tuple(zip(*rows))  # cols[i] is the ambient image of e_i
    cells: dict[tuple, tuple] = {}  # ambient image -> period coordinates
    for signs in product((1, -1), repeat=n):
        for perm in permutations(range(n)):
            w, a = [0] * n, [0] * n
            verts = [(tuple(a), tuple(w))]
            for idx in perm:
                w[idx] += signs[idx]
                a = [x + signs[idx] * y for x, y in zip(a, cols[idx])]
                verts.append((tuple(a), tuple(w)))
            verts.sort()
            k = tuple(2 * (x // 2) for x in verts[0][1])
            step = _ambient(rows, k)
            key = tuple(x - y for a, _ in verts for x, y in zip(a, step))
            cells[key] = tuple(x - y for _, u in verts for x, y in zip(u, k))
    return _from_coords(period, 2, tuple(cells[k] for k in sorted(cells)), 0, 0)


def dyadic_refine_step(
    c: PeriodicComplex,
) -> tuple[PeriodicComplex, tuple[tuple[int, Vec], ...]]:
    """One halving step; also returns, per new cell, (parent index,
    parent translation lam) such that 2 * new_cell = parent + lam.

    In integer period coordinates (see :func:`_period_coords`): the new
    cells (u + k)/2, k in {0,1}^n, are exact at twice the scale, the
    canonical shift is a floor division, and translation keeps the vertex
    order, so each parent is sorted once by ambient image.  A J1 level j
    kept on c becomes j + 1.
    """
    n = c.dim
    scale, coords = _period_coords(c)
    g, rows = c.period.frame.g, c.period.frame.basis
    two_s = 2 * scale
    # (vertex count m, d) -> (the ambient image and the period coordinates
    # of the step scale * d, each repeated m times; the parent translation
    # sum(d_j b_j))
    steps: dict[tuple, tuple] = {}
    flat_parents = []
    records: dict[tuple, tuple[int, tuple]] = {}
    for i, (cell, amb) in enumerate(zip(coords, _ambient_cells(c)[1])):
        m = len(amb)
        verts = sorted(zip(amb, (cell[k : k + n] for k in range(0, m * n, n))))
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
                    _ambient(rows, sd) * m,
                    sd * m,
                    tuple(Fraction(x, g) for x in _ambient(rows, d)),
                )
            records.setdefault(tuple(map(add, amb, step[0])), (i, step))
    if len(records) != len(coords) * 2 ** n:
        raise ComplexError("dyadic refinement produced colliding cells")
    new_coords = []
    parents = []
    for key in sorted(records):
        i, (_, sd, lam) = records[key]
        new_coords.append(tuple(map(add, flat_parents[i], sd)))
        parents.append((i, lam))
    j1 = None if c._j1 is None else c._j1 + 1
    refined = _from_coords(c.period, two_s, tuple(new_coords), c.level + 1, j1)
    return refined, tuple(parents)


def dyadic_refine(c: PeriodicComplex, steps: int) -> PeriodicComplex:
    if steps < 0:
        raise ComplexError("steps must be >= 0")
    for _ in range(steps):
        c, _ = dyadic_refine_step(c)
    return c


def _int_det_adj(cols):
    """(|det M|, |det M| M^-1) for the integer matrix M given by columns:
    the determinant and adjugate up to one sign, so the first is >= 0.

    Closed cofactor forms for n <= 3; Fraction elimination otherwise.
    """
    n = len(cols)
    if not 0 < n <= 3:
        m = from_columns(tuple(tuple(Fraction(x) for x in col) for col in cols))
        d = abs(det(m))
        if d == 0:
            return 0, ()
        return int(d), tuple(tuple(int(x * d) for x in row) for row in inverse(m))
    if n == 1:
        det_m, adj = cols[0][0], ((1,),)
    elif n == 2:
        (a, c), (b, d) = cols  # matrix [[a, b], [c, d]]
        det_m, adj = a * d - b * c, ((d, -b), (-c, a))
    else:
        (a, d, g), (b, e, h), (c, f, i) = cols
        det_m = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        adj = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
    if det_m < 0:
        return -det_m, tuple(tuple(-x for x in row) for row in adj)
    return det_m, adj


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
        total = 0
        for row in adj:
            y = 0
            for k in range(n):
                y += row[k] * diff[k]
            if y < 0:
                return False
            total += y
        return total <= det_i * denom

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
        den, ws = self.period.integer_coords(points)
        hit = self.find_cell_containing_simplex(list(ws), den)
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

    Exact for any two complexes with the same period.  When both carry
    the J1 level that :func:`barycentric_triangulation` and
    :func:`dyadic_refine_step` record, the answer is j_fine >= j_coarse,
    with no per-cell work.  True by transitivity: each cell of
    :func:`dyadic_refine_step` lies in its parent.  False because a J1
    cell at level j' < j is larger than every level-j cell, so it fits
    in none of them.  Every other pair, any complex from :func:`unfold`
    or the constructor among them, takes the containment-index search of
    :func:`_is_refinement_search`.
    """
    if fine.period != coarse.period:
        raise IncompatiblePeriodsError("refinement check needs equal periods")
    if fine._j1 is not None and coarse._j1 is not None:
        return fine._j1 >= coarse._j1
    return _is_refinement_search(fine, coarse)


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
    at the shared face, and ``key`` names the pair in certificates.
    """

    i: int
    j: int
    shift_i: Vec
    shift_j: Vec
    face: tuple[Vec, ...]
    normal: Vec
    key: str


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

    Facets are hashed by their canonical representative: the vertices
    ordered by ambient image, the first one's period coordinates in
    [0, 1)^n; since translates of the cells tile space, every facet orbit
    is shared by exactly two cell copies.  The pairs come in the order of
    the canonical facets, the first cell copy of a pair being the first
    in cell and vertex order.

    In integer period coordinates, ordered by ambient image as in
    :func:`dyadic_refine_step`, with one normal per facet shape.  Kept on
    the complex, with the certificate key of each pair,
    ``cell<i>[<shift_i>]|cell<j>[<shift_j>]``, the shift entries
    comma-separated as ``str`` gives them.
    """
    if c._pairs is not None:
        return c._pairs
    n = c.dim
    scale, coords = _period_coords(c)
    g, rows = c.period.frame.g, c.period.frame.basis
    t, images = _ambient_cells(c)
    steps: dict[tuple, tuple] = {}  # k -> the ambient image of scale * k
    buckets: dict[tuple, list] = {}
    for i, (cell, amb) in enumerate(zip(coords, images)):
        verts = sorted((a, cell[k * n : k * n + n], k) for k, a in enumerate(amb))
        for drop in range(len(verts)):
            face = [v for v in verts if v[2] != drop]
            k = tuple(x // scale for x in face[0][1])
            step = steps.get(k)
            if step is None:
                step = steps[k] = _ambient(rows, tuple(scale * x for x in k))
            key = tuple(x for a, _, _ in face for x in map(sub, a, step))
            buckets.setdefault(key, []).append((i, k, drop, step))
    normals: dict[tuple, Vec] = {}  # facet edges -> normal of either sign
    shifts: dict[tuple, tuple] = {}  # k -> (the period vector -k, its text)
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
        opp = map(sub, images[i][drop], step)
        side = sum(int(x) * (y - z) for x, y, z in zip(nu, opp, face[0]))
        if side == 0:
            raise ComplexError("degenerate face/opposite configuration")
        for k in (ki, kj):
            if k not in shifts:
                v = tuple(Fraction(-x, g) for x in _ambient(rows, k))
                shifts[k] = v, ",".join(map(str, v))
        for a in face:
            if a not in points:
                points[a] = tuple(Fraction(x, t) for x in a)
        (si, text_i), (sj, text_j) = shifts[ki], shifts[kj]
        pairs.append(AdjacentPair(
            i=i,
            j=j,
            shift_i=si,
            shift_j=sj,
            face=tuple(points[a] for a in face),
            normal=nu if side > 0 else vscale(Fraction(-1), nu),
            key=f"cell{i}[{text_i}]|cell{j}[{text_j}]",
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
    ``lat``, one cell per (cell, coset) pair, and is c if lat = c.period.
    """
    return c if lat == c.period else unfold_with_shifts(c, lat)[0]


def unfold_with_shifts(
    c: PeriodicComplex, lat: Lattice
) -> tuple[PeriodicComplex, tuple[tuple[int, Vec], ...]]:
    """Like :func:`unfold` but also returns, per new cell, the source
    cell index and the period shift lam with new_cell = cells[i] + lam.
    ``lat`` is K Z^n in the period basis: the cells are translated by the
    coset representatives of Z^n / K Z^n in integer period coordinates,
    reduced mod K Z^n by floor division, and ordered by ambient image.
    """
    n = c.dim
    kcols = [c.period.coords(g) for g in lat.generators]
    if any(x.denominator != 1 for col in kcols for x in col):
        raise IncompatiblePeriodsError("unfold target must be a sublattice")
    kcols = [list(map(int, col)) for col in kcols]
    det_k, adj = _int_det_adj(kcols)

    def shift(w, s):
        """s K floor(K^-1 w / s): what reduces w mod s K Z^n."""
        m = [sum(map(mul, row, w)) // (det_k * s) for row in adj]
        return [s * sum(map(mul, m, row)) for row in zip(*kcols)]

    reps = {
        tuple(map(sub, k, shift(k, 1)))
        for k in product(range(det_k), repeat=n)
    }
    scale, coords = _period_coords(c)
    rows = c.period.frame.basis
    cells: dict[tuple, tuple] = {}  # ambient image -> (coordinates, i, lam)
    for i, (cell, amb) in enumerate(zip(coords, _ambient_cells(c)[1])):
        verts = sorted(zip(amb, (cell[k : k + n] for k in range(0, len(cell), n))))
        for r in reps:
            w0 = [x + scale * y for x, y in zip(verts[0][1], r)]
            k = [scale * x - y for x, y in zip(r, shift(w0, scale))]
            step = _ambient(rows, k)
            key = tuple(x + y for a, _ in verts for x, y in zip(a, step))
            w = tuple(x + y for _, u in verts for x, y in zip(u, k))
            cells[key] = w, i, tuple(x // scale for x in k)
    if len(cells) != det_k * len(coords):
        raise ComplexError("unfolded cells collide")
    ordered = [cells[key] for key in sorted(cells)]
    # lat coordinates adj(K) w / (det(K) scale), on the least scale
    new = [
        [sum(map(mul, row, w[m : m + n])) for m in range(0, len(w), n) for row in adj]
        for w, _, _ in ordered
    ]
    e = math.gcd(det_k * scale, *(x for w in new for x in w))
    new = tuple(tuple(x // e for x in w) for w in new)
    lams = {k: c.period.from_coords(k) for k in {k for _, _, k in ordered}}
    unfolded = _from_coords(lat, det_k * scale // e, new, c.level)
    return unfolded, tuple((i, lams[k]) for _, i, k in ordered)
