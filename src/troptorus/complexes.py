"""Periodic simplicial complexes from the barycentric cuboid triangulation.

Cells are stored as canonical representatives modulo the period lattice:
vertex lists sorted lexicographically and translated so the smallest
vertex has period-basis coordinates in [0, 1)^n.  A complex the library
builds keeps integer period coordinates, and its cells are a
:class:`LazyTuple` of them.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, permutations, product
from operator import add, eq, itemgetter, mul, sub

from .lattice import Lattice, box_translates, covolume
from .linalg import (
    DimensionMismatchError,
    TroptorusError,
    Vec,
    det,
    det_adj,
    dot,
    null_vector,
    rank,
    vadd,
    vsub,
    vscale,
    zero_vec,
)


class ComplexError(TroptorusError):
    pass


class IncompatiblePeriodsError(ComplexError):
    pass


class LazyTuple(Sequence):
    """The tuple (item(0), ..., item(size - 1)), no item None.  ``len``
    builds nothing; an index or a slice builds the items it reads and
    keeps them; the rest reads the whole tuple, made once by ``bulk()``
    (default: item by item) with the kept items in their places.  It
    pickles and copies as that tuple."""

    __slots__ = ("_item", "_bulk", "_kept")

    def __init__(self, size: int, item, bulk=None):
        self._item, self._bulk, self._kept = item, bulk, [None] * size

    def __len__(self):
        return len(self._kept)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        x = self._kept[i]
        if x is None:
            x = self._kept[i] = self._item(i % len(self))
        return x

    def _tuple(self) -> tuple:
        if isinstance(self._kept, list):
            made = self._bulk() if self._bulk else map(self._item, range(len(self)))
            self._kept = tuple(y if x is None else x for x, y in zip(self._kept, made))
        return self._kept

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other):
        return self._tuple() == other

    def __hash__(self):
        return hash(self._tuple())

    def __repr__(self):
        return repr(self._tuple())

    def __reduce__(self):
        return tuple, (self._tuple(),)


class lazy_field(cached_property):
    """A dataclass init field that an instance a builder made without it
    computes on first read and keeps; the class holds no default, so the
    field stays required."""

    def __get__(self, obj, cls=None):
        if obj is None:
            raise AttributeError(self.attrname)
        return super().__get__(obj, cls)


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
    # j when the cells are the level-j cells of Todd's J1 triangulation
    # of the period basis (see barycentric_triangulation); set only by
    # that builder and dyadic_refine_step; see is_refinement
    _j1: int | None = field(default=None, init=False, repr=False, compare=False)

    @lazy_field
    def cells(self) -> LazyTuple:
        """The cells of a complex of :func:`_from_coords`, from ``_coords``."""
        return _rational_view(self.period, *self._coords, Simplex)

    @property
    def dim(self) -> int:
        return self.period.dim

    @property
    def size(self) -> int:
        """The number of cells, read without building them."""
        return len(self._coords[1])

    @cached_property
    def _coords(self) -> tuple[int, tuple]:
        """Vertex coordinates in the period basis, times one common scale.

        ``(scale, cells)``: ``cells[i]`` is the flat integer tuple
        ``scale * coords(v)`` over the vertices v of ``self.cells[i]`` in
        order, so vertex k is ``cells[i][k*n:(k+1)*n]`` and coordinate m
        of every vertex is ``cells[i][m::n]``, on the least scale.  The
        builders seed it; a complex of the constructor computes it from
        the Fractions.
        """
        den, ws = self.period.integer_coords(
            [v for s in self.cells for v in s.vertices]
        )
        ws = list(ws)
        e = math.gcd(den, *(x for w in ws for x in w))
        it = iter(ws)
        cells = tuple(
            tuple(x // e for _ in s.vertices for x in next(it)) for s in self.cells
        )
        return den // e, cells

    @cached_property
    def _images(self) -> tuple[tuple, ...]:
        """Per cell, the flat integer images a = t v of its vertices v, in
        ``_coords`` vertex order, t = g scale (see :func:`_ambient`): what
        every reader of vertex images reads.  ``barycentric_triangulation``
        and ``dyadic_refine_step``, whose ``_coords`` are in ambient order,
        seed it as ``_ordered[0]``; any other complex computes it once."""
        return _ambient_cells(self)

    @cached_property
    def _ordered(self) -> tuple[tuple, tuple]:
        """(images, coords): per cell, the flat images of ``_images`` and
        the flat period coordinates of ``_coords``, both with the vertices
        in ambient order.  ``barycentric_triangulation`` and
        ``dyadic_refine_step`` seed it, their ``coords`` being
        ``_coords``'s own; for any other complex, one sort per cell.
        :func:`dyadic_refine_step` and :func:`unfold_with_shifts` read it."""
        n = self.dim
        images, coords = [], []
        for amb, cell in zip(self._images, self._coords[1]):
            verts = sorted(
                (amb[k : k + n], cell[k : k + n]) for k in range(0, len(cell), n)
            )
            images.append(tuple(x for a, _ in verts for x in a))
            coords.append(tuple(x for _, w in verts for x in w))
        return tuple(images), tuple(coords)

    @cached_property
    def _frames(self) -> tuple[tuple, ...]:
        """Per cell, (w_0, det, adj) for the flat integer period coordinates
        w of its vertices in ``_coords``, w_0 the first vertex: det and adj
        are the determinant and adjugate of the matrix whose columns are
        the edges w_k - w_0, one ``det_adj`` per cell shape; det is 0 for a
        flat cell.  The containment index and the interpolants of
        ``paf`` read it."""
        n = self.dim
        shapes: dict[tuple, tuple] = {}  # edge matrix -> det_adj
        frames = []
        for w in self._coords[1]:
            w0 = w[:n]
            edges = tuple(
                zip(*(map(sub, w[k : k + n], w0) for k in range(n, len(w), n)))
            )
            shape = shapes.get(edges)
            if shape is None:
                shape = shapes[edges] = det_adj(edges)
            frames.append((w0, *shape))
        return tuple(frames)

    @cached_property
    def _index(self) -> _ContainmentIndex:
        """The containment index of the cells."""
        return _ContainmentIndex(self)

    @cached_property
    def _adjacency(self) -> tuple[LazyTuple, tuple, tuple]:
        """(pairs, coords, keys), built in one integer pass.  ``pairs`` is
        what :func:`adjacent_pairs` gives, a pair's Fractions made when it
        is read.  Per pair, ``coords`` holds (i, j, N, dk) in period
        coordinates: the inner normal nu as the integer covector
        N = q L^-1 nu, q of the period's frame, so that nu.m = N.P / q for
        m = L^-T P; and the integer coordinates dk of shift_i - shift_j.
        ``keys`` holds its certificate key, built without the pair."""
        n = self.dim
        scale, coords = self._coords
        g, rows = self.period.frame.g, self.period.frame.basis
        inv = self.period.frame.inv
        t, images = g * scale, self._images
        steps: dict[tuple, tuple] = {}  # w -> step(w)

        def step(w):
            """(k, n copies of the image of scale * k), k the floor of the
            period coordinates w / scale of a vertex."""
            hit = steps.get(w)
            if hit is None:
                k = tuple(x // scale for x in w)
                hit = steps[w] = k, _ambient(rows, tuple(scale * x for x in k)) * n
            return hit

        buckets: dict[tuple, list] = {}
        for i, (cell, amb) in enumerate(zip(coords, images)):
            verts = sorted((amb[d : d + n], d) for d in range(0, len(amb), n))
            ranked = tuple(chain.from_iterable(map(itemgetter(0), verts)))
            # a facet's first vertex is the cell's first, or its second
            # when the first is dropped
            firsts = [step(cell[d : d + n]) for _, d in verts[:2]]
            for p, (_, drop) in enumerate(verts):
                k, shift = firsts[p == 0]
                key = tuple(map(sub, ranked[: p * n] + ranked[p * n + n :], shift))
                buckets.setdefault(key, []).append((i, drop, k, shift))
        # flat facet edges -> a normal of either sign and its N
        normals: dict[tuple, tuple] = {}
        shifts: dict[tuple, tuple] = {}  # k -> (the period vector -k, its text)
        faces, coords, keys = [], [], []
        for key in sorted(buckets):
            entries = buckets[key]
            if len(entries) != 2:
                raise ComplexError(
                    f"facet orbit shared by {len(entries)} cells; tiling broken"
                )
            # the first cell copy is the first in cell and vertex order
            entries.sort(key=itemgetter(0, 1))
            (i, drop, ki, shift), (j, _, kj, _) = entries
            edges = tuple(map(sub, key[n:], key[:n] * (n - 1)))
            normal = normals.get(edges)
            if normal is None:
                nu = null_vector(list(zip(*[iter(edges)] * n)), n)
                normal = normals[edges] = nu, _ambient(inv, nu)
            nu, pn = normal
            opp = map(sub, images[i][drop : drop + n], shift)
            side = sum(map(mul, nu, map(sub, opp, key)))
            if side == 0:
                raise ComplexError("degenerate face/opposite configuration")
            if side < 0:
                nu, pn = [-x for x in nu], [-x for x in pn]
            for k in (ki, kj):
                if k not in shifts:
                    v = tuple(Fraction(-x, g) for x in _ambient(rows, k))
                    shifts[k] = v, ",".join(map(str, v))
            (si, text_i), (sj, text_j) = shifts[ki], shifts[kj]
            faces.append((si, sj, key, nu))
            coords.append((i, j, pn, tuple(map(sub, kj, ki))))
            keys.append(f"cell{i}[{text_i}]|cell{j}[{text_j}]")

        def pair(m):
            (i, j, _, _), (si, sj, face, nu) = coords[m], faces[m]
            return AdjacentPair(
                i=i,
                j=j,
                shift_i=si,
                shift_j=sj,
                face=tuple(
                    tuple(Fraction(x, t) for x in a) for a in zip(*[iter(face)] * n)
                ),
                normal=tuple(map(Fraction, nu)),
                key=keys[m],
            )

        return LazyTuple(len(keys), pair), tuple(coords), tuple(keys)


def _from_coords(
    period, scale, coords, level, j1=None, images=None
) -> PeriodicComplex:
    """The complex with these ``_coords``, as an ``EmpiricalMeasure`` is
    (lattice, scale, coords); cells on access.  Given the ``images`` of
    coords already in ambient order, they are kept as ``_images`` and,
    with coords, as ``_ordered``."""
    c = object.__new__(PeriodicComplex)
    c.__dict__.update(period=period, level=level, _coords=(scale, coords), _j1=j1)
    if images is not None:
        c.__dict__.update(_images=images, _ordered=(images, coords))
    return c


def _vertex_images(period: Lattice, scale: int, coords) -> tuple[int, list, dict]:
    """(t, cells, images): per flat tuple of ``coords``, as a complex over
    period keeps them in ``_coords``, the period coordinates w of its
    vertices, as tuples; and the image a = t v (see :func:`_ambient`) of
    each distinct w, for the vertex v = L w / scale; t = g scale."""
    n, rows = period.dim, period.frame.basis
    cells = [tuple(zip(*[iter(w)] * n)) for w in coords]
    images = {w: _ambient(rows, w) for w in set().union(*cells)}
    return period.frame.g * scale, cells, images


def _ambient_cells(c: PeriodicComplex) -> tuple[tuple, ...]:
    """Per cell of c, the flat images of its vertices, as
    :func:`_vertex_images` gives them, one per distinct vertex: what
    ``PeriodicComplex._images`` computes, its one caller."""
    _, cells, images = _vertex_images(c.period, *c._coords)
    return tuple(tuple(chain.from_iterable(map(images.get, cell))) for cell in cells)


def _rational_view(period: Lattice, scale: int, coords, make) -> LazyTuple:
    """The LazyTuple of make(the rational vertices) per flat tuple of
    ``coords`` (see :func:`_vertex_images`): a complex's cells, or the
    points of an empirical measure, one vertex each.  One Fraction is made
    per distinct coordinate of the tuples read at once."""

    def made(ws):
        t, cells, images = _vertex_images(period, scale, ws)
        fracs = {x: Fraction(x, t) for x in {x for a in images.values() for x in a}}
        verts = {w: tuple(map(fracs.get, a)) for w, a in images.items()}
        return [make(tuple(map(verts.get, cell))) for cell in cells]

    return LazyTuple(
        len(coords), lambda i: made(coords[i : i + 1])[0], lambda: made(coords)
    )


def _ambient(rows, w: tuple) -> tuple[int, ...]:
    """The integer image g L w of integer period coordinates w, for rows
    ``period.frame.basis`` = g L.  A vertex with coordinates w / scale in
    ``_coords`` is the point a / t with a = g L w, t = g scale; a lattice
    vector with coordinates k is the point g L k / g.
    """
    return tuple(sum(map(mul, w, row)) for row in rows)


def _coord_box(w: tuple, n: int) -> tuple[list, list]:
    """Per-axis minima and maxima of a flat coordinate tuple of
    ``PeriodicComplex._coords``."""
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
    keys = tuple(sorted(cells))
    return _from_coords(period, 2, tuple(map(cells.get, keys)), 0, 0, keys)


def dyadic_refine_step(
    c: PeriodicComplex,
) -> tuple[PeriodicComplex, tuple[tuple[int, Vec], ...]]:
    """One halving step; also returns, per new cell, (parent index,
    parent translation lam) such that 2 * new_cell = parent + lam.

    In integer period coordinates (see ``PeriodicComplex._coords``): the
    new cells (u + k)/2, k in {0,1}^n, are exact at twice the scale, the
    canonical shift is a floor division, and translation keeps the vertex
    order, so each child is its parent's ``_ordered`` images and
    coordinates moved by one step, and one sort orders all children.  A
    J1 level j kept on c becomes j + 1.
    """
    n = c.dim
    scale = c._coords[0]
    images, coords = c._ordered
    g, rows = c.period.frame.g, c.period.frame.basis
    two_s = 2 * scale
    # 2 * new = parent + sum(d_j b_j) for d = k - 2 * shift, k in {0,1}^n;
    # the canonical shift takes the first vertex's period coordinates into
    # [0, 1), so the parents with the same (length, options) share every d
    groups: dict[tuple, list[int]] = {}
    for i, w in enumerate(coords):
        options = tuple(
            (-2 * (x // two_s), 1 - 2 * ((x + scale) // two_s)) for x in w[:n]
        )
        groups.setdefault((len(w) // n, options), []).append(i)
    keys, new_coords, parents = [], [], []
    for (m, options), members in groups.items():
        for d in product(*options):
            sd = tuple(scale * x for x in d)
            sa, sd = _ambient(rows, sd) * m, sd * m
            lam = tuple(Fraction(x, g) for x in _ambient(rows, d))
            keys += [tuple(map(add, images[i], sa)) for i in members]
            new_coords += [tuple(map(add, coords[i], sd)) for i in members]
            parents += [(i, lam) for i in members]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = tuple(map(keys.__getitem__, order))
    if any(map(eq, keys, keys[1:])):
        raise ComplexError("dyadic refinement produced colliding cells")
    new_coords = tuple(map(new_coords.__getitem__, order))
    parents = tuple(map(parents.__getitem__, order))
    j1 = None if c._j1 is None else c._j1 + 1
    refined = _from_coords(c.period, two_s, new_coords, c.level + 1, j1, keys)
    return refined, parents


def dyadic_refine(c: PeriodicComplex, steps: int) -> PeriodicComplex:
    if steps < 0:
        raise ComplexError("steps must be >= 0")
    for _ in range(steps):
        c, _ = dyadic_refine_step(c)
    return c


class _ContainmentIndex:
    """Which period translate of which cell of a complex holds a point.

    Runs on the integer period coordinates of ``PeriodicComplex._coords``,
    where the period lattice is ``scale * Z^n``: a translate is an
    integer vector k, and a query is first reduced into the unit cell
    [0, 1)^n by floor division.  The entries are the translates
    cells[i] + k whose coordinate box meets [0, 1]^n, the range of k
    per axis coming from the cell's own box; each is registered in every
    bucket of a regular grid on the unit cell that its box meets.  A
    complex keeps its own as ``_index``.
    """

    def __init__(self, c: PeriodicComplex):
        n = c.dim
        scale, coords = c._coords
        self.period, self.scale = c.period, scale
        entries = []
        for i, (w, (w0, det_i, adj)) in enumerate(zip(coords, c._frames)):
            if det_i == 0:
                continue  # a flat cell holds no point that others miss
            lo0, hi0 = _coord_box(w, n)
            for k in box_translates(lo0, hi0, (0,) * n, (scale,) * n, scale):
                sh = [scale * x for x in k]
                entries.append((
                    tuple(map(add, w0, sh)),
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
    index = coarse._index
    n = fine.dim
    scale, coords = fine._coords
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


def _inner_normal(face: tuple[Vec, ...], opposite: Vec) -> Vec:
    """The primitive integer normal of a facet, toward the opposite vertex."""
    w0 = face[0]
    edges = tuple(vsub(w, w0) for w in face[1:])
    nu = tuple(map(Fraction, null_vector(edges, len(w0))))
    s = dot(nu, vsub(opposite, w0))
    if s == 0:
        raise ComplexError("degenerate face/opposite configuration")
    return nu if s > 0 else vscale(Fraction(-1), nu)


def adjacent_pairs(c: PeriodicComplex) -> LazyTuple:
    """All codim-1 adjacent cell pairs, one per period orbit.

    Facets are hashed by their canonical representative: the vertices
    ordered by ambient image, the first one's period coordinates in
    [0, 1)^n; since translates of the cells tile space, every facet orbit
    is shared by exactly two cell copies.  The pairs come in the order of
    the canonical facets, the first cell copy of a pair being the first
    in cell and vertex order.

    In integer period coordinates, ordered by ambient image as in
    :func:`dyadic_refine_step`, with one normal per facet shape.  Kept on
    the complex in ``_adjacency``: a :class:`LazyTuple` that builds a
    pair's Fraction face, normal and shifts when it is read, and the
    certificate key of each pair, ``cell<i>[<shift_i>]|cell<j>[<shift_j>]``,
    the shift entries comma-separated as ``str`` gives them.
    """
    return c._adjacency[0]


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
    scale, coords = c._coords
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
    reduced mod K Z^n by floor division, and ordered by ambient image; each
    cell's vertices are read in ambient order from ``_ordered``.
    """
    n = c.dim
    kcols = [c.period.coords(g) for g in lat.generators]
    if any(x.denominator != 1 for col in kcols for x in col):
        raise IncompatiblePeriodsError("unfold target must be a sublattice")
    kcols = [list(map(int, col)) for col in kcols]
    det_k, adj = det_adj(tuple(zip(*kcols)))

    def shift(w, s):
        """s K floor(K^-1 w / s): what reduces w mod s K Z^n."""
        m = [sum(map(mul, row, w)) // (det_k * s) for row in adj]
        return [s * sum(map(mul, m, row)) for row in zip(*kcols)]

    # the det(K) classes: 0 closed under the unit steps, each reduced
    reps = {(0,) * n}
    todo = [(0,) * n]
    while todo:
        k = todo.pop()
        for j in range(n):
            u = k[:j] + (k[j] + 1,) + k[j + 1 :]
            r = tuple(map(sub, u, shift(u, 1)))
            if r not in reps:
                reps.add(r)
                todo.append(r)
    scale, coords = c._coords
    rows = c.period.frame.basis
    cells: dict[tuple, tuple] = {}  # ambient image -> (coordinates, i, lam)
    for i, (amb, cell) in enumerate(zip(*c._ordered)):
        m = len(cell) // n
        for r in reps:
            w0 = [x + scale * y for x, y in zip(cell, r)]
            k = [scale * x - y for x, y in zip(r, shift(w0, scale))]
            key = tuple(map(add, amb, _ambient(rows, k) * m))
            cells[key] = tuple(map(add, cell, k * m)), i, tuple(x // scale for x in k)
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
