"""Cocycle-periodic piecewise-affine functions and their certificates.

The central object is a continuous function f, affine on every maximal
cell of a periodic complex, transforming under a period vector lam by
f(u + lam) = f(u) + q(lam) + s*ell(lam) + b(lam, u) where q is the
polarization quadratic form and s the effective linear scale.  The
strong-convexity certificate, the dyadic iteration and the twist bound
are the exact counterparts of the ample-model construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from operator import mul, sub
from typing import Optional

from .complexes import (
    AdjacentPair,
    LazyTuple,
    PeriodicComplex,
    _ambient,
    adjacent_pairs,
    dyadic_refine_step,
    lazy_field,
    unfold_with_shifts,
)
from .lattice import Lattice, Polarization
from .linalg import (
    DimensionMismatchError,
    SingularMatrixError,
    TroptorusError,
    Vec,
    det_adj,
    integer_matrix,
    mat_mul,
    mat_vec,
    vscale,
    zero_vec,
)

Piece = tuple[Vec, Fraction]  # (gradient covector m, constant c)


class PafError(TroptorusError):
    pass


class NotBarycentricError(PafError):
    pass


class NotCertifiedError(PafError):
    pass


@dataclass(frozen=True)
class Cocycle:
    polarization: Polarization
    linear: Vec  # the covector ell

    def __post_init__(self):
        if len(self.linear) != self.polarization.dim:
            raise PafError("linear part has wrong length")


@dataclass(frozen=True)
class _Piecewise:
    """Affine pieces (m, c), one per cell of ``complex``, kept as the
    integer ``_form``."""

    complex: PeriodicComplex
    pieces: tuple[Piece, ...]  # parallel to complex.cells

    @lazy_field
    def pieces(self) -> LazyTuple:
        """The pieces of a function of :func:`_built`, made from ``_form``."""
        (den, rows), frame = self._form, self.complex.period.frame
        zero = (zero_vec(self.complex.dim), Fraction(0))
        return LazyTuple(len(rows), lambda i: (
            zero if rows[i] is None else _fraction_piece(frame, *rows[i], den)
        ))

    def __post_init__(self):
        _check_pieces(self.complex, self.pieces)

    @cached_property
    def _form(self) -> tuple[int, tuple]:
        """(den, rows): the pieces as integers over one denominator.
        ``rows[i]`` is (P, C) with f = (P.x + C) / den at the period
        coordinates x of ``complex.period``, or None where a built test is
        zero.  Seeded by the builders; from the Fraction pieces (m, c),
        with gL the period frame's basis, P = (gL)^T M and C = g C' for the
        integer rows (M, C') = D (m, c), and den = g D."""
        d, rows = integer_matrix([(*m, c) for m, c in self.pieces])
        g, basis = self.complex.period.frame.g, self.complex.period.frame.basis
        cols = tuple(zip(*basis))
        return g * d, tuple((_ambient(cols, r[:-1]), g * r[-1]) for r in rows)


@dataclass(frozen=True)
class CocycleFunction(_Piecewise):
    cocycle: Cocycle
    linear_scale: Fraction = Fraction(1)

    @cached_property
    def _next(self) -> CocycleFunction:
        """f_1 of :func:`tate_iterate`: one step, on the dyadic refinement.

        The new cell 2u in parent + lam takes the parent's piece on that
        translate (:func:`_on_translates`), halved in u: at the period
        coordinates 2x, (P.x + C) / d becomes (2P.x + C) / 4d.
        """
        refined, parents = dyadic_refine_step(self.complex)
        den, rows = _on_translates(self, parents, 2)
        return _built(
            CocycleFunction,
            (4 * den, rows),
            complex=refined,
            cocycle=self.cocycle,
            linear_scale=self.linear_scale / 2,
        )

    @cached_property
    def _periods(self) -> dict[Lattice, CocycleFunction]:
        """change_period(self, lat) per sublattice lat asked for so far."""
        return {}


@dataclass(frozen=True)
class TestFunction(_Piecewise):
    """A period-periodic piecewise-affine function (zero cocycle)."""

    @cached_property
    def _sup(self) -> Fraction:
        """sup |t|; see :func:`test_sup_abs`."""
        den, rows = self._form
        n = self.complex.dim
        scale, coords = self.complex._coords
        best = 0
        for w, r in zip(coords, rows):
            if r is None:
                continue
            p, c = r[0], scale * r[1]
            for k in range(0, len(w), n):
                val = abs(sum(map(mul, p, w[k : k + n])) + c)
                if val > best:
                    best = val
        return Fraction(best, scale * den)


def _built(cls, form, **fields):
    """The function of class cls with these init fields but ``pieces``, and
    with the integer form ``form``; pieces on access."""
    f = object.__new__(cls)
    f.__dict__.update(fields, _form=form)
    return f


def _period_cocycle(c: PeriodicComplex, z: Cocycle, s: Fraction) -> tuple:
    """(R, r, l, e): the cocycle z with linear scale s in the period basis
    L of c, as integers: the gram B = L^T G L = R / r and the linear part
    s L^T ell = l / e.  From the frame's basis gL, B = (gL)^T G (gL) / g^2
    and s L^T ell = (gL)^T (s ell) / g."""
    frame = c.period.frame
    cols = tuple(zip(*frame.basis))  # the columns of gL
    r, gram = integer_matrix(z.polarization.gram)
    e, (lin,) = integer_matrix([vscale(s, z.linear)])
    return (
        tuple(tuple(sum(map(mul, u, _ambient(gram, v))) for v in cols) for u in cols),
        r * frame.g ** 2,
        tuple(sum(map(mul, u, lin)) for u in cols),
        e * frame.g,
    )


def _on_translates(f: CocycleFunction, pairs, grad: int = 1) -> tuple[int, tuple]:
    """(D, rows): per (i, lam) of pairs, the piece of f on cells[i] + lam
    by the cocycle law, as the row (grad P', C') with f = (P'.x + C') / D
    at the period coordinates x of f's period.

    For f's row (P, C) over den, lam = L k and the (R, r, l, e) of
    :func:`_period_cocycle`, f(x + k) = f(x) + k.Rx / r + k.Rk / 2r + l.k / e;
    over D = u den, u = lcm(2r, e): P' = u P + (u / r) den R k and
    C' = u (C - P.k) + den ((u / e) l.k - (u / 2r) k.Rk), the den terms
    once per distinct lam.
    """
    c = f.complex
    den, rows = f._form
    R, r, lin, e = _period_cocycle(c, f.cocycle, f.linear_scale)
    u = math.lcm(2 * r, e)
    inverse = c.period.frame.inverse
    terms: dict[Vec, tuple] = {}  # lam -> (k, gradient term, constant term)
    out = []
    for i, lam in pairs:
        t = terms.get(lam)
        if t is None:
            k = [int(x) for x in mat_vec(inverse, lam)]
            rk = _ambient(R, k)
            t = terms[lam] = (
                k,
                [grad * (u // r) * den * x for x in rk],
                den * ((u // e) * sum(map(mul, lin, k))
                       - (u // (2 * r)) * sum(map(mul, k, rk))),
            )
        k, gp, gc = t
        p, cp = rows[i]
        out.append((
            tuple(grad * u * x + y for x, y in zip(p, gp)),
            u * (cp - sum(map(mul, p, k))) + gc,
        ))
    return u * den, tuple(out)


def _restrict(t: TestFunction, period: Lattice, scale: int, coords):
    """(den, rows): per flat tuple of vertices w / scale in ``coords``, at
    the period coordinates x of ``period`` (as ``PeriodicComplex._coords``),
    the row (P, C), zero ones included, with t = (P.x + C) / den on the
    cell translate of t's complex that holds them; None if none does.

    With M = L_t^-1 L = M' / m, t's period coordinates are y = M x; on
    cells[i] + k, where t's row is (P, C) over d,
    t = (P.(y - k) + C) / d = (M'^T P.x + m (C - P.k)) / (m d).
    """
    n = period.dim
    m, mi = integer_matrix(mat_mul(t.complex.period.frame.inverse, period.matrix))
    cols = tuple(zip(*mi))
    find = t.complex._index.find_cell_containing_simplex
    d, rows = t._form
    seen: dict[tuple, tuple] = {}  # (i, k) -> row
    out = []
    for w in coords:
        hit = find([_ambient(mi, w[j : j + n]) for j in range(0, len(w), n)], m * scale)
        if hit is None:
            return None
        row = seen.get(hit)
        if row is None:
            row = rows[hit[0]]
            row = seen[hit] = ((0,) * n, 0) if row is None else (
                _ambient(cols, row[0]),
                m * (row[1] - sum(map(mul, row[0], hit[1]))),
            )
        out.append(row)
    return m * d, tuple(out)


def _plus(form, other, x: Fraction) -> tuple[int, tuple]:
    """The integer form of f + x g from those, form and other, of f and g."""
    (d0, rows0), (d1, rows1) = form, other
    den = math.lcm(d0, d1 * x.denominator)
    a, b = den // d0, x.numerator * (den // (d1 * x.denominator))
    return den, tuple(
        (tuple(a * y + b * z for y, z in zip(p0, p1)), a * c0 + b * c1)
        for (p0, c0), (p1, c1) in zip(rows0, rows1)
    )


def _check_pieces(c: PeriodicComplex, pieces) -> None:
    """Raise unless there is one piece per cell of c, each gradient of
    length c.dim."""
    if len(pieces) != c.size:
        raise PafError("one affine piece per maximal cell required")
    n = c.dim
    if any(len(m) != n for m, _ in pieces):
        raise DimensionMismatchError("piece gradient length is not the dimension")


@dataclass(frozen=True)
class ConvexityCertificate:
    passed: bool
    slacks: dict[str, Fraction]
    min_slack: Optional[Fraction]
    witness: Optional[AdjacentPair]
    witness_slack: Optional[Fraction]


def _interpolate_piece(scale: int, frame, values) -> tuple[tuple, int, int]:
    """(P, C, den): the unique affine function with (P.x + C) / den =
    values[k] at the period coordinates x_k = w_k / scale of the vertices
    of a cell with frame (w_0, det, adj) of ``PeriodicComplex._frames``;
    SingularMatrixError if the cell is flat.

    With the values y_k = Y_k / d over one denominator d and
    N = sum_k (Y_k - Y_0) adj[k-1], the gradient is scale N / (det d) and
    the constant y_0 - (scale N / (det d)).x_0 = (Y_0 det - N.w_0) / (det d).
    """
    w0, det, adj = frame
    if det == 0:
        raise SingularMatrixError("flat cell")
    d = math.lcm(*(y.denominator for y in values))
    y0, *ys = (y.numerator * (d // y.denominator) for y in values)
    nums = [0] * len(w0)
    for y, row in zip(ys, adj):
        if y != y0:
            nums = [x + (y - y0) * z for x, z in zip(nums, row)]
    return (
        tuple(scale * x for x in nums),
        y0 * det - sum(map(mul, nums, w0)),
        det * d,
    )


def _fraction_piece(frame, p, c: int, den: int) -> Piece:
    """The ambient Fraction piece (m, c / den) of the function
    (p.x + c) / den of the period coordinates x: m = L^-T p / den, read
    off the integer inverse q L^-1 of the period ``frame``."""
    q, cols = frame.q, zip(*frame.inv)
    return tuple(Fraction(x, q * den) for x in _ambient(cols, p)), Fraction(c, den)


def _on_one_denominator(pieces, d: int = 1) -> tuple[int, tuple]:
    """(den, rows): the functions (P, C, den_i) / d of
    :func:`_interpolate_piece`, or None, as integer rows (P, C) or None
    over their least common denominator den."""
    den = math.lcm(*(p[2] for p in pieces if p is not None))
    return d * den, tuple(
        None if p is None
        else (tuple(x * (den // p[2]) for x in p[0]), p[1] * (den // p[2]))
        for p in pieces
    )


def _built_test(c: PeriodicComplex, pieces) -> TestFunction:
    """The test on c whose piece on ``c.cells[i]`` is the (P, C, den_i) of
    :func:`_interpolate_piece` in ``pieces[i]``, or zero where that is None:
    its ``_form`` on the least common denominator, zero rows None, pieces
    on access."""
    den, rows = _on_one_denominator(pieces)
    rows = tuple(None if r is None or not (r[1] or any(r[0])) else r for r in rows)
    return _built(TestFunction, (den, rows), complex=c)


def _model_parts(c: PeriodicComplex, z: Cocycle) -> tuple[tuple, tuple]:
    """The integer forms of the interpolants of q + ell and of the vertex
    perturbation 1 - 2^-k, k the number of half-integer period
    coordinates of the vertex, its barycentric depth: the model function
    at eps is the first plus eps times the second.

    At the vertex x = w / scale in period coordinates, q + ell is
    x.Bx / 2 + l.x / e = (e w.Rw + 2 r scale l.w) / (2 r e scale^2) for
    the (R, r, l, e) of :func:`_period_cocycle`, and 1 - 2^-k is
    (2^n - 2^(n-k)) / 2^n; each distinct vertex is evaluated once.
    """
    if c.level != 0:
        raise NotBarycentricError("model functions live on the level-0 complex")
    scale, coords = c._coords
    if scale > 2:
        raise NotBarycentricError(
            "vertex is not on the half-integer grid of the period basis"
        )
    n = c.dim
    R, r, lin, e = _period_cocycle(c, z, Fraction(1))
    out: dict[tuple, tuple] = {}  # period coordinates -> values
    values = []
    for w in coords:
        vals = []
        for k in range(0, len(w), n):
            x = w[k : k + n]
            v = out.get(x)
            if v is None:
                v = out[x] = (
                    e * sum(map(mul, x, _ambient(R, x)))
                    + 2 * r * scale * sum(map(mul, lin, x)),
                    (1 << n) - (1 << (n - sum(y % scale for y in x))),
                )
            vals.append(v)
        values.append(vals)
    return tuple(
        _on_one_denominator(
            [
                _interpolate_piece(scale, frame, [v[part] for v in vals])
                for vals, frame in zip(values, c._frames)
            ],
            d,
        )
        for part, d in ((0, 2 * r * e * scale * scale), (1, 1 << n))
    )


def _model_at(c: PeriodicComplex, z: Cocycle, parts, eps: Fraction):
    """The model function on c at eps: the first of the integer forms
    ``parts`` of :func:`_model_parts` plus eps times the second; pieces on
    access."""
    return _built(
        CocycleFunction, _plus(*parts, eps), complex=c, cocycle=z,
        linear_scale=Fraction(1),
    )


def build_model_function(
    c: PeriodicComplex, z: Cocycle, eps: Fraction
) -> CocycleFunction:
    """Affine interpolant of q + ell with the dyadic vertex perturbation.

    A vertex at barycentric depth k (k halved directions away from the
    superlattice) receives q + ell + eps*(1 - 2^-k); depth-0 vertices
    are left exact so the cocycle law holds with linear scale 1.  Built
    in integers (see :func:`_model_parts`); pieces on access.
    """
    return _model_at(c, z, _model_parts(c, z), Fraction(eps))


def face_slacks(
    c: PeriodicComplex, form, gram=None
) -> tuple[int, list[int]]:
    """(den, nums): under the function of integer form (den', rows) on c
    (see ``_form``), the slack n*(m_delta - m_sigma) at the face of the
    k-th pair of adjacent_pairs(c) is nums[k] / den, with den > 0.

    With a gram (R, r) in the period basis, B = R / r of
    :func:`_period_cocycle`, the gradients on the two cell copies differ
    from the stored ones by G shift (cocycle law), which adds
    n*G(shift_i - shift_j); without one, the function is periodic.  In
    the period terms (i, j, N, dk) that ``c._adjacency`` keeps per pair, a
    gradient m = L^-T P / den' gives n*m = N.P / (q den') and
    n*G(L dk) = N.B dk / q, so den = q den' r and the numerator is
    r N.(P_i - P_j) + den' N.R dk, with R dk once per distinct dk.
    """
    d, rows = form
    R, r = gram if gram is not None else (None, 1)
    terms: dict[tuple, list] = {}  # dk -> den' R dk
    nums = []
    for i, j, pn, dk in c._adjacency[1]:
        s = r * sum(map(mul, pn, map(sub, rows[i][0], rows[j][0])))
        if R is not None and any(dk):
            w = terms.get(dk)
            if w is None:
                w = terms[dk] = [d * x for x in _ambient(R, dk)]
            s += sum(map(mul, pn, w))
        nums.append(s)
    return c.period.frame.q * d * r, nums


def check_strongly_convex(f: CocycleFunction) -> ConvexityCertificate:
    """Exact slack n*(m_delta - m_sigma) per face orbit; pass iff all > 0.
    Keyed by the pairs' ``keys`` in ``c._adjacency``: a passing
    certificate builds no :class:`AdjacentPair`, a failing one only its
    witness."""
    c = f.complex
    pairs = adjacent_pairs(c)
    gram = _period_cocycle(c, f.cocycle, f.linear_scale)[:2]
    den, nums = face_slacks(c, f._form, gram)
    bad = next((k for k, s in enumerate(nums) if s <= 0), None)
    return ConvexityCertificate(
        passed=bad is None,
        slacks={key: Fraction(s, den) for key, s in zip(c._adjacency[2], nums)},
        min_slack=Fraction(min(nums), den) if nums else None,
        witness=None if bad is None else pairs[bad],
        witness_slack=None if bad is None else Fraction(nums[bad], den),
    )


def locate_cell(c: PeriodicComplex, u: Vec) -> tuple[int, Vec]:
    """(cell index i, period vector lam) with u - lam in cells[i], for
    any rational u; answered by the complex's containment index."""
    hit = c._index.locate((u,))
    if hit is None:
        raise PafError(f"point {u} not covered by the complex")
    return hit


def evaluate(f: CocycleFunction, u: Vec) -> Fraction:
    """Value of f at any u in R^n: the cocycle law gives the piece of f
    on the cell translate that holds u."""
    den, ((p, c),) = _on_translates(f, (locate_cell(f.complex, u),))
    d, (w,) = f.complex.period.integer_coords((u,))
    return Fraction(sum(map(mul, p, w)) + d * c, d * den)


def tate_iterate(f0: CocycleFunction, i: int) -> CocycleFunction:
    """f_i(u) = 4^-i f_0(2^i u), computed stepwise on dyadic refinements.

    Gradients scale by 1/2 and constants by 1/4 per step; the effective
    linear coefficient halves, so the cocycle law keeps holding exactly.
    Each function keeps its one-step successor ``_next``, so iterating
    the same f0 again reuses the steps already taken.
    """
    if i < 0:
        raise PafError("iteration count must be >= 0")
    f = f0
    for _ in range(i):
        f = f._next
    return f


def evaluate_test(t: TestFunction, u: Vec) -> Fraction:
    """Value of t at any u in R^n, from t's piece on the cell translate
    that holds u (:func:`_restrict`)."""
    d, (w,) = t.complex.period.integer_coords((u,))
    form = _restrict(t, t.complex.period, d, (w,))
    if form is None:
        raise PafError(f"no cell of the test complex holds ({', '.join(map(str, u))})")
    den, ((p, c),) = form
    return Fraction(sum(map(mul, p, w)) + d * c, d * den)


def test_sup_abs(t: TestFunction) -> Fraction:
    """sup |t|; attained at cell vertices since t is affine per cell.
    Pieces with m = 0 and c = 0 are 0 and skipped.  Kept on the test as
    ``_sup``."""
    return t._sup


def interpolate_test(
    c: PeriodicComplex, vertex_values: dict[Vec, Fraction]
) -> TestFunction:
    """Piecewise-affine interpolant of values given per vertex orbit.

    Keys are vertices reduced mod the period; values extend periodically.
    """
    orbits, keys = _orbit_keys(c)
    scale = c._coords[0]
    pieces = []
    for ks, frame in zip(keys, c._frames):
        vals = []
        for k in ks:
            if orbits[k] not in vertex_values:
                raise PafError(f"missing vertex value at {orbits[k]}")
            vals.append(vertex_values[orbits[k]])
        pieces.append(_interpolate_piece(scale, frame, vals))
    return _built_test(c, pieces)


def _orbit_keys(c: PeriodicComplex) -> tuple[tuple[Vec, ...], list]:
    """(orbits, keys): the vertex orbits of c as reduce_mod gives them,
    sorted, and per cell the index in orbits of each vertex.  The period
    coordinates are reduced by floor-mod and sorted by ambient image."""
    n = c.dim
    scale, coords = c._coords
    cells = [
        [tuple(x % scale for x in w[k : k + n]) for k in range(0, len(w), n)]
        for w in coords
    ]
    rows, t = c.period.frame.basis, c.period.frame.g * scale
    ranked = sorted((_ambient(rows, r), r) for r in {r for ks in cells for r in ks})
    pos = {r: k for k, (_, r) in enumerate(ranked)}
    orbits = tuple(tuple(Fraction(x, t) for x in a) for a, _ in ranked)
    return orbits, [[pos[r] for r in ks] for ks in cells]


def vertex_orbits(c: PeriodicComplex) -> tuple[Vec, ...]:
    return _orbit_keys(c)[0]


def hat_test_functions(c: PeriodicComplex) -> tuple[TestFunction, ...]:
    """The nodal basis: one test per vertex orbit, 1 there and 0 elsewhere.

    On a cell, the hat of orbit o interpolates 1 at the cell's vertices
    in o and 0 at the others; cells the orbit misses get the zero piece.
    """
    orbits, keys = _orbit_keys(c)
    pieces = [[None] * c.size for _ in orbits]
    scale = c._coords[0]
    for i, (ks, frame) in enumerate(zip(keys, c._frames)):
        for o in set(ks):
            pieces[o][i] = _interpolate_piece(
                scale, frame, [int(k == o) for k in ks]
            )
    return tuple(_built_test(c, p) for p in pieces)


def _twist_base(f: CocycleFunction, t: TestFunction) -> tuple:
    """change_period(f, t's period) and t's integer form on its cells."""
    base = change_period(f, t.complex.period)
    form = _restrict(t, base.complex.period, *base.complex._coords)
    if form is None:
        raise PafError("a cell of the function lies in no cell of the test complex")
    return base, form


def choose_twist_bound(
    f0: CocycleFunction, t: TestFunction
) -> Optional[Fraction]:
    """min-slack / max-jump of t over the face orbits of
    change_period(f0, t's period), the function that :func:`twist` adds to.

    Any twist coefficient strictly below the bound keeps the twisted
    function strongly convex.  None when t never jumps (the bound is
    infinite); PafError unless t is affine on every cell of f0's complex.
    """
    base, form = _twist_base(f0, t)
    cert = check_strongly_convex(base)
    if not cert.passed:
        raise NotCertifiedError("twist bound needs a certified convex base")
    den, jumps = face_slacks(base.complex, form)
    top = max(map(abs, jumps), default=0)
    return None if top == 0 else cert.min_slack * den / top


def change_period(f: CocycleFunction, lat: Lattice) -> CocycleFunction:
    """Re-express f over a sublattice of its period (cells unfold).

    Each new cell cells[i] + lam takes f's piece there
    (:func:`_on_translates`); lat's coordinates x' are x = K x', K with
    lat's generators in f's period basis as columns, so P' = K^T P.
    Kept on f per lat (``_periods``), so a twist bound and the twist
    unfold f once.
    """
    if lat == f.complex.period:
        return f
    kept = f._periods.get(lat)
    if kept is None:
        unfolded, mapping = unfold_with_shifts(f.complex, lat)
        den, rows = _on_translates(f, mapping)
        kcols = [tuple(map(int, f.complex.period.coords(g))) for g in lat.generators]
        kept = f._periods[lat] = _built(
            CocycleFunction,
            (den, tuple((_ambient(kcols, p), c) for p, c in rows)),
            complex=unfolded,
            cocycle=f.cocycle,
            linear_scale=f.linear_scale,
        )
    return kept


def twist(f: CocycleFunction, t: TestFunction, tau: Fraction) -> CocycleFunction:
    """f + tau * t over the period lattice of t: change_period(f, t's
    period) plus tau times t on its cells, in integers.

    t must be affine on every cell of f's complex (t's complex a
    coarsening from the same dyadic family): PafError otherwise.
    """
    base, form = _twist_base(f, t)
    return _built(
        CocycleFunction,
        _plus(base._form, form, Fraction(tau)),
        complex=base.complex,
        cocycle=base.cocycle,
        linear_scale=base.linear_scale,
    )


# orders fractions num / den, den > 0, given as (num, den), by cross-multiplying
_by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


class _Gap:
    """h = f - q - s*ell on the cells of f, in integers.

    A vertex is its integer period coordinates w = t x (``_coords``), t
    the complex's scale.  With (R, r, l, e) of :func:`_period_cocycle` and
    D the least common multiple of e and the denominator of f's form, every
    row (P, C) of the form is the integer piece (M, C') = D (P, C) / den,
    and H(w) = 2 t^2 D r h(w/t) = 2 t r (M.w + t C') - Q(w) is an integer,
    where Q(w) = D w.Rw + 2 t r L.w and L = D l / e.
    """

    def __init__(self, f: CocycleFunction):
        c = f.complex
        self.n = c.dim
        t, self.cells = c._coords
        self.t = t
        self.gram, self.r, lin, e = _period_cocycle(c, f.cocycle, f.linear_scale)
        den, rows = f._form
        self.d = d = math.lcm(den, e)
        u = d // den
        self.pieces = [(tuple(u * x for x in p), u * c0) for p, c0 in rows]
        self.lin = tuple(d // e * x for x in lin)
        self.den = 2 * t * t * d * self.r  # h = H / den
        self.quad: dict[tuple, tuple] = {}  # w -> (R w, Q(w))
        # cell shape, the edges e_k = w_k - w_0 -> (det, adjugate) of
        # G' = [e_k.R e_l], with det >= 0
        self.shapes: dict[tuple, tuple] = {}

    def _quad(self, w: tuple) -> tuple:
        q = self.quad.get(w)
        if q is None:
            rw = [sum(map(mul, row, w)) for row in self.gram]
            q = self.quad[w] = (
                rw,
                self.d * sum(map(mul, w, rw))
                + 2 * self.t * self.r * sum(map(mul, self.lin, w)),
            )
        return q

    def value(self, w: tuple, piece) -> int:
        """H(w) for the integer piece (M, C')."""
        m, c = piece
        t = self.t
        h = 2 * t * self.r * (sum(map(mul, m, w)) + t * c)
        return h - self._quad(w)[1]

    def interior_max(self, verts, piece) -> Optional[tuple[int, int]]:
        """max of h over the simplex with the vertices verts, as
        (num, den) with den > 0, in closed form when the critical point t*
        of h in simplex coordinates lies in the simplex; None when it does
        not (or the simplex is flat).

        With edges e_k = w_k - w_0, G' = [e_k.R e_l], the integer
        gradient g = r t (M - L) - D R w_0 and p_k = e_k.g, the point is
        t* = y / (det(G') D) with y = adj(G') p, and the max,
        h(w_0) + (the gradient in t).t*/2, is
        (H(w_0) D det(G') + p.y) / (den D det(G')).
        """
        w0 = verts[0]
        edges = tuple(tuple(map(sub, w, w0)) for w in verts[1:])
        shape = self.shapes.get(edges)
        if shape is None:
            re = [[sum(map(mul, row, e)) for row in self.gram] for e in edges]
            shape = self.shapes[edges] = det_adj(
                [[sum(map(mul, r, e)) for e in edges] for r in re]
            )
        det_s, adj = shape
        if det_s == 0:
            return None
        m, _ = piece
        rw0, _ = self._quad(w0)
        rt, d = self.r * self.t, self.d
        grad = [rt * (x - y) - d * z for x, y, z in zip(m, self.lin, rw0)]
        p = [sum(map(mul, e, grad)) for e in edges]
        y = [sum(map(mul, row, p)) for row in adj]
        if min(y, default=0) < 0 or sum(y) > det_s * d:
            return None
        return (
            self.value(w0, piece) * d * det_s + sum(map(mul, p, y)),
            self.den * d * det_s,
        )

    def cell_max(self, verts, piece) -> tuple[int, int]:
        """Exact max of h over the simplex with the vertices verts, as
        the (num, den) of :meth:`interior_max`.

        h is concave: when its critical point is not in the simplex, the
        max is on a facet, which is searched the same way.
        """
        over = self.interior_max(verts, piece)
        if over is None:
            over = max(
                (self.cell_max(verts[:k] + verts[k + 1 :], piece)
                 for k in range(len(verts))),
                key=_by_value,
            )
        return over


def sup_distance_to_quadratic(f: CocycleFunction) -> Fraction:
    """Exact sup over one period of |f - q - s*ell|.

    Per cell, q + s*ell - f is convex so its max sits at the vertices;
    f being continuous, it is evaluated once per distinct vertex.
    f - q - s*ell is concave: its max over a cell is closed form when
    the critical point lies in the cell, with one integer adjugate per
    cell shape, and otherwise comes from exact clamping to the cell's
    faces (see :class:`_Gap`).
    """
    gap = _Gap(f)
    maxima = [(0, 1)]  # the max of h per cell, as (num, den)
    least = 0  # the least H over the vertices: -least / den is the max of -h
    seen = set()
    n = gap.n
    for cell, piece in zip(gap.cells, gap.pieces):
        verts = list(zip(*[iter(cell)] * n))
        maxima.append(gap.cell_max(verts, piece))
        for w in verts:
            if w not in seen:
                seen.add(w)
                h = gap.value(w, piece)
                if h < least:
                    least = h
    return Fraction(*max(maxima + [(-least, gap.den)], key=_by_value))


def _epsilon_lines(c: PeriodicComplex, z: Cocycle, forms) -> tuple:
    """(den, lines): per pair of adjacent_pairs(c), the integers (a, b)
    with face slack (a + b*eps) / den of the model function at every eps,
    from the integer ``forms`` of :func:`_model_parts`."""
    da, a = face_slacks(c, forms[0], _period_cocycle(c, z, Fraction(1))[:2])
    db, b = face_slacks(c, forms[1])
    return da * db, [(x * db, y * da) for x, y in zip(a, b)]


def auto_epsilon(
    c: PeriodicComplex, z: Cocycle, max_halvings: int = 20
) -> tuple[Fraction, CocycleFunction, ConvexityCertificate]:
    """The first eps = 2^-k, k < max_halvings, at which the convexity
    certificate passes, with the model function and its certificate.

    The model pieces are affine in eps, so each face slack is
    (a + b*eps) / den: one pass over the faces gives every (a, b), and
    the search, on the integers 2^k a + b, needs no rebuild.  The
    certificate is then computed once, exactly, at the eps found.
    """
    forms = _model_parts(c, z)
    _, lines = _epsilon_lines(c, z, forms)
    for k in range(max_halvings):
        if all((a << k) + b > 0 for a, b in lines):
            break
    else:
        raise NotCertifiedError(
            f"no certified epsilon within {max_halvings} halvings"
        )
    eps = Fraction(1, 2 ** k)
    f = _model_at(c, z, forms, eps)
    cert = check_strongly_convex(f)
    if not cert.passed:
        raise PafError(
            f"certificate failed at eps = {eps}, where each a + b*eps > 0"
        )
    return eps, f, cert
