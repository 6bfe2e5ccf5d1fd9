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
from operator import mul, sub
from typing import Optional

from .complexes import (
    AdjacentPair,
    PeriodicComplex,
    Simplex,
    _containment_index,
    _int_det_adj,
    _period_coords,
    adjacent_pairs,
    dyadic_refine_step,
    unfold_with_shifts,
)
from .lattice import (
    Lattice,
    Polarization,
    bilinear,
    quadratic,
    reduce_mod,
)
from .linalg import (
    TroptorusError,
    Vec,
    dot,
    integer_matrix,
    inverse,
    mat_vec,
    solve,
    vadd,
    vsub,
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


def cocycle_eval(z: Cocycle, lam: Vec, u: Vec) -> Fraction:
    """z_lam(u) = q(lam) + ell(lam) + b(lam, u)."""
    return quadratic(z.polarization, lam) + dot(z.linear, lam) + bilinear(
        z.polarization, lam, u
    )


@dataclass(frozen=True)
class CocycleFunction:
    complex: PeriodicComplex
    pieces: tuple[Piece, ...]  # parallel to complex.cells
    cocycle: Cocycle
    linear_scale: Fraction = Fraction(1)

    def __post_init__(self):
        if len(self.pieces) != len(self.complex.cells):
            raise PafError("one affine piece per maximal cell required")


@dataclass(frozen=True)
class TestFunction:
    """A period-periodic piecewise-affine function (zero cocycle)."""

    complex: PeriodicComplex
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.complex.cells):
            raise PafError("one affine piece per maximal cell required")


@dataclass(frozen=True)
class ConvexityCertificate:
    passed: bool
    slacks: dict[str, Fraction]
    min_slack: Optional[Fraction]
    witness: Optional[AdjacentPair]
    witness_slack: Optional[Fraction]


def _interpolate_piece(cell: Simplex, values: tuple[Fraction, ...]) -> Piece:
    """The unique affine (m, c) with m*v + c = value at each vertex."""
    n = cell.ambient_dim
    rows = tuple(v + (Fraction(1),) for v in cell.vertices)
    sol = solve(rows, values)
    return sol[:n], sol[n]


def _translate_terms(f: CocycleFunction, lam: Vec) -> tuple[Vec, Fraction]:
    """(G lam, s*ell(lam) - q(lam)): what the cocycle law adds to the
    gradient and, less m*lam, to the constant of a piece moved by lam."""
    z = f.cocycle
    return (
        mat_vec(z.polarization.gram, lam),
        f.linear_scale * dot(z.linear, lam) - quadratic(z.polarization, lam),
    )


def piece_on_translate(f: CocycleFunction, i: int, lam: Vec) -> Piece:
    """Affine piece of f on cells[i] + lam, derived from the cocycle law."""
    m, c = f.pieces[i]
    glam, const = _translate_terms(f, lam)
    return vadd(m, glam), c - dot(m, lam) + const


def _vertex_stage(v: Vec, period: Lattice) -> int:
    """Number of half-integer period coordinates; the barycentric depth."""
    stage = 0
    for c in period.coords(v):
        d = c.denominator
        if d == 1:
            continue
        if d == 2:
            stage += 1
        else:
            raise NotBarycentricError(
                "vertex is not on the half-integer grid of the period basis"
            )
    return stage


def _model_values(c: PeriodicComplex, z: Cocycle) -> dict[Vec, tuple]:
    """Per distinct vertex v of c: (q(v) + ell(v), 1 - 2^-k), k the
    barycentric depth of v."""
    if c.level != 0:
        raise NotBarycentricError("model functions live on the level-0 complex")
    out: dict[Vec, tuple] = {}
    for cell in c.cells:
        for v in cell.vertices:
            if v not in out:
                out[v] = (
                    quadratic(z.polarization, v) + dot(z.linear, v),
                    1 - Fraction(1, 2 ** _vertex_stage(v, c.period)),
                )
    return out


def build_model_function(
    c: PeriodicComplex, z: Cocycle, eps: Fraction
) -> CocycleFunction:
    """Affine interpolant of q + ell with the dyadic vertex perturbation.

    A vertex at barycentric depth k (k halved directions away from the
    superlattice) receives q + ell + eps*(1 - 2^-k); depth-0 vertices
    are left exact so the cocycle law holds with linear scale 1.
    """
    values = _model_values(c, z)
    eps = Fraction(eps)
    pieces = []
    for cell in c.cells:
        pieces.append(_interpolate_piece(cell, tuple(
            values[v][0] + eps * values[v][1] for v in cell.vertices
        )))
    return CocycleFunction(
        complex=c, pieces=tuple(pieces), cocycle=z, linear_scale=Fraction(1)
    )


def _pair_key(p: AdjacentPair) -> str:
    si = ",".join(str(x) for x in p.shift_i)
    sj = ",".join(str(x) for x in p.shift_j)
    return f"cell{p.i}[{si}]|cell{p.j}[{sj}]"


def pair_slack(f: CocycleFunction, p: AdjacentPair) -> Fraction:
    """n*(m_delta - m_sigma) at the face of p: the gradients on the two
    cell copies differ from the stored ones by G shift (cocycle law)."""
    gram = f.cocycle.polarization.gram
    return dot(p.normal, vsub(f.pieces[p.i][0], f.pieces[p.j][0])) + dot(
        p.normal, mat_vec(gram, vsub(p.shift_i, p.shift_j))
    )


def check_strongly_convex(f: CocycleFunction) -> ConvexityCertificate:
    """Exact slack n*(m_delta - m_sigma) per face orbit; pass iff all > 0."""
    slacks: dict[str, Fraction] = {}
    witness = None
    witness_slack = None
    min_slack = None
    for p in adjacent_pairs(f.complex):
        s = pair_slack(f, p)
        slacks[_pair_key(p)] = s
        if min_slack is None or s < min_slack:
            min_slack = s
        if s <= 0 and witness is None:
            witness, witness_slack = p, s
    return ConvexityCertificate(
        passed=witness is None,
        slacks=slacks,
        min_slack=min_slack,
        witness=witness,
        witness_slack=witness_slack,
    )


def locate_cell(c: PeriodicComplex, u: Vec) -> tuple[int, Vec]:
    """(cell index i, period vector lam) with u - lam in cells[i], for
    any rational u; answered by the complex's containment index."""
    hit = _containment_index(c).locate((u,))
    if hit is None:
        raise PafError(f"point {u} not covered by the complex")
    return hit


def evaluate(f: CocycleFunction, u: Vec) -> Fraction:
    """Value of f at any u in R^n: the cocycle law gives the piece of f
    on the cell translate that holds u."""
    i, lam = locate_cell(f.complex, u)
    m, c = piece_on_translate(f, i, lam)
    return dot(m, u) + c


def tate_iterate(f0: CocycleFunction, i: int) -> CocycleFunction:
    """f_i(u) = 4^-i f_0(2^i u), computed stepwise on dyadic refinements.

    Gradients scale by 1/2 and constants by 1/4 per step; the effective
    linear coefficient halves, so the cocycle law keeps holding exactly.
    """
    if i < 0:
        raise PafError("iteration count must be >= 0")
    f = f0
    for _ in range(i):
        refined, parents = dyadic_refine_step(f.complex)
        terms: dict[Vec, tuple[Vec, Fraction]] = {}  # per distinct lam
        pieces = []
        for (pi, lam) in parents:
            t = terms.get(lam)
            if t is None:
                t = terms[lam] = _translate_terms(f, lam)
            m, c = f.pieces[pi]
            pieces.append((
                tuple((x + y) / 2 for x, y in zip(m, t[0])),
                (c - dot(m, lam) + t[1]) / 4,
            ))
        f = CocycleFunction(
            complex=refined,
            pieces=tuple(pieces),
            cocycle=f.cocycle,
            linear_scale=f.linear_scale / 2,
        )
    return f


def _test_piece_at(t: TestFunction, points) -> Piece:
    """Affine piece of the periodic extension of t on a cell translate
    of t's complex that holds every one of the points; so t is affine on
    their convex hull.  PafError if no cell translate holds them all."""
    hit = _containment_index(t.complex).locate(points)
    if hit is None:
        shown = ", ".join(f"({', '.join(map(str, p))})" for p in points)
        raise PafError(f"no cell of the test complex holds {shown}")
    i, lam = hit
    m, c = t.pieces[i]
    # t(v) = m*(v - lam) + c on cells[i] + lam
    return m, c - dot(m, lam)


def evaluate_test(t: TestFunction, u: Vec) -> Fraction:
    m, c = _test_piece_at(t, (u,))
    return dot(m, u) + c


def test_sup_abs(t: TestFunction) -> Fraction:
    """sup |t|; attained at cell vertices since t is affine per cell."""
    best = Fraction(0)
    for cell, (m, c) in zip(t.complex.cells, t.pieces):
        for v in cell.vertices:
            val = abs(dot(m, v) + c)
            if val > best:
                best = val
    return best


def interpolate_test(
    c: PeriodicComplex, vertex_values: dict[Vec, Fraction]
) -> TestFunction:
    """Piecewise-affine interpolant of values given per vertex orbit.

    Keys are vertices reduced mod the period; values extend periodically.
    """
    reduced = _reduced_vertices(c)
    pieces = []
    for cell in c.cells:
        vals = []
        for v in cell.vertices:
            key = reduced[v]
            if key not in vertex_values:
                raise PafError(f"missing vertex value at {key}")
            vals.append(vertex_values[key])
        pieces.append(_interpolate_piece(cell, tuple(vals)))
    return TestFunction(complex=c, pieces=tuple(pieces))


def _reduced_vertices(c: PeriodicComplex) -> dict[Vec, Vec]:
    """Each distinct cell vertex, reduced mod the period once."""
    out: dict[Vec, Vec] = {}
    for cell in c.cells:
        for v in cell.vertices:
            if v not in out:
                out[v] = reduce_mod(v, c.period)
    return out


def vertex_orbits(c: PeriodicComplex) -> tuple[Vec, ...]:
    return tuple(sorted(set(_reduced_vertices(c).values())))


def hat_test_functions(c: PeriodicComplex) -> tuple[TestFunction, ...]:
    """The nodal basis: one test per vertex orbit, 1 there and 0 elsewhere.

    On a cell, the hat of orbit o is the sum of the barycentric
    coordinates of the cell's vertices in o: the columns, at those
    vertices, of the inverse of the matrix with rows [v | 1].
    """
    reduced = _reduced_vertices(c)
    orbits = sorted(set(reduced.values()))
    pos = {o: k for k, o in enumerate(orbits)}
    n = c.dim
    pieces = [[(zero_vec(n), Fraction(0))] * len(c.cells) for _ in orbits]
    for i, cell in enumerate(c.cells):
        inv = inverse(tuple(v + (Fraction(1),) for v in cell.vertices))
        for k, v in enumerate(cell.vertices):
            hat = pieces[pos[reduced[v]]]
            m, c0 = hat[i]
            hat[i] = (
                tuple(m[j] + inv[j][k] for j in range(n)),
                c0 + inv[n][k],
            )
    return tuple(TestFunction(complex=c, pieces=tuple(p)) for p in pieces)


def choose_twist_bound(
    f0: CocycleFunction, t: TestFunction
) -> Optional[Fraction]:
    """min-slack(f0) / max-jump(t) over the face orbits of f0's complex.

    Any twist coefficient strictly below the bound keeps the twisted
    function strongly convex.  Returns None when t never jumps (the
    bound is infinite).  t must be affine on every cell of f0's complex;
    PafError otherwise.
    """
    cert = check_strongly_convex(f0)
    if not cert.passed:
        raise NotCertifiedError("twist bound needs a certified convex base")
    min_slack = cert.min_slack
    max_jump = Fraction(0)
    for p in adjacent_pairs(f0.complex):
        delta = f0.complex.cells[p.i].translate(p.shift_i)
        sigma = f0.complex.cells[p.j].translate(p.shift_j)
        m_d, _ = _test_piece_at(t, delta.vertices)
        m_s, _ = _test_piece_at(t, sigma.vertices)
        jump = abs(dot(p.normal, vsub(m_d, m_s)))
        if jump > max_jump:
            max_jump = jump
    if max_jump == 0:
        return None
    return min_slack / max_jump


def change_period(f: CocycleFunction, lat: Lattice) -> CocycleFunction:
    """Re-express f over a sublattice of its period (cells unfold)."""
    if lat == f.complex.period:
        return f
    unfolded, mapping = unfold_with_shifts(f.complex, lat)
    pieces = tuple(piece_on_translate(f, i, shift) for i, shift in mapping)
    return CocycleFunction(
        complex=unfolded,
        pieces=pieces,
        cocycle=f.cocycle,
        linear_scale=f.linear_scale,
    )


def twist(f: CocycleFunction, t: TestFunction, tau: Fraction) -> CocycleFunction:
    """f + tau * t over the period lattice of t.

    t must be affine on every cell of f's complex (t's complex is a
    coarsening from the same dyadic family): each cell must lie in one
    cell translate of t's complex, which is decided exactly.
    """
    tau = Fraction(tau)
    base = change_period(f, t.complex.period)
    pieces = []
    for cell, (m, c) in zip(base.complex.cells, base.pieces):
        mt, ct = _test_piece_at(t, cell.vertices)
        pieces.append((vadd(m, vscale(tau, mt)), c + tau * ct))
    return CocycleFunction(
        complex=base.complex,
        pieces=tuple(pieces),
        cocycle=base.cocycle,
        linear_scale=base.linear_scale,
    )


class _Gap:
    """h = f - q - s*ell on the cells of f, in integers.

    A vertex v is its ambient integer image a = t*v, t = g*scale as in
    :func:`dyadic_refine_step`.  With D the least common denominator of
    the pieces and of s*ell, and gram = R/r for an integer matrix R,
    every piece (m, c) is the integer (M, C) = D*(m, c), and
    H(a) = 2 t^2 D r h(a/t) = 2 t r (M.a + t C) - Q(a) is an integer,
    where Q(a) = D a.Ra + 2 t r L.a and L = D*s*ell.
    """

    def __init__(self, f: CocycleFunction):
        c = f.complex
        self.n = c.dim
        scale, self.coords = _period_coords(c)
        g, self.rows = integer_matrix(c.period.matrix)
        self.t = t = g * scale
        self.r, self.gram = integer_matrix(f.cocycle.polarization.gram)
        lin = vscale(f.linear_scale, f.cocycle.linear)
        self.d = d = math.lcm(
            *(x.denominator for m, c0 in f.pieces for x in (*m, c0)),
            *(x.denominator for x in lin),
        )
        self.lin = [x.numerator * (d // x.denominator) for x in lin]
        self.pieces = [
            (
                [x.numerator * (d // x.denominator) for x in m],
                c0.numerator * (d // c0.denominator),
            )
            for m, c0 in f.pieces
        ]
        self.den = 2 * t * t * d * self.r  # h = H / den
        self.quad: dict[tuple, tuple] = {}  # a -> (R a, Q(a))
        # cell shape, the edges e_k = a_k - a_0 -> (det, adjugate) of
        # G' = [e_k.R e_l], with det >= 0
        self.shapes: dict[tuple, tuple] = {}

    def vertices(self, i: int) -> list[tuple[int, ...]]:
        """The ambient integer images of the vertices of cells[i]."""
        n, w = self.n, self.coords[i]
        return [
            tuple(sum(map(mul, row, w[k : k + n])) for row in self.rows)
            for k in range(0, len(w), n)
        ]

    def _quad(self, a: tuple) -> tuple:
        q = self.quad.get(a)
        if q is None:
            ra = [sum(map(mul, row, a)) for row in self.gram]
            q = self.quad[a] = (
                ra,
                self.d * sum(map(mul, a, ra))
                + 2 * self.t * self.r * sum(map(mul, self.lin, a)),
            )
        return q

    def value(self, a: tuple, piece) -> int:
        """H(a) for the integer piece (M, C)."""
        m, c = piece
        t = self.t
        h = 2 * t * self.r * (sum(map(mul, m, a)) + t * c)
        return h - self._quad(a)[1]

    def interior_max(self, verts, piece) -> Optional[Fraction]:
        """max of h over the simplex with ambient images verts, in
        closed form when the critical point t* of h in simplex
        coordinates lies in the simplex; None when it does not (or the
        simplex is flat).

        With edges e_k = a_k - a_0, G' = [e_k.R e_l], the integer
        gradient g = r t (M - L) - D R a_0 and p_k = e_k.g, the point is
        t* = y / (det(G') D) with y = adj(G') p, and the max,
        h(a_0) + (the gradient in t).t*/2, is
        (H(a_0) D det(G') + p.y) / (den D det(G')).
        """
        a0 = verts[0]
        edges = tuple(tuple(map(sub, a, a0)) for a in verts[1:])
        shape = self.shapes.get(edges)
        if shape is None:
            re = [[sum(map(mul, row, e)) for row in self.gram] for e in edges]
            det_s, adj = _int_det_adj(tuple(
                tuple(sum(map(mul, r, e)) for e in edges) for r in re
            ))
            if det_s < 0:
                det_s = -det_s
                adj = tuple(tuple(-x for x in row) for row in adj)
            shape = self.shapes[edges] = (det_s, adj)
        det_s, adj = shape
        if det_s == 0:
            return None
        m, _ = piece
        ra0, _ = self._quad(a0)
        rt, d = self.r * self.t, self.d
        grad = [rt * (x - y) - d * z for x, y, z in zip(m, self.lin, ra0)]
        p = [sum(map(mul, e, grad)) for e in edges]
        y = [sum(map(mul, row, p)) for row in adj]
        if min(y, default=0) < 0 or sum(y) > det_s * d:
            return None
        return Fraction(
            self.value(a0, piece) * d * det_s + sum(map(mul, p, y)),
            self.den * d * det_s,
        )

    def cell_max(self, verts, piece) -> Fraction:
        """Exact max of h over the simplex with ambient images verts.

        h is concave: when its critical point is not in the simplex, the
        max is on a facet, which is searched the same way.
        """
        over = self.interior_max(verts, piece)
        if over is None:
            over = max(
                self.cell_max(verts[:k] + verts[k + 1 :], piece)
                for k in range(len(verts))
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
    best = Fraction(0)
    least = 0  # the least H over the vertices: -least / den is the max of -h
    seen = set()
    for i, piece in enumerate(gap.pieces):
        verts = gap.vertices(i)
        over = gap.cell_max(verts, piece)
        if over > best:
            best = over
        for a in verts:
            if a not in seen:
                seen.add(a)
                h = gap.value(a, piece)
                if h < least:
                    least = h
    return max(best, Fraction(-least, gap.den))


def verify_continuity(f: CocycleFunction) -> None:
    """Adjacent pieces must agree on the shared face (checked at vertices)."""
    for p in adjacent_pairs(f.complex):
        m_i, c_i = piece_on_translate(f, p.i, p.shift_i)
        m_j, c_j = piece_on_translate(f, p.j, p.shift_j)
        for v in p.face:
            if dot(m_i, v) + c_i != dot(m_j, v) + c_j:
                raise PafError("discontinuity across a shared face")


def verify_periodicity(f: CocycleFunction) -> None:
    """Exact cocycle law at all cell vertices for all period generators."""
    z = f.cocycle
    for lam in f.complex.period.generators:
        for cell in f.complex.cells:
            for v in cell.vertices:
                lhs = evaluate(f, vadd(v, lam))
                rhs = (
                    evaluate(f, v)
                    + quadratic(z.polarization, lam)
                    + f.linear_scale * dot(z.linear, lam)
                    + bilinear(z.polarization, lam, v)
                )
                if lhs != rhs:
                    raise PafError("cocycle periodicity violated")


def auto_epsilon(
    c: PeriodicComplex, z: Cocycle, max_halvings: int = 20
) -> tuple[Fraction, CocycleFunction, ConvexityCertificate]:
    """The first eps = 2^-k, k < max_halvings, at which the convexity
    certificate passes, with the model function and its certificate.

    The model pieces are affine in eps, so each face slack is
    a + b*eps: one pass over the faces gives every (a, b), and the
    search needs no rebuild.  The certificate is then computed once,
    exactly, at the eps found.
    """
    values = _model_values(c, z)
    parts = []  # per cell: the pieces of q + ell and of the perturbation
    for cell in c.cells:
        parts.append(tuple(
            _interpolate_piece(cell, tuple(values[v][k] for v in cell.vertices))
            for k in (0, 1)
        ))
    base = CocycleFunction(
        complex=c, pieces=tuple(p for p, _ in parts), cocycle=z
    )
    lines = [
        (
            pair_slack(base, p),
            dot(p.normal, vsub(parts[p.i][1][0], parts[p.j][1][0])),
        )
        for p in adjacent_pairs(c)
    ]
    eps = Fraction(1)
    for _ in range(max_halvings):
        if all(a + b * eps > 0 for a, b in lines):
            break
        eps /= 2
    else:
        raise NotCertifiedError(
            f"no certified epsilon within {max_halvings} halvings"
        )
    f = CocycleFunction(
        complex=c,
        pieces=tuple(
            (vadd(m0, vscale(eps, m1)), c0 + eps * c1)
            for (m0, c0), (m1, c1) in parts
        ),
        cocycle=z,
    )
    cert = check_strongly_convex(f)
    if not cert.passed:
        raise PafError(
            f"certificate failed at eps = {eps}, where each a + b*eps > 0"
        )
    return eps, f, cert
