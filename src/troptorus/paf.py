"""Cocycle-periodic piecewise-affine functions and their certificates.

The central object is a continuous function f, affine on every maximal
cell of a periodic complex, transforming under a period vector lam by
f(u + lam) = f(u) + q(lam) + s*ell(lam) + b(lam, u) where q is the
polarization quadratic form and s the effective linear scale.  The
strong-convexity certificate, the dyadic iteration and the twist bound
are the exact counterparts of the ample-model construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import (
    AdjacentPair,
    PeriodicComplex,
    Simplex,
    _containment_index,
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
    Mat,
    SingularMatrixError,
    TroptorusError,
    Vec,
    dot,
    from_columns,
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


def _gram_row(gram: Mat, lam: Vec) -> Vec:
    """The covector u -> b(lam, u)."""
    return mat_vec(gram, lam)


def piece_on_translate(f: CocycleFunction, i: int, lam: Vec) -> Piece:
    """Affine piece of f on cells[i] + lam, derived from the cocycle law."""
    m, c = f.pieces[i]
    gram = f.cocycle.polarization.gram
    glam = _gram_row(gram, lam)
    m_new = vadd(m, glam)
    c_new = (
        c
        - dot(m, lam)
        + f.linear_scale * dot(f.cocycle.linear, lam)
        - quadratic(f.cocycle.polarization, lam)
    )
    return m_new, c_new


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


def build_model_function(
    c: PeriodicComplex, z: Cocycle, eps: Fraction
) -> CocycleFunction:
    """Affine interpolant of q + ell with the dyadic vertex perturbation.

    A vertex at barycentric depth k (k halved directions away from the
    superlattice) receives q + ell + eps*(1 - 2^-k); depth-0 vertices
    are left exact so the cocycle law holds with linear scale 1.
    """
    if c.level != 0:
        raise NotBarycentricError("model functions live on the level-0 complex")
    eps = Fraction(eps)
    pieces = []
    for cell in c.cells:
        values = []
        for v in cell.vertices:
            k = _vertex_stage(v, c.period)
            perturb = eps * (1 - Fraction(1, 2 ** k))
            values.append(
                quadratic(z.polarization, v) + dot(z.linear, v) + perturb
            )
        pieces.append(_interpolate_piece(cell, tuple(values)))
    return CocycleFunction(
        complex=c, pieces=tuple(pieces), cocycle=z, linear_scale=Fraction(1)
    )


def _pair_key(p: AdjacentPair) -> str:
    si = ",".join(str(x) for x in p.shift_i)
    sj = ",".join(str(x) for x in p.shift_j)
    return f"cell{p.i}[{si}]|cell{p.j}[{sj}]"


def pair_slack(f: CocycleFunction, p: AdjacentPair) -> Fraction:
    m_i, _ = piece_on_translate(f, p.i, p.shift_i)
    m_j, _ = piece_on_translate(f, p.j, p.shift_j)
    return dot(p.normal, vsub(m_i, m_j))


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
        pieces = []
        for (pi, lam) in parents:
            m, c = piece_on_translate(f, pi, lam)
            pieces.append((vscale(Fraction(1, 2), m), c / 4))
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


def _max_affine_minus_quadratic(
    verts: tuple[Vec, ...], m: Vec, c: Fraction, gram: Mat, lin: Vec
) -> Fraction:
    """Exact max over conv(verts) of m*u + c - (u^T G u / 2 + lin*u).

    The target is concave; the unconstrained maximizer is clamped to the
    simplex by recursing over its faces.
    """
    def h(u: Vec) -> Fraction:
        return dot(m, u) + c - dot(u, mat_vec(gram, u)) / 2 - dot(lin, u)

    if len(verts) == 1:
        return h(verts[0])
    v0 = verts[0]
    edges = tuple(vsub(v, v0) for v in verts[1:])
    a_cols = from_columns(edges)
    # restricted problem in simplex coordinates t: maximize
    # m'' t + const - t^T G' t / 2 with G' = A^T G A
    g_rows = tuple(mat_vec(gram, e) for e in edges)
    g_prime = tuple(tuple(dot(gr, e2) for e2 in edges) for gr in g_rows)
    grad0 = vsub(vsub(m, lin), mat_vec(gram, v0))
    m_prime = tuple(dot(grad0, e) for e in edges)
    try:
        t_star = solve(g_prime, m_prime)
    except SingularMatrixError:
        t_star = None
    if t_star is not None and all(x >= 0 for x in t_star) and sum(t_star) <= 1:
        u_star = v0
        for x, e in zip(t_star, edges):
            u_star = vadd(u_star, vscale(x, e))
        return h(u_star)
    best = None
    for drop in range(len(verts)):
        sub = tuple(v for k, v in enumerate(verts) if k != drop)
        val = _max_affine_minus_quadratic(sub, m, c, gram, lin)
        if best is None or val > best:
            best = val
    return best


def sup_distance_to_quadratic(f: CocycleFunction) -> Fraction:
    """Exact sup over one period of |f - q - s*ell|.

    Per cell, q + s*ell - f is convex so its max sits at the vertices;
    f - q - s*ell is concave and is maximized by exact clamping of the
    quadratic's critical point to the cell.
    """
    gram = f.cocycle.polarization.gram
    lin = vscale(f.linear_scale, f.cocycle.linear)
    best = Fraction(0)
    for cell, (m, c) in zip(f.complex.cells, f.pieces):
        over = _max_affine_minus_quadratic(cell.vertices, m, c, gram, lin)
        if over > best:
            best = over
        for v in cell.vertices:
            under = (
                dot(v, mat_vec(gram, v)) / 2 + dot(lin, v) - dot(m, v) - c
            )
            if under > best:
                best = under
    return best


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
    """Halve eps from 1 until the convexity certificate passes."""
    eps = Fraction(1)
    for _ in range(max_halvings):
        f = build_model_function(c, z, eps)
        cert = check_strongly_convex(f)
        if cert.passed:
            return eps, f, cert
        eps /= 2
    raise NotCertifiedError(
        f"no certified epsilon within {max_halvings} halvings"
    )
