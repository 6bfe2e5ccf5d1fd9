import functools
import json
import math
import time
import warnings
from fractions import Fraction
from itertools import permutations, product

import pytest

from troptorus import (
    Cocycle,
    Polarization,
    barycentric_triangulation,
    build_model_function,
    identity_polarization,
    orthogonalize,
    standard_lattice,
    superlattice,
)
from troptorus import (
    NoCommonRefinementError,
    PafError,
    PeriodicComplex,
    adjacent_pairs,
    bilinear,
    evaluate,
    quadratic,
)
from troptorus.paf import (
    CocycleFunction,
    ConvexityCertificate,
    NotCertifiedError,
    check_strongly_convex,
    locate_cell,
)
from troptorus.complexes import (
    ComplexError,
    Simplex,
    dyadic_refine_step,
    unfold_with_shifts,
)
from troptorus.lattice import covolume, reduce_mod
from troptorus.linalg import (
    SingularMatrixError,
    det,
    dot,
    from_columns,
    mat_vec,
    vadd,
    vscale,
    vsub,
)
from troptorus.measures import (
    NonInjectiveAtomError,
    PolytopalMeasure,
    simplex_k_volume,
)
from troptorus.serialization import SerializationError


def frac(p, q=1):
    return Fraction(p, q)


SLOW_EXAMPLE_S = 5.0


def _basis_text(gens):
    return "(" + ", ".join("(" + ", ".join(map(str, g)) + ")" for g in gens) + ")"


def warn_slow_examples(basis):
    """Wrap a test under @given: an example that runs longer than
    SLOW_EXAMPLE_S seconds issues a pytest warning naming the test, its
    time and the period basis that basis(**drawn arguments) returns, so
    that a rare slow draw can be replayed."""

    def wrap(test):
        @functools.wraps(test)
        def timed(**kwargs):
            start = time.perf_counter()
            try:
                return test(**kwargs)
            finally:
                took = time.perf_counter() - start
                if took > SLOW_EXAMPLE_S:
                    warnings.warn(pytest.PytestWarning(
                        f"{test.__name__}: one example took {took:.1f} s "
                        f"on the period basis {_basis_text(basis(**kwargs))}"
                    ))

        return timed

    return wrap


def fraction_eliminate(m):
    """Row echelon form in Fractions; returns (rows, pivot column indices,
    sign): the oracle of linalg's fraction-free elimination."""
    rows = [[Fraction(x) for x in r] for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    sign = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            if rows[i][c] != 0:
                f = rows[i][c] / piv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, sign


def fraction_solve(m, rhs):
    """Solve m x = rhs for square m by Gauss-Jordan elimination in
    Fractions; raises SingularMatrixError: the oracle of linalg.solve and
    of the integer interpolation and sup-distance of paf."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(m, rhs)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pr is None:
            raise SingularMatrixError("solve: singular matrix")
        aug[c], aug[pr] = aug[pr], aug[c]
        piv = aug[c][c]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c] / piv
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return tuple(aug[i][n] / aug[i][i] for i in range(n))


def canonical_cell(vertices, period):
    """The canonical representative of a cell in Fractions, vertices
    sorted and the first one's period coordinates in [0, 1)^n, and the
    period shift that was subtracted: the oracle of the canonical form
    the integer builders take."""
    vs = sorted(vertices)
    coords = period.coords(vs[0])
    shift = period.from_coords(tuple(Fraction(math.floor(c)) for c in coords))
    if any(c != 0 for c in shift):
        vs = [vsub(v, shift) for v in vs]
    return Simplex(tuple(vs)), shift


def make_complex(period, simplices, level=0, expected=None):
    """The complex of the canonical representatives of the simplices,
    each orbit once, in sorted order; it records no J1 level."""
    seen = {}
    for s in simplices:
        canon, _ = canonical_cell(s.vertices, period)
        seen.setdefault(canon.vertices, canon)
    cells = tuple(seen[k] for k in sorted(seen))
    if expected is not None and len(cells) != expected:
        raise ComplexError(f"expected {expected} cells, got {len(cells)}")
    return PeriodicComplex(period=period, cells=cells, level=level)


def fraction_pushforward(mu, a):
    """Each atom's vertices mapped by a in Fractions, its rank checked,
    its image volume taken anew and put in canonical form by
    canonical_cell: the oracle of measures.pushforward on a polytopal
    measure."""
    masses = [d * simplex_k_volume(s) for s, d in mu.atoms]
    atoms = []
    for (s, _), w in zip(mu.atoms, masses):
        image_edges = tuple(mat_vec(a.matrix, e) for e in s.edge_matrix())
        if len(fraction_eliminate(image_edges)[1]) != s.dim:
            raise NonInjectiveAtomError(
                "map collapses an atom; use monte_carlo_pushforward"
            )
        img = Simplex(tuple(a.apply(v) for v in s.vertices))
        canon, _ = canonical_cell(img.vertices, a.target)
        atoms.append((canon, w / simplex_k_volume(img)))
    return PolytopalMeasure(lattice=a.target, atoms=tuple(atoms))


def barycentric_coords(s, p):
    """Barycentric coordinates of p w.r.t. a full-dimensional simplex: the
    exact oracle of the integer containment tests."""
    v0 = s.vertices[0]
    m = from_columns(s.edge_matrix())
    lam = fraction_solve(m, vsub(p, v0))
    lam0 = Fraction(1) - sum(lam, Fraction(0))
    return (lam0,) + tuple(lam)


def gram_k_volume(s):
    """sqrt(det(E E^T)) / k! for a k-simplex with edge matrix E, by the
    Gram determinant on every call: the oracle of simplex_k_volume and of
    the atom masses kept on a measure."""
    edges = s.edge_matrix()
    if not edges:
        return Fraction(1)
    g = det(tuple(tuple(dot(a, b) for b in edges) for a in edges))
    rn, rd = math.isqrt(g.numerator), math.isqrt(g.denominator)
    assert rn * rn == g.numerator and rd * rd == g.denominator
    return Fraction(rn, rd) / math.factorial(len(edges))


def dense_integrate(t, mu):
    """integrate over every atom or cell, zero pieces included, with each
    volume and barycenter recomputed: the oracle of measures.integrate."""
    if len(mu.atoms) == len(t.complex.cells) and all(
        s == cell for (s, _), cell in zip(mu.atoms, t.complex.cells)
    ):
        return sum(
            (
                d * gram_k_volume(s) * (dot(m, s.barycenter()) + c)
                for (s, d), (m, c) in zip(mu.atoms, t.pieces)
            ),
            Fraction(0),
        )
    index = t.complex._index
    total = Fraction(0)
    for s, d in mu.atoms:
        hit = index.locate(s.vertices)
        if hit is None:
            break
        i, lam = hit
        m, c = t.pieces[i]
        total += d * gram_k_volume(s) * (dot(m, vsub(s.barycenter(), lam)) + c)
    else:
        return total
    n = mu.lattice.dim
    atoms = PeriodicComplex(period=mu.lattice, cells=tuple(s for s, _ in mu.atoms))
    index = atoms._index
    scale, coords = t.complex._coords
    total = Fraction(0)
    for cell, w, (m, c) in zip(t.complex.cells, coords, t.pieces):
        hit = index.find_cell_containing_simplex(
            [w[k : k + n] for k in range(0, len(w), n)], scale
        )
        if hit is None:
            raise NoCommonRefinementError("test cell not inside one atom")
        d = mu.atoms[hit[0]][1]
        total += d * gram_k_volume(cell) * (dot(m, cell.barycenter()) + c)
    return total


def dense_sup_abs(t):
    """max |t| over every vertex of every cell: the oracle of
    paf.test_sup_abs."""
    return max(
        abs(dot(m, v) + c)
        for cell, (m, c) in zip(t.complex.cells, t.pieces)
        for v in cell.vertices
    )


def dense_averages(tests, e):
    """Each test evaluated at each rational point of e, the point located
    anew per test by fraction_evaluate_test: the oracle of
    measures.empirical_averages."""
    pts = e.points
    return tuple(
        sum((fraction_evaluate_test(t, p) for p in pts), Fraction(0)) / len(pts)
        for t in tests
    )


def piece_on_translate(f, i, lam):
    """Affine piece of f on cells[i] + lam in Fractions, by the cocycle
    law: the gradient gains G lam and the constant s*ell(lam) - q(lam) -
    m*lam.  The oracle of paf._on_translates."""
    m, c = f.pieces[i]
    z = f.cocycle
    return (
        vadd(m, mat_vec(z.polarization.gram, lam)),
        c - dot(m, lam) + f.linear_scale * dot(z.linear, lam)
        - quadratic(z.polarization, lam),
    )


def fraction_test_piece_at(t, points):
    """Affine piece, in Fractions, of the periodic extension of t on a
    cell translate of t's complex that holds every one of the points;
    PafError if none does.  The oracle of paf._restrict."""
    hit = t.complex._index.locate(points)
    if hit is None:
        raise PafError("no cell of the test complex holds the points")
    i, lam = hit
    m, c = t.pieces[i]
    return m, c - dot(m, lam)  # t(v) = m*(v - lam) + c on cells[i] + lam


def fraction_evaluate(f, u):
    """f(u) from the Fraction piece of the cell translate that holds u:
    the oracle of paf.evaluate."""
    i, lam = locate_cell(f.complex, u)
    m, c = piece_on_translate(f, i, lam)
    return dot(m, u) + c


def fraction_evaluate_test(t, u):
    """t(u) from the Fraction piece of the cell translate that holds u:
    the oracle of paf.evaluate_test."""
    m, c = fraction_test_piece_at(t, (u,))
    return dot(m, u) + c


def fraction_change_period(f, lat):
    """f over the sublattice lat, each unfolded cell with the Fraction
    piece of piece_on_translate: the oracle of paf.change_period."""
    if lat == f.complex.period:
        return f
    unfolded, mapping = unfold_with_shifts(f.complex, lat)
    return CocycleFunction(
        complex=unfolded,
        pieces=tuple(piece_on_translate(f, i, lam) for i, lam in mapping),
        cocycle=f.cocycle,
        linear_scale=f.linear_scale,
    )


def fraction_twist(f, t, tau):
    """f + tau t over t's period, each cell of fraction_change_period with
    the Fraction piece of t located by its vertices: the oracle of
    paf.twist."""
    base = fraction_change_period(f, t.complex.period)
    pieces = []
    for cell, (m, c) in zip(base.complex.cells, base.pieces):
        mt, ct = fraction_test_piece_at(t, cell.vertices)
        pieces.append((vadd(m, vscale(tau, mt)), c + tau * ct))
    return CocycleFunction(
        complex=base.complex,
        pieces=tuple(pieces),
        cocycle=base.cocycle,
        linear_scale=base.linear_scale,
    )


def fraction_twist_bound(f, t):
    """min slack / max |n.(m_delta - m_sigma)| of t's Fraction pieces over
    the faces of fraction_change_period(f, t's period), each cell copy
    located by its vertices: the oracle of paf.choose_twist_bound."""
    base = fraction_change_period(f, t.complex.period)
    cert = check_strongly_convex(base)
    if not cert.passed:
        raise NotCertifiedError("twist bound needs a certified convex base")
    cells = base.complex.cells
    max_jump = Fraction(0)
    for p in adjacent_pairs(base.complex):
        m_d, _ = fraction_test_piece_at(t, cells[p.i].translate(p.shift_i).vertices)
        m_s, _ = fraction_test_piece_at(t, cells[p.j].translate(p.shift_j).vertices)
        max_jump = max(max_jump, abs(dot(p.normal, vsub(m_d, m_s))))
    return None if max_jump == 0 else cert.min_slack / max_jump


def verify_continuity(f):
    """Adjacent pieces must agree on the shared face (checked at its
    vertices): the continuity check of a cocycle function."""
    for p in adjacent_pairs(f.complex):
        m_i, c_i = piece_on_translate(f, p.i, p.shift_i)
        m_j, c_j = piece_on_translate(f, p.j, p.shift_j)
        for v in p.face:
            if dot(m_i, v) + c_i != dot(m_j, v) + c_j:
                raise PafError("discontinuity across a shared face")


def verify_periodicity(f):
    """The exact cocycle law at all cell vertices for all period
    generators, each side located anew by evaluate."""
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


def pair_slack(f, p):
    """n*(m_delta - m_sigma) at the face of p, in Fractions: the gradients
    on the two cell copies differ from the stored ones by G shift."""
    gram = f.cocycle.polarization.gram
    return dot(p.normal, vsub(f.pieces[p.i][0], f.pieces[p.j][0])) + dot(
        p.normal, mat_vec(gram, vsub(p.shift_i, p.shift_j))
    )


def fraction_certificate(f):
    """check_strongly_convex with one Fraction pair_slack per face."""
    slacks, witness, witness_slack, min_slack = {}, None, None, None
    for p in adjacent_pairs(f.complex):
        s = pair_slack(f, p)
        slacks[pair_key(p.i, p.shift_i, p.j, p.shift_j)] = s
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


def to_jsonable(obj):
    """Recursively rewrite Fractions as "p/q" strings and keys as str(key)
    for json.dumps."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj):
    """The canonical text through to_jsonable and the stdlib encoder: the
    oracle of serialization.canonical_dumps."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def complex_to_json(c):
    """The JSON form of a complex, written from its Fraction cells: the
    oracle of serialization.canonical_dumps on a PeriodicComplex."""
    return {
        "period": {"generators": c.period.generators},
        "level": c.level,
        "cells": [{"vertices": s.vertices} for s in c.cells],
    }


def pair_key(i, shift_i, j, shift_j):
    """The certificate key of an adjacent pair, formatted from its cells
    and Fraction shifts: the oracle of AdjacentPair.key."""
    si = ",".join(str(x) for x in shift_i)
    sj = ",".join(str(x) for x in shift_j)
    return f"cell{i}[{si}]|cell{j}[{sj}]"


def fraction_barycentric(orth_prime, period):
    """The level-0 flag cells of the period basis in Fractions, put in
    canonical form by make_complex: the oracle of the integer
    complexes.barycentric_triangulation."""
    n = len(orth_prime)
    cells = []
    for signs in product((1, -1), repeat=n):
        for perm in permutations(range(n)):
            verts = [(Fraction(0),) * n]
            for idx in perm:
                step = vscale(Fraction(signs[idx], 2), orth_prime[idx])
                verts.append(vadd(verts[-1], step))
            cells.append(Simplex(tuple(verts)))
    c = make_complex(period, cells, expected=2 ** n * math.factorial(n))
    object.__setattr__(c, "_j1", 0)
    return c


def fraction_refine_step(c):
    """The halving (cell + sum k_j b_j) / 2, k in {0,1}^n, of every cell
    in Fractions, each child in canonical form, with (parent index, lam)
    such that 2 * child = parent + lam: the oracle of the integer
    complexes.dyadic_refine_step.  Each step sum k_j b_j, and each halved
    vertex per (vertex, step), is computed once."""
    steps = [
        c.period.from_coords(tuple(map(Fraction, k)))
        for k in product((0, 1), repeat=c.dim)
    ]
    halves = {}  # (vertex, step) -> (vertex + step) / 2
    children = {}
    for i, cell in enumerate(c.cells):
        for step in steps:
            half = []
            for v in cell.vertices:
                h = halves.get((v, step))
                if h is None:
                    h = halves[v, step] = vscale(Fraction(1, 2), vadd(v, step))
                half.append(h)
            canon, shift = canonical_cell(half, c.period)
            children[canon.vertices] = (canon, i, vsub(step, vscale(Fraction(2), shift)))
    keys = sorted(children)
    fine = PeriodicComplex(
        period=c.period,
        cells=tuple(children[k][0] for k in keys),
        level=c.level + 1,
    )
    if c._j1 is not None:
        object.__setattr__(fine, "_j1", c._j1 + 1)
    return fine, tuple(children[k][1:] for k in keys)


def hermite_diagonal(k):
    """The diagonal of the lower triangular Hermite normal form of the
    integer matrix k, whose columns span a lattice: column operations,
    Euclid's algorithm on each row in turn.  The integer points of the box
    [0, h_1) x ... x [0, h_n) are one representative of each class of
    Z^n modulo that lattice."""
    cols = [list(col) for col in zip(*k)]
    n = len(cols)
    for i in range(n):
        for j in range(i + 1, n):
            while cols[j][i]:
                q = cols[i][i] // cols[j][i]
                cols[i] = [a - q * b for a, b in zip(cols[i], cols[j])]
                cols[i], cols[j] = cols[j], cols[i]
    return [abs(col[i]) for i, col in enumerate(cols)]


def fraction_unfold_with_shifts(c, lat):
    """The cells of c translated by coset representatives reduced by
    reduce_mod, put in canonical form by make_complex, and each new cell's
    source and shift from canonical_cell: the oracle of the integer
    complexes.unfold_with_shifts.  The representatives are the det(K)
    points of the Hermite box of K = L_c^-1 L_lat (hermite_diagonal)."""
    index = int(covolume(lat) / covolume(c.period))
    kmat = tuple(zip(*(map(int, c.period.coords(g)) for g in lat.generators)))
    reps = set()
    for k in product(*map(range, hermite_diagonal(kmat))):
        reps.add(reduce_mod(c.period.from_coords(tuple(map(Fraction, k))), lat))
    assert len(reps) == index
    unfolded = make_complex(
        lat,
        [cell.translate(r) for cell in c.cells for r in reps],
        level=c.level,
        expected=index * len(c.cells),
    )
    originals = {cell.vertices: i for i, cell in enumerate(c.cells)}
    mapping = []
    for cell in unfolded.cells:
        canon, shift = canonical_cell(cell.vertices, c.period)
        mapping.append((originals[canon.vertices], shift))
    return unfolded, tuple(mapping)


def fraction_model_function(c, z, eps):
    """The model function on the level-0 complex c with Fraction pieces:
    per cell, the Fraction solve of rows [v | 1] for the values
    q(v) + ell(v) + eps (1 - 2^-k) at its vertices v, k the number of
    half-integer period coordinates of v: the oracle of the integer
    paf.build_model_function."""
    n = c.dim
    pieces = []
    for cell in c.cells:
        values = []
        for v in cell.vertices:
            depth = sum(x.denominator == 2 for x in c.period.coords(v))
            values.append(
                quadratic(z.polarization, v)
                + dot(z.linear, v)
                + eps * (1 - Fraction(1, 2 ** depth))
            )
        sol = fraction_solve(tuple(v + (Fraction(1),) for v in cell.vertices), values)
        pieces.append((sol[:n], sol[n]))
    return CocycleFunction(complex=c, pieces=tuple(pieces), cocycle=z)


def fraction_tate_step(f):
    """One Tate step in Fractions: on the dyadic refinement, the new cell
    2u in parent + lam takes the parent's piece (m, c) on that translate,
    halved in u, ((m + G lam) / 2, (c - m.lam + s ell(lam) - q(lam)) / 4),
    with linear scale s / 2: the oracle of the integer
    CocycleFunction._next."""
    refined, parents = dyadic_refine_step(f.complex)
    z = f.cocycle
    pieces = []
    for i, lam in parents:
        m, c = f.pieces[i]
        glam = mat_vec(z.polarization.gram, lam)
        const = f.linear_scale * dot(z.linear, lam) - quadratic(z.polarization, lam)
        pieces.append((
            tuple((x + y) / 2 for x, y in zip(m, glam)),
            (c - dot(m, lam) + const) / 4,
        ))
    return CocycleFunction(
        complex=refined,
        pieces=tuple(pieces),
        cocycle=z,
        linear_scale=f.linear_scale / 2,
    )


def base_complex(n, gram=None):
    """Level-0 barycentric complex over the rescaled orthogonal lattice."""
    lat = standard_lattice(n)
    b = identity_polarization(n) if gram is None else Polarization(gram)
    orth = orthogonalize(lat, b)
    _, prime = superlattice(orth, lat)
    return lat, b, prime, barycentric_triangulation(prime.generators, prime)


@pytest.fixture(scope="session")
def line_setup():
    """n=1 identity form: the complex has two cells of width 1/2."""
    return base_complex(1)


@pytest.fixture(scope="session")
def plane_setup():
    return base_complex(2)


@pytest.fixture(scope="session")
def space_setup():
    return base_complex(3)


@pytest.fixture(scope="session")
def line_model(line_setup):
    """The 1D model function with the 1/8 vertex perturbation."""
    lat, b, prime, c = line_setup
    z = Cocycle(polarization=b, linear=(Fraction(0),))
    return z, build_model_function(c, z, Fraction(1, 8))
