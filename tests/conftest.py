import json
import math
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
    evaluate_test,
    quadratic,
)
from troptorus.paf import piece_on_translate
from troptorus.complexes import (
    ComplexError,
    Simplex,
    _containment_index,
    _period_coords,
)
from troptorus.lattice import covolume, reduce_mod
from troptorus.linalg import (
    det,
    dot,
    from_columns,
    mat_vec,
    rank,
    solve,
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
        if rank(image_edges) != s.dim:
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
    lam = solve(m, vsub(p, v0))
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
    index = _containment_index(t.complex)
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
    anew per test by evaluate_test: the oracle of
    measures.empirical_averages."""
    pts = e.points
    return tuple(
        sum((evaluate_test(t, p) for p in pts), Fraction(0)) / len(pts)
        for t in tests
    )


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
    complexes.dyadic_refine_step."""
    children = {}
    for i, cell in enumerate(c.cells):
        for k in product((0, 1), repeat=c.dim):
            step = c.period.from_coords(tuple(map(Fraction, k)))
            half = tuple(vscale(Fraction(1, 2), vadd(v, step)) for v in cell.vertices)
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


def fraction_unfold_with_shifts(c, lat):
    """The cells of c translated by coset representatives reduced by
    reduce_mod, put in canonical form by make_complex, and each new cell's
    source and shift from canonical_cell: the oracle of the integer
    complexes.unfold_with_shifts."""
    index = int(covolume(lat) / covolume(c.period))
    reps = set()
    for k in product(range(index), repeat=c.dim):
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
