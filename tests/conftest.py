import json
import math
from fractions import Fraction

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
from troptorus import NoCommonRefinementError, PeriodicComplex, evaluate_test
from troptorus.complexes import _containment_index, _period_coords
from troptorus.linalg import det, dot, from_columns, solve, vsub
from troptorus.serialization import SerializationError


def frac(p, q=1):
    return Fraction(p, q)


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


def pair_key(i, shift_i, j, shift_j):
    """The certificate key of an adjacent pair, formatted from its cells
    and Fraction shifts: the oracle of AdjacentPair.key."""
    si = ",".join(str(x) for x in shift_i)
    sj = ",".join(str(x) for x in shift_j)
    return f"cell{i}[{si}]|cell{j}[{sj}]"


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
