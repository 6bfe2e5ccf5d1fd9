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
from troptorus.linalg import from_columns, solve, vsub


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
