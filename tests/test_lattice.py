import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from troptorus import (
    Lattice,
    NotPositiveDefiniteError,
    Polarization,
    bilinear,
    covolume,
    identity_polarization,
    orthogonalize,
    quadratic,
    reduce_mod,
    standard_lattice,
    superlattice,
)
from troptorus.equidist import _torus_distance
from troptorus.lattice import LatticeError, sup_distances
from troptorus.linalg import (
    DimensionMismatchError,
    SingularMatrixError,
    det,
    det_adj,
    from_columns,
    integer_matrix,
    inverse,
    null_vector,
    rank,
    solve,
    vsub,
)
from troptorus.measures import MeasureError, _wrap_guard
from tests.conftest import fraction_eliminate, fraction_solve

F = Fraction

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=16
)


def _leibniz_det(m):
    """sum over permutations p of sign(p) prod m[i][p(i)]: the oracle of
    the fraction-free linalg.det."""
    total = Fraction(0)
    for p in permutations(range(len(m))):
        sign = (-1) ** sum(p[j] > p[i] for i in range(len(p)) for j in range(i))
        total += sign * math.prod((m[i][p[i]] for i in range(len(p))), start=Fraction(1))
    return total


@given(data=st.data(), n=st.integers(1, 5), whole=st.booleans())
@settings(max_examples=80, deadline=None)
def test_det_matches_the_leibniz_formula(data, n, whole):
    """Rational and integer matrices, with zero entries that force row
    swaps and singular ones among them."""
    entry = st.integers(-4, 4) if whole else st.one_of(st.just(F(0)), rationals)
    m = data.draw(st.tuples(*[st.tuples(*[entry] * n)] * n))
    assert det(m) == _leibniz_det(m)


@st.composite
def elimination_cases(draw):
    """(m, c): an r x c matrix, r, c = 0..6, square, a facet's c - 1
    edges in R^c, or of any shape; integer or rational entries, zeros
    among them to force row swaps and skipped columns; and often of a
    rank k < min(r, c), its rows integer combinations of k rows."""
    c = draw(st.integers(0, 6))
    r = draw(st.sampled_from((c, max(c - 1, 0), draw(st.integers(0, 6)))))
    entry = draw(st.sampled_from((
        st.integers(-4, 4),
        st.one_of(st.just(F(0)), rationals),
    )))
    full = min(r, c)
    k = draw(st.one_of(st.just(full), st.integers(0, full)))
    if k == full:
        return draw(st.tuples(*[st.tuples(*[entry] * c)] * r)), c
    base = draw(st.tuples(*[st.tuples(*[entry] * c)] * k))
    coeffs = draw(st.tuples(*[st.tuples(*[st.integers(-2, 2)] * k)] * r))
    m = tuple(
        tuple(sum((a * row[j] for a, row in zip(cs, base)), F(0)) for j in range(c))
        for cs in coeffs
    )
    return m, c


@given(case=elimination_cases(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_the_fraction_oracles(case, data):
    """rank and null_vector on every shape, and det, det_adj, inverse and
    solve on square matrices, against the Fraction elimination and
    Gauss-Jordan solve of tests/conftest.py and the Leibniz formula."""
    m, c = case
    rows, pivots, sign = fraction_eliminate(m)
    assert rank(m) == len(pivots)
    free = [j for j in range(c) if j not in pivots]
    if free:
        # the primitive solution with free coordinates (+, 0, ..., 0)
        v = null_vector(m, c)
        assert all(type(x) is int for x in v) and math.gcd(*v) == 1
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
        assert v[free[0]] > 0 and not any(v[j] for j in free[1:])
    else:
        with pytest.raises(SingularMatrixError):
            null_vector(m, c)
    if len(m) != c:
        if m:
            with pytest.raises(DimensionMismatchError):
                det(m)
        return
    d = _leibniz_det(m)
    assert det(m) == d
    if len(pivots) == c:
        assert d == sign * math.prod((rows[k][k] for k in range(c)), start=F(1))
    scale, im = integer_matrix(m)
    rhs = data.draw(st.tuples(*[rationals] * c))
    if d == 0:
        assert det_adj(im) == (0, ())
        with pytest.raises(SingularMatrixError):
            inverse(m)
        with pytest.raises(SingularMatrixError):
            solve(m, rhs)
        return
    inv = from_columns(tuple(
        fraction_solve(m, tuple(F(int(i == j)) for i in range(c)))
        for j in range(c)
    ))
    assert inverse(m) == inv
    det_i, adj = det_adj(im)
    assert det_i == abs(_leibniz_det(im))
    assert all(type(x) is int for row in adj for x in row)
    assert adj == tuple(tuple(det_i * x / scale for x in row) for row in inv)
    assert solve(m, rhs) == fraction_solve(m, rhs)


def test_standard_lattice_basis():
    lat = standard_lattice(2)
    assert lat.generators == ((F(1), F(0)), (F(0), F(1)))
    assert covolume(lat) == 1


def test_singular_basis_rejected():
    with pytest.raises(LatticeError):
        Lattice(((F(1), F(2)), (F(2), F(4))))


def test_indefinite_gram_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        Polarization(((F(1), F(2)), (F(2), F(1))))
    with pytest.raises(NotPositiveDefiniteError):
        Polarization(((F(0),),))


def test_asymmetric_gram_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        Polarization(((F(2), F(1)), (F(0), F(2))))


@given(u=st.tuples(rationals, rationals), v=st.tuples(rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_bilinear_symmetry(u, v):
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    assert bilinear(b, u, v) == bilinear(b, v, u)


@given(u=st.tuples(rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_quadratic_positive(u):
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    assert quadratic(b, u) >= 0
    assert (quadratic(b, u) == 0) == (u == (0, 0))


def test_orthogonalize_identity_is_basis():
    lat = standard_lattice(3)
    b = identity_polarization(3)
    assert orthogonalize(lat, b) == lat.generators


def test_orthogonalize_pairwise_orthogonal():
    lat = standard_lattice(2)
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    o1, o2 = orthogonalize(lat, b)
    assert bilinear(b, o1, o2) == 0
    # the output stays inside the lattice
    assert lat.contains(o1) and lat.contains(o2)
    # frozen: clearing the -1/2 projection coefficient doubles the step
    assert o1 == (F(1), F(0))
    assert o2 == (F(-1), F(2))


def test_superlattice_index():
    lat = standard_lattice(2)
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    orth = orthogonalize(lat, b)
    n_scale, prime = superlattice(orth, lat)
    assert n_scale == 2
    # the original lattice sits inside the rescaled one
    for g in lat.generators:
        assert prime.contains(g)
    assert covolume(lat) / covolume(prime) == 2


def test_superlattice_trivial_for_identity():
    lat = standard_lattice(2)
    orth = orthogonalize(lat, identity_polarization(2))
    n_scale, prime = superlattice(orth, lat)
    assert n_scale == 1
    assert covolume(prime) == 1


@given(u=st.tuples(rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_reduce_mod_idempotent_and_congruent(u):
    lat = Lattice(((F(1), F(0)), (F(1), F(2))))
    r = reduce_mod(u, lat)
    assert reduce_mod(r, lat) == r
    assert lat.contains(vsub(u, r))
    coords = lat.coords(r)
    assert all(0 <= c < 1 for c in coords)


def test_quadratic_halves_gram_diagonal():
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    # q(e1) = gram[0][0] / 2
    assert quadratic(b, (F(1), F(0))) == 1
    assert quadratic(b, (F(1), F(1))) == 3


@st.composite
def skewed_bases(draw):
    """Integer bases of R^2 with entries in [-4, 4].  The adjugate has
    entries of at most 4 and the determinant is at least 1, so every
    row sum of |L^-1| is at most 8."""
    entry = st.integers(-4, 4).map(F)
    gens = draw(
        st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)).filter(
            lambda g: det(g) != 0
        )
    )
    return Lattice(gens)


def _brute_distances(lat, v):
    """den and den * |v - L k| over every k in [-80, 80]^2.  A lattice
    vector within r <= 8 of v has coordinates within 8 r <= 64 of those
    of v, which are at most 16 for v in [-2, 2]^2; 8 bounds
    |reduce_mod(v)| and the shortest generator, the radii used below."""
    (a, b), (c, d) = (tuple(map(int, g)) for g in lat.generators)
    den = math.lcm(*(x.denominator for x in v))
    x, y = (int(t * den) for t in v)
    window = range(-80, 81)
    return den, [
        max(abs(x - den * (a * i + c * j)), abs(y - den * (b * i + d * j)))
        for i, j in product(window, window)
    ]


@given(
    lat=skewed_bases(),
    v=st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=4)] * 2),
)
@settings(max_examples=40, deadline=None)
def test_distances_to_the_lattice_match_brute_force(lat, v):
    den, brute = _brute_distances(lat, v)
    r = max(map(abs, reduce_mod(v, lat)))
    assert sorted(sup_distances(lat, v, r)) == sorted(
        F(x, den) for x in brute if x <= r * den
    )
    zero = (F(0), F(0))
    assert _torus_distance(lat, v, zero) == F(min(brute), den)
    assert _torus_distance(lat, zero, v) == F(min(brute), den)
    shortest = min(x for x in _brute_distances(lat, zero)[1] if x)
    _wrap_guard(lat, F(shortest, 4))
    with pytest.raises(MeasureError):
        _wrap_guard(lat, F(shortest, 4) + F(1, 1000))


@st.composite
def rational_lattices(draw):
    """Random rational bases of R^n, n = 1, 2, 3, or the skewed basis
    ((1, 0), (1/2, 3/2))."""
    n = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    basis = st.tuples(*[st.tuples(*[entry] * n)] * n).filter(
        lambda g: det(from_columns(g)) != 0
    )
    if n == 2:
        basis = st.one_of(st.just(((F(1), F(0)), (F(1, 2), F(3, 2)))), basis)
    return Lattice(draw(basis))


@given(lat=rational_lattices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lattice_frame_is_the_basis_on_least_integer_scales(lat, data):
    """g L / g == L and q L^-1 / q == L^-1 with g and q least, the frame
    is built once, and integer_coords gives coords on its scale."""
    frame = lat.frame
    assert lat.frame is frame
    assert frame.inverse == inverse(lat.matrix)
    for scale, rows, want in (
        (frame.g, frame.basis, lat.matrix),
        (frame.q, frame.inv, frame.inverse),
    ):
        assert all(type(x) is int for row in rows for x in row)
        assert tuple(tuple(F(x, scale) for x in row) for row in rows) == want
        assert math.gcd(scale, *(x for row in rows for x in row)) == 1
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    points = data.draw(
        st.lists(st.tuples(*[coord] * lat.dim), min_size=1, max_size=4)
    )
    d, ws = lat.integer_coords(points)
    assert [tuple(F(x, d) for x in w) for w in ws] == [
        lat.coords(p) for p in points
    ]
