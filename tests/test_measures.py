import functools
import math
import random
import types
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from troptorus import (
    IntegralAffineMap,
    MeasureError,
    NoCommonRefinementError,
    NonInjectiveAtomError,
    Polarization,
    PolytopalMeasure,
    Simplex,
    dyadic_refine,
    empirical,
    empirical_averages,
    haar,
    hat_test_functions,
    integrate,
    integrate_empirical,
    mass_near,
    monte_carlo_pushforward,
    pushforward,
    simplex_k_volume,
)
from troptorus.complexes import (
    PeriodicComplex,
    _ContainmentIndex,
    _clip,
    _volume,
    barycentric_triangulation,
    simplex_volume,
    unfold,
)
from troptorus.equidist import (
    difference_map,
    product_lattice,
    standard_test_complex,
    torsion_grid,
)
from troptorus.lattice import Lattice, covolume, reduce_mod, standard_lattice
from troptorus.linalg import (
    DimensionMismatchError,
    det,
    dot,
    from_columns,
    inverse,
    mat_mul,
    mat_vec,
    vadd,
    vscale,
    vsub,
)
from troptorus import measures
from troptorus import test_sup_abs as sup_abs
from troptorus.measures import EmpiricalMeasure, _wrap_guard
from troptorus.paf import TestFunction as PiecewiseTest
from troptorus.paf import interpolate_test, locate_cell, vertex_orbits
from tests.conftest import (
    barycentric_coords,
    base_complex,
    dense_averages,
    dense_integrate,
    dense_sup_abs,
    fraction_box_clip_volume,
    fraction_pushforward,
    fraction_solve,
    gram_k_volume,
    warn_slow_examples,
)

F = Fraction


def constant_one(c):
    return interpolate_test(c, {v: F(1) for v in vertex_orbits(c)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_has_unit_mass(n):
    lat, _, _, c = base_complex(n)
    mu = haar(lat, c)
    assert integrate(constant_one(c), mu) == 1


def test_hat_integrals_level0(line_setup):
    lat, _, _, c = line_setup
    mu = haar(lat, c)
    assert [integrate(t, mu) for t in hat_test_functions(c)] == [F(1, 2), F(1, 2)]


def test_hat_integrals_level1(line_setup):
    lat, _, _, c = line_setup
    c1 = dyadic_refine(c, 1)
    mu = haar(lat, c1)
    totals = [integrate(t, mu) for t in hat_test_functions(c1)]
    assert sorted(set(totals)) == [F(1, 4)]
    assert sum(totals) == 1


def test_integrate_both_refinement_directions(line_setup):
    lat, _, _, c = line_setup
    c1 = dyadic_refine(c, 1)
    hats = hat_test_functions(c)
    # coarse test against refined measure and refined test against coarse
    mu0, mu1 = haar(lat, c), haar(lat, c1)
    for t in hats:
        assert integrate(t, mu1) == integrate(t, mu0)
    fine = hat_test_functions(c1)[0]
    assert integrate(fine, mu0) == integrate(fine, mu1)


def test_integrate_both_refinement_directions_skewed_2d():
    """Both refinement branches against the fast path on a skewed 2-D
    lattice, also with the atoms moved by lattice vectors; atoms of lower
    dimension never hold a test cell."""
    lat = Lattice(((F(1), F(0)), (F(1, 2), F(3, 2))))
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    c0, c1 = (standard_test_complex(lat, b, j) for j in (0, 1))
    mu0, mu1 = haar(lat, c0), haar(lat, c1)
    shifts = [
        lat.from_coords((F(x), F(y))) for x, y in ((2, -1), (0, 3), (-1, 0))
    ]
    moved = PolytopalMeasure(
        lattice=lat,
        atoms=tuple(
            (s.translate(shifts[k % 3]), d)
            for k, (s, d) in enumerate(mu0.atoms)
        ),
    )
    for t in hat_test_functions(c0):  # the atoms refine the pieces
        assert integrate(t, mu1) == integrate(t, moved) == integrate(t, mu0)
    hats = hat_test_functions(c1)
    for t in hats:  # the test's cells refine the atoms
        assert integrate(t, mu0) == integrate(t, moved) == integrate(t, mu1)
    segment = Simplex(((F(0), F(0)), (F(1), F(0))))
    flat = PolytopalMeasure(lattice=lat, atoms=((segment, F(1)),))
    with pytest.raises(NoCommonRefinementError):
        integrate(hats[0], flat)


def test_integrate_empirical_matches_averages(plane_setup):
    lat, _, _, c = plane_setup
    pts = [
        (F(0), F(0)),
        (F(1, 3), F(2, 3)),
        (F(5, 7), F(1, 7)),
        (F(9, 4), F(-1, 2)),
    ]
    e = empirical(lat, pts)
    hats = hat_test_functions(c)
    singles = [integrate_empirical(t, e) for t in hats]
    assert empirical_averages(hats, e) == tuple(singles)
    assert sum(singles) == 1  # hats sum to one at every sample


def test_empirical_reduces_points(line_setup):
    lat, _, _, _ = line_setup
    e = empirical(lat, [(F(7, 3),), (F(-2, 3),)])
    assert e.points == ((F(1, 3),), (F(1, 3),))


def test_empirical_keeps_the_least_scale():
    """On (1/4)Z the points 0, 0 and 1/4 reduce to 0 three times: the
    scale is 1, not the 4 of the points as given, and the measure of the
    measure's own points is the same measure."""
    lat = Lattice(((F(1, 4),),))
    e = empirical(lat, [(F(0),), (F(0),), (F(1, 4),)])
    assert (e.scale, e.coords) == (1, ((0,), (0,), (0,)))
    assert empirical(lat, e.points) == e


def test_empirical_needs_points(line_setup):
    lat, _, _, _ = line_setup
    with pytest.raises(MeasureError):
        empirical(lat, ())


def test_mass_near_haar_box(line_setup):
    lat, _, _, c = line_setup
    mu = haar(lat, c)
    assert mass_near(mu, (F(1, 2),), F(1, 10)) == F(1, 5)


def test_mass_near_haar_box_2d(plane_setup):
    lat, _, _, c = plane_setup
    mu = haar(lat, c)
    assert mass_near(mu, (F(1, 2), F(1, 2)), F(1, 10)) == F(1, 25)


def test_mass_near_counts_points(line_setup):
    lat, _, _, _ = line_setup
    e = empirical(lat, [(F(0),), (F(1, 20),), (F(1, 2),), (F(9, 10),)])
    # box of radius 1/10 at 0 wraps around: catches 0, 1/20, and 9/10
    assert mass_near(e, (F(0),), F(1, 10)) == F(3, 4)


def test_mass_near_wrap_guard(line_setup):
    lat, _, _, c = line_setup
    mu = haar(lat, c)
    with pytest.raises(MeasureError):
        mass_near(mu, (F(0),), F(2, 3))
    _wrap_guard(lat, F(1, 4))


def test_wrap_guard_finds_the_shortest_vector_of_a_skewed_basis():
    """The shortest vector of ((7,1),(3,1)) is g1 - 2 g2 = (1, -1), with
    sup-norm 1, and no {-1,0,1} combination of the generators."""
    lat = Lattice(((F(7), F(1)), (F(3), F(1))))
    with pytest.raises(MeasureError):
        _wrap_guard(lat, F(3, 4))
    _wrap_guard(lat, F(1, 4))


def test_mass_near_haar_box_4d():
    lat, _, _, c = base_complex(4)
    delta = F(1, 8)
    assert mass_near(haar(lat, c), (F(0),) * 4, delta) == (2 * delta) ** 4


def test_haar_box_mass_builds_no_atoms_or_cells():
    """The Haar branch of mass_near clips the kept integer vertex images:
    the measure builds no atoms and its complex no cells."""
    lat, _, _, c = base_complex(2)
    mu = haar(lat, c)
    delta = F(1, 8)
    assert mass_near(mu, (F(1, 3), F(-2, 5)), delta) == (2 * delta) ** 2
    assert "atoms" not in vars(mu) and "cells" not in vars(mu._cells[0])


def _section_fraction(h):
    """The share of a d-simplex's volume where an affine function with
    the vertex values h is <= 0: (-1)^d times the divided difference of
    phi(x) = max(-x, 0)^d at the h, with repeated values taken by
    Hermite's rule, phi's k-th derivative over k! at the repeated value."""
    d = len(h) - 1
    xs = sorted(h)

    def taylor(k, x):
        if x > 0:
            return F(0)
        return (-1) ** k * math.comb(d, k) * (-x) ** (d - k)

    table = [taylor(0, x) for x in xs]
    for span in range(1, d + 1):
        table = [
            taylor(span, xs[i])
            if xs[i] == xs[i + span]
            else (table[i + 1] - table[i]) / (xs[i + span] - xs[i])
            for i in range(d + 1 - span)
        ]
    return (-1) ** d * table[0]


@st.composite
def clip_cases(draw):
    """A nondegenerate d-simplex with small integer vertices, d in 1..5,
    and a half-space whose boundary often passes through vertices and
    whose normal often gives vertices equal values."""
    d = draw(st.integers(1, 5))
    point = st.tuples(*[st.integers(-2, 2).map(F)] * d)
    verts = draw(st.tuples(*[point] * (d + 1)))
    assume(det(tuple(vsub(v, verts[0]) for v in verts[1:])) != 0)
    a = draw(st.tuples(*[st.integers(-2, 2).map(F)] * d))
    assume(any(a))
    values = [dot(a, v) for v in verts]
    beta = draw(
        st.sampled_from(values)
        | st.fractions(min_value=min(values), max_value=max(values), max_denominator=6)
    )
    return verts, a, beta


@given(case=clip_cases())
@settings(max_examples=150, deadline=None)
def test_clip_simplex_matches_the_closed_form_section_volume(case):
    verts, a, beta = case
    d = len(verts) - 1
    s = Simplex(verts)
    # the kernel's integer form: the vertices (v, 1), and a.x <= p / q as
    # q a.x <= p; its pieces are read back as Fraction points
    q = beta.denominator
    pieces = [
        tuple(tuple(F(x, v[-1]) for x in v[:-1]) for v in p)
        for p in _clip(
            tuple((*map(int, v), 1) for v in verts),
            tuple(q * int(x) for x in a),
            beta.numerator,
        )
    ]
    volume = sum(simplex_volume(Simplex(p)) for p in pieces)
    assert volume == simplex_volume(s) * _section_fraction(
        [dot(a, v) - beta for v in verts]
    )
    for p in pieces:
        assert len(p) == d + 1
        for v in p:
            assert dot(a, v) <= beta
            assert min(barycentric_coords(s, v)) >= 0


def test_pushforward_conserves_mass(plane_setup):
    lat, _, _, c = plane_setup
    mu = haar(lat, c)
    double = Lattice(((F(2), F(0)), (F(0), F(2))))
    a = IntegralAffineMap(
        matrix=((F(2), F(0)), (F(0), F(2))),
        offset=(F(1), F(0)),
        source=lat,
        target=double,
    )
    nu = pushforward(mu, a)
    total = sum(d * simplex_k_volume(s) for s, d in nu.atoms)
    assert total == 1


def test_pushforward_rejects_collapsing_map(plane_setup):
    lat, _, _, c = plane_setup
    mu = haar(lat, c)
    a = IntegralAffineMap(
        matrix=((F(1), F(-1)),),
        offset=(F(0),),
        source=lat,
        target=Lattice(((F(1),),)),
    )
    with pytest.raises(NonInjectiveAtomError):
        pushforward(mu, a)


def test_pushforward_of_points(line_setup):
    lat, _, _, _ = line_setup
    e = empirical(lat, [(F(1, 4),), (F(3, 4),)])
    a = IntegralAffineMap(
        matrix=((F(2),),), offset=(F(0),), source=lat, target=lat
    )
    assert pushforward(e, a).points == ((F(1, 2),), (F(1, 2),))


def test_pushforward_rejects_a_lattice_the_map_does_not_send_into_the_target(
    line_setup,
):
    """x -> x on 2Z maps into 2Z, but Haar and points on R/Z are not
    measures on R/2Z: every pushforward path raises."""
    lat, _, _, c = line_setup
    even = Lattice(((F(2),),))
    a = IntegralAffineMap(matrix=((F(1),),), offset=(F(0),), source=even, target=even)
    mu = haar(lat, c)
    for push in (
        lambda: pushforward(mu, a),
        lambda: monte_carlo_pushforward(mu, a, samples=4, seed=0),
        lambda: pushforward(empirical(lat, [(F(1, 4),)]), a),
    ):
        with pytest.raises(MeasureError, match="lattice"):
            push()


def test_monte_carlo_is_seed_deterministic(plane_setup):
    lat, _, _, c = plane_setup
    mu = haar(lat, c)
    ident = IntegralAffineMap(
        matrix=((F(1), F(0)), (F(0), F(1))),
        offset=(F(0), F(0)),
        source=lat,
        target=lat,
    )
    e1 = monte_carlo_pushforward(mu, ident, samples=64, seed=7)
    e2 = monte_carlo_pushforward(mu, ident, samples=64, seed=7)
    e3 = monte_carlo_pushforward(mu, ident, samples=64, seed=8)
    assert e1.points == e2.points
    assert e1.points != e3.points
    assert len(e1.points) == 64


def test_monte_carlo_rejects_bad_sample_count(line_setup):
    lat, _, _, c = line_setup
    mu = haar(lat, c)
    ident = IntegralAffineMap(
        matrix=((F(1),),), offset=(F(0),), source=lat, target=lat
    )
    with pytest.raises(MeasureError):
        monte_carlo_pushforward(mu, ident, samples=0, seed=0)


def _identity_map(lat):
    n = lat.dim
    one = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    return IntegralAffineMap(matrix=one, offset=(F(0),) * n, source=lat, target=lat)


def test_monte_carlo_rejects_a_measure_of_zero_mass():
    """A flat 2-simplex in R^2 is a valid atom of mass 0; sampling the
    measure raises MeasureError, not ZeroDivisionError."""
    lat = standard_lattice(2)
    flat = Simplex(((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1))))
    mu = PolytopalMeasure(lattice=lat, atoms=((flat, F(1)),))
    assert mu._masses == (0,)
    with pytest.raises(MeasureError, match="zero mass"):
        monte_carlo_pushforward(mu, _identity_map(lat), samples=4, seed=0)


def test_monte_carlo_draws_once_per_atom(plane_setup, monkeypatch):
    """Each atom with samples takes all its cuts from one getrandbits
    call, and the points are those of the Fraction path."""
    lat, _, _, c = plane_setup
    made = []

    class Counting(random.Random):
        def __init__(self, seed):
            self.calls = 0
            super().__init__(seed)
            made.append(self)

        def getrandbits(self, k):
            self.calls += 1
            return super().getrandbits(k)

    monkeypatch.setattr(measures, "random", types.SimpleNamespace(Random=Counting))
    mu = haar(lat, c)
    samples = 3 * c.size + 1
    e = monte_carlo_pushforward(mu, _identity_map(lat), samples, seed=5)
    assert len(made) == c.size
    assert [r.calls for r in made] == [1] * c.size
    assert e.points == _oracle_pushforward(mu, _identity_map(lat), samples, 5)


def test_monte_carlo_edge_cases_match_the_fraction_path():
    """The integer sampler against the Fraction one for k = 1 (Haar on
    R/Z under the identity), for flat atoms (k below the source
    dimension, point atoms among them), and for Haar on the J1 complex
    of a skewed basis under a shear with an offset."""
    line = standard_lattice(1)
    plane, space = standard_lattice(2), standard_lattice(3)
    skew = Lattice(_SKEWED)
    unipotent = ((F(1), F(1)), (F(0), F(1)))
    shear = mat_mul(mat_mul(skew.matrix, unipotent), inverse(skew.matrix))

    def points(*rows):
        return tuple(tuple(map(F, row)) for row in rows)

    segments = PolytopalMeasure(lattice=plane, atoms=(
        (Simplex(points((0, 0), (F(1, 2), 0))), F(1)),
        (Simplex(points((F(1, 4), F(1, 4)), (F(1, 4), 1))), F(2)),
        (Simplex(points((0, 0), (F(3, 5), F(4, 5)))), F(1, 3)),
    ))
    half, third, fifth = F(1, 2), F(1, 3), F(1, 5)
    triangles = PolytopalMeasure(lattice=space, atoms=(
        (Simplex(points((0, 0, 0), (half, 0, 0), (0, third, 0))), F(1)),
        (Simplex(points((fifth, 0, half), (1, 0, half), (fifth, 1, half))), F(3)),
    ))
    atoms = PolytopalMeasure(lattice=plane, atoms=(
        (Simplex(points((third, half))), F(1)),
        (Simplex(points((fifth, 0))), F(2)),
    ))
    cases = [
        (
            haar(line, barycentric_triangulation(line.generators, line)),
            _identity_map(line),
        ),
        (atoms, _identity_map(plane)),
        (segments, IntegralAffineMap(
            matrix=points((1, 1), (0, 2)), offset=(third, F(0)),
            source=plane, target=plane,
        )),
        (triangles, IntegralAffineMap(
            matrix=points((1, 0, 0), (0, 1, 1)), offset=(F(0), F(1, 7)),
            source=space, target=plane,
        )),
        (
            haar(skew, barycentric_triangulation(skew.generators, skew)),
            IntegralAffineMap(matrix=shear, offset=(fifth, F(0)), source=skew, target=skew),
        ),
    ]
    for mu, amap in cases:
        for samples, seed in ((1, 0), (7, 3), (40, 11)):
            e = monte_carlo_pushforward(mu, amap, samples, seed)
            assert e.points == _oracle_pushforward(mu, amap, samples, seed)


def test_irrational_edge_volume_raises():
    s = Simplex(((F(0), F(0)), (F(1), F(1))))
    with pytest.raises(
        MeasureError, match=r"simplex 1-volume is irrational .*\(0, 0\), \(1, 1\)"
    ):
        simplex_k_volume(s)


def test_axis_edge_volume():
    s = Simplex(((F(0), F(0)), (F(0), F(3, 4))))
    assert simplex_k_volume(s) == F(3, 4)


def test_mass_near_skewed_basis():
    """On the basis ((1,0),(7,1)) a point near 0 can sit two or more
    generators away from its reduced representative."""
    lat = Lattice(((F(1), F(0)), (F(7), F(1))))
    rng = random.Random(0)
    pts = [
        tuple(F(rng.randint(-40, 40), 200) for _ in range(2)) for _ in range(300)
    ]
    e = empirical(lat, pts)  # every point within sup-distance 1/5 of 0
    assert mass_near(e, (F(0), F(0)), F(1, 4)) == 1
    mu = haar(lat, barycentric_triangulation(lat.generators, lat))
    for center in ((F(0), F(0)), (F(1, 3), F(-2, 5))):
        for delta in (F(1, 4), F(1, 8)):
            assert mass_near(mu, center, delta) == (2 * delta) ** 2 / covolume(lat)


# --- the Fraction Monte Carlo path, the oracle of the integer path --------


def _sample_in_simplex(s: Simplex, rng: random.Random):
    k = s.dim
    cuts = sorted(F(rng.getrandbits(32), 2 ** 32) for _ in range(k))
    weights = []
    prev = F(0)
    for c in cuts:
        weights.append(c - prev)
        prev = c
    weights.append(F(1) - prev)
    p = vscale(weights[0], s.vertices[0])
    for w, v in zip(weights[1:], s.vertices[1:]):
        p = vadd(p, vscale(w, v))
    return p


def _oracle_pushforward(mu, a, samples, seed):
    masses = [d * gram_k_volume(s) for s, d in mu.atoms]
    total = sum(masses, F(0))
    quotas = [m / total * samples for m in masses]
    counts = [math.floor(q) for q in quotas]
    remainders = sorted(
        range(len(quotas)),
        key=lambda i: (quotas[i] - counts[i], i),
        reverse=True,
    )
    for i in remainders[: samples - sum(counts)]:
        counts[i] += 1
    points = []
    for idx, ((s, _), cnt) in enumerate(zip(mu.atoms, counts)):
        rng = random.Random(f"{seed}:{idx}")
        for _ in range(cnt):
            points.append(reduce_mod(a.apply(_sample_in_simplex(s, rng)), a.target))
    return tuple(points)


@functools.lru_cache(maxsize=8)
def _shift_window(lat, delta):
    """Every lattice vector whose coordinates are at most delta times the
    row sum of the inverse basis, plus 1, rounded up, on each axis."""
    reach = [delta * sum(abs(x) for x in row) for row in inverse(lat.matrix)]
    return [
        mat_vec(lat.matrix, k)
        for k in product(*(range(-r - 1, r + 2) for r in map(math.ceil, reach)))
    ]


def _oracle_mass_near(e, center, delta):
    """Points with some translate in the box, trying every shift in a
    window wider than any hit needs: a hit p + k has
    |coords(p) + k - coords(center)| within the reach of
    :func:`_shift_window` on every axis, so k lies within the window
    around the rounded coordinate difference."""
    lat = e.lattice
    window = _shift_window(lat, delta)
    cw = lat.coords(center)
    hits = 0
    for p in e.points:
        k0 = tuple(F(round(x - y)) for x, y in zip(cw, lat.coords(p)))
        q = tuple(x - z for x, z in zip(vadd(p, lat.from_coords(k0)), center))
        hits += any(
            all(abs(x + y) <= delta for x, y in zip(q, lam)) for lam in window
        )
    return F(hits, len(e.points))


def _dyadic_delta(lat):
    """The largest 2^-j, j = 1..11, that the wrap guard of lat allows."""
    for j in range(1, 12):
        try:
            _wrap_guard(lat, F(1, 2 ** j))
        except MeasureError:
            continue
        return F(1, 2 ** j)
    raise AssertionError("no delta passes the wrap guard")


@st.composite
def collapse_setups(draw):
    """A random rational basis of R^n, copies N in 2-3, random simplex
    atoms in the product, and the difference map followed by a random
    integral change of coordinates of the target, with a rational offset."""
    n = draw(st.integers(1, 2))
    copies = draw(st.integers(2, 3))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    gens = draw(
        st.tuples(*[st.tuples(*[entries] * n)] * n).filter(
            lambda g: det(from_columns(g)) != 0
        )
    )
    lat = Lattice(gens)
    src = product_lattice(lat, copies)
    dm = difference_map(lat, copies)
    target = dm.target
    m = target.dim
    u = tuple(
        tuple(F(draw(st.integers(-2, 2))) for _ in range(m)) for _ in range(m)
    )
    assume(u != tuple(tuple(F(int(i == j)) for j in range(m)) for i in range(m)))
    basis = target.matrix
    change = mat_mul(mat_mul(basis, u), inverse(basis))
    offset = tuple(
        draw(st.fractions(min_value=-2, max_value=2, max_denominator=9))
        for _ in range(m)
    )
    amap = IntegralAffineMap(
        matrix=mat_mul(change, dm.matrix),
        offset=offset,
        source=src,
        target=target,
    )
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=8)
    dim = src.dim
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        verts = tuple(
            draw(st.tuples(*[coord] * dim)) for _ in range(dim + 1)
        )
        s = Simplex(verts)
        assume(det(s.edge_matrix()) != 0)
        atoms.append((s, draw(st.fractions(min_value=F(1, 4), max_value=3))))
    mu = PolytopalMeasure(lattice=src, atoms=tuple(atoms))
    return mu, amap


@given(
    setup=collapse_setups(),
    samples=st.integers(1, 24),
    seed=st.integers(0, 2 ** 16),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
@warn_slow_examples(lambda setup, **_: setup[1].target.generators)
def test_monte_carlo_and_mass_near_match_fraction_path(setup, samples, seed, data):
    """The integer sampling and box counting against the Fraction path:
    equal points, and equal box masses with centers at the origin, at a
    sample, and at a box corner from a sample, so that a point lies on
    the boundary."""
    mu, amap = setup
    e = monte_carlo_pushforward(mu, amap, samples, seed)
    assert e.points == _oracle_pushforward(mu, amap, samples, seed)
    assert all(0 <= x < e.scale for w in e.coords for x in w)
    lat = amap.target
    delta = _dyadic_delta(lat)
    p = data.draw(st.sampled_from(e.points))
    signs = data.draw(st.tuples(*[st.sampled_from((-1, 0, 1))] * lat.dim))
    for center in (
        tuple(F(0) for _ in range(lat.dim)),
        p,
        vadd(p, tuple(delta * x for x in signs)),
    ):
        for d in (delta, delta / 3):
            assert mass_near(e, center, d) == _oracle_mass_near(e, center, d)


_SKEWED = ((F(1), F(0)), (F(1, 2), F(3, 2)))


@functools.lru_cache(maxsize=None)
def _sparse_case(case, level):
    """(lattice, J1 test complex at the level, its Haar measure); the
    measure is shared, as one is across the tests of an experiment."""
    if case == "skewed":
        lat = Lattice(_SKEWED)
        b = Polarization(((F(2), F(1)), (F(1), F(2))))
    else:
        lat, b, _, _ = base_complex(int(case[1]))
    c = standard_test_complex(lat, b, level)
    return lat, c, haar(lat, c)


_ENTRY = st.builds(  # a nonzero entry, with no filter to slow shrinking
    lambda sign, p, q: sign * F(p, q),
    st.sampled_from((1, -1)),
    st.integers(1, 15),
    st.integers(1, 5),
)


def _draw_sparse_test(data, c):
    """Random pieces, most of them zero, the others with m = 0 or c = 0 or
    neither; the pieces need not agree across facets."""
    n = c.dim
    pieces = []
    for _ in c.cells:
        kind = data.draw(st.sampled_from(("zero", "zero", "m", "c", "mc")))
        m = (
            data.draw(st.tuples(*[_ENTRY] * n)) if "m" in kind
            else (F(0),) * n
        )
        pieces.append((m, data.draw(_ENTRY) if "c" in kind else F(0)))
    return PiecewiseTest(complex=c, pieces=tuple(pieces))


@given(case=st.sampled_from(("n1", "n2", "skewed", "n3")), data=st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_pieces_match_the_dense_oracles(case, data):
    """integrate on the test's own cells, sup |t| and the empirical
    averages, with zero pieces skipped and the masses kept on the measure,
    against the dense Fraction paths of tests/conftest.py."""
    lat, c, mu = _sparse_case(case, 0)
    assert tuple(s for s, _ in mu.atoms) == c.cells  # the fast path
    t, u = _draw_sparse_test(data, c), _draw_sparse_test(data, c)
    assert integrate(t, mu) == dense_integrate(t, mu)
    assert sup_abs(t) == dense_sup_abs(t)
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=7)
    pts = data.draw(
        st.lists(st.tuples(*[coord] * lat.dim), min_size=1, max_size=12)
    )
    e = empirical(lat, pts)
    assert empirical_averages((t, u), e) == dense_averages((t, u), e)


@given(case=st.sampled_from(("n1", "n2", "skewed")), data=st.data())
@settings(max_examples=30, deadline=None)
def test_sparse_pieces_in_both_refinement_branches(case, data):
    """integrate where the atoms strictly refine the test's cells (branch
    1) and where the test's cells strictly refine the atoms (branch 2),
    against the dense oracle."""
    lat, c0, mu0 = _sparse_case(case, 0)
    _, c1, mu1 = _sparse_case(case, 1)
    t0, t1 = _draw_sparse_test(data, c0), _draw_sparse_test(data, c1)
    assert integrate(t0, mu1) == dense_integrate(t0, mu1)
    assert integrate(t1, mu0) == dense_integrate(t1, mu0)
    assert sup_abs(t1) == dense_sup_abs(t1)


@pytest.mark.parametrize("kind", ["m-only", "c-only"])
def test_a_lone_nonzero_piece_is_not_skipped(kind):
    """Every piece zero but one, which has m = 0 or c = 0: the value comes
    from that piece alone, so a zero test that drops it is caught.  The
    level-0 test meets the fast path and branch 1, the level-1 test
    branch 2."""
    lat, c0, mu0 = _sparse_case("skewed", 0)
    _, c1, mu1 = _sparse_case("skewed", 1)
    piece = (
        ((F(3), F(-1)), F(0)) if kind == "m-only" else ((F(0), F(0)), F(-5, 3))
    )
    for c, mus in ((c0, (mu0, mu1)), (c1, (mu0,))):
        i = len(c.cells) - 1
        pieces = [((F(0), F(0)), F(0))] * len(c.cells)
        pieces[i] = piece
        t = PiecewiseTest(complex=c, pieces=tuple(pieces))
        for mu in mus:
            assert integrate(t, mu) == dense_integrate(t, mu) != 0
        assert sup_abs(t) == dense_sup_abs(t) != 0
        e = empirical(lat, [c.cells[i].barycenter()])
        (avg,) = empirical_averages((t,), e)
        assert avg == dense_averages((t,), e)[0] != 0


def test_haar_on_the_period_keeps_the_cells():
    """unfold to a complex's own period returns the complex, so the atoms
    of haar(lat, c) are the cells of c themselves."""
    lat, c, mu = _sparse_case("skewed", 0)
    assert c.period == lat and unfold(c, lat) is c
    assert len(mu.atoms) == len(c.cells)
    assert all(s is cell for (s, _), cell in zip(mu.atoms, c.cells))


_POINT_BASES = (_SKEWED, ((F(1), F(0)), (F(7), F(1))))


@st.composite
def rational_lattices(draw):
    """A skewed basis of R^2 from _POINT_BASES or a random rational basis
    of R^n, n <= 3."""
    if draw(st.booleans()):
        return Lattice(draw(st.sampled_from(_POINT_BASES)))
    n = draw(st.integers(1, 3))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return Lattice(draw(
        st.tuples(*[st.tuples(*[entries] * n)] * n).filter(
            lambda g: det(from_columns(g)) != 0
        )
    ))


@given(lat=rational_lattices(), level=st.integers(0, 1), data=st.data())
@settings(max_examples=30, deadline=None)
@warn_slow_examples(lambda lat, **_: lat.generators)
def test_integer_test_forms_match_the_fraction_solve(lat, level, data):
    """Every hat and the interpolant of random vertex values are built as
    integer pieces over one denominator and build no Fraction pieces until
    read.  Read, the piece on each cell is the Fraction solve of rows
    [v | 1] at the cell's vertices, and zero on cells a hat misses."""
    c = dyadic_refine(barycentric_triangulation(lat.generators, lat), level)
    orbits = vertex_orbits(c)
    value = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    values = {o: data.draw(value) for o in orbits}
    hats = hat_test_functions(c)
    t = interpolate_test(c, values)
    assert not any("pieces" in vars(u) for u in hats + (t,))
    n = c.dim
    zero = ((F(0),) * n, F(0))
    for i, cell in enumerate(c.cells):
        rows = tuple(v + (F(1),) for v in cell.vertices)
        keys = [reduce_mod(v, lat) for v in cell.vertices]
        sol = fraction_solve(rows, [values[k] for k in keys])
        assert t.pieces[i] == (sol[:n], sol[n])
        for o, hat in zip(orbits, hats):
            if o in keys:
                sol = fraction_solve(rows, [F(int(k == o)) for k in keys])
                assert hat.pieces[i] == (sol[:n], sol[n])
            else:
                assert hat.pieces[i] == zero


@given(lat=rational_lattices(), data=st.data())
@settings(max_examples=40, deadline=None)
@warn_slow_examples(lambda lat, **_: lat.generators)
def test_point_form_matches_the_fraction_definitions(lat, data):
    """Empirical measures kept as integer period coordinates against the
    Fraction definitions, from unreduced rational points: the points of
    empirical and torsion_grid against reduce_mod, mass_near against the
    every-shift count, and empirical_averages against the per-point
    oracle, for tests on one complex and on two, and for a measure on a
    sublattice of the tests' period."""
    n = lat.dim
    coord = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    pts = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=10))
    e = empirical(lat, pts)
    assert e.points == tuple(reduce_mod(p, lat) for p in pts)
    assert all(0 <= x < e.scale for w in e.coords for x in w)
    m = data.draw(st.integers(1, 4))
    assert torsion_grid(lat, m).points == tuple(
        reduce_mod(lat.from_coords(tuple(F(x, m) for x in k)), lat)
        for k in product(range(m), repeat=n)
    )
    delta = _dyadic_delta(lat)
    signs = data.draw(st.tuples(*[st.sampled_from((-1, 0, 1))] * n))
    p = e.points[0]
    for center in (
        (F(0),) * n,
        p,
        pts[0],
        vadd(p, tuple(delta * x for x in signs)),
    ):
        for d in (delta, delta / 3):
            assert mass_near(e, center, d) == _oracle_mass_near(e, center, d)
    c = barycentric_triangulation(lat.generators, lat)
    t, u = _draw_sparse_test(data, c), _draw_sparse_test(data, c)
    fine = _draw_sparse_test(data, dyadic_refine(c, 1))
    sub = Lattice(tuple(vscale(F(2), g) for g in lat.generators))
    for tests in ((t, u), (t, fine)):
        for e2 in (e, empirical(sub, pts)):
            assert empirical_averages(tests, e2) == dense_averages(tests, e2)


@given(lat=rational_lattices(), seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=25, deadline=None)
@warn_slow_examples(lambda lat, **_: lat.generators)
def test_box_counts_match_the_every_shift_oracle(lat, seed, data):
    """mass_near of 50-200 points against the every-shift count, at delta
    and delta / 3, with centers outside [0, 1)^n and on a corner of the
    box around a point, moved by a random period.  Most points lie within
    2 delta of a translate of the first center, at steps of delta / 6, so
    some sit on the boundary of the box.  On the basis ((1,0),(7,1)) one
    period-coordinate axis of the box spans a whole period, so the
    prefilter keeps every point there."""
    n = lat.dim
    rng = random.Random(seed)
    delta = _dyadic_delta(lat)
    if lat.generators == _POINT_BASES[1]:
        assert max(sum(map(abs, row)) for row in inverse(lat.matrix)) * delta >= 1

    def translate(p):
        k = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        return vadd(p, lat.from_coords(k))

    far = tuple(F(rng.randint(-48, 48), 16) for _ in range(n))
    pts = [
        vadd(translate(far), tuple(rng.randint(-12, 12) * delta / 6 for _ in far))
        if rng.random() < 0.7
        else tuple(F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in far)
        for _ in range(data.draw(st.integers(50, 200)))
    ]
    e = empirical(lat, pts)
    signs = tuple(rng.choice((-1, 1)) for _ in range(n))
    for d in (delta, delta / 3):
        corner = vadd(pts[-1], tuple(d * x for x in signs))
        for center in (far, translate(corner)):
            assert mass_near(e, center, d) == _oracle_mass_near(e, center, d)


def _oracle_box_mass(mu, center, delta):
    """The sum of density times fraction_box_clip_volume over every atom
    translate by L k that can meet the box: a point p of both has
    coords(p) - k in the atom's coordinate range and coords(p) in that of
    the box corners, which bounds each k_m."""
    lat = mu.lattice
    corners = [
        lat.coords(vadd(center, tuple(delta * x for x in signs)))
        for signs in product((-1, 1), repeat=lat.dim)
    ]
    total = F(0)
    for s, dens in mu.atoms:
        vs = [lat.coords(v) for v in s.vertices]
        ranges = [
            range(
                math.ceil(min(p[m] for p in corners) - max(v[m] for v in vs)),
                math.floor(max(p[m] for p in corners) - min(v[m] for v in vs)) + 1,
            )
            for m in range(lat.dim)
        ]
        for k in product(*ranges):
            lam = lat.from_coords(tuple(map(F, k)))
            total += dens * fraction_box_clip_volume(s.translate(lam), center, delta)
    return total


@st.composite
def box_mass_cases(draw):
    """A rational basis of R^n, n <= 3, skewed ones among them; Haar on
    its level-0 J1 complex or 1-3 random full-dimensional atoms with
    random densities; and a center whose first coordinate lies outside
    [0, 1)."""
    lat = draw(rational_lattices())
    n = lat.dim
    if draw(st.booleans()):
        mu = haar(lat, barycentric_triangulation(lat.generators, lat))
    else:
        coord = st.fractions(min_value=-1, max_value=1, max_denominator=6)
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            s = Simplex(tuple(draw(st.tuples(*[coord] * n)) for _ in range(n + 1)))
            assume(det(s.edge_matrix()) != 0)
            atoms.append((s, draw(st.fractions(min_value=F(1, 4), max_value=3))))
        mu = PolytopalMeasure(lattice=lat, atoms=tuple(atoms))
    unit = st.fractions(min_value=0, max_value=1, max_denominator=7)
    center = draw(st.tuples(*[unit] * n))
    far = draw(st.sampled_from((-3, -2, 1, 2)))
    return mu, (center[0] + far,) + center[1:]


@given(case=box_mass_cases(), data=st.data())
@settings(max_examples=40, deadline=None)
@warn_slow_examples(lambda case, **_: case[0].lattice.generators)
def test_box_masses_match_the_fraction_clip_oracle(case, data):
    """mass_near on the integer clipping kernel against the Fraction clip
    of every atom translate, at delta and delta / 3; and the kernel's
    pieces on both sides of a hyperplane, one often through a vertex, sum
    to the atom's volume, on vertices of unequal scales."""
    mu, center = case
    delta = _dyadic_delta(mu.lattice)
    for d in (delta, delta / 3):
        assert mass_near(mu, center, d) == _oracle_box_mass(mu, center, d)
    s = data.draw(st.sampled_from(mu.atoms))[0]
    n = s.dim
    a = data.draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))
    values = [dot(a, v) for v in s.vertices]
    lo, hi = min(values), max(values)
    beta = data.draw(
        st.sampled_from(values)
        | st.fractions(0, 1, max_denominator=6).map(lambda x: lo + x * (hi - lo))
    )
    verts = []
    for v in s.vertices:
        w = math.lcm(*(x.denominator for x in v))
        verts.append((*(int(x * w) for x in v), w))
    q, p = beta.denominator, beta.numerator
    cuts = [
        _clip(tuple(verts), tuple(sign * q * x for x in a), sign * p)
        for sign in (1, -1)
    ]
    whole = _volume(tuple(verts))
    assert whole == math.factorial(n) * simplex_volume(s)
    assert sum(_volume(piece) for side in cuts for piece in side) == whole


@given(n=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_n_volume_matches_the_gram_path(n, data):
    """For k = n, |det E| / n! equals sqrt(det(E E^T)) / n!, whichever the
    orientation of the simplex."""
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    verts = tuple(data.draw(st.tuples(*[coord] * n)) for _ in range(n + 1))
    s = Simplex(verts)
    flipped = Simplex((verts[1], verts[0]) + verts[2:])
    assume(det(s.edge_matrix()) != 0)
    assert det(s.edge_matrix()) * det(flipped.edge_matrix()) < 0
    assert simplex_k_volume(s) == simplex_k_volume(flipped) == gram_k_volume(s)


def test_masses_are_built_once_per_measure(plane_setup, monkeypatch):
    """On a complex with no recorded J1 level, one volume per cell shape,
    once per measure."""
    lat, _, _, j1 = plane_setup
    c = PeriodicComplex(j1.period, j1.cells)
    calls = []
    real = measures.simplex_k_volume
    monkeypatch.setattr(
        measures, "simplex_k_volume", lambda s: calls.append(s) or real(s)
    )
    mu = haar(lat, c)
    hats = hat_test_functions(j1)
    for t in hats:
        integrate(t, mu)
    ident = IntegralAffineMap(
        matrix=((F(1), F(0)), (F(0), F(1))),
        offset=(F(0), F(0)),
        source=lat,
        target=lat,
    )
    monte_carlo_pushforward(mu, ident, samples=8, seed=0)
    # one volume per cell shape: the edges from the first vertex
    shapes = {
        tuple(vsub(v, s.vertices[0]) for v in s.vertices[1:])
        for s, _ in mu.atoms
    }
    assert len(calls) == len(shapes) < len(mu.atoms)
    integrate(hats[0], haar(lat, c))  # a new measure builds its own
    assert len(calls) == 2 * len(shapes)


def test_j1_haar_masses_take_no_volume(monkeypatch):
    """Haar masses on a complex with a J1 level call no volume function
    and equal the determinant path, at levels 0 and 1 of a skewed basis
    and at level 0 of Z^3."""
    calls = []
    real = measures.simplex_k_volume
    monkeypatch.setattr(
        measures, "simplex_k_volume", lambda s: calls.append(s) or real(s)
    )
    skew, space = Lattice(_SKEWED), standard_lattice(3)
    skew_c = barycentric_triangulation(skew.generators, skew)
    for lat, c in (
        (skew, skew_c),
        (skew, dyadic_refine(skew_c, 1)),
        (space, barycentric_triangulation(space.generators, space)),
    ):
        mu = haar(lat, c)
        assert c._j1 is not None
        assert mu._masses == tuple(
            simplex_volume(s) / covolume(lat) for s in c.cells
        )
        assert calls == []
        assert sum(mu._masses) == 1


def test_integrate_reads_only_integer_state():
    """integrate reads the kept masses, the integer vertex coordinates and
    the tests' integer forms: in branch 1 and on the test's own cells it
    builds no atoms, no cells and no Fraction pieces."""
    lat, _, _, c = base_complex(2)
    mu, own = haar(lat, c), haar(c.period, c)
    hats = hat_test_functions(c)[:2]
    values = [(integrate(t, mu), integrate(t, own)) for t in hats]
    assert not {"atoms", "cells"} & (set(vars(mu)) | set(vars(own)))
    assert "cells" not in vars(c) and "cells" not in vars(mu._cells[0])
    assert not any("pieces" in vars(t) for t in hats)
    assert values == [(dense_integrate(t, mu), dense_integrate(t, own)) for t in hats]


def test_measure_derived_state_is_outside_equality_hash_and_repr(plane_setup):
    """Masses and the atoms' complex change no ==, hash or repr of a
    measure; the complex _measure seeds is returned as it is."""
    lat, _, _, c = plane_setup
    mu, other = haar(lat, c), haar(lat, c)
    before = hash(mu), repr(mu)
    assert mu._cells[0] is c
    mu._masses
    assert "_masses" in vars(mu)
    assert "_masses" not in vars(other)
    assert mu == other
    assert before == (hash(mu), repr(mu)) == (hash(other), repr(other))
    hand = PolytopalMeasure(lat, mu.atoms)
    assert "_cells" not in vars(hand)
    assert hand == mu and hand._masses == mu._masses
    assert before == (hash(hand), repr(hand))


def test_points_of_the_wrong_length_are_rejected(plane_setup):
    """A point or box center whose length is not the lattice dimension
    raises DimensionMismatchError on every path that reads one."""
    lat, _, _, c = plane_setup
    grid = torsion_grid(lat, 8)
    mu = haar(lat, c)
    assert mass_near(grid, (F(0), F(0)), F(1, 8)) == F(9, 64)
    for bad in ((F(1, 3),), (F(0),), (F(0), F(0), F(5))):
        with pytest.raises(DimensionMismatchError):
            lat.integer_coords([bad])
        with pytest.raises(DimensionMismatchError):
            empirical(lat, [bad])
        with pytest.raises(DimensionMismatchError):
            locate_cell(c, bad)
        with pytest.raises(DimensionMismatchError):
            mass_near(grid, bad, F(1, 8))
        with pytest.raises(DimensionMismatchError):
            mass_near(mu, bad, F(1, 8))


def test_malformed_empirical_coordinates_are_rejected(plane_setup):
    """Coordinates of a length other than the lattice dimension raise
    DimensionMismatchError, and a scale below 1 raises MeasureError,
    when the measure is made, not when its points are read."""
    lat = plane_setup[0]
    e = EmpiricalMeasure(lat, 2, ((0, 1), (1, 0)))
    assert e.points[1] == lat.from_coords((F(1, 2), F(0)))
    for bad in (((0, 0, 0),), ((0,),), ((0, 0), (1,)), ((1, 1), (0, 0, 1))):
        with pytest.raises(DimensionMismatchError):
            EmpiricalMeasure(lat, 2, bad)
    for scale in (0, -1):
        with pytest.raises(MeasureError):
            EmpiricalMeasure(lat, scale, ((0, 0),))


def test_empirical_coordinates_outside_the_scale_are_rejected():
    """A coordinate outside [0, scale) raises MeasureError: mass_near
    assumes reduced points, and gave the point 5/4 (coordinate 5 at scale
    4) no mass in the box of radius 1/8 around its reduction 1/4."""
    lat = standard_lattice(1)
    for bad in (((5,),), ((0,), (4,)), ((-1,),)):
        with pytest.raises(MeasureError):
            EmpiricalMeasure(lat, 4, bad)
    reduced = EmpiricalMeasure(lat, 4, ((1,),))
    assert reduced == empirical(lat, [(F(5, 4),)])
    assert mass_near(reduced, (F(1, 4),), F(1, 8)) == 1
    assert EmpiricalMeasure(lat, 4, ((0,), (3,))).coords == ((0,), (3,))


@st.composite
def pushforward_setups(draw):
    """A measure over a rational basis of R^n, n <= 3, and an integral
    affine map into a rational lattice of R^m, m <= 3, whose linear part
    L_T U L_S^-1, U an integer matrix, may collapse atoms.  The measure is
    Haar on the level-0 J1 complex of the basis, or atoms of one dimension
    k <= n: full or flat, with orthogonal axis edges (a rational
    k-volume), period vectors as edges, or random edges (often an
    irrational k-volume).  The target is often Z^m, where period edges
    have integer images."""
    src = draw(rational_lattices())
    target = draw(rational_lattices() | st.integers(1, 3).map(standard_lattice))
    n, m = src.dim, target.dim
    u = tuple(tuple(F(draw(st.integers(-2, 2))) for _ in range(n)) for _ in range(m))
    amap = IntegralAffineMap(
        matrix=mat_mul(mat_mul(target.matrix, u), inverse(src.matrix)),
        offset=tuple(
            draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
            for _ in range(m)
        ),
        source=src,
        target=target,
    )
    if draw(st.booleans()):
        return haar(src, barycentric_triangulation(src.generators, src)), amap
    k = draw(st.integers(0, n) | st.just(min(m, n)))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    nonzero = st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4)
    small = st.integers(-2, 2)
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        v0 = draw(st.tuples(*[coord] * n))
        kind = draw(st.sampled_from(("axes", "periods", "random")))
        if kind == "axes":
            axes = draw(st.permutations(range(n)))[:k]
            edges = [
                tuple(draw(nonzero) if j == i else F(0) for j in range(n))
                for i in axes
            ]
        elif kind == "periods":  # integer images under a standard target
            edges = [
                src.from_coords(tuple(F(x) for x in draw(st.tuples(*[small] * n))))
                for _ in range(k)
            ]
        else:
            edges = [draw(st.tuples(*[coord] * n)) for _ in range(k)]
        s = Simplex((v0,) + tuple(vadd(v0, e) for e in edges))
        atoms.append((s, draw(st.fractions(min_value=F(1, 4), max_value=3))))
    return PolytopalMeasure(lattice=src, atoms=tuple(atoms)), amap


_Z2 = standard_lattice(2)


@given(setup=pushforward_setups())
@example(  # the first atom collapses, the second has irrational image
    setup=(
        PolytopalMeasure(
            lattice=_Z2,
            atoms=(
                (Simplex(((F(0), F(0)), (F(0), F(1)))), F(1)),
                (Simplex(((F(0), F(0)), (F(1), F(0)))), F(1)),
            ),
        ),
        IntegralAffineMap(
            matrix=((F(1), F(0)), (F(1), F(0))),
            offset=(F(0), F(0)),
            source=_Z2,
            target=_Z2,
        ),
    )
)
@settings(max_examples=80, deadline=None)
def test_pushforward_matches_the_fraction_path(setup):
    """The integer pushforward against the Fraction one of
    tests/conftest.py: the same atoms in the same order with the same
    densities, or the same exception type, the atoms being checked for
    injectivity in order."""
    mu, amap = setup
    try:
        expected = fraction_pushforward(mu, amap)
    except MeasureError as exc:
        with pytest.raises(MeasureError) as info:
            pushforward(mu, amap)
        assert type(info.value) is type(exc)
        return
    nu = pushforward(mu, amap)
    assert nu.lattice == expected.lattice
    assert nu.dim == expected.dim
    assert nu.atoms == expected.atoms


def test_refinement_branches_build_no_atoms_or_cells():
    """integrate through branch 1 and branch 2 reads the integer forms
    only: the measure builds no atoms and the test's complex no cells."""
    lat = Lattice(_SKEWED)
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    c0, c1 = (standard_test_complex(lat, b, j) for j in (0, 1))
    mu0, mu1 = haar(lat, c0), haar(lat, c1)
    t0, t1 = hat_test_functions(c0)[0], hat_test_functions(c1)[0]
    assert integrate(t0, mu1) == integrate(t0, mu0)  # branch 1
    assert integrate(t1, mu0) == integrate(t1, mu1)  # branch 2
    for mu in (mu0, mu1):
        assert mu.dim == 2 and "atoms" not in vars(mu)
    for t in (t0, t1):
        assert "cells" not in vars(t.complex)


def _count_locations(monkeypatch):
    """The list that gets one entry per find_cell_containing_simplex call."""
    calls = []
    real = _ContainmentIndex.find_cell_containing_simplex
    monkeypatch.setattr(
        _ContainmentIndex,
        "find_cell_containing_simplex",
        lambda self, *args: calls.append(args) or real(self, *args),
    )
    return calls


def test_branch_2_locates_the_test_cells_once_per_measure(monkeypatch):
    """The 16 level-1 hats of barycentric_triangulation on the skewed
    basis against level-0 Haar: each hat's first atom is in no test cell
    (16 calls, branch 1), and branch 2 locates the 32 test cells in the
    atoms once for all the hats, not once per hat (512 calls).  Every
    value equals the dense oracle."""
    lat = Lattice(_SKEWED)
    c0 = barycentric_triangulation(lat.generators, lat)
    mu0 = haar(lat, c0)
    hats = hat_test_functions(dyadic_refine(c0, 1))
    calls = _count_locations(monkeypatch)
    values = [integrate(t, mu0) for t in hats]
    assert len(hats) == 16 and len(calls) == 48
    monkeypatch.undo()
    assert values == [dense_integrate(t, mu0) for t in hats]


def test_repeated_points_are_located_once(monkeypatch):
    """20 copies each of 3 points: the averages are the dense oracle's,
    from 3 point locations.  A torsion grid, whose points are distinct,
    comes with its distinct points kept, each counted once."""
    lat, c, _ = _sparse_case("skewed", 0)
    tests = hat_test_functions(c)
    pts = [c.cells[i].barycenter() for i in (0, 3, 5)] * 20
    e = empirical(lat, pts)
    assert e._distinct == (e.coords[:3], (20, 20, 20))
    calls = _count_locations(monkeypatch)
    averages = empirical_averages(tests, e)
    assert len(calls) == 3
    monkeypatch.undo()
    assert averages == dense_averages(tests, e)
    grid = torsion_grid(lat, 3)
    kept = vars(grid)["_distinct"]
    del grid.__dict__["_distinct"]
    assert kept == grid._distinct == (grid.coords, (1,) * 9)
