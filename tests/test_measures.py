from fractions import Fraction

import pytest

from troptorus import (
    EmpiricalMeasure,
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
from troptorus.equidist import standard_test_complex
from troptorus.lattice import Lattice
from troptorus.measures import _wrap_guard
from troptorus.paf import interpolate_test, vertex_orbits
from tests.conftest import base_complex

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


def test_empirical_needs_points(line_setup):
    lat, _, _, _ = line_setup
    with pytest.raises(MeasureError):
        EmpiricalMeasure(lattice=lat, points=())


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


def test_irrational_edge_volume_raises():
    s = Simplex(((F(0), F(0)), (F(1), F(1))))
    with pytest.raises(MeasureError):
        simplex_k_volume(s)


def test_axis_edge_volume():
    s = Simplex(((F(0), F(0)), (F(0), F(3, 4))))
    assert simplex_k_volume(s) == F(3, 4)
