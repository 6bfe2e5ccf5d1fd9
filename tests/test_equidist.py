import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from troptorus import (
    EmpiricalMeasure,
    ExperimentConfig,
    ExperimentError,
    Simplex,
    collapse_experiment,
    difference_map,
    discrepancy,
    empirical,
    empirical_averages,
    fixed_denominator_obstruction,
    haar,
    hat_test_functions,
    integrate_empirical,
    product_lattice,
    run_equidistribution,
    torsion_grid,
)
from troptorus.equidist import (
    _grid_points_mod,
    _torus_distance,
    standard_test_complex,
)
from troptorus.lattice import Lattice, Polarization, covolume, reduce_mod
from troptorus.linalg import det, from_columns
from tests.conftest import base_complex

F = Fraction


@pytest.mark.parametrize("n,m", [(1, 5), (2, 4), (3, 3)])
def test_torsion_grid_size(n, m):
    lat, _, _, _ = base_complex(n)
    assert len(torsion_grid(lat, m).points) == m ** n


def test_grid_points_and_averages_match_definitions():
    """torsion_grid against reduce_mod of the points k/m, and the grouped
    empirical_averages against one integrate_empirical per test, on a
    skewed lattice, also with points far outside the fundamental cell."""
    lat = Lattice(((F(1), F(0)), (F(1, 2), F(3, 2))))
    m = 6
    grid = torsion_grid(lat, m).points
    assert list(grid) == [
        reduce_mod(lat.from_coords((F(a, m), F(b, m))), lat)
        for a, b in product(range(m), repeat=2)
    ]
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    c = standard_test_complex(lat, b, 0)
    hats = hat_test_functions(c)
    rnd = random.Random(7)
    pts = tuple(
        (F(rnd.randint(-40, 40), rnd.randint(1, 9)), F(rnd.randint(-9, 9), 7))
        for _ in range(8)
    )
    # the measure as given, unreduced: averages reduce each point
    for e in (torsion_grid(lat, 4), EmpiricalMeasure(lattice=lat, points=pts)):
        singles = tuple(integrate_empirical(t, e) for t in hats)
        assert empirical_averages(hats, e) == singles


def test_torsion_grid_rejects_zero(line_setup):
    lat, _, _, _ = line_setup
    with pytest.raises(ExperimentError):
        torsion_grid(lat, 0)


def test_discrepancy_frozen_values(line_setup):
    lat, b, _, _ = line_setup
    c = standard_test_complex(lat, b, 1)
    tests = hat_test_functions(c)
    mu = haar(lat, c)
    # a single point at 0 against the level-1 hats: worst hat is the one
    # peaked at 0 with mass 1/4, giving |1 - 1/4| / (1 + 1) = 3/8
    assert discrepancy(torsion_grid(lat, 1), mu, tests) == F(3, 8)
    # the order-4 grid hits every level-1 vertex once: exact agreement
    assert discrepancy(torsion_grid(lat, 4), mu, tests) == 0


def test_discrepancy_needs_tests(line_setup):
    lat, b, _, _ = line_setup
    c = standard_test_complex(lat, b, 1)
    with pytest.raises(ExperimentError):
        discrepancy(torsion_grid(lat, 2), haar(lat, c), ())


def test_equidistribution_small_run(line_setup):
    lat, b, _, _ = line_setup
    cfg = ExperimentConfig(
        lattice=lat, polarization=b, test_level=1, grid_orders=(8, 16, 32)
    )
    report = run_equidistribution(cfg)
    assert report.verdict == "pass"
    discs = {m: d for m, d, _ in report.entries}
    for m in (8, 16):
        # misaligned dyadic grids: exact quartering per doubling
        assert discs[2 * m] * 4 == discs[m] or discs[m] == 0


def test_equidistribution_quartering_2d():
    gram = ((F(2), F(1)), (F(1), F(2)))
    lat, b, _, _ = base_complex(2, gram)
    cfg = ExperimentConfig(
        lattice=lat, polarization=b, test_level=1, grid_orders=(8, 16, 32)
    )
    report = run_equidistribution(cfg)
    assert report.verdict == "pass"
    for _, _, r in report.ratios:
        assert r == F(1, 4)


def test_obstruction_bounds(line_setup):
    lat, _, _, _ = line_setup
    bound1, _, int1 = fixed_denominator_obstruction(lat, 1, 1)
    assert bound1 == F(1, 8) and int1 == F(1, 4)
    assert bound1 >= F(1, 12)
    bound2, _, _ = fixed_denominator_obstruction(lat, 2, 1)
    assert bound2 == F(1, 8)
    bound4, _, _ = fixed_denominator_obstruction(lat, 4, 2)
    assert bound4 == F(1, 16)


def test_obstruction_beats_every_grid_measure(line_setup):
    lat, b, _, _ = line_setup
    e_den = 2
    bound, witness, _ = fixed_denominator_obstruction(lat, e_den, 1)
    c = witness.complex
    mu = haar(lat, c)
    grid_pts = torsion_grid(lat, e_den).points
    rng = random.Random(20260826)
    for _ in range(100):
        pts = [rng.choice(grid_pts) for _ in range(rng.randint(1, 12))]
        e = empirical(lat, pts)
        assert discrepancy(e, mu, (witness,)) >= bound


def test_obstruction_exhausts(line_setup):
    lat, _, _, _ = line_setup
    with pytest.raises(ExperimentError):
        fixed_denominator_obstruction(lat, 128, 1)


def _grid_class_count(lat, e):
    """|(1/e)Z^n + lat : lat|, the covolume of lat over that of the sum,
    which is the gcd of the maximal minors of the generators of the sum
    scaled to integers, over the scale to the n."""
    n = lat.dim
    cols = [tuple(F(int(i == j), e) for i in range(n)) for j in range(n)]
    cols += list(lat.generators)
    s = math.lcm(*(x.denominator for c in cols for x in c))
    minors = (
        abs(det(from_columns([[s * x for x in cols[k]] for k in pick])))
        for pick in combinations(range(2 * n), n)
    )
    return covolume(lat) * s ** n / math.gcd(*(int(m) for m in minors))


@pytest.mark.parametrize(
    "gens,e",
    [
        (((F(11, 10),),), 1),
        (((F(1),),), 1),
        (((F(1), F(0)), (F(1, 2), F(3, 2))), 2),
        (((F(7, 3), F(1)), (F(1, 2), F(5, 4))), 1),
    ],
)
def test_grid_points_mod_gives_every_class(gens, e):
    """One point per class of (1/e)Z^n modulo the lattice: the distinct
    reduce_mod classes of the grid points in a wide box, as many as the
    index of the lattice in its sum with the grid."""
    lat = Lattice(gens)
    n = lat.dim
    reach = 50 if n == 1 else 12
    want = {
        reduce_mod(tuple(F(x, e) for x in k), lat)
        for k in product(range(-reach * e, reach * e), repeat=n)
    }
    got = _grid_points_mod(lat, e)
    assert list(got) == sorted(want)
    assert len(got) == _grid_class_count(lat, e)
    if gens == ((F(11, 10),),):
        assert len(got) == 11


def test_torus_distance_on_a_skewed_basis():
    """(7/2, 1/2) is 3 times the first generator of ((1,0),(7,1)) away
    from (1/2, 1/2)."""
    lat = Lattice(((F(1), F(0)), (F(7), F(1))))
    p = reduce_mod((F(0), F(0)), lat)
    q = reduce_mod((F(7, 2), F(1, 2)), lat)
    assert _torus_distance(lat, p, q) == F(1, 2)


def test_product_and_difference_shapes(plane_setup):
    lat, _, _, _ = plane_setup
    p3 = product_lattice(lat, 3)
    assert p3.dim == 6
    amap = difference_map(lat, 3)
    assert len(amap.matrix) == 4
    v = (F(1), F(2), F(4), F(8), F(16), F(32))
    assert amap.apply(v) == (F(3), F(6), F(12), F(24))


def test_difference_map_kills_diagonal(line_setup):
    lat, _, _, _ = line_setup
    amap = difference_map(lat, 2)
    for u in (F(0), F(1, 3), F(7, 5)):
        assert amap.apply((u, u)) == (F(0),)


def test_collapse_small_run(line_setup):
    lat, _, _, _ = line_setup
    face = Simplex(((F(0), F(0)), (F(1, 2), F(1, 2))))
    report = collapse_experiment(
        lat,
        face,
        copies=2,
        delta_sequence=(F(1, 4), F(1, 8), F(1, 16)),
        samples=2000,
        seed=5,
    )
    assert report.verdict == "pass"
    assert report.details["kernel_image_is_origin"]
    masses = [m for _, m in report.entries]
    assert masses[0] > masses[1] > masses[2] > 0


def test_collapse_rejects_offdiagonal_face(line_setup):
    lat, _, _, _ = line_setup
    face = Simplex(((F(0), F(1, 4)), (F(1, 2), F(1, 2))))
    with pytest.raises(ExperimentError):
        collapse_experiment(lat, face, 2, (F(1, 4),), samples=10, seed=0)


def test_collapse_needs_two_copies(line_setup):
    lat, _, _, _ = line_setup
    face = Simplex(((F(0),),))
    with pytest.raises(ExperimentError):
        collapse_experiment(lat, face, 1, (F(1, 4),), samples=10, seed=0)
