import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from troptorus import (
    Cocycle,
    NotCertifiedError,
    PafError,
    auto_epsilon,
    build_model_function,
    change_period,
    check_strongly_convex,
    choose_twist_bound,
    evaluate,
    evaluate_test,
    hat_test_functions,
    interpolate_test,
    quadratic,
    sup_distance_to_quadratic,
    tate_iterate,
    twist,
)
from troptorus import complexes, paf
from troptorus import test_sup_abs as sup_abs
from troptorus.complexes import (
    PeriodicComplex,
    Simplex,
    adjacent_pairs,
    barycentric_triangulation,
    dyadic_refine,
    unfold,
)
from troptorus.equidist import standard_test_complex
from troptorus.lattice import (
    Lattice,
    Polarization,
    covolume,
    identity_polarization,
    orthogonalize,
    reduce_mod,
    superlattice,
)
from troptorus.linalg import (
    DimensionMismatchError,
    SingularMatrixError,
    det,
    dot,
    from_columns,
    mat_vec,
    vadd,
    vscale,
    vsub,
)
from troptorus.measures import haar, integrate
from troptorus.paf import TestFunction as PiecewiseTest
from troptorus.paf import (
    CocycleFunction,
    _Gap,
    _epsilon_lines,
    _fraction_piece,
    _interpolate_piece,
    _model_parts,
    face_slacks,
    locate_cell,
    vertex_orbits,
)
from tests.conftest import (
    barycentric_coords,
    base_complex,
    dense_integrate,
    fraction_certificate,
    fraction_change_period,
    fraction_evaluate,
    fraction_evaluate_test,
    fraction_model_function,
    fraction_solve,
    fraction_tate_step,
    fraction_twist,
    fraction_twist_bound,
    pair_slack,
    verify_continuity,
    verify_periodicity,
    warn_slow_examples,
)
from tests.test_lattice import rational_lattices

F = Fraction

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def test_model_pieces_frozen(line_model):
    _, f = line_model
    assert f.pieces == (((F(3, 8),), F(0)), ((F(5, 8),), F(-1, 8)))


def test_point_evaluation_uses_cocycle(line_model):
    _, f = line_model
    assert evaluate(f, (F(0),)) == 0
    assert evaluate(f, (F(1, 2),)) == F(3, 16)
    # one period up: f(u+1) = f(u) + q(1) + b(1, u)
    assert evaluate(f, (F(3, 2),)) == F(19, 16)
    assert evaluate(f, (F(-1, 2),)) == F(3, 16) + F(1, 2) - F(1, 2)


@given(u=small_rationals, k=st.integers(min_value=-3, max_value=3))
@settings(max_examples=50, deadline=None)
def test_cocycle_translation_law(line_model, u, k):
    z, f = line_model
    lam = F(k)
    lhs = evaluate(f, (u + lam,))
    rhs = evaluate(f, (u,)) + quadratic(z.polarization, (lam,)) + lam * u
    assert lhs == rhs


def test_certificate_frozen_slacks(line_model):
    _, f = line_model
    cert = check_strongly_convex(f)
    assert cert.passed
    assert cert.min_slack == F(1, 4)
    assert sorted(cert.slacks.values()) == [F(1, 4), F(3, 4)]


@pytest.mark.parametrize(
    "eps,passed",
    [
        (F(1, 1000), True),
        (F(1, 8), True),
        (F(1, 4) - F(1, 1000), True),
        (F(1, 4), False),
        (F(1, 3), False),
        (F(1), False),
    ],
)
def test_certified_region_boundary_1d(line_setup, eps, passed):
    _, b, _, c = line_setup
    z = Cocycle(polarization=b, linear=(F(0),))
    cert = check_strongly_convex(build_model_function(c, z, eps))
    assert cert.passed is passed
    if eps == F(1, 4):
        assert cert.min_slack == 0
        assert cert.witness_slack == 0


@pytest.mark.parametrize("n", [2, 3])
def test_unperturbed_function_fails_with_zero_slack(n, request):
    setup = request.getfixturevalue({2: "plane_setup", 3: "space_setup"}[n])
    _, b, _, c = setup
    z = Cocycle(polarization=b, linear=tuple([F(0)] * n))
    cert = check_strongly_convex(build_model_function(c, z, F(0)))
    assert not cert.passed
    assert cert.witness_slack == 0
    assert cert.witness is not None


def test_certificates_build_only_their_witness(monkeypatch):
    """Certificates read the pair keys: a passing one builds no
    AdjacentPair, a failing one builds its witness alone, and that pair is
    the one adjacent_pairs hands out, equal to the pair built in full."""
    built = []
    real = complexes.AdjacentPair
    monkeypatch.setattr(
        complexes, "AdjacentPair", lambda **kw: built.append(kw) or real(**kw)
    )
    _, b, _, c = base_complex(2)
    z = Cocycle(polarization=b, linear=(F(0), F(0)))
    assert check_strongly_convex(build_model_function(c, z, F(1, 8))).passed
    assert not built and len(adjacent_pairs(c)) == 3 * c.size // 2
    cert = check_strongly_convex(build_model_function(c, z, F(0)))
    assert not cert.passed and len(built) == 1
    k = list(cert.slacks).index(cert.witness.key)
    assert cert.witness is adjacent_pairs(c)[k] and len(built) == 1
    assert cert.witness == tuple(adjacent_pairs(c))[k]
    assert [p.key for p in adjacent_pairs(c)] == list(cert.slacks)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_auto_epsilon_terminates(n):
    _, b, _, c = base_complex(n)
    z = Cocycle(polarization=b, linear=tuple([F(0)] * n))
    eps, f, cert = auto_epsilon(c, z)
    assert cert.passed
    assert F(1, 2 ** 20) <= eps <= 1


def test_auto_epsilon_gives_up():
    _, b, _, c = base_complex(1)
    z = Cocycle(polarization=b, linear=(F(0),))
    with pytest.raises(NotCertifiedError):
        auto_epsilon(c, z, max_halvings=1)


def test_sup_distance_frozen(line_model):
    _, f = line_model
    # max over [0, 1/2] of 3u/8 - u^2/2, attained at u = 3/8
    assert sup_distance_to_quadratic(f) == F(9, 128)


@pytest.mark.parametrize("n,iterations", [(1, 6), (2, 4)])
def test_tate_contraction_exact(n, iterations):
    _, b, _, c = base_complex(n)
    z = Cocycle(polarization=b, linear=tuple([F(0)] * n))
    f0 = build_model_function(c, z, F(1, 8))
    d0 = sup_distance_to_quadratic(f0)
    for i in range(iterations + 1):
        fi = tate_iterate(f0, i)
        assert sup_distance_to_quadratic(fi) * 4 ** i == d0
        assert fi.linear_scale == F(1, 2 ** i)
        assert check_strongly_convex(fi).passed


def test_tate_preserves_cocycle_law(line_model):
    z, f = line_model
    f2 = tate_iterate(f, 2)
    u = F(3, 16)
    lhs = evaluate(f2, (u + 1,))
    rhs = evaluate(f2, (u,)) + quadratic(z.polarization, (F(1),)) \
        + f2.linear_scale * 0 + u
    assert lhs == rhs
    verify_continuity(f2)
    verify_periodicity(f2)


def test_hat_functions_partition_unity(line_setup):
    _, _, _, c = line_setup
    hats = hat_test_functions(c)
    assert len(hats) == len(vertex_orbits(c))
    for u in (F(0), F(1, 8), F(1, 3), F(7, 16)):
        assert sum(evaluate_test(t, (u,)) for t in hats) == 1


@pytest.mark.parametrize("n,skew,level", [(1, False, 2), (2, False, 1), (2, True, 1), (3, False, 0)])
def test_vertex_orbits_match_reduce_mod(n, skew, level):
    """The orbits from floor-mod on the integer coordinates, and their
    order, are those of reduce_mod on the rational vertices; hat k is 1
    at orbit k."""
    lat, b, _, _ = base_complex(n)
    if skew:
        lat, b = Lattice(SKEW_BASIS), Polarization(((F(2), F(1)), (F(1), F(2))))
    c = standard_test_complex(lat, b, level)
    want = sorted({reduce_mod(v, lat) for cell in c.cells for v in cell.vertices})
    assert vertex_orbits(c) == tuple(want)
    for o, t in zip(want, hat_test_functions(c)):
        assert evaluate_test(t, o) == 1


def test_hat_sup_norm_is_one(line_setup):
    _, _, _, c = line_setup
    for t in hat_test_functions(c):
        assert sup_abs(t) == 1


def test_twist_bound_frozen(line_model):
    _, f = line_model
    hats = hat_test_functions(f.complex)
    assert [choose_twist_bound(f, t) for t in hats] == [F(1, 16), F(1, 16)]


def test_twist_within_bound_stays_convex(line_model):
    _, f = line_model
    for t in hat_test_functions(f.complex):
        tau = choose_twist_bound(f, t) / 2
        g = twist(f, t, tau)
        assert check_strongly_convex(g).passed
        verify_continuity(g)


def test_twist_beyond_bound_fails_adversarially(line_model):
    _, f = line_model
    hats = hat_test_functions(f.complex)
    results = []
    for t in hats:
        tau = 2 * choose_twist_bound(f, t)
        results.append(check_strongly_convex(twist(f, t, tau)).passed)
    assert False in results


def test_constant_test_has_no_twist_bound(line_model):
    _, f = line_model
    c = f.complex
    ones = {v: F(1) for v in vertex_orbits(c)}
    t = interpolate_test(c, ones)
    assert choose_twist_bound(f, t) is None


def test_twisted_tate_iterates_stay_convex(line_model):
    _, f = line_model
    t = hat_test_functions(f.complex)[1]
    tau = choose_twist_bound(f, t) / 2
    for i in range(5):
        fi = tate_iterate(f, i)
        ti = hat_test_functions(fi.complex)
        # twist by the rescaled coefficient on the refined complex
        g = twist(fi, interpolate_test(fi.complex, {
            v: evaluate_test(t, v) for v in vertex_orbits(fi.complex)
        }), tau / 4 ** i)
        assert check_strongly_convex(g).passed


def test_twist_needs_the_test_affine_on_each_cell():
    """A test whose cells are finer than the function's is rejected, even
    where it agrees with one affine piece at a cell's vertices and
    barycenter; a coarse enough test twists by tau * t."""
    lat = Lattice(((F(1), F(0)), (F(1, 2), F(3, 2))))
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    _, prime = superlattice(orthogonalize(lat, b), lat)
    c0 = barycentric_triangulation(prime.generators, prime)
    z = Cocycle(polarization=b, linear=(F(0), F(0)))
    f = build_model_function(c0, z, F(1, 8))
    fine = hat_test_functions(standard_test_complex(lat, b, 1))[10]
    u = (F(5, 16), F(3, 8))
    assert evaluate_test(fine, u) == 1
    with pytest.raises(PafError):
        twist(f, fine, F(1, 1000))
    with pytest.raises(PafError):
        choose_twist_bound(f, fine)
    for t in hat_test_functions(standard_test_complex(lat, b, 0)):
        g = twist(f, t, F(1, 1000))
        assert evaluate(g, u) - evaluate(f, u) == F(1, 1000) * evaluate_test(t, u)


def test_twist_bound_holds_for_a_test_over_a_sublattice(monkeypatch):
    """A test whose period is a proper sublattice of the function's is
    bounded over the faces of the function re-periodized to the test's
    period, where twist adds it.  The bound used to be taken over the
    function's own faces: hats 7 and 10 got 1/192 and 5/64, and the twist
    at 99/100 of either was not convex; hats 3, 4, 5, 6, 8 and 15 got
    None, though their values jump across faces.  The function keeps its
    re-periodization, so the 16 bounds and twists unfold it once."""
    unfolds = []
    real = paf.unfold_with_shifts
    monkeypatch.setattr(
        paf, "unfold_with_shifts", lambda c, lat: unfolds.append(lat) or real(c, lat)
    )
    lat = Lattice(SKEW_BASIS)
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    _, prime = superlattice(orthogonalize(lat, b), lat)
    z = Cocycle(polarization=b, linear=(F(0), F(0)))
    eps, f, _ = auto_epsilon(barycentric_triangulation(prime.generators, prime), z)
    assert eps == F(1, 64)
    hats = hat_test_functions(standard_test_complex(lat, b, 0))
    assert len(hats) == 16 and all(t.complex.period == lat != prime for t in hats)
    for t in hats:
        bound = choose_twist_bound(f, t)
        assert bound in (F(5, 1664), F(1, 384))
        assert check_strongly_convex(twist(f, t, bound * F(99, 100))).passed
    assert unfolds == [lat]
    assert change_period(f, lat) is change_period(f, lat) is f._periods[lat]


def test_change_period_preserves_values(line_model):
    _, f = line_model
    g = change_period(f, Lattice(((F(2),),)))
    assert len(g.complex.cells) == 2 * len(f.complex.cells)
    for u in (F(0), F(1, 3), F(5, 4), F(7, 2)):
        assert evaluate(g, (u,)) == evaluate(f, (u,))


def test_interpolated_quadratic_distance_shrinks_with_level(line_setup):
    from troptorus import dyadic_refine

    _, b, _, c = line_setup
    z = Cocycle(polarization=b, linear=(F(0),))
    d_prev = None
    for level in range(3):
        cc = c if level == 0 else dyadic_refine(c, level)
        f = build_model_function(c, z, F(0))
        # the unperturbed interpolant of q: distance is the chord gap
        d = sup_distance_to_quadratic(f)
        if d_prev is not None:
            assert d <= d_prev
        d_prev = d


def _brute_force_hits(c, u):
    """Every (cell index, period coordinates k) with u - k.B in the cell.

    All cells are tried against all k in a range that is wide enough by
    construction: if every vertex has coordinate m in [lo_m, hi_m], a
    translate k holds u only if coords(u)_m - k_m lies there too.
    Translates whose ambient box misses u are skipped before the exact
    barycentric test.
    """
    coords = [c.period.coords(v) for cell in c.cells for v in cell.vertices]
    ranges = [
        range(math.ceil(x - max(col)), math.floor(x - min(col)) + 1)
        for x, col in zip(c.period.coords(u), zip(*coords))
    ]
    boxes = [
        [(min(col), max(col)) for col in zip(*cell.vertices)]
        for cell in c.cells
    ]
    hits = set()
    for k in product(*ranges):
        v = vsub(u, c.period.from_coords(k))
        for i, (cell, box) in enumerate(zip(c.cells, boxes)):
            if any(not lo <= x <= hi for x, (lo, hi) in zip(v, box)):
                continue
            if all(x >= 0 for x in barycentric_coords(cell, v)):
                hits.add((i, k))
    return hits


@st.composite
def located_complexes(draw):
    """A complex of one of three kinds over a random rational period
    basis, or one of the skewed bases ((1,0),(7,1)) and ((1,0),(1/2,3/2)):
    J1 at levels 0-2, the unfolded standard test complex, or J1 cells as
    shuffled non-canonical translates."""
    n = draw(st.integers(1, 3))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    random_basis = st.tuples(*[st.tuples(*[entries] * n)] * n).filter(
        lambda g: det(from_columns(g)) != 0
    )
    if n == 2:
        skewed = st.sampled_from((
            ((F(1), F(0)), (F(7), F(1))),
            ((F(1), F(0)), (F(1, 2), F(3, 2))),
        ))
        gens = draw(st.one_of(skewed, random_basis))
    else:
        gens = draw(random_basis)
    lat = Lattice(gens)
    kind = draw(st.sampled_from(("j1", "unfolded", "scrambled")))
    level = draw(st.integers(0, 2 if n < 3 else 0))
    if kind == "unfolded":
        b = identity_polarization(n)
        _, prime = superlattice(orthogonalize(lat, b), lat)
        # unfolding multiplies the cells by the lattice index
        assume(covolume(lat) / covolume(prime) * 2 ** (n * level) <= 16)
        return standard_test_complex(lat, b, level)
    c = dyadic_refine(barycentric_triangulation(gens, lat), level)
    if kind == "scrambled":
        rnd = draw(st.randoms(use_true_random=False))
        cells = [
            cell.translate(
                lat.from_coords(tuple(F(rnd.randint(-2, 2)) for _ in range(n)))
            )
            for cell in c.cells
        ]
        rnd.shuffle(cells)
        c = PeriodicComplex(period=lat, cells=tuple(cells), level=level)
    return c


@given(c=located_complexes(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_locate_cell_matches_brute_force(c, data):
    """locate_cell against every cell and translate in a provably wide
    shift range: random and unreduced points, cell vertices moved by
    lattice vectors, and facet barycenters."""
    n = c.dim
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=16)
    shift = st.tuples(*[st.integers(-3, 3)] * n)
    cell = st.sampled_from(c.cells)
    points = [data.draw(st.tuples(*[coord] * n)) for _ in range(3)]
    for _ in range(2):
        v = data.draw(cell).vertices
        points.append(v[data.draw(st.integers(0, n))])
        facet = v[:1] + v[2:] if n > 1 else v[1:]
        points.append(Simplex(facet).barycenter())
    for u in points:
        u = vadd(u, c.period.from_coords(data.draw(shift)))
        i, lam = locate_cell(c, u)
        bary = barycentric_coords(c.cells[i], vsub(u, lam))
        assert all(x >= 0 for x in bary)
        k = c.period.coords(lam)
        assert all(x.denominator == 1 for x in k)
        assert (i, tuple(int(x) for x in k)) in _brute_force_hits(c, u)


@pytest.mark.parametrize("level", [0, 1])
def test_hats_match_interpolation(level):
    """Each hat equals the interpolant of its vertex values, piece by
    piece, on a skewed lattice."""
    lat = Lattice(((F(1), F(0)), (F(1, 2), F(3, 2))))
    b = Polarization(((F(2), F(1)), (F(1), F(2))))
    c = standard_test_complex(lat, b, level)
    orbits = vertex_orbits(c)
    hats = hat_test_functions(c)
    assert len(hats) == len(orbits)
    for o, t in zip(orbits, hats):
        want = interpolate_test(c, {v: F(1 if v == o else 0) for v in orbits})
        assert t.pieces == want.pieces


# --- the integer certificate and sup-distance paths against their Fraction
# references -----------------------------------------------------------------


def max_affine_minus_quadratic(verts, m, c, gram, lin):
    """Exact max over conv(verts) of m*u + c - (u^T G u / 2 + lin*u), in
    Fractions: the unconstrained maximizer, clamped to the simplex by
    recursing over its faces.  The reference for _Gap.cell_max."""
    def h(u):
        return dot(m, u) + c - dot(u, mat_vec(gram, u)) / 2 - dot(lin, u)

    if len(verts) == 1:
        return h(verts[0])
    v0 = verts[0]
    edges = tuple(vsub(v, v0) for v in verts[1:])
    # restricted problem in simplex coordinates t: maximize
    # m'' t + const - t^T G' t / 2 with G' = A^T G A
    g_rows = tuple(mat_vec(gram, e) for e in edges)
    g_prime = tuple(tuple(dot(gr, e2) for e2 in edges) for gr in g_rows)
    grad0 = vsub(vsub(m, lin), mat_vec(gram, v0))
    m_prime = tuple(dot(grad0, e) for e in edges)
    try:
        t_star = fraction_solve(g_prime, m_prime)
    except SingularMatrixError:
        t_star = None
    if t_star is not None and all(x >= 0 for x in t_star) and sum(t_star) <= 1:
        u_star = v0
        for x, e in zip(t_star, edges):
            u_star = vadd(u_star, vscale(x, e))
        return h(u_star)
    return max(
        max_affine_minus_quadratic(
            verts[:k] + verts[k + 1 :], m, c, gram, lin
        )
        for k in range(len(verts))
    )


def fraction_sup_distance(f):
    """sup |f - q - s*ell| with every (cell, vertex) term in Fractions."""
    gram = f.cocycle.polarization.gram
    lin = vscale(f.linear_scale, f.cocycle.linear)
    best = F(0)
    for cell, (m, c) in zip(f.complex.cells, f.pieces):
        best = max(best, max_affine_minus_quadratic(cell.vertices, m, c, gram, lin))
        for v in cell.vertices:
            best = max(
                best, dot(v, mat_vec(gram, v)) / 2 + dot(lin, v) - dot(m, v) - c
            )
    return best


def _positive_definite(draw, n):
    """A^T A + I/2 for a random rational A."""
    a = draw(st.tuples(*[st.tuples(*[small_rationals] * n)] * n))
    return tuple(
        tuple(
            sum(a[k][i] * a[k][j] for k in range(n)) + (F(1, 2) if i == j else 0)
            for j in range(n)
        )
        for i in range(n)
    )


@st.composite
def gap_cases(draw):
    """One or two random full-dimensional cells over a random basis, with
    random pieces, gram, linear part and linear scale.  A piece is either
    random or puts the critical point of f - q - s*ell at simplex
    coordinates t0, so t0 says which branch the cell takes."""
    n = draw(st.integers(1, 3))
    point = st.tuples(*[small_rationals] * n)
    gens = draw(st.tuples(*[point] * n).filter(lambda g: det(from_columns(g)) != 0))
    gram = _positive_definite(draw, n)
    lin = draw(point)
    scale = draw(st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8))
    lin_eff = vscale(scale, lin)
    cells, pieces, targets = [], [], []
    for _ in range(draw(st.integers(1, 2))):
        verts = draw(
            st.tuples(*[point] * (n + 1)).filter(
                lambda vs: det(tuple(vsub(v, vs[0]) for v in vs[1:])) != 0
            )
        )
        t0 = None
        if draw(st.booleans()):
            t0 = draw(st.tuples(*[st.fractions(-1, 2, max_denominator=6)] * n))
            u0 = verts[0]
            for x, v in zip(t0, verts[1:]):
                u0 = vadd(u0, vscale(x, vsub(v, verts[0])))
            m = vadd(lin_eff, mat_vec(gram, u0))
        else:
            m = draw(point)
        cells.append(Simplex(verts))
        pieces.append((m, draw(small_rationals)))
        targets.append(t0)
    assume(len({v for cell in cells for v in cell.vertices}) == len(cells) * (n + 1))
    f = CocycleFunction(
        complex=PeriodicComplex(period=Lattice(gens), cells=tuple(cells)),
        pieces=tuple(pieces),
        cocycle=Cocycle(polarization=Polarization(gram), linear=lin),
        linear_scale=scale,
    )
    return f, targets


def test_sup_distance_per_shape_matches_the_clamping_oracle():
    """Cell by cell, the integer closed form and its clamping equal the
    Fraction recursion; the branch taken is the one the critical point
    calls for; and both branches are reached.  The whole sup-distance
    equals the Fraction sum over every (cell, vertex)."""
    branches = set()

    @given(case=gap_cases())
    @settings(max_examples=100, deadline=None)
    def check(case):
        f, targets = case
        gap = _Gap(f)
        gram = f.cocycle.polarization.gram
        lin = vscale(f.linear_scale, f.cocycle.linear)
        n = f.complex.dim
        for cell, a, piece, (m, c), t0 in zip(
            f.complex.cells, gap.cells, gap.pieces, f.pieces, targets
        ):
            verts = [a[k : k + n] for k in range(0, len(a), n)]
            want = max_affine_minus_quadratic(cell.vertices, m, c, gram, lin)
            num, den = gap.cell_max(verts, piece)
            assert den > 0 and F(num, den) == want
            inside = gap.interior_max(verts, piece)
            if t0 is not None:
                in_simplex = min(t0) >= 0 and sum(t0) <= 1
                assert (inside is not None) == in_simplex
            if inside is not None:
                assert inside[1] > 0 and F(*inside) == want
            branches.add(inside is None)
        assert sup_distance_to_quadratic(f) == fraction_sup_distance(f)

    check()
    assert branches == {False, True}


@pytest.mark.parametrize(
    "gram",
    [
        ((F(1),),),
        ((F(2), F(1)), (F(1), F(2))),
        ((F(3), F(1), F(0)), (F(1), F(2), F(1)), (F(0), F(1), F(2))),
    ],
)
def test_sup_distance_of_model_iterates_matches_fractions(gram):
    """On model functions and their first iterates, where cells share
    vertices, the per-vertex integer path equals the Fraction sum over
    every (cell, vertex)."""
    n = len(gram)
    _, b, _, c = base_complex(n, gram)
    z = Cocycle(polarization=b, linear=tuple(F(k + 1, 3) for k in range(n)))
    _, f, _ = auto_epsilon(c, z)
    for i in range(2):
        fi = tate_iterate(f, i)
        assert sup_distance_to_quadratic(fi) == fraction_sup_distance(fi)


def test_sup_distance_reads_no_vertex_images():
    """The sup-distance runs on the period coordinates: over a complex of
    the constructor, or one a change of period unfolded, it leaves the
    vertex images uncomputed, and both give the sup of the builder's
    function, since f - q - s*ell is periodic."""
    _, b, _, c = base_complex(2, ((F(2), F(1)), (F(1), F(2))))
    z = Cocycle(polarization=b, linear=(F(1, 3), F(2, 3)))
    _, f, _ = auto_epsilon(c, z)
    f = tate_iterate(f, 1)
    want = sup_distance_to_quadratic(f)
    hand = CocycleFunction(
        complex=PeriodicComplex(f.complex.period, tuple(f.complex.cells)),
        pieces=f.pieces,
        cocycle=z,
        linear_scale=f.linear_scale,
    )
    gens = f.complex.period.generators
    unfolded = change_period(f, Lattice((vscale(F(2), gens[0]),) + gens[1:]))
    for g in (hand, unfolded):
        assert "_images" not in vars(g.complex)
        assert sup_distance_to_quadratic(g) == want
        assert "_images" not in vars(g.complex)


def test_cell_frames_are_made_once_per_shape(monkeypatch):
    """The hats and then the containment index of a fresh complex read its
    one set of cell frames: one det_adj per distinct cell shape, the edges
    from the first vertex in period coordinates.  A flat cell has no
    interpolant."""
    lat = Lattice(SKEW_BASIS)
    c = standard_test_complex(lat, Polarization(((F(2), F(1)), (F(1), F(2)))), 1)
    shapes = {
        tuple(c.period.coords(vsub(v, s.vertices[0])) for v in s.vertices[1:])
        for s in c.cells
    }
    calls = []
    for module in (complexes, paf):
        real = module.det_adj
        monkeypatch.setattr(
            module, "det_adj", lambda m, real=real: calls.append(m) or real(m)
        )
    hat_test_functions(c)
    c._index
    assert len(calls) == len(shapes) > 1
    flat = PeriodicComplex(Lattice(((F(1),),)), (Simplex(((F(0),), (F(0),))),))
    with pytest.raises(SingularMatrixError, match="flat cell"):
        interpolate_test(flat, {(F(0),): F(1)})


def halving_auto_epsilon(c, z, max_halvings=20):
    """auto_epsilon as a plain halving loop over full certificates."""
    eps = F(1)
    for _ in range(max_halvings):
        f = build_model_function(c, z, eps)
        cert = check_strongly_convex(f)
        if cert.passed:
            return eps, f, cert
        eps /= 2
    raise NotCertifiedError(f"no certified epsilon within {max_halvings} halvings")


def test_auto_epsilon_matches_the_halving_loop():
    """Equal eps, model function and certificate, or the same
    NotCertifiedError, for random grams and linear parts over the unit
    basis or a random one; both outcomes are reached."""
    outcomes = set()

    @given(
        data=st.data(),
        n=st.integers(1, 2),
        halvings=st.one_of(st.just(20), st.integers(0, 3)),
    )
    @settings(max_examples=40, deadline=None)
    def check(data, n, halvings):
        point = st.tuples(*[small_rationals] * n)
        unit = tuple(tuple(F(int(i == j)) for i in range(n)) for j in range(n))
        gens = data.draw(st.one_of(
            st.just(unit),
            st.tuples(*[point] * n).filter(lambda g: det(from_columns(g)) != 0),
        ))
        lat = Lattice(gens)
        b = Polarization(_positive_definite(data.draw, n))
        _, prime = superlattice(orthogonalize(lat, b), lat)
        c = barycentric_triangulation(prime.generators, prime)
        z = Cocycle(polarization=b, linear=data.draw(point))
        try:
            want = halving_auto_epsilon(c, z, halvings)
        except NotCertifiedError as exc:
            with pytest.raises(NotCertifiedError) as got:
                auto_epsilon(c, z, halvings)
            assert str(got.value) == str(exc)
            outcomes.add("raised")
            return
        assert auto_epsilon(c, z, halvings) == want
        outcomes.add("passed")

    check()
    assert outcomes == {"passed", "raised"}


# --- the integer face slacks and interpolation against their Fraction
# references -----------------------------------------------------------------


SKEW_BASIS = ((F(1), F(0)), (F(1, 2), F(3, 2)))
THIRDS_GRAM = ((F(3, 2), F(1, 3)), (F(1, 3), F(1)))


@st.composite
def model_problems(draw):
    """(c, z): the level-0 complex and a cocycle in dimension 1 to 3, over
    the unit basis, the skewed basis or (n < 3) a random one, with the
    identity gram, a gram with non-integer entries or a random one."""
    n = draw(st.integers(1, 3))
    point = st.tuples(*[small_rationals] * n)
    unit = tuple(tuple(F(int(i == j)) for i in range(n)) for j in range(n))
    # None stands for a random basis or gram
    bases = {1: [unit, None], 2: [unit, SKEW_BASIS, None], 3: [unit]}[n]
    grams = {1: [unit, None], 2: [unit, THIRDS_GRAM, None], 3: [unit, None]}[n]
    basis, gram = draw(st.sampled_from(bases)), draw(st.sampled_from(grams))
    if basis is None:
        basis = draw(
            st.tuples(*[point] * n).filter(lambda g: det(from_columns(g)) != 0)
        )
    lat = Lattice(basis)
    b = Polarization(_positive_definite(draw, n) if gram is None else gram)
    _, prime = superlattice(orthogonalize(lat, b), lat)
    c = barycentric_triangulation(prime.generators, prime)
    return c, Cocycle(polarization=b, linear=draw(point))


@st.composite
def slack_cases(draw):
    """A model function at eps = 0 (zero slacks), a small eps or a random
    eps, or random pieces (slacks of any sign), over the complex of
    model_problems; then perhaps one Tate step, and perhaps unfolded to
    the sublattice with its first generator doubled, whose faces carry
    shifts the level-0 faces do not."""
    c, z = draw(model_problems())
    n = c.dim
    point = st.tuples(*[small_rationals] * n)
    kind = draw(st.sampled_from(["zero", "small", "any", "random"]))
    if kind == "random":
        f = CocycleFunction(
            complex=c,
            pieces=tuple(
                (draw(point), draw(small_rationals)) for _ in c.cells
            ),
            cocycle=z,
            linear_scale=draw(st.fractions(F(1, 4), 2, max_denominator=4)),
        )
    else:
        eps = {"zero": F(0), "small": F(1, 64)}.get(kind)
        if eps is None:
            eps = draw(st.fractions(F(-1), F(1), max_denominator=16))
        f = build_model_function(c, z, eps)
    if n < 3 and draw(st.booleans()):
        f = tate_iterate(f, 1)
    if n < 3 and draw(st.booleans()):
        gens = f.complex.period.generators
        f = change_period(f, Lattice((vscale(F(2), gens[0]),) + gens[1:]))
    return f


def test_face_slacks_match_the_fraction_certificate():
    """Equal certificates, slack by slack, with witnesses and zero,
    negative and positive slacks all reached, and faces whose copies lie
    in different period translates."""
    seen = set()

    @given(f=slack_cases())
    @settings(max_examples=120, deadline=None)
    def check(f):
        cert = check_strongly_convex(f)
        assert cert == fraction_certificate(f)
        seen.update((s > 0) - (s < 0) for s in cert.slacks.values())
        seen.add(cert.passed)
        if any(p.shift_i != p.shift_j for p in adjacent_pairs(f.complex)):
            seen.add("shifted")

    check()
    assert seen == {-1, 0, 1, True, False, "shifted"}


@given(problem=model_problems())
@settings(max_examples=60, deadline=None)
def test_epsilon_lines_match_the_fraction_slacks(problem):
    """The line (a + b*eps) / den of each face is the pair_slack of the
    Fraction model oracle at eps = 0 (a / den) and at eps = 1
    ((a + b) / den), so it is that slack at every eps."""
    c, z = problem
    den, lines = _epsilon_lines(c, z, _model_parts(c, z))
    low, high = (fraction_model_function(c, z, F(eps)) for eps in (0, 1))
    pairs = adjacent_pairs(c)
    assert len(lines) == len(pairs)
    for p, (a, b) in zip(pairs, lines):
        assert F(a, den) == pair_slack(low, p)
        assert F(a + b, den) == pair_slack(high, p)


@given(f=slack_cases())
@settings(max_examples=60, deadline=None)
def test_integer_interpolation_matches_solve(f):
    """Per cell, the per-shape integer interpolant of the values of f at
    the vertices, made a Fraction piece as the model builders make it, is
    the Fraction solve of rows [v | 1]."""
    c = f.complex
    n = c.dim
    scale, frames = c._coords[0], c._frames
    for cell, frame, (m, c0) in zip(c.cells, frames, f.pieces):
        values = [dot(m, v) + c0 for v in cell.vertices]
        rows = tuple(v + (F(1),) for v in cell.vertices)
        sol = fraction_solve(rows, values)
        piece = _interpolate_piece(scale, frame, values)
        assert _fraction_piece(c.period.frame, *piece) == (sol[:n], sol[n])


def test_tate_iterate_reuses_each_step():
    """tate_iterate keeps each one-step successor: iterating again hands
    back the same objects, equal to those of a fresh start."""
    _, b, _, c = base_complex(2)
    z = Cocycle(polarization=b, linear=(F(0), F(0)))
    f0 = build_model_function(c, z, F(1, 8))
    f2 = tate_iterate(f0, 2)
    assert tate_iterate(f0, 1)._next is f2
    assert tate_iterate(f0, 3) is tate_iterate(f2, 1)
    fresh = build_model_function(c, z, F(1, 8))
    assert tate_iterate(fresh, 3) == tate_iterate(f0, 3)


def test_gradients_of_the_wrong_length_are_rejected():
    """On the level-0 complex of Z^2 with gram ((2,1),(1,2)), pieces with
    1-component gradients got a convexity certificate (face_slacks zipped
    them short): a cocycle function or test with any gradient whose length
    is not the dimension raises DimensionMismatchError."""
    gram = ((F(2), F(1)), (F(1), F(2)))
    _, b, _, c = base_complex(2, gram)
    z = Cocycle(polarization=b, linear=(F(0), F(0)))
    right = ((F(1), F(0)), F(0))
    for m in ((F(0),), (F(0),) * 3):
        for pieces in (((m, F(0)),) * c.size, (right,) * (c.size - 1) + ((m, F(0)),)):
            with pytest.raises(DimensionMismatchError):
                CocycleFunction(complex=c, pieces=pieces, cocycle=z)
            with pytest.raises(DimensionMismatchError):
                PiecewiseTest(complex=c, pieces=pieces)
    CocycleFunction(complex=c, pieces=(right,) * c.size, cocycle=z)
    PiecewiseTest(complex=c, pieces=(right,) * c.size)


# --- the integer cocycle form against its Fraction oracles -------------------

# Tate steps drawn per dimension, as the cells grow by 2^n a step; the
# Fraction certificate and sup-distance, which take every face and clamp
# every cell, are compared up to FRACTION_CELLS cells
TATE_STEPS = {1: 3, 2: 2, 3: 1}
FRACTION_CELLS = 64


@given(lat=rational_lattices(), data=st.data())
@settings(max_examples=30, deadline=None)
@warn_slow_examples(lambda lat, **_: lat.generators)
def test_integer_cocycle_forms_match_the_fraction_oracles(lat, data):
    """The model function and its Tate iterates, built as integer pieces
    over one denominator, against the Fraction model and the Fraction Tate
    step of tests/conftest.py: a random positive definite gram and linear
    part, eps 0, 2^-k or any rational, and up to three steps.  Each
    iterate gives the certificate and sup-distance of the oracle's Fraction
    pieces, through their derived form and, on small complexes, through
    the Fraction references, before it builds its pieces; read, the pieces
    are the oracle's and so are the values at random points.  A Tate step
    from the oracle's Fraction pieces goes through the derived form and
    agrees too."""
    n = lat.dim
    point = st.tuples(*[small_rationals] * n)
    b = Polarization(_positive_definite(data.draw, n))
    z = Cocycle(polarization=b, linear=data.draw(point))
    _, prime = superlattice(orthogonalize(lat, b), lat)
    c = barycentric_triangulation(prime.generators, prime)
    eps = data.draw(st.one_of(
        st.just(F(0)),
        st.integers(0, 8).map(lambda k: F(1, 2 ** k)),
        st.fractions(-2, 2, max_denominator=24),
    ))
    f = build_model_function(c, z, eps)
    oracle = fraction_model_function(c, z, eps)
    for i in range(data.draw(st.integers(0, TATE_STEPS[n])) + 1):
        if i:
            f = tate_iterate(f, 1)
            derived = tate_iterate(oracle, 1)
            oracle = fraction_tate_step(oracle)
            assert derived.pieces == oracle.pieces
        cert = check_strongly_convex(f)
        d = sup_distance_to_quadratic(f)
        assert cert == check_strongly_convex(oracle)
        assert d == sup_distance_to_quadratic(oracle)
        if f.complex.size <= FRACTION_CELLS:
            assert cert == fraction_certificate(oracle)
            assert d == fraction_sup_distance(oracle)
        assert "pieces" not in vars(f)
        assert f.pieces == oracle.pieces
        assert f == oracle
        for u in data.draw(st.lists(point, min_size=1, max_size=3)):
            assert evaluate(f, u) == evaluate(oracle, u)


def test_certify_and_tate_build_no_fraction_pieces():
    """auto_epsilon on problems/n2.json, then tate_iterate to i = 3 with a
    certificate and a sup-distance at each step, read the integer forms
    only: no function builds its Fraction pieces.  Read, the pieces give
    the certificates and sup-distances of the Fraction references."""
    import json
    from pathlib import Path

    from troptorus.equidist import barycentric_complex

    raw = json.loads(
        (Path(__file__).resolve().parent.parent / "problems" / "n2.json")
        .read_text()
    )
    lat = Lattice(tuple(tuple(map(F, g)) for g in raw["lattice"]))
    b = Polarization(tuple(tuple(map(F, r)) for r in raw["gram"]))
    z = Cocycle(polarization=b, linear=tuple(map(F, raw["linear"])))
    _, f0, _ = auto_epsilon(barycentric_complex(lat, b, 0), z)
    fs = [tate_iterate(f0, i) for i in range(4)]
    found = [(check_strongly_convex(f), sup_distance_to_quadratic(f)) for f in fs]
    assert not any("pieces" in vars(f) for f in fs)
    for f, (cert, d) in zip(fs[:3], found):
        assert cert == fraction_certificate(f)
        assert d == fraction_sup_distance(f)


# --- twist, change of period and evaluation against their Fraction oracles ---


@st.composite
def twist_problems(draw):
    """(lat, sub, z, eps, steps, picks, tau, points): a rational basis,
    the sublattice K Z^n of it for an upper triangular integer K with
    diagonal 1 or 2, a cocycle whose gram is random or makes the basis
    orthogonal (diag(d) in the basis, so that the model is certified at a
    small eps), an eps, 0 or (n < 3) 1 Tate step, two picks of a hat,
    a twist coefficient and points.  Drawn before anything is built."""
    lat = draw(rational_lattices())
    n = lat.dim
    point = st.tuples(*[small_rationals] * n)
    k = [
        [draw(st.integers(1, 2)) if i == j else draw(st.integers(-1, 1)) * (i < j)
         for j in range(n)]
        for i in range(n)
    ]
    gens = lat.generators
    sub = Lattice(tuple(
        tuple(sum(k[i][j] * g[m] for i, g in enumerate(gens)) for m in range(n))
        for j in range(n)
    ))
    if draw(st.booleans()):
        gram = _positive_definite(draw, n)
    else:
        d = draw(st.tuples(*[st.fractions(F(1, 4), 3, max_denominator=4)] * n))
        inv = lat.frame.inverse  # rows: the dual basis
        gram = tuple(
            tuple(sum(d[m] * inv[m][a] * inv[m][b] for m in range(n)) for b in range(n))
            for a in range(n)
        )
    z = Cocycle(polarization=Polarization(gram), linear=draw(point))
    eps = draw(st.sampled_from([F(1, 64), F(1, 8), F(0)]))
    steps = draw(st.integers(0, int(n < 3)))
    picks = draw(st.tuples(*[st.integers(0, 999)] * 2))
    tau = draw(st.fractions(-2, 2, max_denominator=16))
    points = draw(st.lists(point, min_size=1, max_size=3))
    return lat, sub, z, eps, steps, picks, tau, points


@given(problem=twist_problems())
@settings(max_examples=30, deadline=None)
@warn_slow_examples(lambda problem: problem[0].generators)
def test_twist_and_evaluation_match_the_fraction_oracles(problem):
    """The model function on the level-0 complex of a rational basis
    (after a Tate step, perhaps), a sublattice of the basis' lattice, and
    hat tests over the lattice and over the sublattice: change_period,
    evaluate, evaluate_test, twist, choose_twist_bound and integrate's
    branch 1 (each atom inside a test cell, the atoms over the test's
    period, a sublattice or a superlattice of it) agree with the Fraction
    bodies of tests/conftest.py.  The twist bound's oracle is taken over
    change_period(f, t's period), where the twist adds t."""
    lat, sub, z, eps, steps, picks, tau, points = problem
    c0 = barycentric_triangulation(lat.generators, lat)
    f = tate_iterate(build_model_function(c0, z, eps), steps)
    g = change_period(f, sub)
    assert "pieces" not in vars(g)
    assert g.pieces == fraction_change_period(f, sub).pieces
    for u in points:
        assert evaluate(f, u) == fraction_evaluate(f, u) == evaluate(g, u)
    for c, pick in zip((c0, unfold(c0, sub)), picks):
        hats = hat_test_functions(c)
        t = hats[pick % len(hats)]
        for u in points:
            assert evaluate_test(t, u) == fraction_evaluate_test(t, u)
        assert twist(f, t, tau).pieces == fraction_twist(f, t, tau).pieces
        try:
            bound = choose_twist_bound(f, t)
        except NotCertifiedError:
            with pytest.raises(NotCertifiedError):
                fraction_twist_bound(f, t)
        else:
            assert bound == fraction_twist_bound(f, t)
        for mu in (haar(lat, f.complex), haar(sub, f.complex)):
            assert integrate(t, mu) == dense_integrate(t, mu)


def test_twist_and_evaluation_build_no_fraction_pieces():
    """On problems/n2.json, the certified model, hat tests over the
    lattice (a sublattice of the model's period) and over the model's own
    period: change_period, twist, choose_twist_bound, evaluate and
    evaluate_test read the integer forms only, so no function they read
    or return builds its Fraction pieces, and no complex its cells."""
    import json
    from pathlib import Path

    raw = json.loads(
        (Path(__file__).resolve().parent.parent / "problems" / "n2.json")
        .read_text()
    )
    lat = Lattice(tuple(tuple(map(F, g)) for g in raw["lattice"]))
    b = Polarization(tuple(tuple(map(F, r)) for r in raw["gram"]))
    z = Cocycle(polarization=b, linear=tuple(map(F, raw["linear"])))
    _, prime = superlattice(orthogonalize(lat, b), lat)
    _, f, _ = auto_epsilon(barycentric_triangulation(prime.generators, prime), z)
    u = (F(1, 3), F(-5, 7))
    seen = [f]
    for c in (f.complex, standard_test_complex(lat, b, 0)):
        for t in hat_test_functions(c)[:3]:
            base = change_period(f, t.complex.period)
            tau = choose_twist_bound(f, t) / 2
            g = twist(f, t, tau)
            assert evaluate(g, u) == evaluate(f, u) + tau * evaluate_test(t, u)
            seen += [t, base, g]
    assert len(seen) == 19
    assert not any("pieces" in vars(h) for h in seen)
    assert not any("cells" in vars(h.complex) for h in seen)
