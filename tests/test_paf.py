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
from troptorus import test_sup_abs as sup_abs
from troptorus.complexes import (
    PeriodicComplex,
    Simplex,
    barycentric_coords,
    barycentric_triangulation,
    dyadic_refine,
)
from troptorus.equidist import standard_test_complex
from troptorus.lattice import (
    Lattice,
    Polarization,
    covolume,
    identity_polarization,
    orthogonalize,
    superlattice,
)
from troptorus.linalg import (
    SingularMatrixError,
    det,
    dot,
    from_columns,
    mat_vec,
    solve,
    vadd,
    vscale,
    vsub,
)
from troptorus.paf import (
    CocycleFunction,
    _Gap,
    locate_cell,
    verify_continuity,
    verify_periodicity,
    vertex_orbits,
)
from tests.conftest import base_complex

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
    basis, or the skewed basis ((1,0),(7,1)): J1 at levels 0-2, the
    unfolded standard test complex, or J1 cells as shuffled non-canonical
    translates."""
    n = draw(st.integers(1, 3))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    random_basis = st.tuples(*[st.tuples(*[entries] * n)] * n).filter(
        lambda g: det(from_columns(g)) != 0
    )
    if n == 2:
        skewed = ((F(1), F(0)), (F(7), F(1)))
        gens = draw(st.one_of(st.just(skewed), random_basis))
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
        t_star = solve(g_prime, m_prime)
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
        for i, (cell, (m, c), t0) in enumerate(
            zip(f.complex.cells, f.pieces, targets)
        ):
            verts, piece = gap.vertices(i), gap.pieces[i]
            want = max_affine_minus_quadratic(cell.vertices, m, c, gram, lin)
            assert gap.cell_max(verts, piece) == want
            inside = gap.interior_max(verts, piece)
            if t0 is not None:
                in_simplex = min(t0) >= 0 and sum(t0) <= 1
                assert (inside is not None) == in_simplex
            if inside is not None:
                assert inside == want
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
