"""The lazy tuple views: cells, atoms, pieces, points and the eps parts
act as the tuples they stand for, and counting them builds nothing."""
import json
import pickle
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from troptorus import measures, paf
from troptorus.complexes import Simplex, barycentric_triangulation, dyadic_refine
from troptorus.equidist import barycentric_complex, torsion_grid
from troptorus.lattice import Lattice, Polarization, identity_polarization
from troptorus.measures import PolytopalMeasure, empirical, haar
from troptorus.paf import (
    Cocycle,
    _epsilon_lines,
    build_model_function,
    hat_test_functions,
    tate_iterate,
)
from troptorus.serialization import canonical_dumps
from tests.conftest import (
    fraction_barycentric,
    fraction_model_function,
    fraction_refine_step,
    fraction_tate_step,
    warn_slow_examples,
)
from tests.test_lattice import rational_lattices

F = Fraction


def assert_is_tuple(view, want):
    """view acts as the tuple want, pickling included: an item read by
    index is kept and is the one that iteration, ==, hash and repr see."""
    assert type(want) is tuple
    assert len(view) == len(want)
    first = view[-1]
    assert first == want[-1] and view[-1] is first
    assert view[1:3] == want[1:3] and view[::-1] == want[::-1]
    assert view == want and want == view and not view != want
    assert hash(view) == hash(want) and repr(view) == repr(want)
    assert list(view) == list(want) and tuple(view)[-1] is first
    assert pickle.loads(pickle.dumps(view)) == want


@given(lat=rational_lattices(), level=st.integers(0, 1), data=st.data())
@settings(max_examples=15, deadline=None)
@warn_slow_examples(lambda lat, **_: lat.generators)
def test_each_view_is_its_tuple(lat, level, data):
    """Over a rational basis at level 0 or 1, the cells of the J1 complex,
    the atoms of its Haar measure, the pieces of a model function, the
    points of an empirical measure and the eps parts of the model each
    act as the tuple the Fraction oracles of tests/conftest.py build; and
    each owner is equal, with an equal hash and repr, to the one made by
    hand from that tuple.  The points serialize as their tuple does."""
    gens, n = lat.generators, lat.dim
    c = dyadic_refine(barycentric_triangulation(gens, lat), level)
    oracle = fraction_barycentric(gens, lat)
    for _ in range(level):
        oracle = fraction_refine_step(oracle)[0]
    assert_is_tuple(c.cells, oracle.cells)
    assert c == oracle and hash(c) == hash(oracle) and repr(c) == repr(oracle)
    assert pickle.loads(pickle.dumps(c)) == oracle

    mu = haar(lat, c)
    atoms = tuple(zip(oracle.cells, (mu.atoms[0][1],) * len(oracle.cells)))
    assert_is_tuple(mu.atoms, atoms)
    assert all(s is cell for (s, _), cell in zip(mu.atoms, c.cells))
    hand = PolytopalMeasure(lat, atoms)
    assert mu == hand and hash(mu) == hash(hand) and repr(mu) == repr(hand)

    z = Cocycle(identity_polarization(n), (F(0),) * n)
    c0 = barycentric_triangulation(gens, lat)
    f = build_model_function(c0, z, F(1, 4))
    g = fraction_model_function(fraction_barycentric(gens, lat), z, F(1, 4))
    if level:
        f, g = tate_iterate(f, 1), fraction_tate_step(g)
    assert_is_tuple(f.pieces, g.pieces)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)

    low = fraction_model_function(fraction_barycentric(gens, lat), z, F(0))
    high = fraction_model_function(fraction_barycentric(gens, lat), z, F(1))
    parts = tuple(
        (p, (tuple(x - y for x, y in zip(q[0], p[0])), q[1] - p[1]))
        for p, q in zip(low.pieces, high.pieces)
    )
    assert_is_tuple(_epsilon_lines(c0, z)[0], parts)

    ks = data.draw(st.lists(
        st.tuples(*[st.integers(-9, 9)] * n), min_size=3, max_size=6
    ))
    pts = [tuple(F(x, 4) for x in k) for k in ks]
    e = empirical(lat, pts)
    want = tuple(
        lat.from_coords(tuple(F(x, e.scale) for x in w)) for w in e.coords
    )
    assert_is_tuple(e.points, want)
    assert canonical_dumps(e.points) == canonical_dumps(want)


def test_counting_builds_nothing(monkeypatch):
    """On the level-3 complex of problems/n2.json, len of the cells, of
    the atoms of its Haar measure, of the pieces of a hat test and of a
    Tate iterate, and of the points of a torsion grid builds no Simplex,
    no Fraction piece and no Fraction point; the first and the last cell
    build one Simplex each.  A polytopal measure has no points, which the
    trace counters rely on."""
    raw = json.loads(
        (Path(__file__).resolve().parent.parent / "problems" / "n2.json")
        .read_text()
    )
    lat = Lattice(tuple(tuple(map(F, g)) for g in raw["lattice"]))
    b = Polarization(tuple(tuple(map(F, r)) for r in raw["gram"]))
    z = Cocycle(polarization=b, linear=tuple(map(F, raw["linear"])))
    c = barycentric_complex(lat, b, 3)
    mu = haar(c.period, c)
    f0 = build_model_function(barycentric_complex(lat, b, 0), z, F(1, 8))
    f = tate_iterate(f0, 3)
    t = hat_test_functions(c)[0]
    e = torsion_grid(lat, 16)
    built = []
    real_post_init = Simplex.__post_init__
    real_piece = paf._fraction_piece
    monkeypatch.setattr(
        Simplex, "__post_init__", lambda s: built.append(s) or real_post_init(s)
    )
    monkeypatch.setattr(
        paf, "_fraction_piece", lambda *a: built.append(a) or real_piece(*a)
    )
    monkeypatch.setattr(
        measures, "Fraction", lambda *a: built.append(a) or Fraction(*a)
    )
    counts = [len(c.cells), len(mu.atoms), len(f.pieces), len(t.pieces)]
    assert counts == [c.size] * 4 and len(e.points) == 16 ** 2
    assert c.size == 512 and not built
    first, last = c.cells[0], c.cells[-1]
    assert len(built) == 2 and built == [first, last]
    assert c.cells[0] is first and c.cells[-1] is last and len(built) == 2
    assert not hasattr(mu, "points")
