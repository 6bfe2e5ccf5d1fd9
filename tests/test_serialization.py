import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from troptorus.complexes import (
    PeriodicComplex,
    Simplex,
    barycentric_triangulation,
    dyadic_refine,
    unfold,
)
from troptorus.lattice import Lattice
from troptorus.linalg import det, from_columns, vscale
from troptorus.serialization import SerializationError, canonical_dumps
from tests.conftest import complex_to_json, json_dumps

# text with quotes, backslashes, control characters and non-ASCII
texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é€😀'),
        st.characters(),
    ),
    max_size=8,
)
leaves = st.one_of(
    st.fractions(max_denominator=12),
    st.integers(-10**20, 10**20).map(Fraction),  # denominator 1
    st.integers(-10**20, 10**20),
    st.booleans(),
    st.none(),
    texts,
)
trees = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(texts, st.integers(-5, 5)), inner, max_size=4),
    ),
    max_leaves=24,
)


@given(tree=trees)
@settings(max_examples=300, deadline=None)
def test_canonical_dumps_matches_the_json_oracle(tree):
    """Equal text for nested dicts, lists and tuples, empty ones too."""
    assert canonical_dumps(tree) == json_dumps(tree)


@pytest.mark.parametrize("bad", [0.5, 1j, {1, 2}, object()])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [x], lambda x: {"k": (1, x)}])
def test_canonical_dumps_rejects_what_json_cannot_say_exactly(bad, wrap):
    with pytest.raises(SerializationError):
        canonical_dumps(wrap(bad))
    with pytest.raises(SerializationError):
        json_dumps(wrap(bad))


@st.composite
def j1_cases(draw):
    """(basis, level, random): a rational period basis with a negative
    entry at n = 1..3 and a level 0..3 (0..2 at n = 3)."""
    n = draw(st.integers(1, 3))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    gens = draw(
        st.tuples(*[st.tuples(*[entries] * n)] * n).filter(
            lambda g: min(map(min, g)) < 0 and det(from_columns(g)) != 0
        )
    )
    level = draw(st.integers(0, 3 if n < 3 else 2))
    return gens, level, draw(st.randoms(use_true_random=False))


@given(case=j1_cases())
@settings(max_examples=20, deadline=None)
def test_complexes_are_written_as_the_fraction_oracle(case):
    """A complex is written from its integer vertex images with the text
    of its Fraction cells, at the top and nested deeper: J1, hand-built
    and unfolded complexes alike.  The J1 cells hold the origin, the
    vertex b / 2 of a generator b with a negative entry and, from level
    1, nonzero coordinates whose "p/q" is reduced by a gcd."""
    gens, level, rnd = case
    lat, n = Lattice(gens), len(gens)
    c = dyadic_refine(barycentric_triangulation(gens, lat), level)
    text = canonical_dumps(c)
    assert "cells" not in vars(c)
    assert text == json_dumps(complex_to_json(c))
    cells = text.split('"level"')[0]
    t = lat.frame.g * c._coords[0]
    dens = [int(q) for p, q in re.findall(r'"(-?\d+)/(\d+)"', cells) if p != "0"]
    assert '"0/1"' in cells and '"-' in cells
    assert level == 0 or min(dens) < t
    # the same cells, each shifted by a period vector and its vertices
    # permuted, given to the constructor
    hand = PeriodicComplex(
        lat,
        tuple(
            Simplex(tuple(rnd.sample(s.vertices, n + 1))).translate(
                lat.from_coords(tuple(Fraction(rnd.randint(-2, 2)) for _ in range(n)))
            )
            for s in c.cells
        ),
        level,
    )
    assert "_coords" not in vars(hand)
    low = c if level < 2 else barycentric_triangulation(gens, lat)
    sub = Lattice(tuple(vscale(Fraction(2), g) for g in gens))
    tree = [unfold(low, sub), {"hand": [hand]}]
    want = [complex_to_json(tree[0]), {"hand": [complex_to_json(hand)]}]
    assert canonical_dumps(tree) == json_dumps(want)
