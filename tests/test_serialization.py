from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from troptorus.serialization import SerializationError, canonical_dumps
from tests.conftest import json_dumps

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
