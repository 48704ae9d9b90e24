"""Property tests over random planted maps with one to three faces."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import mk  # noqa: E402
from plantedmaps.core import canonicalize, decode  # noqa: E402

# Derandomized: the same examples on every run, so tier-1 stays repeatable.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def planted_maps(draw):
    """Any pairing of the non-plant half-edges of 1..3 faces (connected or
    not), each face interior holding at most 9 ids."""
    k = draw(st.integers(1, 3))
    interiors = draw(
        st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(lambda s: sum(s) % 2 == 0)
    )
    ids = draw(st.permutations(range(1, sum(interiors) + 1)))
    return mk(interiors, *zip(ids[0::2], ids[1::2]))


@PROPERTY
@given(planted_maps())
def test_decode_inverts_encode(m):
    assert decode(m.encode()) == m


@PROPERTY
@given(st.data())
def test_canonicalize_ignores_the_labels(data):
    m = data.draw(planted_maps())
    total = m.total_half_edges
    labels = data.draw(
        st.lists(st.integers(-(10**6), 10**6), min_size=total, max_size=total, unique=True)
    )
    cycles = [
        [labels[h] for h in range(m.faces.root(i), m.faces.plant(i) + 1)] for i in range(m.k)
    ]
    alpha = {labels[h]: labels[p] for h, p in enumerate(m.alpha)}
    assert canonicalize(m.k, cycles, alpha) == m
