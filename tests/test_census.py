from functools import partial
from math import comb

import pytest

from conftest import catalan, double_factorial_odd, mk, uni
from plantedmaps import oracle
from plantedmaps.census import (
    N_MAX,
    BoundExceeded,
    _cycle_census,
    bicellular_stream,
    count,
    count_range,
    tricellular_stream,
    unicellular_stream,
)


def test_unicellular_n0_is_the_trivial_map():
    maps = list(unicellular_stream(0))
    assert maps == [uni(0)]


def test_unicellular_n2_genus_multiset():
    maps = list(unicellular_stream(2))
    assert len(maps) == 3
    assert sorted(m.genus() for m in maps) == [0, 0, 1]


def test_unicellular_n4_counts():
    tally = {}
    for m in unicellular_stream(4):
        tally[m.genus()] = tally.get(m.genus(), 0) + 1
    assert tally == {0: 14, 1: 70, 2: 21}


def test_stream_is_deterministic():
    assert list(unicellular_stream(3)) == list(unicellular_stream(3))


def test_streams_have_no_duplicates():
    for n in range(5):
        maps = list(unicellular_stream(n))
        assert len(set(maps)) == len(maps) == double_factorial_odd(n)
    for n in range(4):
        maps = list(bicellular_stream(n))
        assert len(set(maps)) == len(maps)
        maps = list(tricellular_stream(n))
        assert len(set(maps)) == len(maps)


def test_bicellular_small():
    assert list(bicellular_stream(0)) == []
    maps = list(bicellular_stream(1))
    assert maps == [mk((1, 1), (1, 2))]
    assert maps[0].genus() == 0


def test_bicellular_identity_includes_the_split():
    # same matching, different interior splits: distinct maps
    a = mk((0, 4), (1, 2), (3, 4))
    b = mk((4, 0), (1, 2), (3, 4))
    assert a != b


def test_tricellular_small():
    assert list(tricellular_stream(0)) == []
    assert list(tricellular_stream(1)) == []
    maps = list(tricellular_stream(2))
    assert len(maps) == 6
    assert all(m.genus() == 0 for m in maps)


def test_count_unicellular_matches_recurrence():
    for n in range(12):
        tbl = count("unicellular", n)
        for g in range(n // 2 + 1):
            assert tbl.get(g, n) == oracle.hz(g, n), (g, n)
        assert tbl.total(n) == double_factorial_odd(n)


def test_count_genus_zero_is_catalan():
    for n in range(7):
        assert count("unicellular", n).get(0, n) == catalan(n)


def test_count_unicellular_n5_spot():
    tbl = count("unicellular", 5)
    assert (tbl.get(0, 5), tbl.get(1, 5), tbl.get(2, 5)) == (42, 420, 483)
    assert tbl.total(5) == 945 == double_factorial_odd(5)


def test_count_bicellular_n1_spot():
    assert count("bicellular", 1).entries == {(0, 1): 1}


def test_count_bicellular_matches_subtraction_formula():
    for n in range(10):
        tbl = count("bicellular", n)
        for g in range(n // 2 + 1):
            assert tbl.get(g, n) == oracle.bicellular(g, n), (g, n)


def test_count_tricellular_matches_counting_identity():
    # the identity solved for t, with every other term from the recurrence
    t = oracle.table()
    for n in range(9):
        tbl = count("tricellular", n)
        for g in range(n // 2 + 1):
            expected = (
                t.u(g + 2, n + 2)
                - t.d_value(g, n)
                - 4 * t.u(g + 2, n + 1)
                + 3 * t.u(g + 2, n)
                - (n + 1) * (2 * n + 1) * t.u(g + 1, n)
            )
            assert tbl.get(g, n) == expected, (g, n)


def test_count_tricellular_spots():
    assert count("tricellular", 2).get(0, 2) == 6
    assert count("tricellular", 3).get(0, 3) == 116


def test_count_matches_stream_tally():
    for kind, stream, n_max in [
        ("unicellular", unicellular_stream, 6),
        ("bicellular", bicellular_stream, 4),
        ("tricellular", tricellular_stream, 4),
    ]:
        for n in range(n_max + 1):
            tally = {}
            for m in stream(n):
                tally[m.genus()] = tally.get(m.genus(), 0) + 1
            tbl = count(kind, n)
            for g in range(n // 2 + 1):
                assert tbl.get(g, n) == tally.get(g, 0), (kind, g, n)


@pytest.mark.parametrize("k, kind", [(1, "unicellular"), (2, "bicellular"), (3, "tricellular")])
def test_cycle_census_counts_every_layout_and_pairing(k, kind):
    # The all-pairings pass on its own, so that a fault in it cannot cancel
    # against one in the subtraction of the disconnected pairings.
    for n in range(N_MAX[kind] + 1):
        pairs = comb(2 * n + k - 1, k - 1) * double_factorial_odd(n)
        assert sum(_cycle_census(k, n)) == pairs, n


@pytest.mark.parametrize("k, stream, n_max", [(2, bicellular_stream, 4), (3, tricellular_stream, 3)])
def test_cycle_census_matches_the_tally_of_all_pairings(k, stream, n_max):
    for n in range(n_max + 1):
        tally = {}
        for m in stream(n, connected_only=False):
            closed = m.vertex_count - k - 1
            tally[closed] = tally.get(closed, 0) + 1
        expected = [tally.get(i, 0) for i in range(max(tally, default=-1) + 1)]
        assert list(_cycle_census(k, n)) == expected, n


@pytest.mark.parametrize(
    "stream, n_max",
    [
        (unicellular_stream, 5),
        (partial(bicellular_stream, connected_only=False), 4),
        (partial(tricellular_stream, connected_only=False), 3),
    ],
    ids=["uni", "bi", "tri"],
)
def test_streams_are_lexicographic_per_layout(stream, n_max):
    for n in range(n_max + 1):
        last = {}
        for m in stream(n):
            layout = m.faces.interior_sizes
            assert layout not in last or last[layout] < m.alpha, (n, m)
            last[layout] = m.alpha


def test_bound_exceeded():
    with pytest.raises(BoundExceeded):
        count("unicellular", 12)
    with pytest.raises(BoundExceeded):
        count("bicellular", 10)
    with pytest.raises(BoundExceeded):
        count("tricellular", 9)
    with pytest.raises(BoundExceeded):
        count("bicellular", -1)


def test_kind_aliases_and_unknown_kind():
    assert count("uni", 2).kind == "unicellular"
    with pytest.raises(ValueError):
        count("quad", 2)


def test_csv_and_json_export():
    tbl = count("unicellular", 4)
    csv = tbl.to_csv()
    assert csv.splitlines()[0] == "kind,g,n,count"
    assert "unicellular,2,4,21" in csv
    import json

    doc = json.loads(tbl.to_json())
    assert doc["kind"] == "unicellular"
    assert {"g": 1, "n": 4, "count": "70"} in doc["table"]


def test_count_range_merges_tables():
    tbl = count_range("unicellular", 3)
    assert tbl.get(0, 0) == 1
    assert tbl.get(1, 3) == 10
    assert tbl.total(2) == 3


def test_merge_rejects_kind_mismatch():
    with pytest.raises(ValueError):
        count("unicellular", 1).merge(count("bicellular", 1))
