from collections import Counter
from functools import partial
from itertools import permutations
from math import comb

import pytest

from conftest import catalan, double_factorial_odd, mk, uni
from plantedmaps import oracle
from plantedmaps.census import (
    N_MAX,
    BoundExceeded,
    _class_moves,
    _connected_census,
    _cycle_census,
    _genus_of_closed,
    _slot_width,
    _unpack,
    bicellular_stream,
    count,
    count_range,
    tricellular_stream,
    unicellular_stream,
)
from plantedmaps.core import InvariantError
from plantedmaps.partition import _closes, _join


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


@pytest.mark.parametrize(
    "k, stream, n_max",
    [(1, unicellular_stream, 6), (2, bicellular_stream, 4), (3, tricellular_stream, 3)],
)
def test_cycle_census_matches_the_tally_of_all_pairings(k, stream, n_max):
    for n in range(n_max + 1):
        tally = {}
        for m in stream(n) if k == 1 else stream(n, connected_only=False):
            closed = m.vertex_count - k - 1
            tally[closed] = tally.get(closed, 0) + 1
        expected = [tally.get(i, 0) for i in range(max(tally, default=-1) + 1)]
        assert list(_cycle_census(k, n)) == expected, n


def _path_end_census(k, n):
    """The census pass on concrete path-end states, one byte per path end
    (each open chord's A end, then the frontier): the start it began at, 0
    for the current face's root in-port, ``j + 1`` for open chord ``j``'s B
    end.  The reference for the pass on their classes."""
    span = 2 * n
    width = _slot_width(k, n)
    layers = [{} for _ in range(k)]
    layers[0][b"\0"] = 1
    for pos in range(span + 1):
        for b in range(k - 1):
            for state, counts in layers[b].items():
                ends = list(state)
                closed = _join(ends, 0)
                ends[-1] = 0
                key = bytes(ends)
                layers[b + 1][key] = layers[b + 1].get(key, 0) + (counts << closed * width)
        if pos == span:
            break
        step = [{} for _ in range(k)]
        for layer, out in zip(layers, step):
            for ends, counts in layer.items():
                m = len(ends) - 1
                if m < span - pos - 1:
                    key = ends + bytes((m + 1,))
                    out[key] = out.get(key, 0) + counts
                for path, closed in _closes(ends):
                    out[path] = out.get(path, 0) + (counts << closed * width)
        layers = step
    return tuple(_unpack(layers[k - 1].get(b"\0", 0), width))


def _class_of(ends):
    """The (l0, parts) class of a path-end state: the cycle type of the
    permutation sending the frontier (label 0) to ``ends[-1]`` and chord
    ``j`` (label ``j + 1``) to ``ends[j]``."""
    f = [ends[-1], *ends[:-1]]
    seen = [False] * len(f)
    lengths = []
    for start in range(len(f)):
        length, h = 0, start
        while not seen[h]:
            seen[h] = True
            length += 1
            h = f[h]
        if length:
            lengths.append(length)
    return lengths[0], tuple(sorted(lengths[1:], reverse=True))


def test_class_moves_match_the_path_end_moves():
    # Every path-end state with up to 6 open chords, so every class with
    # m <= 6 and each of its representatives.
    seen = set()
    for m in range(7):
        for perm in permutations(range(m + 1)):
            ends = bytes(perm)
            state = _class_of(ends)
            seen.add(state)
            end, opened, closes = _class_moves(state)
            face_end = list(ends)
            closed = _join(face_end, 0)
            face_end[-1] = 0
            assert (_class_of(face_end), closed) == end, ends
            assert _class_of(ends + bytes((m + 1,))) == opened, ends
            expected = Counter((_class_of(path), closed) for path, closed in _closes(ends))
            got = Counter()
            for key, mult, closed in closes:
                got[key, closed] += mult
            assert got == expected, ends
    # (l0, a partition of m + 1 - l0) for m <= 6
    assert len(seen) == 75


@pytest.mark.parametrize("k, n_max", [(1, 7), (2, 5), (3, 4)], ids=["uni", "bi", "tri"])
def test_cycle_census_matches_the_path_end_pass(k, n_max):
    # A class-level move that merges or splits the wrong classes changes the lists.
    for n in range(n_max + 1):
        assert _cycle_census(k, n) == _path_end_census(k, n), n


@pytest.mark.parametrize(
    "k, n_max, by_genus",
    [
        (1, 20, oracle.hz),
        (2, 14, oracle.bicellular),
        # the counting identity solved for the three-face count
        (3, 11, lambda g, n: oracle.hz(g + 2, n + 2) - oracle.theorem_rhs(g, n, 0)),
    ],
    ids=["uni", "bi", "tri"],
)
def test_connected_census_matches_the_oracle_past_the_bounds(k, n_max, by_genus):
    # N_MAX bounds the CLI, not the pass.  Slot i holds the maps of genus g
    # with i = n + 1 - k - 2g; compare the non-zero entries.
    for n in range(n_max + 1):
        got = {i: c for i, c in enumerate(_connected_census(k, n)) if c}
        expected = {n + 1 - k - 2 * g: by_genus(g, n) for g in range(n // 2 + 1)}
        assert got == {i: c for i, c in expected.items() if c}, n


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


def test_genus_of_closed_rejects_odd_or_negative_2g():
    assert _genus_of_closed(1, 4, 0, "uni") == 2
    assert _genus_of_closed(3, 4, 0, "tri") == 1
    for k, n, closed in ((1, 3, 0), (1, 2, 4), (3, 1, 1)):
        with pytest.raises(InvariantError, match="2g = "):
            _genus_of_closed(k, n, closed, "census")


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
