from functools import lru_cache

import pytest

from conftest import closed_branches, eta_edges, path_end_leaf_pass, uni
from plantedmaps import oracle, partition
from plantedmaps.bijections import cut
from plantedmaps.census import N_MAX, count, unicellular_stream
from plantedmaps.core import InvariantError
from plantedmaps.partition import (
    LEAVES,
    PENDANT_DOMAINS,
    BoundExceeded,
    PartitionClass,
    TrivialMap,
    _census_class_counts,
    _leaf_pass,
    classify,
    domains,
    histogram,
    scenario,
    v1_profile,
)

B_MAP = uni(4, (1, 5), (2, 6), (3, 7), (4, 8))
II_MAP = uni(4, (1, 4), (2, 6), (3, 8), (5, 7))
F51_MAP = uni(5, (1, 6), (2, 4), (3, 5), (7, 9), (8, 10))
U1_MAP = uni(5, (1, 10), (2, 6), (3, 7), (4, 8), (5, 9))
G23_MAP = uni(5, (1, 2), (3, 7), (4, 8), (5, 9), (6, 10))


def test_v1_profile_examples():
    p = v1_profile(uni(2, (1, 3), (2, 4)))
    assert (p.degree, p.second, p.third) == (5, 3, 2)
    p = v1_profile(II_MAP)
    assert (p.second, p.third) == (4, 7)
    p = v1_profile(uni(1, (1, 2)))
    assert (p.degree, p.second, p.third) == (2, 2, None)


def test_v1_profile_rejects_trivial_map():
    with pytest.raises(TrivialMap):
        v1_profile(uni(0))


def test_classify_rejects_multi_face_maps():
    from conftest import mk
    from plantedmaps.core import ValidationError

    with pytest.raises(ValidationError):
        classify(mk((1, 1), (1, 2)))


def test_scenario_examples():
    assert scenario(B_MAP) == "B"
    assert scenario(II_MAP) == "A"
    assert scenario(uni(1, (1, 2))) == "A"


def test_cut_faces_are_the_branches():
    # II_MAP's branches are 1..4, 5..7 and 8; each face keeps its branch
    # less the ids that become the root and plant.
    assert cut(II_MAP).map.faces.interior_sizes == (2, 1, 1)
    assert cut(F51_MAP).map.faces.interior_sizes == (4, 1, 1)


def test_classify_examples():
    assert classify(B_MAP).leaf == "B"
    assert classify(II_MAP).leaf == "II"
    assert classify(F51_MAP).leaf == "F51"
    assert classify(U1_MAP).leaf == "U1"
    pc = classify(G23_MAP)
    assert pc.leaf == "G23" and pc.first_pendant and not pc.second_pendant


def test_classify_is_total_and_leaves_are_disjoint():
    leaves = set()
    for n in range(1, 6):
        for m in unicellular_stream(n):
            pc = classify(m)
            leaves.add(pc.leaf)
            if pc.first_pendant:
                assert pc.leaf in ("U2", "G23")
            if pc.second_pendant:
                assert pc.leaf in ("U2", "G23", "G24")
    assert leaves <= {
        "U1",
        "U2",
        "G23",
        "G24",
        "F51",
        "F52",
        "F53",
        "F54",
        "II",
        "B",
    }


def test_closed_branch_count_is_never_two():
    for n in range(1, 6):
        for m in unicellular_stream(n):
            if scenario(m) == "A":
                assert sum(closed_branches(m)) in (0, 1, 3)


def test_contracted_pairs_join_distinct_vertices():
    for n in range(1, 6):
        for m in unicellular_stream(n):
            for a, b in eta_edges(m):
                assert m.alpha[a] == b and m.vertex_of[a] != m.vertex_of[b]


def test_histogram_0_2():
    h = histogram(0, 2)
    assert h.classes == {
        "U1": 0,
        "U2": 0,
        "G23": 0,
        "G24": 0,
        "F51": 0,
        "F52": 0,
        "F53": 0,
        "F54": 0,
        "II": 6,
        "B": 15,
    }
    assert h.total == 21


def test_histogram_0_3():
    h = histogram(0, 3)
    assert h.classes == {
        "U1": 21,
        "U2": 21,
        "G23": 21,
        "G24": 21,
        "F51": 1,
        "F52": 1,
        "F53": 1,
        "F54": 0,
        "II": 116,
        "B": 280,
    }
    assert h.total == 483
    assert h.pendants == {"U2_first": 0, "U2_second": 0, "G23_second": 0}


def test_histogram_1_4():
    h = histogram(1, 4)
    assert h.classes["B"] == 945
    assert h.classes["II"] == 540
    assert h.total == oracle.hz(3, 6) == 1485


def test_histogram_totals_match_recurrence():
    # Every index up to the bound, including genera whose bucket is empty.
    for n in range(N_MAX["unicellular"] - 1):
        for g in range((n + 2) // 2 + 1):
            assert histogram(g, n).total == oracle.hz(g + 2, n + 2), (g, n)


def test_histogram_bound():
    with pytest.raises(BoundExceeded):
        histogram(0, 10)
    with pytest.raises(BoundExceeded, match="g and n must be non-negative"):
        histogram(-1, 0)


def test_degenerate_double_pendant_is_u2_with_both_flags():
    # Both branches of this degree-3 map are pendant pairs; it sits below
    # genus 2 and never enters the identity's ranges.
    m = uni(2, (1, 2), (3, 4))
    pc = classify(m)
    assert pc.leaf == "U2" and pc.first_pendant and pc.second_pendant
    assert m.genus() == 0


def test_domains_name_the_leaf_then_the_pendant_sub_domains():
    assert domains(PartitionClass("U2", True, True)) == ("U2", "U2_first", "U2_second")
    assert domains(PartitionClass("U2", False, True)) == ("U2", "U2_second")
    assert domains(PartitionClass("G23", True, True)) == ("G23", "G23_second")
    assert domains(PartitionClass("G23", True, False)) == ("G23",)
    assert domains(PartitionClass("G24", second_pendant=True)) == ("G24",)
    for n in range(1, 6):
        for m in unicellular_stream(n):
            pc = classify(m)
            leaf, *subs = domains(pc)
            assert leaf == pc.leaf
            assert all(s in PENDANT_DOMAINS and s.startswith(leaf) for s in subs)


def _object_classify(u):
    """The decision tree on the object path: the root cycle from ``u.sigma``,
    distinct vertices from ``u.vertex_of``, branch closure by set membership."""
    sigma, alpha, vertex_of = u.sigma, u.alpha, u.vertex_of
    cycle = [0]
    while sigma[cycle[-1]] != 0:
        cycle.append(sigma[cycle[-1]])
    if len(cycle) >= 3 and cycle[2] < cycle[1]:
        return PartitionClass("B")
    if len(cycle) == 2:
        assert vertex_of[alpha[cycle[1]]] != vertex_of[cycle[1]]
        return PartitionClass("U1")
    h2, h3 = cycle[1], cycle[2]
    if len(cycle) == 3:
        assert vertex_of[alpha[h3]] != vertex_of[h3]
        return PartitionClass("U2", h2 == 2, h3 - h2 == 2)
    segs = (range(1, h2 + 1), range(h2 + 1, h3 + 1), range(h3 + 1, 2 * u.np_edge_count + 1))
    closed = [all(alpha[t] in seg for t in seg) for seg in segs]
    assert sum(closed) != 2
    if not any(closed):
        return PartitionClass("II")
    if h2 == 2:
        return PartitionClass("G23", True, h3 - h2 == 2)
    if h3 - h2 == 2:
        return PartitionClass("G24", second_pendant=True)
    if all(closed):
        return PartitionClass("F54")
    return PartitionClass(f"F5{closed.index(True) + 1}")


@lru_cache(maxsize=None)
def _object_class_counts(m):
    expected = {}
    for mp in unicellular_stream(m):
        pc = _object_classify(mp)
        assert classify(mp) == pc, mp
        for dom in domains(pc):
            key = (mp.genus(), dom)
            expected[key] = expected.get(key, 0) + 1
    return expected


@pytest.mark.parametrize("m", range(1, 7))
def test_census_class_counts_match_the_object_path(m):
    assert _census_class_counts(m) == _object_class_counts(m)


def test_leaf_sizes_read_off_a_larger_pass_equal_their_own_pass(cold_passes):
    # Size m is read at position 2m of the pass to 9, and off the last
    # position of a pass that ends at m.
    _census_class_counts(9)
    for m in range(1, 10):
        assert _census_class_counts(m) == _leaf_pass(m)[-1], m
    for m in range(1, 7):
        assert _census_class_counts(m) == _object_class_counts(m), m
    assert len(partition._leaf_sizes) == 10


def test_census_class_counts_match_the_path_end_pass(cold_passes):
    # Each size off its own pass on the census classes, against the same
    # size read off a path-end pass to 9, whose tag names chords by index.
    expected = path_end_leaf_pass(9)
    for m in range(10):
        assert _census_class_counts(m) == expected[m], m


def test_leaf_pass_refuses_a_map_that_ends_without_a_leaf(cold_passes, monkeypatch):
    # A raised InvariantError, so that python -O keeps the check.
    monkeypatch.setattr(partition, "_next_tag", lambda tag, *_: tag)
    with pytest.raises(InvariantError, match="ended before its leaf was known"):
        _census_class_counts(3)


def test_leaf_pass_refuses_a_chord_left_open_at_its_last_position(monkeypatch):
    # Close moves that close no chord leave the root chord open at the end.
    moves = partition._class_moves

    def no_closes(state):
        end, opened, closes = moves(state)
        return end, opened, tuple((state, mult, 0) for _, mult, _ in closes)

    monkeypatch.setattr(partition, "_class_moves", no_closes)
    with pytest.raises(InvariantError, match="left a chord open at its last position"):
        _leaf_pass(1)


@pytest.mark.parametrize("m", range(7, N_MAX["unicellular"] + 1))
def test_census_class_counts_sum_to_the_census_per_genus(m):
    # Past the object path's window: the leaf pass and the census pass share
    # the close moves, so summing the leaves of every genus (0 and 1
    # included, which histogram never reads) must give count().
    counts = _census_class_counts(m)
    per_genus = [sum(counts.get((g, leaf), 0) for leaf in LEAVES) for g in range(m // 2 + 1)]
    assert per_genus == [count("unicellular", m).get(g, m) for g in range(m // 2 + 1)]
