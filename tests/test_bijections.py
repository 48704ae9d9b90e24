import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import plantedmaps
from conftest import mk, uni
from plantedmaps import bijections as bij
from plantedmaps import roundtrips
from plantedmaps.census import tricellular_stream
from plantedmaps.core import Disconnected, InvariantError, ValidationError
from plantedmaps.partition import classify, domains

EPS = uni(0)
M2 = uni(2, (1, 3), (2, 4))
M4 = uni(4, (1, 5), (2, 6), (3, 7), (4, 8))
II_MAP = uni(4, (1, 4), (2, 6), (3, 8), (5, 7))
TRI_211 = mk((2, 1, 1), (1, 3), (2, 4))


def test_cut_worked_example():
    res = bij.cut(II_MAP)
    assert res.map == TRI_211
    assert res.became_plants == (4, 7, 9)
    assert II_MAP.genus() == 2 and res.map.genus() == 0


def test_cut_errors():
    with pytest.raises(bij.WrongScenario):
        bij.cut(M4)  # class B
    with pytest.raises(bij.DegenerateM2):
        bij.cut(uni(1, (1, 2)))  # degree-2 root vertex


def test_glue_inverts_cut_example():
    assert bij.glue(TRI_211) == II_MAP


def test_glue_rejects_three_plant_only_faces():
    with pytest.raises(ValidationError):
        bij.glue(mk((0, 0, 0)))


def test_contract_examples():
    out, marks = bij.contract(uni(5, (1, 10), (2, 6), (3, 7), (4, 8), (5, 9)), (1, 10))
    assert out == M4 and marks == (0, 8)
    out, marks = bij.contract(uni(5, (1, 2), (3, 7), (4, 8), (5, 9), (6, 10)), (1, 2))
    assert out == M4 and marks == (0, 0)


def test_contract_errors():
    with pytest.raises(bij.SameVertex):
        bij.contract(M2, (1, 3))
    with pytest.raises(bij.EdgeIsPlant):
        bij.contract(M2, (0, 5))
    with pytest.raises(ValidationError):
        bij.contract(M2, (1, 2))  # not an edge
    with pytest.raises(ValidationError, match="must be integers"):
        bij.contract(uni(5, (1, 10), (2, 6), (3, 7), (4, 8), (5, 9)), (1.0, 10))
    crossing = mk((1, 1), (1, 2))  # pair spans the two faces: ids 1 and 4
    with pytest.raises(bij.TwoSided):
        bij.contract(crossing, (1, 4))


def test_insert_edge_examples():
    assert bij.insert_edge(M4, 0, 8) == uni(5, (1, 10), (2, 6), (3, 7), (4, 8), (5, 9))
    assert bij.insert_edge(EPS, 0, 0) == uni(1, (1, 2))


def test_insert_edge_errors():
    with pytest.raises(bij.MarkOrder):
        bij.insert_edge(M4, 3, 1)
    with pytest.raises(bij.MarkIsPlant):
        bij.insert_edge(M4, 0, 9)
    # marks in different vertices would change the genus
    with pytest.raises(ValidationError):
        bij.insert_edge(uni(1, (1, 2)), 0, 1)


def test_contract_insert_roundtrip_all_pairs_small():
    from plantedmaps.census import unicellular_stream

    for n in range(4):
        for u in unicellular_stream(n):
            vo = u.vertex_of
            last = 2 * n
            for x in range(0, last + 1):
                for y in range(x, last + 1):
                    if vo[x] != vo[y]:
                        continue
                    v = bij.insert_edge(u, x, y)
                    assert v.genus() == u.genus()
                    back, marks = bij.contract(v, bij.inserted_edge_ids(x, y))
                    assert back == u and marks == (x, y)


def test_delete_pair_examples():
    out, marks = bij.delete_pair(M4)
    assert out == M2 and marks == (2, 2)
    out, marks = bij.delete_pair(M2)
    assert out == EPS and marks == (0, 0)


def test_delete_pair_rejects_other_classes():
    with pytest.raises(bij.NotClassB):
        bij.delete_pair(II_MAP)


def test_insert_pair_examples():
    assert bij.insert_pair(M2, 2, 2) == M4
    assert bij.insert_pair(EPS, 0, 0) == M2


def test_insert_pair_lands_in_class_b_for_every_mark_pair():
    for a in range(5):
        for b in range(a, 5):
            out = bij.insert_pair(M2, a, b)
            assert classify(out).leaf == "B"
            assert out.genus() == 2


@pytest.mark.parametrize("insert", [bij.insert_edge, bij.insert_pair], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "marks, exc",
    [
        ((3, 1), bij.MarkOrder),
        ((0, 9), bij.MarkIsPlant),
        ((9, 9), bij.MarkIsPlant),
        ((-1, 2), ValidationError),
        ((0, 10), ValidationError),
        ((0, 0.0), ValidationError),
        (("0", 8), ValidationError),
    ],
    ids=["order", "plant", "both_plant", "below_root", "past_plant", "float", "string"],
)
def test_insertions_share_the_mark_check(insert, marks, exc):
    # M4 has interior 1..8 and its plant at 9
    with pytest.raises(exc) as info:
        insert(M4, *marks)
    assert type(info.value) is exc


def test_psi_image_count_at_0_2():
    rep = roundtrips.roundtrip("psi", 0, 2)
    assert rep["ok"]
    assert rep["domain_size"] == 15 == rep["image_size"]


def test_eta_examples():
    assert bij.eta(1, uni(5, (1, 10), (2, 6), (3, 7), (4, 8), (5, 9))) == M4
    assert bij.eta(3, uni(5, (1, 2), (3, 7), (4, 8), (5, 9), (6, 10))) == M4


def test_eta_wrong_class():
    with pytest.raises(bij.WrongClass):
        bij.eta(1, M4)  # class B
    with pytest.raises(bij.WrongClass):
        bij.eta(5, II_MAP)


def test_eta1_inverse_covers_u1_at_0_3():
    from plantedmaps.roundtrips import maps_by_class, uni_maps

    u1_maps = set(maps_by_class(0, 3)["U1"])
    rebuilt = {bij.eta_inv(1, u) for u in uni_maps(2, 4)}
    assert rebuilt == u1_maps
    rebuilt2 = {bij.eta_inv(2, u) for u in uni_maps(2, 4)}
    assert rebuilt2 == set(maps_by_class(0, 3)["U2"])
    for u in uni_maps(2, 4):
        assert bij.eta(1, bij.eta_inv(1, u)) == u


def test_theta_worked_example():
    t = bij.theta(II_MAP)
    assert t == TRI_211
    assert bij.theta_inv(t) == II_MAP


def test_theta_image_at_0_2():
    rep = roundtrips.roundtrip("theta", 0, 2)
    assert rep["ok"] and rep["domain_size"] == 6


def test_theta_inv_classifies_as_ii():
    for t in tricellular_stream(2):
        assert classify(bij.theta_inv(t)).leaf == "II"


def test_theta_inv_rejects_disconnected():
    with pytest.raises(Disconnected):
        bij.theta_inv(mk((2, 1, 1), (1, 2), (3, 4)))


def test_split5_worked_example():
    f51 = uni(5, (1, 6), (2, 4), (3, 5), (7, 9), (8, 10))
    unip, bip = bij.split5(1, f51)
    assert unip == M2 and unip.genus() == 1
    assert bip == mk((1, 1), (1, 2)) and bip.genus() == 0
    assert bij.join5(1, (unip, bip)) == f51


def test_split5_wrong_class():
    with pytest.raises(bij.WrongClass):
        bij.split5(2, uni(5, (1, 6), (2, 4), (3, 5), (7, 9), (8, 10)))


def test_join5_rejects_trivial_pieces():
    bi = mk((1, 1), (1, 2))
    with pytest.raises(bij.WrongClass):
        bij.join5(1, (EPS, bi))
    with pytest.raises(bij.WrongClass):
        bij.join5(4, (EPS, EPS, EPS))


def test_join5_accepts_one_piece_object_three_times():
    copies = tuple(uni(2, (1, 3), (2, 4)) for _ in range(3))
    assert all(c == M2 and c is not M2 for c in copies)
    u = bij.join5(4, (M2, M2, M2))
    assert u == bij.join5(4, copies)
    assert bij.split5(4, u) == copies


@pytest.mark.parametrize(
    "word, message",
    [
        ((0, 1, 4, 4, 9), "a half-edge appears in two face positions"),
        ((0, 1, 2, 9), "the face words are not closed under the pairing"),
        ((1, 4, 0, 9), "a face root is not paired with its plant"),
    ],
    ids=["repeated", "not_closed", "root_not_plant"],
)
def test_build_checks_are_invariant_errors(word, message):
    # II_MAP pairs (0,9), (1,4), (2,6), (3,8), (5,7)
    with pytest.raises(InvariantError) as info:
        bij._build(II_MAP.alpha, (word,))
    assert str(info.value) == message


def test_split5_counts_at_0_3():
    rep = roundtrips.roundtrip("split5", 0, 3)
    assert rep["ok"]
    assert rep["domain_size"] == 3  # one map in each of F51, F52, F53


def test_cut_roundtrip_at_0_2():
    rep = roundtrips.roundtrip("cut", 0, 2)
    assert rep["ok"] and rep["domain_size"] == 6


def test_bookkeeping_assertions():
    # cut keeps the pairing, only the face partition changes
    res = bij.cut(II_MAP)
    assert res.map.np_edge_count == II_MAP.np_edge_count - 2
    # contraction preserves genus and removes one edge
    out, _ = bij.contract(uni(5, (1, 10), (2, 6), (3, 7), (4, 8), (5, 9)), (1, 10))
    assert out.np_edge_count == 4
    # pair deletion lowers genus by one and removes two edges
    out, _ = bij.delete_pair(M4)
    assert out.genus() == M4.genus() - 1
    assert out.np_edge_count == M4.np_edge_count - 2


def test_invariants_survive_python_O():
    # With insert_edge broken, eta_inv(1) of a class-B map stays class B,
    # outside the domain of eta1; the check must fire with asserts stripped.
    script = (
        "from plantedmaps import bijections\n"
        "from plantedmaps.core import InvariantError, from_np_pairs\n"
        "bijections.insert_edge = lambda u, x, y: u\n"
        "try:\n"
        "    bijections.eta_inv(1, from_np_pairs((4,), [(1, 3), (2, 4)]))\n"
        "except InvariantError as exc:\n"
        "    print('InvariantError:', exc)\n"
    )
    src = str(Path(plantedmaps.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("InvariantError: eta_inv(1)")


# Seeded checks beyond the exhaustive window (n <= 4): uniformly random
# one-face maps, and F5 maps glued from random pieces, since a closed branch
# almost never occurs in a uniform map this large.


def _random_map(rng, interiors):
    """Uniformly random pairing of the non-plant half-edges of ``interiors``."""
    ids = list(range(1, sum(interiors) + 1))
    rng.shuffle(ids)
    return mk(interiors, *zip(ids[0::2], ids[1::2]))


def _random_connected_bi(rng, n):
    while True:
        s = rng.randrange(1, 2 * n)
        bi = _random_map(rng, (s, 2 * n - s))
        if bi.is_connected:
            return bi


def _euler_genus(m):
    """Half of 2 - V + E - F, with the vertices counted here as the cycles of
    h -> alpha(next id in h's face); the aggregate genus for k > 1."""
    nxt = list(range(1, m.total_half_edges + 1))
    for i in range(m.k):
        nxt[m.faces.plant(i)] = m.faces.root(i)
    seen = [False] * m.total_half_edges
    v = 0
    for h in range(m.total_half_edges):
        v += not seen[h]
        while not seen[h]:
            seen[h] = True
            h = m.alpha[nxt[h]]
    defect = 2 - v + m.total_half_edges // 2 - m.k
    assert defect % 2 == 0
    return defect // 2


@pytest.mark.parametrize("n", [20, 60, 120, 200])
def test_surgeries_on_random_maps(n):
    rng = random.Random(n)
    seen = set()
    for _ in range(12):
        u = _random_map(rng, (2 * n,))
        g = _euler_genus(u)
        assert u.genus() == g
        vo = u.vertex_of
        edges = [(a, u.alpha[a]) for a in range(1, 2 * n + 1) if vo[a] != vo[u.alpha[a]]]
        if edges:  # a one-vertex map has no contractible edge
            edge = rng.choice(edges)
            v, marks = bij.contract(u, edge)
            assert _euler_genus(v) == g and v.np_edge_count == n - 1
            assert bij.insert_edge(v, *marks) == u
            assert bij.inserted_edge_ids(*marks) == tuple(sorted(edge))
            seen.add("contract")
        pc = classify(u)
        for i in range(1, 8):
            w = bij.eta_inv(i, u)
            assert _euler_genus(w) == g and bij.eta(i, w) == u
            if set(domains(pc)) & set(bij.ETA_DOMAINS[i]):
                assert bij.eta_inv(i, bij.eta(i, u)) == u
        leaf = pc.leaf
        seen.add(leaf)
        if leaf == "B":
            v, marks = bij.delete_pair(u)
            assert _euler_genus(v) == g - 1 and v.np_edge_count == n - 2
            assert bij.insert_pair(v, *marks) == u
        elif leaf != "U1" and g >= 2:  # scenario A, root degree >= 3, glue-able
            t = bij.cut(u).map
            assert _euler_genus(t) == g - 2 and bij.glue(t) == u
            if leaf == "II":
                assert bij.theta(u) == t and bij.theta_inv(t) == u
    assert {"contract", "B", "II"} <= seen
    for i in (1, 2, 3, 4):
        if i == 4:
            sizes = (n // 3, n // 3, n - 2 - 2 * (n // 3))
            pieces = tuple(_random_map(rng, (2 * s,)) for s in sizes)
        else:
            pieces = (_random_map(rng, (2 * (n // 3),)), _random_connected_bi(rng, n - 2 - n // 3))
        u = bij.join5(i, pieces)
        assert u.np_edge_count == n
        assert bij.split5(i, u) == pieces and bij.join5(i, bij.split5(i, u)) == u
        g = _euler_genus(u)
        genus_sum = sum(_euler_genus(p) for p in pieces)
        assert genus_sum == (g if i == 4 else g - 1)
