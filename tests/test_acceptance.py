"""Acceptance suite: every criterion is exact-integer, tolerance zero.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import time

from conftest import closed_branches, double_factorial_odd, eta_edges
from plantedmaps import oracle, partition, roundtrips
from plantedmaps.census import (
    bicellular_stream,
    count,
    tricellular_stream,
    unicellular_stream,
)


@contextlib.contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def test_criterion_1_census_matches_recurrence_up_to_n8():
    desc = "one-face census equals the recurrence table for n <= 8"
    with criterion(1, desc):
        t0 = time.time()
        for n in range(9):
            tbl = count("unicellular", n)
            for g in range(n // 2 + 1):
                assert tbl.get(g, n) == oracle.hz(g, n), (g, n)
            assert tbl.total(n) == double_factorial_odd(n), n
        elapsed = time.time() - t0
        tbl4 = count("unicellular", 4)
        assert (tbl4.get(0, 4), tbl4.get(1, 4), tbl4.get(2, 4)) == (14, 70, 21)
        assert count("unicellular", 5).get(2, 5) == 483
        assert elapsed < 120, f"census too slow: {elapsed:.1f}s"
        print(f"  [n <= 8 in {elapsed:.1f}s]")


def test_criterion_2_bicellular_counts_match_subtraction_formula():
    desc = "two-face census equals u(g+1,n+1) minus the convolution for n <= 5"
    with criterion(2, desc):
        for n in range(6):
            tbl = count("bicellular", n)
            for g in range(n // 2 + 1):
                assert tbl.get(g, n) == oracle.bicellular(g, n), (g, n)
        assert oracle.bicellular(0, 1) == 1
        assert oracle.bicellular(0, 2) == 8
        assert oracle.bicellular(1, 2) == 0


def test_criterion_3_counting_identity_holds_exactly():
    desc = "counting identity exact for every (g, n) with n <= 5"
    with criterion(3, desc):
        equations = {}
        for n in range(6):
            for g in range((n + 2) // 2 + 1):
                rep = oracle.verify_theorem(g, n)
                assert rep["lhs_reference"] == rep["rhs"], rep
                assert rep["lhs_census"] == rep["lhs_reference"], rep
                equations[(g, n)] = rep["equation"]
        assert equations[(0, 2)] == "21 = 6 + 0 + 0 - 0 + 15"
        assert equations[(0, 3)] == "483 = 116 + 3 + 84 - 0 + 280"
        print(f"  [{equations[(0, 2)]}; {equations[(0, 3)]}]")


def test_criterion_4_partition_leaf_cardinalities():
    desc = "every partition leaf matches its bijection target for n <= 5"
    with criterion(4, desc):
        for n in range(6):
            for g in range((n + 2) // 2 + 1):
                rep = oracle.verify_theorem(g, n)
                for leaf, cmp in rep["leaves"].items():
                    assert cmp["ok"], (g, n, leaf, cmp)
                for flag, cmp in rep["pendant_counts"].items():
                    assert cmp["ok"], (g, n, flag, cmp)
        hist = partition.histogram(0, 3)
        assert hist.classes == {
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


def test_criterion_5_exhaustive_roundtrips():
    desc = "all bijections are exact two-sided inverses with full image coverage"
    with criterion(5, desc):
        single_edge = [
            "cut",
            "contract",
            "eta1",
            "eta2",
            "eta3",
            "eta4",
            "eta5",
            "eta6",
            "eta7",
            "theta",
            "split5",
        ]
        checked = 0
        for n in range(5):
            for g in range((n + 2) // 2 + 1):
                for name in single_edge:
                    rep = roundtrips.roundtrip(name, g, n)
                    assert rep["ok"], (name, g, n, rep["failures"][:5])
                    checked += rep["domain_size"]
        for n in range(4):
            for g in range((n + 2) // 2 + 1):
                rep = roundtrips.roundtrip("psi", g, n)
                assert rep["ok"], ("psi", g, n, rep["failures"][:5])
                checked += rep["domain_size"]
        print(f"  [{checked} domain elements round-tripped]")


def test_criterion_6_structural_properties():
    desc = "closed-branch counts, contraction legality, plant fixing"
    with criterion(6, desc):
        for n in range(6):
            for m in unicellular_stream(n):
                sigma = m.sigma
                # each plant is a fixed point of sigma, one per face, and the
                # only other fixed points are degree-one vertices
                for p in m.plants:
                    assert sigma[p] == p
                assert m.plants == (m.total_half_edges - 1,)
                for h, image in enumerate(sigma):
                    if image == h and h not in m.plants:
                        assert len(m.vertex_cycles[m.vertex_of[h]]) == 1
                if n >= 1:
                    if partition.scenario(m) == "A":
                        assert sum(closed_branches(m)) in (0, 1, 3)
                    for a, b in eta_edges(m):
                        assert m.alpha[a] == b and m.vertex_of[a] != m.vertex_of[b]
        for n in range(4):
            for m in list(bicellular_stream(n)) + list(tricellular_stream(n)):
                for p in m.plants:
                    assert m.sigma[p] == p
                assert len(m.plants) == m.k
