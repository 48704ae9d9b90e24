from functools import partial

import pytest

from conftest import catalan, double_factorial_odd
from plantedmaps import oracle
from plantedmaps.oracle import BoundExceeded, HZTable


def test_recurrence_base_and_zero_region():
    assert oracle.hz(0, 0) == 1
    assert oracle.hz(1, 1) == 0
    assert oracle.hz(3, 5) == 0
    assert oracle.hz(0, 1) == 1


def test_recurrence_spot_values():
    assert (oracle.hz(0, 4), oracle.hz(1, 4), oracle.hz(2, 4)) == (14, 70, 21)
    assert oracle.hz(2, 5) == 483
    assert oracle.hz(1, 3) == 10
    assert oracle.hz(2, 6) == 6468
    assert oracle.hz(3, 6) == 1485
    assert oracle.hz(2, 7) == 66066
    assert oracle.hz(3, 7) == 56628


def test_row_sums_are_double_factorials():
    for n in range(11):
        assert sum(oracle.hz(g, n) for g in range(n // 2 + 1)) == double_factorial_odd(n)


def test_genus_zero_row_is_catalan():
    for n in range(9):
        assert oracle.hz(0, n) == catalan(n)


def test_table_is_exact_up_to_default_bound():
    # construction asserts exact division at every cell
    t = HZTable(24)
    assert t.u(12, 24) > 0


def test_bound_exceeded():
    t = HZTable(6)
    with pytest.raises(BoundExceeded):
        t.u(0, 7)
    # Each table keeps its own memo: a larger table's entry is not read back.
    assert HZTable(24).bicellular(0, 6) == 6144
    with pytest.raises(BoundExceeded, match="n = 7 beyond table bound 6"):
        t.bicellular(0, 6)
    with pytest.raises(BoundExceeded, match="n_max must be non-negative"):
        HZTable(-1)
    with pytest.raises(BoundExceeded, match="g and n must be non-negative"):
        oracle.verify_theorem(0, -1)


def test_u_star():
    assert oracle.u_star(0, 0) == 0
    assert oracle.u_star(0, 1) == 1
    assert oracle.u_star(1, 2) == 1


def test_bicellular_spot_values():
    assert oracle.bicellular(0, 1) == 1
    assert oracle.bicellular(0, 2) == 8
    assert oracle.bicellular(1, 2) == 0
    assert oracle.bicellular(0, 3) == 48
    assert oracle.bicellular(1, 3) == 21
    assert oracle.bicellular(0, 4) == 256
    assert oracle.bicellular(1, 4) == 440
    assert oracle.bicellular(2, 4) == 0


def test_bicellular_never_negative_in_range():
    for g in range(4):
        for n in range(9):
            assert oracle.bicellular(g, n) >= 0


def test_d_value_spots():
    assert oracle.d_value(0, 2) == 0
    assert oracle.d_value(0, 3) == 3
    assert oracle.d_value(0, 4) == 117
    assert oracle.d_value(0, 5) == 2043
    assert oracle.d_value(1, 5) == 126
    for g in range(5):
        assert oracle.d_value(g, 0) == 0


def test_theorem_rhs_spots():
    # 21 = 6 + 0 + 0 - 0 + 15
    assert oracle.theorem_rhs(0, 2, 6) == 21 == oracle.hz(2, 4)
    # 483 = 116 + 3 + 84 - 0 + 280
    assert oracle.theorem_rhs(0, 3, 116) == 483 == oracle.hz(2, 5)
    # both sides empty at (1, 2)
    assert oracle.theorem_rhs(1, 2, 0) == 0 == oracle.hz(3, 4)


def test_verify_theorem_report_contents():
    rep = oracle.verify_theorem(0, 2)
    assert rep["ok"]
    assert rep["equation"] == "21 = 6 + 0 + 0 - 0 + 15"
    assert rep["lhs_census"] == "21"
    assert rep["leaves"]["B"] == {"census": "15", "expected": "15", "ok": True}
    assert rep["leaves"]["II"]["ok"]


def test_theorem_leaves_and_terms_give_the_right_hand_side():
    # The leaves are exhaustive, and the report and theorem_rhs read one term list.
    reports = oracle.verify_theorem_range(8)
    assert len(reports) == 34
    for rep in reports:
        rhs = int(rep["rhs"])
        assert sum(int(cell["expected"]) for cell in rep["leaves"].values()) == rhs
        t = int(rep["terms"]["tricellular_census"])
        assert oracle.theorem_rhs(rep["g"], rep["n"], t) == rhs


def test_verify_theorem_bound():
    with pytest.raises(BoundExceeded):
        oracle.verify_theorem(0, 9)


def test_a_second_theorem_report_runs_no_convolution(monkeypatch):
    # The two-face counts, both splits and the inner pair convolution are
    # memoised per table, so a report's splits are computed once.
    oracle.verify_theorem(1, 6)
    calls = []
    conv = HZTable._conv

    def counted(self, *args):
        calls.append(args[2:])
        return conv(self, *args)

    monkeypatch.setattr(HZTable, "_conv", counted)
    assert oracle.verify_theorem(1, 6)["ok"]
    assert calls == []


def test_convolutions_stop_at_the_largest_genus_of_the_first_piece():
    # f(a, m) is a one-face count, zero once a > m // 2: the clamped sum is
    # the full one.
    t = HZTable(24)
    double = partial(t._conv, t.u_star, t.u_star)
    for f, h in [(t.u, t.u), (t.u_star, t.bicellular), (t.u_star, t.u_star), (t.u_star, double)]:
        for g in range(9):
            for n in range(17):
                full = sum(f(a, m) * h(g - a, n - m) for a in range(g + 1) for m in range(n + 1))
                assert t._conv(f, h, g, n) == full, (f, h, g, n)
