import pytest

from plantedmaps import census, partition
from plantedmaps.bijections import ETA_DOMAINS, eta_edge
from plantedmaps.core import CellularMap, from_np_pairs
from plantedmaps.partition import _closed, _root_start, classify, domains


def uni(n: int, *pairs: tuple[int, int]) -> CellularMap:
    """One-face map with n non-plant edges; pairs index the interior 1..2n."""
    return from_np_pairs((2 * n,), pairs)


def mk(interiors, *pairs: tuple[int, int]) -> CellularMap:
    """Map from interior sizes and a matching on the non-plant half-edges,
    indexed 1..2n across faces."""
    return from_np_pairs(tuple(interiors), pairs)


def double_factorial_odd(n: int) -> int:
    out = 1
    for i in range(1, 2 * n, 2):
        out *= i
    return out


def catalan(n: int) -> int:
    from math import comb

    return comb(2 * n, n) // (n + 1)


def closed_branches(m: CellularMap) -> list[bool]:
    """Closure under ``alpha`` of the three branches ``1..h2``, ``h2+1..h3``
    and ``h3+1..2n`` of a scenario-A one-face map (missing ones are empty)."""
    last = 2 * m.np_edge_count
    cuts = (0, *_root_start(m)[1:3], last, last)[:4]
    return [_closed(m.alpha, lo + 1, hi) for lo, hi in zip(cuts, cuts[1:])]


def eta_edges(m: CellularMap) -> list[tuple[int, int]]:
    """The pair eta_i contracts on ``m``, for each i <= 4 whose domain holds
    ``m``."""
    doms = domains(classify(m))
    return [eta_edge(i, m) for i in range(1, 5) if set(ETA_DOMAINS[i]) & set(doms)]


@pytest.fixture
def cold_passes():
    """Empty the memos of the census and leaf passes, so that the test sees
    every pass that runs."""
    census._cycle_passes.clear()
    census._connected_census.cache_clear()
    partition._leaf_sizes.clear()
