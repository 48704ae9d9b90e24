from functools import lru_cache

import pytest

from plantedmaps import census, partition
from plantedmaps.bijections import ETA_DOMAINS, eta_edge
from plantedmaps.census import _genus_of_closed, _slot_width, _unpack
from plantedmaps.core import CellularMap, check_invariant, from_np_pairs
from plantedmaps.partition import PartitionClass, _branch_class, _closed, _pc, _root_start, classify, domains


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


def path_join(ends: list[int], start: int) -> int:
    """Join the frontier's path (the last end) to the path that began at
    ``start``; return 1 when that closes a cycle, else 0."""
    front = ends[-1]
    if front == start:
        return 1
    ends[ends.index(start)] = front
    return 0


@lru_cache(maxsize=None)
def path_closes(ends: bytes) -> tuple[tuple[bytes, int], ...]:
    """For each open chord ``j`` of a scan state with path ends ``ends`` (one
    byte per path end: each open chord's A end, then the frontier, holding
    the start its path began at, 0 for the root in-port and ``j + 1`` for
    open chord ``j``'s B end), the ends after the current position closes
    it (later chords renumbered) and 1 if that closes a sigma-cycle."""
    moves = []
    for j in range(len(ends) - 1):
        path = list(ends)
        closed = path_join(path, j + 1)
        path[-1] = path.pop(j)
        moves.append((bytes([x - 1 if x > j + 1 else x for x in path]), closed))
    return tuple(moves)


def path_end_tag(tag, j: int, m: int, p: int, last: int):
    """The tag of a path-end state after position ``p`` of ``1..last`` opens
    a chord (``j < 0``) or closes open chord ``j`` of the ``m`` open ones.

    Chords are indexed in opening order.  The root chord ``(1, h2)`` is
    chord 0, open while the tag is ``("a",)``.  Once it closes at ``h2`` the
    tag is ``("b", c1, h2 == 2)``, where ``c1`` says the first branch is
    closed (no chord left open).  Position ``h2 + 1`` then closes a chord
    (class B) or opens chord ``t``, and the tag is ``("c", t, crossed,
    fresh, c1, h2 == 2)``: ``crossed`` says a chord opened before ``h2 + 1``
    has closed since, ``fresh`` that chord ``t`` opened at the previous
    position.  When chord ``t`` closes at ``h3`` the leaf is known and
    becomes the tag.
    """
    if isinstance(tag, PartitionClass):
        return tag
    if tag[0] == "a":
        if j != 0:
            return tag
        return _pc("U1") if p == last else ("b", m == 1, p == 2)
    if tag[0] == "b":
        return _pc("B") if j >= 0 else ("c", m, False, True) + tag[1:]
    _, t, crossed, fresh, c1, len1_2 = tag
    if j != t:
        return ("c", t - (0 <= j < t), crossed or 0 <= j < t, False, c1, len1_2)
    if p == last:
        return _pc("U2", len1_2, fresh)
    return _branch_class(c1, not crossed and m - 1 == t, m == 1, len1_2, fresh)


def path_end_leaf_pass(n: int) -> list[dict[tuple[int, str], int]]:
    """The leaf pass on concrete path-end states, whose tag names chords by
    index: the reference for :func:`plantedmaps.partition._leaf_pass`, which
    it equals at every size."""
    last = 2 * n
    width = _slot_width(1, n)
    sizes = [{}]
    layer = {("a",): {b"\0": 1}}
    for p in range(1, last + 1):
        room = last - p
        ended = {}
        step = {}
        for tag, states in layer.items():
            if p % 2 == 0:
                # Of the two states with one chord open, b"\0\1" closes a
                # cycle when the chord closes and b"\1\0" does not.
                done = (states.get(b"\0\1", 0) << width) + states.get(b"\1\0", 0)
                if done:
                    leaf = path_end_tag(tag, 0, 1, p, p)
                    check_invariant(isinstance(leaf, PartitionClass), "ended before its leaf was known")
                    ended[leaf] = ended.get(leaf, 0) + done
            for ends, counts in states.items():
                m = len(ends) - 1
                if m < room:
                    out = step.setdefault(path_end_tag(tag, -1, m, p, last), {})
                    key = ends + bytes((m + 1,))
                    out[key] = out.get(key, 0) + counts
                for j, (path, closed) in enumerate(path_closes(ends)):
                    out = step.setdefault(path_end_tag(tag, j, m, p, last), {})
                    out[path] = out.get(path, 0) + (counts << closed * width)
        layer = step
        if p % 2 == 0:
            tally = {}
            for leaf, packed in ended.items():
                for closed, c in enumerate(_unpack(packed, width)):
                    if not c:
                        continue
                    g = _genus_of_closed(1, p // 2, closed, "path-end leaf census")
                    for dom in domains(leaf):
                        tally[g, dom] = tally.get((g, dom), 0) + c
            sizes.append(tally)
    check_invariant(all(list(states) == [b"\0"] for states in layer.values()), "left a chord open")
    return sizes
