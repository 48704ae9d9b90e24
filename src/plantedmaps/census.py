"""Exhaustive census of planted maps with one, two or three faces.

One enumerator, :func:`_pairings`, walks the perfect matchings of the
non-plant half-edges of a face layout in lexicographic order: the smallest
unmatched id is paired with each larger unmatched id in ascending order.
The three map streams are its only traffic, so streams are reproducible
and duplicate free.

:func:`count` visits no matching.  It scans the half-edge positions of
every face layout at once (a transfer-matrix pass) and merges the pairings
that agree on everything the rest of the scan can see.  Vertices are the
cycles of ``sigma(h) = alpha(h + 1)``; a pairing read up to some position
leaves open sigma-paths between the ends of its open chords.  Their path
ends form a permutation of the frontier and the open chords, and since the
rest of the scan treats open chords alike, a state is only that
permutation's cycle type: the length of the frontier's cycle and the
partition of the others (:func:`_class_moves`).  States carry no face
components, so the pass counts every pairing, connected or not, and
:func:`_connected_census` subtracts the disconnected ones: each splits into
the component of the first face and the rest, counted by the passes over
fewer faces and edges.  Each state carries its count of pairings per number
of sigma-cycles closed, packed into one int with a fixed-width slot per
cycle number (:func:`_slot_width`), so that merging two states is one
addition.  Counting is exact.  One position's moves from a set of classes
are made once, by :func:`_step`.  The partition histogram runs the one-face
pass on the same classes with a root-cycle tag added to each state
(:func:`plantedmaps.partition._census_class_counts`); a state whose leaf is
known steps through :func:`_step` too.

One pass serves every smaller size.  The pairings of ``a <= n`` edges are
the prefixes that stand at position ``2a`` with every face begun and no
chord open.  A pass to ``2n`` prunes an opening only when the chords then
open cannot all close by ``2n``; a prefix that closes them all by ``2a``
never meets that, so the pass to ``2n`` keeps every prefix of the pass to
``2a`` with the same moves and the same cycles closed, and its slot width
holds their counts (:func:`_slot_width`).  So :func:`_cycle_census` keeps
the largest pass per face count, and reads size ``a`` off the state ``(1,
())``, the frontier alone with no chord open, after the step at ``2a``.
The leaf pass reads each size off the same state at the same point, once
per tag (:func:`plantedmaps.partition._leaf_pass`), and the range drivers
ask for their largest size first.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from functools import lru_cache
from math import comb, prod

from plantedmaps.core import BoundExceeded, CellularMap, FaceStructure, _Record, check_invariant

#: Per-kind bounds on the non-plant edge count of :func:`count`, the
#: partition histogram and the theorem check (desk scale).
N_MAX = {"unicellular": 11, "bicellular": 9, "tricellular": 8}

#: Bounds for the round-trip domains, which build every map.
ENUMERATION_N_MAX = {"unicellular": 8, "bicellular": 6, "tricellular": 5}

_KIND_ALIASES = {
    "uni": "unicellular",
    "bi": "bicellular",
    "tri": "tricellular",
    "unicellular": "unicellular",
    "bicellular": "bicellular",
    "tricellular": "tricellular",
}


def normalize_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[kind]
    except KeyError:
        raise ValueError(f"unknown map kind {kind!r}; use uni, bi or tri") from None


def check_bound(kind: str, n: int, bounds: dict[str, int] = N_MAX) -> str:
    kind = normalize_kind(kind)
    if n < 0:
        raise BoundExceeded("edge count must be non-negative")
    if n > bounds[kind]:
        raise BoundExceeded(f"{kind} census is bounded at n <= {bounds[kind]}, got {n}")
    return kind


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` non-negative parts,
    lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _pairings(faces: FaceStructure) -> Iterator[list[int]]:
    """Every pairing of ``faces`` as a partner list over all half-edges, for
    the map streams below, its only callers.

    The interiors must hold an even number of ids in total.  Roots are
    paired with their plants; the non-plant ids are matched in
    lexicographic order, recursing on the ids still free.  The same list is
    yielded each time and changed in place between yields, so callers copy
    what they keep.
    """
    partner = [-1] * faces.total_half_edges
    for r, s in zip(faces.roots, faces.plants):
        partner[r], partner[s] = s, r

    def match(free: tuple[int, ...]) -> Iterator[list[int]]:
        a = free[0]
        if len(free) == 2:
            partner[a], partner[free[1]] = free[1], a
            yield partner
            return
        for j in range(1, len(free)):
            b = free[j]
            partner[a], partner[b] = b, a
            yield from match(free[1:j] + free[j + 1 :])

    yield from match(faces.np_ids) if faces.np_ids else (partner,)


def unicellular_stream(n: int) -> Iterator[CellularMap]:
    """All planted one-face maps with ``n`` non-plant edges, one per perfect
    matching of the interior, in lexicographic matching order."""
    yield from _cellular_stream(1, n, False)


def _cellular_stream(k: int, n: int, connected_only: bool) -> Iterator[CellularMap]:
    for comp in compositions(2 * n, k):
        faces = FaceStructure(comp)
        for partner in _pairings(faces):
            mp = CellularMap(faces, tuple(partner))
            if connected_only and not mp.is_connected:
                continue
            yield mp


def bicellular_stream(n: int, connected_only: bool = True) -> Iterator[CellularMap]:
    """All connected planted two-face maps with ``n`` non-plant edges, over
    every interior split and matching."""
    yield from _cellular_stream(2, n, connected_only)


def tricellular_stream(n: int, connected_only: bool = True) -> Iterator[CellularMap]:
    """All connected planted three-face maps with ``n`` non-plant edges."""
    yield from _cellular_stream(3, n, connected_only)


def _slot_width(k: int, n: int) -> int:
    """Bits per cycle-count slot in the packed counts of a ``k``-face pass
    with ``n`` non-plant edges.

    Both passes, this module's :func:`_cycle_census` and
    :func:`plantedmaps.partition._census_class_counts`, pack a state's
    counts into one int: the count with ``i`` cycles closed sits at bit
    offset ``i * width``, a move of multiplicity ``L`` that closes
    ``closed`` cycles adds ``counts * L << closed * width``, and
    :func:`_unpack` reads the slots back.

    A state's slot ``i`` counts distinct kept prefixes (a face layout begun
    and a partial pairing).  Every kept prefix extends to a complete
    pairing of a complete layout, and distinct prefixes to distinct ones,
    so no slot, and no sum of slots merged into one state, exceeds the
    ``comb(2n + k - 1, k - 1) * (2n - 1)!!`` (layout, pairing) pairs.  A
    class state of either pass (with its tag in the leaf pass) sums the
    slots of the path-end states in it, and a move of multiplicity ``L``
    sends the prefixes of ``L`` distinct path-end moves there, so its slots
    still count distinct kept prefixes.  A slot as wide as that number's
    bit length holds any such count, so slots never carry into each other.

    A smaller size ``a`` read off the pass to ``n`` is a state of that same
    pass at position ``2a``, so this bound covers it too: one width packs
    and unpacks every size a pass serves, with no carry between slots.
    """
    pairs = comb(2 * n + k - 1, k - 1) * prod(range(1, 2 * n, 2))
    return pairs.bit_length()


def _unpack(packed: int, width: int) -> list[int]:
    """The slots of ``packed``, lowest first, up to the last non-zero one."""
    mask = (1 << width) - 1
    out = []
    while packed:
        out.append(packed & mask)
        packed >>= width
    return out


#: A scan class of :func:`_cycle_census`: ``(l0, parts)``.
_Class = tuple[int, tuple[int, ...]]


def _add_part(parts: tuple[int, ...], length: int) -> tuple[int, ...]:
    return tuple(sorted(parts + (length,), reverse=True))


@lru_cache(maxsize=None)
def _class_moves(state: _Class):
    """The moves of the scan class ``state = (l0, parts)``: the face end,
    the chord opening, and the close moves as ``(target, multiplicity,
    closed)``, ``closed`` being 1 when the move closes a sigma-cycle.

    The path ends of a scan state with ``m`` open chords are a permutation
    of the frontier and the chords: the frontier goes to the start of its
    path, chord ``j`` to the start of the path ending at its A end, the
    starts being the root in-port (the frontier itself) and each open
    chord's B end.  The moves act on its cycles only, and open chords are
    interchangeable for the rest of the scan, so a state's class is
    ``l0``, the length of the frontier's cycle, and ``parts``, the other
    cycle lengths in descending order (``m = l0 - 1 + sum(parts)``).  The
    moves are cut-and-join moves (Goulden and Jackson, Proc. AMS 125 (1997)
    51-60):

    - a face end cuts the frontier out of its cycle, closing it if
      ``l0 = 1``;
    - an opened chord joins the frontier's cycle next to the frontier;
    - closing the chord ``d`` steps along the frontier's cycle closes that
      cycle if ``d = 1`` and else cuts ``d - 1`` chords off it;
    - closing a chord on a cycle of length ``L`` joins that cycle to the
      frontier's, in ``L`` ways per such cycle.
    """
    l0, parts = state
    end = ((1, parts), 1) if l0 == 1 else ((1, _add_part(parts, l0 - 1)), 0)
    closes = []
    if l0 > 1:
        closes.append(((l0 - 1, parts), 1, 1))
    closes += [((l0 - d, _add_part(parts, d - 1)), 1, 0) for d in range(2, l0)]
    for length in dict.fromkeys(parts):
        i = parts.index(length)
        rest = parts[:i] + parts[i + 1 :]
        closes.append(((l0 + length - 1, rest), length * parts.count(length), 0))
    return end, (l0 + 1, parts), tuple(closes)


def _step(states: dict[_Class, int], room: int, width: int, out: dict[_Class, int]) -> dict:
    """Add to ``out`` the moves of one scan position from the classes
    ``states``, each with its packed counts: the chord opening, while the
    ``room`` positions after this one can still close every open chord, and
    each close move of :func:`_class_moves`, of multiplicity ``mult`` and
    closing ``closed`` cycles, adding ``counts * mult << closed * width``.
    Returns ``out``."""
    for state, counts in states.items():
        _, opened, closes = _class_moves(state)
        l0, parts = state
        if l0 - 1 + sum(parts) < room:  # room left to close the new chord too
            out[opened] = out.get(opened, 0) + counts
        for key, mult, closed in closes:
            out[key] = out.get(key, 0) + (counts * mult << closed * width)
    return out


def _cycle_pass(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Every ``k``-face pairing with ``a`` non-plant edges, for each ``a <=
    n``, connected or not, summed over every face layout, counted by the
    number of sigma-cycles closed before the last face ends.

    A state is a scan class of :func:`_class_moves`, ``(l0, parts)``; the
    pass starts at ``(1, ())``.  ``layers[b]`` maps each class with ``b +
    1`` faces begun to its counts, summed over the path-end states of the
    class.  Before each position any face but the last may end, which folds
    every layout of ``compositions(2a, k)`` into the pass.  After the face
    ends at position ``2a``, the last face's frontier alone on its cycle,
    ``(1, ())``, holds the pairings of ``a`` edges (the module notes say why
    a pass to ``n`` counts them as a pass to ``a`` does).  The states carry
    no face components: :func:`_connected_census` removes the disconnected
    pairings afterwards.

    A state's counts are one int, packed as :func:`_slot_width` describes
    with the width for ``n``, so a merge is one addition.  Each layer makes
    its moves at a position through :func:`_step`.
    """
    span = 2 * n
    width = _slot_width(k, n)
    layers: list[dict[_Class, int]] = [{} for _ in range(k)]
    layers[0][1, ()] = 1
    sizes = []
    for pos in range(span + 1):
        for b in range(k - 1):
            out = layers[b + 1]
            for state, counts in layers[b].items():
                key, closed = _class_moves(state)[0]
                out[key] = out.get(key, 0) + (counts << closed * width)
        if pos % 2 == 0:
            # With no chord open, the last face's frontier is alone; its end closes it.
            sizes.append(tuple(_unpack(layers[k - 1].get((1, ()), 0), width)))
        if pos == span:
            break
        layers = [_step(layer, span - pos - 1, width, {}) for layer in layers]
    return tuple(sizes)


#: The largest :func:`_cycle_pass` run so far, per face count.
_cycle_passes: dict[int, tuple[tuple[int, ...], ...]] = {}


def _cycle_census(k: int, n: int) -> tuple[int, ...]:
    """The ``n``-edge counts of :func:`_cycle_pass`, read off the largest
    ``k``-face pass run so far, or off a new pass to ``n`` when that is
    smaller."""
    sizes = _cycle_passes.get(k, ())
    if n >= len(sizes):
        sizes = _cycle_passes[k] = _cycle_pass(k, n)
    return sizes[n]


@lru_cache(maxsize=None)
def _connected_census(k: int, n: int) -> tuple[int, ...]:
    """:func:`_cycle_census` restricted to connected pairings, in as many
    slots (the last ones may be 0).

    A disconnected pairing splits into the component holding the first
    face, a connected pairing of the sub-layout of its ``s < k`` faces with
    ``a`` edges, and any pairing of the other ``k - s`` faces with the other
    ``n - a`` edges; the ``s - 1`` other faces of the first component are
    any of the ``k - 1`` later ones.  Slot ``i`` holds the pairings with
    ``i + 1`` non-plant sigma-cycles, and the cycles of the two parts add,
    so slots ``i`` and ``j`` give slot ``i + j + 1`` (the exponential
    formula, Stanley, *Enumerative Combinatorics* 2, section 5.1).
    """
    out = list(_cycle_census(k, n))
    # Most faces and edges first: _connected_census(k - 1, n) runs the pass
    # to n of every face count below k, which serves every later read.
    for s in range(k - 1, 0, -1):
        for a in range(n, -1, -1):
            first, rest = _connected_census(s, a), _cycle_census(k - s, n - a)
            for i, x in enumerate(first):
                for j, y in enumerate(rest):
                    out[i + j + 1] -= comb(k - 1, s - 1) * x * y
    check_invariant(min(out) >= 0, f"{k}-face census at n = {n}: negative count")
    return tuple(out)


class CountTable(_Record):
    """Exact per-(genus, edge count) map counts; mutable, and so unhashable."""

    _fields = ("kind", "entries")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, kind: str, entries: dict[tuple[int, int], int] | None = None):
        self.kind = kind
        self.entries = {} if entries is None else entries

    def get(self, g: int, n: int) -> int:
        return self.entries.get((g, n), 0)

    def total(self, n: int) -> int:
        return sum(c for (g, m), c in self.entries.items() if m == n)

    def rows(self) -> list[tuple[int, int, int]]:
        return [(g, n, self.entries[(g, n)]) for (g, n) in sorted(self.entries, key=lambda t: (t[1], t[0]))]

    def to_csv(self) -> str:
        lines = ["kind,g,n,count"]
        lines += [f"{self.kind},{g},{n},{c}" for g, n, c in self.rows()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        table = [{"g": g, "n": n, "count": str(c)} for g, n, c in self.rows()]
        return json.dumps({"kind": self.kind, "table": table}, separators=(",", ":"))


def _genus_of_closed(k: int, n: int, closed: int, what: str) -> int:
    """Genus of a ``k``-face map with ``n`` non-plant edges whose scan closed
    ``closed`` sigma-cycles: sigma has the ``k`` fixed plants and ``closed +
    1`` further cycles, so ``2g = n + 1 - k - closed``.  Raises
    :class:`InvariantError` when that is odd or negative."""
    two_g = n + 1 - k - closed
    check_invariant(two_g >= 0 and two_g % 2 == 0, f"{what}: 2g = {two_g}")
    return two_g // 2


def count(kind: str, n: int) -> CountTable:
    """Census counts of ``kind`` maps with ``n`` non-plant edges by genus.

    The result carries a row for every genus up to ``n // 2`` (zeros
    included).
    """
    kind = check_bound(kind, n)
    k = {"unicellular": 1, "bicellular": 2, "tricellular": 3}[kind]
    tally = [0] * (n // 2 + 1)
    for closed, c in enumerate(_connected_census(k, n)):
        if c:
            tally[_genus_of_closed(k, n, closed, f"{kind} census")] += c
    return CountTable(kind, {(g, n): c for g, c in enumerate(tally)})


def count_range(kind: str, n_max: int) -> CountTable:
    """The disjoint union of the :func:`count` tables for edge counts up to ``n_max``."""
    kind = check_bound(kind, n_max)
    # The largest n first: its passes serve every smaller n.
    tables = [count(kind, n) for n in range(n_max, -1, -1)]
    return CountTable(kind, {key: c for t in reversed(tables) for key, c in t.entries.items()})
