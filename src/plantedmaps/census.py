"""Exhaustive census of planted maps with one, two or three faces.

One enumerator, :func:`_pairings`, walks the perfect matchings of the
non-plant half-edges of a face layout in lexicographic order: the smallest
unmatched id is paired with each larger unmatched id in ascending order.
The three map streams share it, so streams are reproducible and duplicate
free.

:func:`count` visits no matching.  It scans the half-edge positions of every
face layout at once (a transfer-matrix pass) and merges the pairings that
agree on everything the rest of the scan can see.  Vertices are the cycles
of ``sigma(h) = alpha(h + 1)``; a pairing read up to some position leaves
open sigma-paths between the ends of its open chords.  A state is only its
path ends: for each path end (each open chord's A end, then the frontier at
the current position), the start that path began at: 0 for the current
face's root in-port, ``j + 1`` for open chord ``j``'s B end.  So the pass
counts every pairing, connected or not, and :func:`_connected_census`
subtracts the disconnected ones: each splits into the component of the
first face and the rest, counted by the passes over fewer faces and edges.
Each state carries its count of pairings per number of sigma-cycles closed, packed
into one int with a fixed-width slot per cycle number
(:func:`_slot_width`), so that merging two states is one addition.
Counting is exact.  The partition histogram runs the one-face pass with a
root-cycle tag added to each state
(:func:`plantedmaps.partition._census_class_counts`).  Both passes take the
ends after each close move from one cached table per ``ends`` value,
:func:`_closes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, prod
from typing import Iterator

from plantedmaps.core import BoundExceeded, CellularMap, FaceStructure, check_invariant

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
    """Every pairing of ``faces`` as a partner list over all half-edges.

    The interiors must hold an even number of ids in total.  Roots are
    paired with their plants; the non-plant ids are matched in
    lexicographic order: the smallest unmatched id is paired with each
    larger unmatched id in ascending order.  The same list is yielded each
    time and changed in place between yields, so callers copy what they
    keep.
    """
    ids = faces.np_ids
    points = len(ids)
    partner = [-1] * faces.total_half_edges
    for r, s in zip(faces.roots, faces.plants):
        partner[r] = s
        partner[s] = r
    if points == 0:
        yield partner
        return
    last = points // 2 - 1
    # Depth d pairs lo[d], the smallest point left unmatched by depths < d,
    # with hi[d] (equal to lo[d] before the first choice); both index ``ids``.
    lo = [0] * (last + 1)
    hi = [0] * (last + 1)
    depth = 0
    while depth >= 0:
        i, j = lo[depth], hi[depth]
        a = ids[i]
        if j != i:
            partner[ids[j]] = -1
        j += 1
        while j < points and partner[ids[j]] >= 0:
            j += 1
        if j == points:
            partner[a] = -1
            depth -= 1
            continue
        b = ids[j]
        partner[a] = b
        partner[b] = a
        if depth == last:
            yield partner
            partner[a] = partner[b] = -1
            depth -= 1
            continue
        hi[depth] = j
        i += 1
        while partner[ids[i]] >= 0:
            i += 1
        depth += 1
        lo[depth] = hi[depth] = i


def unicellular_stream(n: int) -> Iterator[CellularMap]:
    """All planted one-face maps with ``n`` non-plant edges, one per perfect
    matching of the interior, in lexicographic matching order."""
    faces = FaceStructure((2 * n,))
    for partner in _pairings(faces):
        yield CellularMap(faces, tuple(partner))


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
    offset ``i * width``, a move that closes ``closed`` cycles adds
    ``counts << closed * width``, and :func:`_unpack` reads the slots back.

    A state's slot ``i`` counts distinct kept prefixes (a face layout begun
    and a partial pairing).  Every kept prefix extends to a complete
    pairing of a complete layout, and distinct prefixes to distinct ones,
    so no slot, and no sum of slots merged into one state, exceeds the
    ``comb(2n + k - 1, k - 1) * (2n - 1)!!`` (layout, pairing) pairs.  A
    slot as wide as that number's bit length holds any such count, so slots
    never carry into each other.
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


def _join(ends: list[int], start: int) -> int:
    """Join the frontier's path (the last end) to the path that began at
    ``start``; return 1 when that closes a cycle, else 0."""
    front = ends[-1]
    if front == start:
        return 1
    ends[ends.index(start)] = front
    return 0


@lru_cache(maxsize=8192)
def _closes(ends: bytes) -> tuple[tuple[bytes, int], ...]:
    """For each open chord ``j`` of a scan state with path ends ``ends``, the
    ends after the current position closes it (later chords renumbered) and
    1 if that closes a sigma-cycle.  Both passes read their moves here; the
    bound holds every ``ends`` of ``verify --relation theorem --max-n 8``."""
    moves = []
    for j in range(len(ends) - 1):
        path = list(ends)
        closed = _join(path, j + 1)
        path[-1] = path.pop(j)
        moves.append((bytes([x - 1 if x > j + 1 else x for x in path]), closed))
    return tuple(moves)


@lru_cache(maxsize=None)
def _cycle_census(k: int, n: int) -> tuple[int, ...]:
    """Every ``k``-face pairing with ``n`` non-plant edges, connected or
    not, summed over every face layout, counted by the number of
    sigma-cycles closed before the last face ends.

    A state with ``m`` open chords is its ``m + 1`` path-end bytes, the
    start of each path end; every value is at most ``n``.  ``layers[b]``
    maps each state with ``b + 1`` faces begun to its counts.  Before each
    position any face but the last may end, which folds every layout of
    ``compositions(2n, k)`` into the pass.  The states carry no face
    components: :func:`_connected_census` removes the disconnected pairings
    afterwards.

    A state's counts are one int, packed as :func:`_slot_width` describes,
    so a move that closes a cycle shifts them up one slot and a merge is one
    addition.
    """
    span = 2 * n
    width = _slot_width(k, n)
    layers: list[dict[bytes, int]] = [{} for _ in range(k)]
    layers[0][b"\0"] = 1
    for pos in range(span + 1):
        for b in range(k - 1):
            out = layers[b + 1]
            for state, counts in layers[b].items():
                ends = list(state)
                closed = _join(ends, 0)
                ends[-1] = 0  # the next face's root in-port
                key = bytes(ends)
                out[key] = out.get(key, 0) + (counts << closed * width)
        if pos == span:
            break
        room = span - pos - 1
        step: list[dict[bytes, int]] = [{} for _ in range(k)]
        for layer, out in zip(layers, step):
            for ends, counts in layer.items():
                m = len(ends) - 1
                if m < room:  # room left to close the new chord too
                    key = ends + bytes((m + 1,))
                    out[key] = out.get(key, 0) + counts
                for path, closed in _closes(ends):
                    out[path] = out.get(path, 0) + (counts << closed * width)
        layers = step
    # Every chord is closed by now, so one state is left: the last face's
    # frontier path, which its end closes.
    return tuple(_unpack(layers[k - 1].get(b"\0", 0), width))


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
    for s in range(1, k):
        for a in range(n + 1):
            first, rest = _connected_census(s, a), _cycle_census(k - s, n - a)
            for i, x in enumerate(first):
                for j, y in enumerate(rest):
                    out[i + j + 1] -= comb(k - 1, s - 1) * x * y
    check_invariant(min(out) >= 0, f"{k}-face census at n = {n}: negative count")
    return tuple(out)


@dataclass
class CountTable:
    """Exact per-(genus, edge count) map counts; mergeable across edge counts."""

    kind: str
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def add(self, g: int, n: int, count: int) -> None:
        key = (g, n)
        self.entries[key] = self.entries.get(key, 0) + count

    def merge(self, other: "CountTable") -> "CountTable":
        if other.kind != self.kind:
            raise ValueError(f"cannot merge {other.kind} table into {self.kind} table")
        for (g, n), c in other.entries.items():
            self.add(g, n, c)
        return self

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
        import json

        table = [{"g": g, "n": n, "count": str(c)} for g, n, c in self.rows()]
        return json.dumps({"kind": self.kind, "table": table}, separators=(",", ":"))


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
            # sigma has k fixed plants and closed + 1 further cycles
            two_g = n + 1 - k - closed
            check_invariant(two_g >= 0 and two_g % 2 == 0, f"{kind} census: 2g = {two_g}")
            tally[two_g // 2] += c
    return CountTable(kind, {(g, n): c for g, c in enumerate(tally)})


def count_range(kind: str, n_max: int) -> CountTable:
    """Merged census table for every edge count up to ``n_max``."""
    kind = check_bound(kind, n_max)
    table = CountTable(kind)
    for n in range(n_max + 1):
        table.merge(count(kind, n))
    return table
