"""Exhaustive census of planted maps with one, two or three faces.

One enumerator, :func:`_pairings`, walks the perfect matchings of the
non-plant half-edges of a face layout in lexicographic order: the smallest
unmatched id is paired with each larger unmatched id in ascending order.
:func:`count` and the three map streams share it, so streams are
reproducible and duplicate free and the counts tally exactly what the
streams yield; :func:`_genus_pairings` adds the genera that :func:`count`
and the partition histogram read without building maps.  Counting is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from plantedmaps.core import BoundExceeded, CellularMap, FaceStructure

#: Default per-kind bounds on the non-plant edge count (desk scale).
N_MAX = {"unicellular": 8, "bicellular": 6, "tricellular": 5}

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


def check_bound(kind: str, n: int) -> str:
    kind = normalize_kind(kind)
    if n < 0:
        raise BoundExceeded("edge count must be non-negative")
    if n > N_MAX[kind]:
        raise BoundExceeded(f"{kind} census is bounded at n <= {N_MAX[kind]}, got {n}")
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


def _genus_pairings(faces: FaceStructure) -> Iterator[tuple[int, list[int]]]:
    """``(genus, partner)`` for every connected pairing of ``faces``, with
    :func:`_pairings`' in-place list.  The genus counts the cycles of
    ``sigma = partner o gamma``, which fixes each plant (gamma takes it to
    its root); for k >= 2 a search skips disconnected pairings."""
    total = faces.total_half_edges
    k = faces.k
    gamma = faces.gamma
    n_edges = total // 2
    seen = [0] * total
    stamp = 0
    starts = faces.roots + faces.np_ids  # the plants are the k fixed points
    for partner in _pairings(faces):
        stamp += 1
        cycles = k
        for s0 in starts:
            if seen[s0] == stamp:
                continue
            cycles += 1
            h = s0
            while seen[h] != stamp:
                seen[h] = stamp
                h = partner[gamma[h]]
        if k > 1:
            stamp += 1
            seen[0] = stamp
            stack = [0]
            reached = 1
            while stack:
                h = stack.pop()
                for t in (partner[h], partner[gamma[h]]):
                    if seen[t] != stamp:
                        seen[t] = stamp
                        reached += 1
                        stack.append(t)
            if reached != total:
                continue
        yield (2 - cycles + n_edges - k) // 2, partner


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
    for comp in compositions(2 * n, k):
        for g, _ in _genus_pairings(FaceStructure(comp)):
            tally[g] += 1
    return CountTable(kind, {(g, n): c for g, c in enumerate(tally)})


def count_range(kind: str, n_max: int) -> CountTable:
    """Merged census table for every edge count up to ``n_max``."""
    kind = check_bound(kind, n_max)
    table = CountTable(kind)
    for n in range(n_max + 1):
        table.merge(count(kind, n))
    return table
