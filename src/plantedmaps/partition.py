"""Classification of nontrivial one-face maps into disjoint leaf classes.

On a one-face map ``sigma(h) = alpha(h + 1)`` and ``sigma`` fixes the
plant, so the root vertex (the ``sigma`` cycle through the root) is read
straight from ``alpha``.  Its second and third half-edges' partners cut the
face interior into up to three branches, and the interleaving pattern,
branch lengths and branch closure under ``alpha`` drive one decision tree,
:func:`_classify`, whose leaves partition the nontrivial one-face maps:

    B    second/third interleave the other way round (no branches)
    U1   root vertex of degree 2 (single wrap branch)
    U2   degree 3 (third branch empty); pendant flags record branches of
         length two
    II   degree >= 4, no branch closed
    G23  degree >= 4, first branch is a pendant pair
    G24  degree >= 4, first branch longer, second branch a pendant pair
    F5i  degree >= 4, longer branches, exactly branch i closed (i = 1,2,3)
    F54  degree >= 4, longer branches, all three branches closed

Exactly two closed branches cannot occur: the non-plant ids form a closed
set, so two closed branches force the third closed.

The branches are the id ranges ``1..h2``, ``h2+1..h3`` and ``h3+1..2n``
that :func:`_classify` reads and that the cut in
:mod:`plantedmaps.bijections` turns into faces; the pair each class
bijection contracts is stated there too, by ``eta_edge``.

The histogram builds no maps: it runs the census's one-face transfer-matrix
scan on concrete path ends, with a tag that follows the root cycle
(:func:`_census_class_counts`), and both paths decide degree >= 4 through
:func:`_branch_class`.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from plantedmaps.census import N_MAX, _genus_of_closed, _slot_width, _unpack
from plantedmaps.core import BoundExceeded, CellularMap, MapError, _closed, _Record, _set
from plantedmaps.core import ValidationError, check_invariant

LEAVES = ("U1", "U2", "G23", "G24", "F51", "F52", "F53", "F54", "II", "B")

#: Sub-domains cut out of U2 and G23 by the pendant flags.
PENDANT_DOMAINS = ("U2_first", "U2_second", "G23_second")


class TrivialMap(MapError):
    pass


class WrongScenario(MapError):
    pass


class V1Profile(_Record):
    """Root vertex data: its degree and its second/third half-edges.

    ``third`` is ``None`` when the degree is 2.  Under the canonical
    labelling ids are face-order positions, so the two ids compare directly.
    """

    _fields = ("degree", "second", "third")

    def __init__(self, degree: int, second: int, third: int | None):
        _set(self, "degree", degree)
        _set(self, "second", second)
        _set(self, "third", third)


class PartitionClass(_Record):
    """Leaf label plus the pendant-branch flags used by the finer classes.

    ``first_pendant``/``second_pendant`` record whether branch 1/2 consists
    of exactly one pair; they matter on leaves U2 and G23.  Never equal to a
    tuple: the leaf pass keys its tags, tuples until the leaf is known, in
    one dict.
    """

    _fields = ("leaf", "first_pendant", "second_pendant")

    def __init__(self, leaf: str, first_pendant: bool = False, second_pendant: bool = False):
        _set(self, "leaf", leaf)
        _set(self, "first_pendant", first_pendant)
        _set(self, "second_pendant", second_pendant)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.leaf == other.leaf
            and self.first_pendant == other.first_pendant
            and self.second_pendant == other.second_pendant
        )

    def __hash__(self) -> int:
        return hash((self.leaf, self.first_pendant, self.second_pendant))


_pc = lru_cache(maxsize=None)(PartitionClass)  # immutable: each class is built once


def domains(pc: PartitionClass) -> tuple[str, ...]:
    """The leaf of ``pc`` followed by each of :data:`PENDANT_DOMAINS` that
    its flags put it in."""
    out = [pc.leaf]
    if pc.leaf == "U2":
        if pc.first_pendant:
            out.append("U2_first")
        if pc.second_pendant:
            out.append("U2_second")
    elif pc.leaf == "G23" and pc.second_pendant:
        out.append("G23_second")
    return tuple(out)


def _require_nontrivial_unicellular(u: CellularMap) -> None:
    if u.k != 1:
        raise ValidationError("classification applies to one-face maps only")
    if u.np_edge_count == 0:
        raise TrivialMap("the edgeless map has no root vertex profile")


def _root_cycle(alpha: Sequence[int], limit: int) -> list[int]:
    """The first ``limit`` half-edges of the root vertex of a nontrivial
    one-face map, walked from the root as ``sigma(h) = alpha[h + 1]``."""
    cycle = [0]
    h = alpha[1]
    while h and len(cycle) < limit:
        cycle.append(h)
        h = alpha[h + 1]
    # Forced: gamma(root) pairs with the second, gamma(second) with the third.
    second = cycle[1]
    check_invariant(alpha[second] == 1, "root pair (second, 1) missing")
    if len(cycle) > 2:
        check_invariant(alpha[cycle[2]] == second + 1, "root pair (third, second + 1) missing")
    return cycle


def v1_profile(u: CellularMap) -> V1Profile:
    """Profile of the vertex containing the root."""
    _require_nontrivial_unicellular(u)
    cycle = _root_cycle(u.alpha, u.total_half_edges)
    return V1Profile(len(cycle), cycle[1], cycle[2] if len(cycle) > 2 else None)


def scenario(u: CellularMap) -> str:
    """Interleaving scenario: "A" when the third half-edge follows the
    second in face order (or the degree is 2), "B" otherwise."""
    return "B" if classify(u).leaf == "B" else "A"


def _root_start(u: CellularMap) -> list[int]:
    """The root vertex of a nontrivial one-face map up to its fourth
    half-edge: its length is the degree when that is 2 or 3, else 4."""
    _require_nontrivial_unicellular(u)
    return _root_cycle(u.alpha, 4)


def _branch_class(c1: bool, c2: bool, c3: bool, len1_2: bool, len2_2: bool) -> PartitionClass:
    """Leaf of a scenario-A map with root degree >= 4, from the closure of
    its three branches and whether the first and second are pendant pairs."""
    n_closed = c1 + c2 + c3
    check_invariant(n_closed != 2, "two closed branches are impossible")
    if n_closed == 0:
        return _pc("II")
    if len1_2:
        return _pc("G23", True, len2_2)
    if len2_2:
        return _pc("G24", False, True)
    if n_closed == 3:
        return _pc("F54")
    return _pc("F51" if c1 else ("F52" if c2 else "F53"))


def _classify(alpha: Sequence[int]) -> PartitionClass:
    """Leaf of the nontrivial one-face map with partner array ``alpha``; total
    on that domain, and the leaves are pairwise disjoint by construction."""
    cycle = _root_cycle(alpha, 4)
    m = len(cycle)  # the root degree, or 4 for any degree >= 4
    if m >= 3 and cycle[2] < cycle[1]:
        return _pc("B")
    if m == 2:
        # The wrap pair leaves the root vertex at its last half-edge and joins
        # it to a second vertex, so its contraction is always legal.
        check_invariant(alpha[cycle[1]] not in cycle, "the U1 wrap pair lies on the root vertex")
        return _pc("U1")
    h2, h3 = cycle[1], cycle[2]
    if m == 3:
        # Same for the tail pair of a degree-3 root vertex.
        check_invariant(alpha[h3] not in cycle, "the U2 tail pair lies on the root vertex")
        return _pc("U2", h2 == 2, h3 - h2 == 2)
    return _branch_class(
        _closed(alpha, 1, h2),
        _closed(alpha, h2 + 1, h3),
        _closed(alpha, h3 + 1, len(alpha) - 2),
        h2 == 2,
        h3 - h2 == 2,
    )


def classify(u: CellularMap) -> PartitionClass:
    """Leaf classification of a nontrivial one-face map."""
    _require_nontrivial_unicellular(u)
    return _classify(u.alpha)


class PartitionHistogram(_Record):
    """Per-leaf cardinalities of one genus bucket, then the size of each of
    :data:`PENDANT_DOMAINS`, keyed in that order.  Its dicts make it
    unhashable."""

    _fields = ("g", "n", "classes", "pendants")

    def __init__(self, g: int, n: int, classes: dict[str, int], pendants: dict[str, int]):
        _set(self, "g", g)
        _set(self, "n", n)
        _set(self, "classes", classes)
        _set(self, "pendants", pendants)

    @property
    def total(self) -> int:
        return sum(self.classes.values())


def _next_tag(tag, j: int, m: int, p: int, last: int):
    """The tag of a scan state after position ``p`` of ``1..last`` opens a
    chord (``j < 0``) or closes open chord ``j`` of the ``m`` open ones.

    Chords are indexed in opening order.  The root chord ``(1, h2)`` is
    chord 0, open while the tag is ``("a",)``.  Once it closes at ``h2`` the
    tag is ``("b", c1, h2 == 2)``, where ``c1`` says the first branch is
    closed (no chord left open).  Position ``h2 + 1`` then closes a chord
    (its partner is below ``h2``: class B) or opens chord ``t``, and the tag
    is ``("c", t, crossed, fresh, c1, h2 == 2)``: ``crossed`` says a chord
    opened before ``h2 + 1`` has closed since, ``fresh`` that chord ``t``
    opened at the previous position.  When chord ``t`` closes at ``h3`` the
    leaf is known and becomes the tag.
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
    # A chord still open crosses h3, and one opened after chord t also starts
    # inside branch 2; an earlier chord that closed since ended inside it.
    return _branch_class(c1, not crossed and m - 1 == t, m == 1, len1_2, fresh)


def _join(ends: list[int], start: int) -> int:
    """Join the frontier's path (the last end) to the path that began at
    ``start``; return 1 when that closes a cycle, else 0."""
    front = ends[-1]
    if front == start:
        return 1
    ends[ends.index(start)] = front
    return 0


@lru_cache(maxsize=None)
def _closes(ends: bytes) -> tuple[tuple[bytes, int], ...]:
    """For each open chord ``j`` of a scan state with path ends ``ends``, the
    ends after the current position closes it (later chords renumbered) and
    1 if that closes a sigma-cycle.  The leaf pass, whose tag names chords,
    is the only reader; its bound keeps the cache finite (20 365 ``ends`` at
    ``classify --genus 2 --edges 11``)."""
    moves = []
    for j in range(len(ends) - 1):
        path = list(ends)
        closed = _join(path, j + 1)
        path[-1] = path.pop(j)
        moves.append((bytes([x - 1 if x > j + 1 else x for x in path]), closed))
    return tuple(moves)


def _leaf_pass(n: int) -> list[dict[tuple[int, str], int]]:
    """Every one-face map with ``a`` non-plant edges, for each ``a <= n``,
    counted per ``(genus, domain)`` for the leaves and
    :data:`PENDANT_DOMAINS` (none for the edgeless map, which has no leaf).

    One transfer-matrix pass over the interior positions ``1..2n``, the scan
    of :func:`~plantedmaps.census._cycle_pass` on one face, but on concrete
    states: the start of each open sigma-path end (each open chord's A end,
    then the frontier), 0 for the root in-port and ``j + 1`` for open chord
    ``j``'s B end, with a tag (:func:`_next_tag`) that follows the root
    cycle until the leaf is known, at ``h3`` at the latest.  The tag names
    chords (the root chord, chord ``t``), so the states are not merged by
    cycle type.  Each state carries its counts per number of sigma-cycles
    closed packed into one int in the layout of
    :func:`~plantedmaps.census._slot_width`, with the width for ``n``.

    Each size ``a`` is read at position ``p = 2a``, where closing the one
    open chord of a state ends a map of ``a`` edges.  That map's leaf is
    the state's tag taken with the end at ``p``: U1 when the root chord
    closes there, U2 when chord ``t`` does.  The state that goes on, for
    ``a < n``, takes the tag for the end at ``2n``.  A pass to ``2n`` keeps
    every prefix of a pass to ``2a``, with the same tags before ``p`` (see
    the :mod:`~plantedmaps.census` notes), so both count these maps alike.
    Every map that ends must have a leaf, and no chord may be left open at
    ``2n``; both checks raise :class:`~plantedmaps.core.InvariantError`.
    """
    last = 2 * n
    width = _slot_width(1, n)
    sizes: list[dict[tuple[int, str], int]] = [{}]
    layer: dict = {("a",): {b"\0": 1}}
    for p in range(1, last + 1):
        room = last - p
        ended: dict[PartitionClass, int] = {}
        step: dict = {}
        for tag, states in layer.items():
            if p % 2 == 0:
                # Closing the one open chord ends a map of p / 2 edges.  Of the
                # two states with one chord open, b"\0\1" closes a cycle then
                # (the frontier's path began at the chord's B end) and b"\1\0"
                # does not.
                done = (states.get(b"\0\1", 0) << width) + states.get(b"\1\0", 0)
                if done:
                    leaf = _next_tag(tag, 0, 1, p, p)
                    known = isinstance(leaf, PartitionClass)
                    check_invariant(known, "a one-face scan ended before its leaf was known")
                    ended[leaf] = ended.get(leaf, 0) + done
            for ends, counts in states.items():
                m = len(ends) - 1
                if m < room:  # room left to close the new chord too
                    out = step.setdefault(_next_tag(tag, -1, m, p, last), {})
                    key = ends + bytes((m + 1,))
                    out[key] = out.get(key, 0) + counts
                for j, (path, closed) in enumerate(_closes(ends)):
                    out = step.setdefault(_next_tag(tag, j, m, p, last), {})
                    out[path] = out.get(path, 0) + (counts << closed * width)
        layer = step
        if p % 2 == 0:
            tally: dict[tuple[int, str], int] = {}
            for leaf, packed in ended.items():
                doms = domains(leaf)
                for closed, c in enumerate(_unpack(packed, width)):
                    if not c:
                        continue
                    g = _genus_of_closed(1, p // 2, closed, "leaf census")
                    for dom in doms:
                        tally[g, dom] = tally.get((g, dom), 0) + c
            sizes.append(tally)
    left_open = any(list(states) != [b"\0"] for states in layer.values())
    check_invariant(not left_open, "a one-face scan left a chord open at its last position")
    return sizes


#: The sizes of the largest :func:`_leaf_pass` run so far.
_leaf_sizes: list[dict[tuple[int, str], int]] = []


def _census_class_counts(total_np: int) -> dict[tuple[int, str], int]:
    """The ``total_np``-edge counts of :func:`_leaf_pass`, read off the
    largest pass run so far, or off a new pass to ``total_np`` when that is
    smaller."""
    if total_np >= len(_leaf_sizes):
        _leaf_sizes[:] = _leaf_pass(total_np)
    return _leaf_sizes[total_np]


def histogram(g: int, n: int) -> PartitionHistogram:
    """Count the one-face maps of genus ``g + 2`` with ``n + 2`` non-plant
    edges in each leaf and pendant sub-domain.

    The indices follow the counting identity: the maps classified live two
    genera and two edges above ``(g, n)``.
    """
    if g < 0 or n < 0:
        raise BoundExceeded("g and n must be non-negative")
    if n + 2 > N_MAX["unicellular"]:
        raise BoundExceeded(f"histogram bounded at n <= {N_MAX['unicellular'] - 2}")
    counts = _census_class_counts(n + 2)
    classes = {leaf: counts.get((g + 2, leaf), 0) for leaf in LEAVES}
    pendants = {dom: counts.get((g + 2, dom), 0) for dom in PENDANT_DOMAINS}
    return PartitionHistogram(g, n, classes, pendants)
