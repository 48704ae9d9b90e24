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
scan on its cycle-type classes, with a tag that follows the root cycle
(:func:`_census_class_counts`), and both paths decide degree >= 4 through
:func:`_branch_class`.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from plantedmaps.census import N_MAX, _Class, _class_moves, _genus_of_closed, _slot_width, _step, _unpack
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
    tuple: the leaf pass keys its census classes by tag, tuples until the
    leaf is known, in one dict.
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


def _next_tag(tag, source: _Class, target: _Class):
    """The tag of a scan state that a move takes from the class ``source``
    to the class ``target``.

    The tag names a chord, the last on the frontier's cycle, that closes on
    the one move to ``l0 == 1`` (see :func:`_leaf_pass`):

    - ``("a", fresh)`` names the root chord ``(1, h2)``, ``fresh`` while it
      opened on the move before, from ``(1, ())``.
    - ``("b", old, h2 == 2)``: the root chord closed at ``h2``, leaving the
      cycles ``old``.  Position ``h2 + 1`` then opens chord ``t``, the one
      move to ``(2, old)``, or closes a chord (class B).
    - ``("c", old, fresh, h2 == 2)`` names chord ``t``, with ``old`` set to
      ``None`` once a chord open at ``h2 + 1`` has closed (it crossed into
      branch 2), and ``fresh`` while chord ``t`` opened on the move before.
      When chord ``t`` closes at ``h3`` with a chord still open, the leaf is
      known and becomes the tag.
    - ``("d", branch, u2)``: chord ``t`` closed at ``h3`` with no chord left
      open.  The next move is an opening, and the leaf is ``branch``; a map
      that ends at ``h3`` has root degree 3, and its leaf is ``u2``.
    """
    if tag[0] == "d":
        return tag[1]
    if tag[0] == "b":
        return ("c", tag[1], True, tag[2]) if target == (2, tag[1]) else _pc("B")
    if target[0] != 1:
        return ("a", source == (1, ())) if tag[0] == "a" else ("c", tag[1], False, tag[3])
    if tag[0] == "a":
        return ("b", target[1], tag[1])
    _, old, fresh, len1_2 = tag
    # A branch is closed when no chord is open at its end, and for branch 2
    # also none crossed into it: the class then holds the old cycles alone.
    leaf = _branch_class(old == (), target[1] == old, target == (1, ()), len1_2, fresh)
    return ("d", leaf, _pc("U2", len1_2, fresh)) if target == (1, ()) else leaf


def _leaf_pass(n: int) -> list[dict[tuple[int, str], int]]:
    """Every one-face map with ``a`` non-plant edges, for each ``a <= n``,
    counted per ``(genus, domain)`` for the leaves and
    :data:`PENDANT_DOMAINS` (none for the edgeless map, which has no leaf).

    One transfer-matrix pass over the interior positions ``1..2n``: the
    scan of :func:`~plantedmaps.census._cycle_pass` on one face, on its
    classes ``(l0, parts)`` and their moves
    (:func:`~plantedmaps.census._class_moves`), with a tag
    (:func:`_next_tag`) that follows the root cycle until the leaf is known,
    at ``h3 + 1`` at the latest.  From then on the leaf is the tag, and the
    states under it take the census moves through
    :func:`~plantedmaps.census._step`.  Each state's counts per number of
    sigma-cycles closed are packed as
    :func:`~plantedmaps.census._slot_width` describes, with the width for
    ``n``.

    The classes suffice, for two reasons.  A named chord opens onto the
    frontier's cycle while the frontier is alone on it, and later moves
    only put chords in next to the frontier (an opening, or a join of
    another cycle) or cut off a part next to it, so the named chord stays
    the last before the frontier and closes on the one move to ``l0 ==
    1``.  And the cycles of the chords open at ``h2 + 1`` are untouched
    until one of those chords closes: until then they are the cycles
    ``old`` in the class, and of the ``length * parts.count(length)`` joins
    of a cycle of some length, ``length * old.count(length)`` cross.

    Each size ``a`` is read after the step at position ``p = 2a``, as the
    census pass reads it: the state ``(1, ())``, the frontier alone with no
    chord open, holds the maps of ``a`` edges.  Under a known leaf they
    have that leaf; under tag ``b`` the root chord closed at ``p``, so they
    are U1; under tag ``d`` chord ``t`` did, so they are its U2 leaf.  The
    same states go on, for ``a < n``, with the same tags.  A pass to ``2n``
    keeps every prefix of a pass to ``2a``, with the same tags (see the
    :mod:`~plantedmaps.census` notes), so both count these maps alike.
    Every map that ends must have a leaf, and no chord may be left open at
    ``2n``; both checks raise :class:`~plantedmaps.core.InvariantError`.
    """
    last = 2 * n
    width = _slot_width(1, n)
    sizes: list[dict[tuple[int, str], int]] = [{}]
    layer: dict = {("a", False): {(1, ()): 1}}
    for p in range(1, last + 1):
        room = last - p
        step: dict = {}
        for tag, states in layer.items():
            if isinstance(tag, PartitionClass):
                _step(states, room, width, step.setdefault(tag, {}))
                continue
            old = tag[1] if tag[0] == "c" else None
            for state, counts in states.items():
                _, opened, closes = _class_moves(state)
                l0, parts = state
                moves = []
                if l0 - 1 + sum(parts) < room:  # room left to close the new chord too
                    moves.append((opened, 1, 0, _next_tag(tag, state, opened)))
                for target, mult, closed in closes:
                    length = target[0] + 1 - l0  # of the cycle a join adds; below 1 for a cut
                    crossing = length * old.count(length) if old else 0
                    if crossing:
                        moves.append((target, crossing, 0, ("c", None, False, tag[3])))
                    moves.append((target, mult - crossing, closed, _next_tag(tag, state, target)))
                for target, mult, closed, new in moves:
                    if mult:
                        out = step.setdefault(new, {})
                        out[target] = out.get(target, 0) + (counts * mult << closed * width)
        layer = step
        if p % 2 == 0:
            tally: dict[tuple[int, str], int] = {}
            for tag, states in layer.items():
                # The maps that end here: U1 under tag b, the U2 leaf under tag d.
                leaf = {"b": _pc("U1"), "d": tag[-1]}.get(tag[0]) if type(tag) is tuple else tag
                packed = states.get((1, ()), 0)
                check_invariant(leaf or not packed, "a one-face scan ended before its leaf was known")
                for closed, c in enumerate(_unpack(packed, width)):
                    if not c:
                        continue
                    g = _genus_of_closed(1, p // 2, closed, "leaf census")
                    for dom in domains(leaf):
                        tally[g, dom] = tally.get((g, dom), 0) + c
            sizes.append(tally)
    left_open = any(list(states) != [(1, ())] for states in layer.values())
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
