"""Face surgeries on planted maps, each with an exact two-sided inverse.

Five primitives cover everything:

* cut/glue      - split a scenario-A one-face map along the two root-vertex
                  pairs into a three-face map over the same pairing, and
                  concatenate back.
* contract/insert_edge - remove a one-sided edge joining two distinct
                  vertices (genus preserved, one edge fewer), marking the two
                  face predecessors so the edge can be re-inserted.
* delete_pair/insert_pair - remove both root-vertex pairs of a class-B map
                  (genus drops by one, two edges fewer), encoding the block
                  split as an ordered mark pair; every mark pair is a valid
                  insertion target, giving (n+1)(2n+1) preimages per map.

The class bijections eta1..eta7 are contractions at forced positions, the
three-face bijection theta is cut followed by relabelling, and the split/join
pair separates closed branches into independent pieces.  Every surgery that
builds a map writes its output as face words over the input's half-edges
(new half-edges are ids past the input's) and hands them to the face-word
builder of :mod:`plantedmaps.core`, ``_build``, which relabels each id by
its position in the words.  The builder checks that no id repeats, that the
words are closed under the pairing and that each root is paired with its
plant; every operation also checks its genus and edge-count bookkeeping,
and ``theta`` and ``split5`` that their pieces are connected.  All of these
raise :class:`~plantedmaps.core.InvariantError`, also under ``python -O``;
outputs are canonical maps.
"""

from __future__ import annotations

from collections.abc import Sequence

from plantedmaps.core import (
    CellularMap,
    Disconnected,
    MapError,
    ValidationError,
    _build,
    _integers,
    _Record,
    _set,
    check_invariant,
)
from plantedmaps.partition import (
    PartitionClass,
    WrongScenario,
    _root_start,
    classify,
    domains,
)


class WrongClass(MapError):
    pass


class NotClassB(WrongClass):
    pass


class DegenerateM2(MapError):
    pass


class SameVertex(MapError):
    pass


class TwoSided(MapError):
    pass


class EdgeIsPlant(MapError):
    pass


class MarkIsPlant(MapError):
    pass


class MarkOrder(MapError):
    pass


class CutResult(_Record):
    """Three-face map produced by a cut, with the record of which input ids
    became plants (second and third root-vertex half-edges, then the original
    plant)."""

    _fields = ("map", "became_plants")

    def __init__(self, map: CellularMap, became_plants: tuple[int, int, int]):
        _set(self, "map", map)
        _set(self, "became_plants", became_plants)


def _cut_words(u: CellularMap, h2: int, h3: int) -> tuple[range, range, tuple[int, ...]]:
    """The faces of the cut of ``u`` at its root vertex's second and third
    half-edges ``h2 < h3``: the first two branches, then the third framed
    by the root and the plant."""
    plant = u.faces.plant(0)
    return range(1, h2 + 1), range(h2 + 1, h3 + 1), (0, *range(h3 + 1, plant), plant)


def cut(u: CellularMap) -> CutResult:
    """Split a scenario-A map (root degree >= 3) into a three-face map.

    The pairing is untouched: the two distinguished pairs become the plants
    of the first two faces and the original root/plant pair frames the
    third.  Output ids are canonical.
    """
    cycle = _root_start(u)
    if len(cycle) == 2:
        raise DegenerateM2("root vertex of degree 2 has no second cut pair")
    h2, h3 = cycle[1], cycle[2]
    if h3 < h2:
        raise WrongScenario("cut applies to scenario A only")
    result = _build(u.alpha, _cut_words(u, h2, h3))
    check_invariant(result.np_edge_count == u.np_edge_count - 2, "cut must remove two edges")
    check_invariant(result.aggregate_genus() == u.genus() - 2, "cut must lower the genus by two")
    return CutResult(result, (h2, h3, u.faces.plant(0)))


def glue(x: CellularMap) -> CellularMap:
    """Concatenate the faces of a three-face map into one face.

    The plant pairs of faces 1 and 2 turn back into interior edges; the
    result is a scenario-A one-face map with ``cut(glue(x)).map == x``.
    Inputs whose aggregate genus is negative (three mutually disconnected
    planar faces) are outside the surgery's codomain bookkeeping and are
    rejected.
    """
    if x.k != 3:
        raise ValidationError("glue expects a map with exactly three faces")
    if x.aggregate_genus() < 0:
        raise ValidationError(
            "negative aggregate genus: the glued map would fall below genus 2"
        )
    r3, s3 = x.faces.root(2), x.faces.plant(2)
    out = _build(x.alpha, ([r3, *range(r3), *range(r3 + 1, s3 + 1)],))
    check_invariant(out.np_edge_count == x.np_edge_count + 2, "glue must add two edges")
    check_invariant(out.genus() == x.aggregate_genus() + 2, "glue must raise the genus by two")
    cycle = _root_start(out)
    check_invariant(len(cycle) >= 3 and cycle[2] > cycle[1], "glue must give a scenario-A map")
    return out


def _marks(u: CellularMap, x: int, y: int) -> tuple[int, int]:
    """Check a mark pair of a one-face map: root or interior ids, ``x <= y``."""
    x, y = _integers((x, y), "marks")
    last = 2 * u.np_edge_count
    for m in (x, y):
        if m == last + 1:
            raise MarkIsPlant("a mark cannot be the plant")
        if not 0 <= m <= last:
            raise ValidationError(f"mark {m} out of range")
    if x > y:
        raise MarkOrder(f"marks must satisfy {x} <= {y} in face order")
    return x, y


def _same_vertex(alpha: Sequence[int], a: int, b: int) -> bool:
    """Whether ids ``a`` and ``b`` of a one-face map (the root or interior
    ids) lie in one vertex: the sigma-cycle through ``a``, walked as
    ``sigma(h) = alpha[h + 1]``, meets ``b`` before it returns to ``a``."""
    h = a
    while h != b:
        h = alpha[h + 1]
        if h == a:
            return False
    return True


def contract(u: CellularMap, edge: tuple[int, int]) -> tuple[CellularMap, tuple[int, int]]:
    """Remove a one-sided edge whose endpoints lie in distinct vertices.

    Returns the contracted map together with the marks (face predecessors of
    the two removed half-edges, translated to the new labels; the root stands
    in when a predecessor is removed or absent).  Genus is preserved and the
    edge count drops by one.
    """
    a, b = sorted(_integers(edge, "edge ids"))
    if u.k != 1:
        if u.faces.face_of(a) != u.faces.face_of(b):
            raise TwoSided("only one-sided edges can be contracted")
        raise ValidationError("contract expects a one-face map")
    last = 2 * u.np_edge_count
    if a < 1 or b > last:
        raise EdgeIsPlant(f"({a},{b}) touches the plant edge")
    if u.alpha[a] != b:
        raise ValidationError(f"({a},{b}) is not an edge of the map")
    if _same_vertex(u.alpha, a, b):
        raise SameVertex(f"both ends of ({a},{b}) meet the same vertex")
    out = _build(u.alpha, ([*range(a), *range(a + 1, b), *range(b + 1, last + 2)],))
    check_invariant(out.genus() == u.genus(), "contract must keep the genus")
    return out, (a - 1, b - 2)


def insert_edge(u: CellularMap, x: int, y: int) -> CellularMap:
    """Insert a new one-sided edge right after the marks ``x <= y``.

    The marks must be the root or interior ids sharing one vertex (equal
    marks create a pendant).  The first new half-edge lands right after
    ``x``, its partner right after ``y``; contracting the new edge recovers
    ``(u, (x, y))``.  Genus is preserved.
    """
    if u.k != 1:
        raise ValidationError("insert_edge expects a one-face map")
    x, y = _marks(u, x, y)
    if not _same_vertex(u.alpha, x, y):
        raise ValidationError("marks must lie in one vertex")
    ids = range(2 * u.np_edge_count + 2)
    a = len(u.alpha)  # the new pair is (a, a + 1)
    word = [*ids[: x + 1], a, *ids[x + 1 : y + 1], a + 1, *ids[y + 1 :]]
    out = _build(u.alpha + (a + 1, a), (word,))
    check_invariant(out.genus() == u.genus(), "insert_edge must keep the genus")
    return out


def inserted_edge_ids(x: int, y: int) -> tuple[int, int]:
    """Ids of the pair created by ``insert_edge(u, x, y)``."""
    return (x + 1, y + 2)


def delete_pair(u: CellularMap) -> tuple[CellularMap, tuple[int, int]]:
    """Remove both root-vertex pairs of a class-B map.

    With the face written root, partner-of-second, K1, third, K2, second,
    partner-of-third, K3, plant, the result has interior K2 K1 K3 and genus
    one lower.  The marks are the block boundaries in the new face order:
    the last id of K2 (root if empty) and the last id of K2 K1 (falling back
    to the first mark, then the root).
    """
    pc = classify(u)
    if pc.leaf != "B":
        raise NotClassB(f"delete_pair applies to class B, got {pc.leaf}")
    h2, h3 = _root_start(u)[1:3]
    last = 2 * u.np_edge_count
    check_invariant(u.alpha[h2] == 1 and u.alpha[h3] == h2 + 1, "a class-B root pair is missing")
    k1 = list(range(2, h3))
    k2 = list(range(h3 + 1, h2))
    k3 = list(range(h2 + 2, last + 1))
    out = _build(u.alpha, ([0, *k2, *k1, *k3, last + 1],))
    check_invariant(out.genus() == u.genus() - 1, "delete_pair must lower the genus by one")
    return out, (len(k2), len(k2) + len(k1))


def insert_pair(u: CellularMap, a: int, b: int) -> CellularMap:
    """Insert two interleaved pairs around the blocks cut at ``a <= b``.

    Splitting the interior as P (through ``a``), Q (through ``b``), T (the
    rest), the new face reads root, A2, Q, H3, P, H2, A3, T, plant with fresh
    pairs (A2,H2) and (H3,A3).  The result is class B with genus one higher;
    ``delete_pair`` recovers ``(u, (a, b))``.
    """
    if u.k != 1:
        raise ValidationError("insert_pair expects a one-face map")
    a, b = _marks(u, a, b)
    last = 2 * u.np_edge_count
    interior = range(1, last + 1)
    P, Q, T = interior[:a], interior[a:b], interior[b:]
    A2, H2, H3, A3 = range(len(u.alpha), len(u.alpha) + 4)
    word = [0, A2, *Q, H3, *P, H2, A3, *T, last + 1]
    out = _build(u.alpha + (H2, A2, A3, H3), (word,))
    check_invariant(classify(out).leaf == "B", "insert_pair must give a class-B map")
    check_invariant(out.genus() == u.genus() + 1, "insert_pair must raise the genus by one")
    return out


#: Domain of each class bijection eta_i, as leaves and pendant sub-domains
#: of :func:`partition.domains`.
ETA_DOMAINS = {
    1: ("U1",),
    2: ("U2",),
    3: ("G23", "U2_first"),
    4: ("G24", "U2_second", "G23_second"),
    5: ("U2_first",),
    6: ("U2_second",),
    7: ("G23_second",),
}


def _eta_domain(i: int, pc: PartitionClass) -> bool:
    if i not in ETA_DOMAINS:
        raise ValueError(f"eta index must be 1..7, got {i}")
    return any(dom in ETA_DOMAINS[i] for dom in domains(pc))


#: eta5..eta7 as (first, second): eta_i is eta_second after eta_first.
_ETA_STEPS = {5: (3, 1), 6: (4, 1), 7: (3, 3)}


def _forced_marks(i: int, u: CellularMap, last: int) -> tuple[int, int]:
    """The marks of eta_inv(i), i <= 4, on ``u`` with last interior id
    ``last``: the root and ``last`` (wrap pair), h2 and ``last`` (tail pair),
    the root twice or h2 twice (pendant pair of branch 1 or 2).  eta(i)
    contracts the pair inserted there, reading h2 off its own input."""
    h2 = _root_start(u)[1] if i in (2, 4) else 0
    return (h2, last) if i <= 2 else (h2, h2)


def eta_edge(i: int, u: CellularMap) -> tuple[int, int]:
    """The pair eta(i), i <= 4, contracts on ``u``: the one eta_inv(i)
    inserts on the image, one edge smaller."""
    return inserted_edge_ids(*_forced_marks(i, u, 2 * u.np_edge_count - 2))


def eta(i: int, u: CellularMap) -> CellularMap:
    """Class bijections: contractions at the forced positions.

    eta1/eta2 contract the wrap and tail pairs of U1/U2 maps, eta3/eta4 the
    pendant pair of the first/second branch, and eta5..eta7 compose two of
    these; the first four drop one edge, the last three drop two.
    """
    pc = classify(u)
    if not _eta_domain(i, pc):
        raise WrongClass(f"eta{i} does not apply to class {pc.leaf} (flags {pc})")
    if i in _ETA_STEPS:
        first, second = _ETA_STEPS[i]
        return eta(second, eta(first, u))
    out, _ = contract(u, eta_edge(i, u))
    return out


def eta_inv(i: int, u: CellularMap) -> CellularMap:
    """Inverses of eta1..eta7 via edge insertion at the forced marks."""
    if i in _ETA_STEPS:
        first, second = _ETA_STEPS[i]
        out = eta_inv(first, eta_inv(second, u))
    elif i in ETA_DOMAINS:
        out = insert_edge(u, *_forced_marks(i, u, 2 * u.np_edge_count))
    else:
        raise ValueError(f"eta index must be 1..7, got {i}")
    check_invariant(_eta_domain(i, classify(out)), f"eta_inv({i}) left the domain of eta{i}")
    return out


def theta(u: CellularMap) -> CellularMap:
    """Bijection from class II onto connected three-face maps: cut and
    relabel.  Genus drops by two along with the two new plant pairs."""
    pc = classify(u)
    if pc.leaf != "II":
        raise WrongClass(f"theta applies to class II, got {pc.leaf}")
    out = cut(u).map
    check_invariant(out.is_connected, "cut of a class II map must be connected")
    check_invariant(out.genus() == u.genus() - 2, "theta must lower the genus by two")
    return out


def theta_inv(t: CellularMap) -> CellularMap:
    """Inverse bijection: glue a connected three-face map; the result is
    always class II."""
    if t.k != 3:
        raise WrongClass("theta_inv expects a map with three faces")
    if not t.is_connected:
        raise Disconnected("theta_inv expects a connected map")
    out = glue(t)
    check_invariant(classify(out).leaf == "II", "theta_inv must give a class-II map")
    return out


def split5(i: int, u: CellularMap):
    """Separate the closed branches of an F5 map into independent pieces.

    For i in {1,2,3} (exactly branch i closed) the pieces are the one-face
    map carried by the closed branch and the connected two-face map carried
    by the other two faces of the cut, in original face order; their genera
    add up to genus(u) - 1.  For i = 4 (all branches closed) the pieces are
    three nontrivial one-face maps whose genera add up to genus(u).
    """
    pc = classify(u)
    if pc.leaf != f"F5{i}":
        raise WrongClass(f"split5({i}) applies to class F5{i}, got {pc.leaf}")
    cycles = _cut_words(u, *_root_start(u)[1:3])
    if i == 4:
        pieces = tuple(_build(u.alpha, (c,)) for c in cycles)
        check_invariant(all(p.np_edge_count >= 1 for p in pieces), "split5 gave a trivial piece")
        check_invariant(sum(p.genus() for p in pieces) == u.genus(), "split5 changed the genus sum")
        return pieces
    uni = _build(u.alpha, (cycles[i - 1],))
    bi = _build(u.alpha, [c for j, c in enumerate(cycles) if j != i - 1])
    check_invariant(bi.is_connected, "the two-face piece of split5 must be connected")
    check_invariant(uni.np_edge_count >= 1, "the one-face piece of split5 must be nontrivial")
    check_invariant(uni.genus() + bi.genus() == u.genus() - 1, "split5 must lower the genus by one")
    return uni, bi


def join5(i: int, pieces) -> CellularMap:
    """Inverse of split5: place the pieces' faces back in position i and
    glue.  One-face pieces must be nontrivial and a two-face piece must be
    connected, otherwise the result would leave the class.

    The faces are read off the disjoint union of the pieces, each piece's
    ids shifted past the ones before it, so one piece object may be passed
    more than once."""
    if i in (1, 2, 3):
        uni, bi = pieces
        if uni.k != 1 or uni.np_edge_count == 0:
            raise WrongClass("the one-face piece must be nontrivial")
        if bi.k != 2:
            raise WrongClass("expected a two-face piece")
        if not bi.is_connected:
            raise Disconnected("the two-face piece must be connected")
    elif i == 4:
        u1, u2, u3 = pieces
        for p in (u1, u2, u3):
            if p.k != 1 or p.np_edge_count == 0:
                raise WrongClass("all three pieces must be nontrivial one-face maps")
    else:
        raise ValueError(f"split index must be 1..4, got {i}")
    alpha: tuple[int, ...] = ()
    words = []
    for p in pieces:
        base = len(alpha)
        alpha += tuple(h + base for h in p.alpha)
        words += [range(r + base, s + base + 1) for r, s in zip(p.faces.roots, p.faces.plants)]
    if i != 4:
        words.insert(i - 1, words.pop(0))  # the one-face piece's face goes to position i
    out = glue(_build(alpha, words))
    pc = classify(out)
    check_invariant(pc.leaf == f"F5{i}", f"join5({i}) gave class {pc.leaf}, not F5{i}")
    return out
