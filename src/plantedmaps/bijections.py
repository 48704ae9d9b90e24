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
pair separates closed branches into independent pieces.  The one-face
surgeries contract, insert_edge, delete_pair and insert_pair each write
their new face word through ``_one_face``; cut, glue and split5 go through
the validating :func:`~plantedmaps.core.canonicalize`.  Every operation
checks its genus and edge-count bookkeeping, raising
:class:`~plantedmaps.core.InvariantError` on a mismatch; outputs are
canonical maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from plantedmaps.core import (
    CellularMap,
    Disconnected,
    FaceStructure,
    MapError,
    ValidationError,
    canonicalize,
    check_invariant,
    validate,
)
from plantedmaps.partition import (
    PartitionClass,
    WrongScenario,
    branches,
    classify,
    domains,
    v1_profile,
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


@dataclass(frozen=True)
class CutResult:
    """Three-face map produced by a cut, with the record of which input ids
    became plants (second and third root-vertex half-edges, then the original
    plant)."""

    map: CellularMap
    became_plants: tuple[int, int, int]


def _cut_cycles(u: CellularMap) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    br = branches(u)
    plant = u.faces.plant(0)
    return br.first, br.second, (0,) + br.third + (plant,)


def cut(u: CellularMap) -> CutResult:
    """Split a scenario-A map (root degree >= 3) into a three-face map.

    The pairing is untouched: the two distinguished pairs become the plants
    of the first two faces and the original root/plant pair frames the
    third.  Output ids are canonical.
    """
    prof = v1_profile(u)
    if prof.degree == 2:
        raise DegenerateM2("root vertex of degree 2 has no second cut pair")
    if prof.third < prof.second:
        raise WrongScenario("cut applies to scenario A only")
    cycles = _cut_cycles(u)
    result = canonicalize(3, cycles, dict(enumerate(u.alpha)))
    check_invariant(result.np_edge_count == u.np_edge_count - 2, "cut must remove two edges")
    check_invariant(result.aggregate_genus() == u.genus() - 2, "cut must lower the genus by two")
    return CutResult(result, (prof.second, prof.third, u.faces.plant(0)))


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
    faces = x.faces
    blocks = [tuple(range(faces.root(i), faces.plant(i) + 1)) for i in range(3)]
    interior3 = blocks[2][1:-1]
    seq = (faces.root(2),) + blocks[0] + blocks[1] + interior3 + (faces.plant(2),)
    out = canonicalize(1, (seq,), dict(enumerate(x.alpha)))
    check_invariant(out.np_edge_count == x.np_edge_count + 2, "glue must add two edges")
    check_invariant(out.genus() == x.aggregate_genus() + 2, "glue must raise the genus by two")
    prof = v1_profile(out)
    check_invariant(
        prof.degree >= 3 and prof.third > prof.second, "glue must give a scenario-A map"
    )
    return out


@lru_cache(maxsize=4)
def _one_face_layout(size: int) -> FaceStructure:
    """One layout per interior size, shared by the maps built below.  The
    round trips at one (g, n) build three consecutive even sizes, and a
    random map and its surgeries at most three, one of which the next map
    shares; four slots keep them all, and random inputs bring a new size
    with every map, so the cache is bounded."""
    return FaceStructure((size,))


def _one_face(u: CellularMap, seq, fresh=()) -> CellularMap:
    """The one-face map whose interior reads ``seq`` in face order.

    Every old id in ``seq`` keeps its ``u.alpha`` partner, relabelled by
    position; ``fresh`` pairs the new tokens of ``seq`` with each other.  The
    root and plant are implied, so ``seq`` must be closed under the pairing.
    """
    new_of = {old: new for new, old in enumerate(seq, start=1)}
    last = len(seq) + 1
    partner = [last] + [0] * last
    for p, q in fresh:
        partner[new_of[p]], partner[new_of[q]] = new_of[q], new_of[p]
    alpha = u.alpha
    for old, new in new_of.items():
        if not partner[new]:  # fresh tokens are paired already
            partner[new] = new_of[alpha[old]]
    return CellularMap(_one_face_layout(len(seq)), tuple(partner))


def _marks(u: CellularMap, x: int, y: int) -> tuple[int, int]:
    """Check a mark pair of a one-face map: root or interior ids, ``x <= y``."""
    x, y = int(x), int(y)
    last = 2 * u.np_edge_count
    for m in (x, y):
        if m == last + 1:
            raise MarkIsPlant("a mark cannot be the plant")
        if not 0 <= m <= last:
            raise ValidationError(f"mark {m} out of range")
    if x > y:
        raise MarkOrder(f"marks must satisfy {x} <= {y} in face order")
    return x, y


def contract(u: CellularMap, edge: tuple[int, int]) -> tuple[CellularMap, tuple[int, int]]:
    """Remove a one-sided edge whose endpoints lie in distinct vertices.

    Returns the contracted map together with the marks (face predecessors of
    the two removed half-edges, translated to the new labels; the root stands
    in when a predecessor is removed or absent).  Genus is preserved and the
    edge count drops by one.
    """
    if u.k != 1:
        a0, b0 = edge
        if u.faces.face_of(a0) != u.faces.face_of(b0):
            raise TwoSided("only one-sided edges can be contracted")
        raise ValidationError("contract expects a one-face map")
    a, b = sorted(int(h) for h in edge)
    last = 2 * u.np_edge_count
    if a < 1 or b > last:
        raise EdgeIsPlant(f"({a},{b}) touches the plant edge")
    if u.alpha[a] != b:
        raise ValidationError(f"({a},{b}) is not an edge of the map")
    if u.vertex_of[a] == u.vertex_of[b]:
        raise SameVertex(f"both ends of ({a},{b}) meet the same vertex")
    out = _one_face(u, [t for t in range(1, last + 1) if t != a and t != b])
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
    if u.vertex_of[x] != u.vertex_of[y]:
        raise ValidationError("marks must lie in one vertex")
    interior = range(1, 2 * u.np_edge_count + 1)
    out = _one_face(u, [*interior[:x], "A", *interior[x:y], "B", *interior[y:]], [("A", "B")])
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
    prof = v1_profile(u)
    h2, h3 = prof.second, prof.third
    last = 2 * u.np_edge_count
    check_invariant(u.alpha[h2] == 1 and u.alpha[h3] == h2 + 1, "a class-B root pair is missing")
    k1 = list(range(2, h3))
    k2 = list(range(h3 + 1, h2))
    k3 = list(range(h2 + 2, last + 1))
    removed = {1, h2, h3, h2 + 1}
    seq = k2 + k1 + k3
    check_invariant(
        all(u.alpha[h] not in removed for h in seq), "delete_pair must remove whole pairs"
    )
    out = _one_face(u, seq)
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
    interior = range(1, 2 * u.np_edge_count + 1)
    P, Q, T = interior[:a], interior[a:b], interior[b:]
    seq = ["A2", *Q, "H3", *P, "H2", "A3", *T]
    out = _one_face(u, seq, [("A2", "H2"), ("H3", "A3")])
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


def eta(i: int, u: CellularMap) -> CellularMap:
    """Class bijections: contractions at the forced positions.

    eta1/eta2 contract the wrap and tail pairs of U1/U2 maps, eta3/eta4 the
    pendant pair of the first/second branch, and eta5..eta7 compose two of
    these; the first four drop one edge, the last three drop two.
    """
    pc = classify(u)
    if not _eta_domain(i, pc):
        raise WrongClass(f"eta{i} does not apply to class {pc.leaf} (flags {pc})")
    if i == 5:
        return eta(1, eta(3, u))
    if i == 6:
        return eta(1, eta(4, u))
    if i == 7:
        return eta(3, eta(3, u))
    last = 2 * u.np_edge_count
    if i == 1:
        edge = (1, last)
    elif i == 2:
        edge = (v1_profile(u).second + 1, last)
    elif i == 3:
        edge = (1, 2)
    else:
        h2 = v1_profile(u).second
        edge = (h2 + 1, h2 + 2)
    out, _ = contract(u, edge)
    return out


def eta_inv(i: int, u: CellularMap) -> CellularMap:
    """Inverses of eta1..eta7 via edge insertion at the forced marks."""
    if i == 1:
        out = insert_edge(u, 0, 2 * u.np_edge_count)
    elif i == 2:
        out = insert_edge(u, v1_profile(u).second, 2 * u.np_edge_count)
    elif i == 3:
        out = insert_edge(u, 0, 0)
    elif i == 4:
        h2 = v1_profile(u).second
        out = insert_edge(u, h2, h2)
    elif i == 5:
        out = eta_inv(3, eta_inv(1, u))
    elif i == 6:
        out = eta_inv(4, eta_inv(1, u))
    elif i == 7:
        out = eta_inv(3, eta_inv(3, u))
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
    if not out.is_connected:
        raise Disconnected("cut of a class II map must be connected")
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


def _restrict_alpha(x: CellularMap, ids: tuple[int, ...]) -> dict[int, int]:
    sub = {h: x.alpha[h] for h in ids}
    if any(p not in sub for p in sub.values()):
        raise ValidationError("face set is not closed under the pairing")
    return sub


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
    cycles = _cut_cycles(u)
    if i == 4:
        pieces = tuple(
            canonicalize(1, (c,), _restrict_alpha(u, tuple(c))) for c in cycles
        )
        check_invariant(all(p.np_edge_count >= 1 for p in pieces), "split5 gave a trivial piece")
        check_invariant(sum(p.genus() for p in pieces) == u.genus(), "split5 changed the genus sum")
        return pieces
    closed_cycle = cycles[i - 1]
    open_cycles = tuple(c for j, c in enumerate(cycles) if j != i - 1)
    uni = canonicalize(1, (closed_cycle,), _restrict_alpha(u, tuple(closed_cycle)))
    bi_ids = tuple(open_cycles[0]) + tuple(open_cycles[1])
    bi = canonicalize(2, open_cycles, _restrict_alpha(u, bi_ids))
    if not bi.is_connected:
        raise Disconnected("two-face piece must be connected")
    check_invariant(uni.np_edge_count >= 1, "the one-face piece of split5 must be nontrivial")
    check_invariant(uni.genus() + bi.genus() == u.genus() - 1, "split5 must lower the genus by one")
    return uni, bi


def _assemble_three(sources: list[tuple[CellularMap, int]]) -> CellularMap:
    """Disjoint union of three chosen faces (map, face index), relabelled
    onto one canonical three-face layout.  Pairs never cross source maps.

    The same one-face piece may be placed twice; pairs inside a single face
    are shifted placement-locally, so repeated objects are safe.  Pairs that
    cross the two faces of a two-face source use that source's pair of
    placements.
    """
    faces = FaceStructure(tuple(src.faces.interior_sizes[f] for src, f in sources))
    partner = [-1] * faces.total_half_edges
    placements: dict[int, dict[int, int]] = {}
    for tgt, (src, f) in enumerate(sources):
        base = faces.root(tgt) - src.faces.root(f)
        placements.setdefault(id(src), {})[f] = base
        lo, hi = src.faces.root(f), src.faces.plant(f)
        for h in range(lo, hi + 1):
            p = src.alpha[h]
            if lo <= p <= hi:
                partner[h + base] = p + base
    done: set[int] = set()
    for src, _ in sources:
        if src.k == 1 or id(src) in done:
            continue
        done.add(id(src))
        bases = placements[id(src)]
        for h in range(src.total_half_edges):
            p = src.alpha[h]
            fh, fp = src.faces.face_of(h), src.faces.face_of(p)
            if fh != fp:
                if fh not in bases or fp not in bases:
                    raise ValidationError("a cross-face pair leaves the placed faces")
                partner[h + bases[fh]] = p + bases[fp]
    return validate(faces, partner)


def join5(i: int, pieces) -> CellularMap:
    """Inverse of split5: place the pieces' faces back in position i and
    glue.  One-face pieces must be nontrivial and a two-face piece must be
    connected, otherwise the result would leave the class."""
    if i in (1, 2, 3):
        uni, bi = pieces
        if uni.k != 1 or uni.np_edge_count == 0:
            raise WrongClass("the one-face piece must be nontrivial")
        if bi.k != 2:
            raise WrongClass("expected a two-face piece")
        if not bi.is_connected:
            raise Disconnected("the two-face piece must be connected")
        slots = {1: [(uni, 0), (bi, 0), (bi, 1)], 2: [(bi, 0), (uni, 0), (bi, 1)], 3: [(bi, 0), (bi, 1), (uni, 0)]}
        x = _assemble_three(slots[i])
    elif i == 4:
        u1, u2, u3 = pieces
        for p in (u1, u2, u3):
            if p.k != 1 or p.np_edge_count == 0:
                raise WrongClass("all three pieces must be nontrivial one-face maps")
        x = _assemble_three([(u1, 0), (u2, 0), (u3, 0)])
    else:
        raise ValueError(f"split index must be 1..4, got {i}")
    out = glue(x)
    pc = classify(out)
    check_invariant(pc.leaf == f"F5{i}", f"join5({i}) gave class {pc.leaf}, not F5{i}")
    return out
