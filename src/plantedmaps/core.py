"""Planted cellular maps encoded as permutation data.

A planted map with ``k`` faces is stored as the sizes of its face interiors
together with a fixed-point free involution ``alpha`` pairing half-edge ids.
Ids are assigned face by face in boundary order: face ``i`` occupies one
contiguous block whose first id (the root ``R_i``) is paired with its last id
(the plant ``S_i``); the ids in between are the interior of the face.  The
face successor ``gamma`` walks each block cyclically, the vertex permutation
is ``sigma = alpha o gamma``, and two maps are equal exactly when they have
the same interior sizes and the same pairing (labelled equality; no
automorphism quotient is taken).  The layout is stated once, as the first id
of each block (:attr:`FaceStructure.roots`); the plants, the non-plant ids
and the face of an id are read from it.

Inside a block ``gamma(h) = h + 1``, so ``sigma`` is read from slices of
``alpha`` without building ``gamma``.  Each map's genus is counted once, from
the number of ``sigma`` cycles, by a flat walk that labels each half-edge
with its cycle and stores no cycle.  The count is kept by a plain property
(:attr:`CellularMap.vertex_count`) as an attribute set with ``_set``, not
by a ``cached_property``, whose first read takes a lock on Python 3.10 and
3.11 and which writes through ``__dict__``: on Python 3.11 and later an
instance's attributes live in its object until ``__dict__`` is read, so a
map whose genus was counted carries no instance dict.  The genus of a
one-face map does not ask for connectivity.  The labels
(:attr:`CellularMap.vertex_of`) are kept only when a caller asks for them,
and the cycle tuples (:attr:`CellularMap.vertex_cycles`) are built only for
``show``.  Connectivity needs no ``sigma``: it is read from the closure of
the face blocks under ``alpha`` (:attr:`CellularMap.is_connected`).

:meth:`CellularMap.encode` writes the compact JSON text directly.

Storing ``alpha`` as a partner array over a dense id range gives O(1) edge
lookups and keeps exhaustive enumeration cache friendly.

One builder, :func:`_build`, relabels the surgeries' face words, written
root to plant, by position.  Their ids are dense, so it relabels through a
list indexed by id; :func:`canonicalize`, whose ids are arbitrary, maps them
to positions through a dict itself.  One per-id check,
:func:`_check_involution`, serves every partner array read from input.  One
fill, :func:`_fill`, turns the id pairs of :func:`decode` and
:func:`from_np_pairs` into a partner array in one pass; an input it refuses
is read again pair by pair (:func:`_read_pairs`), and the check names its
fault.  A successful fill also proves each pair's shape, so :func:`decode`
reads the shapes of its JSON pairs only when the fill refuses.

The package imports neither ``dataclasses`` nor ``typing``: the first loads
``inspect`` and ``ast``, and with the second they cost each short command
more than its own work.  Records are plain classes on :class:`_Record`, and
annotations name :mod:`collections.abc`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from operator import countOf, index

SCHEMA_VERSION = 1


class MapError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MapError):
    """The input does not describe a valid planted cellular map."""


class NotInvolution(ValidationError):
    pass


class HasFixedPoint(ValidationError):
    pass


class PlantNotPairedWithRoot(ValidationError):
    pass


class SizeMismatch(ValidationError):
    pass


class ParseError(MapError):
    """Malformed serialized map text."""


class BoundExceeded(MapError):
    """A request outside the range an exhaustive computation supports."""


class Disconnected(MapError):
    pass


class OddEulerDefect(MapError):
    pass


class InvariantError(MapError):
    """An internal consistency check failed: the program, not its input, is
    at fault."""


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` read by ``operator.index``; floats and strings raise :class:`ValidationError`."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValidationError(f"{what} must be integers, got {values!r}") from None


def check_invariant(ok: bool, message: str) -> None:
    """Raise :class:`InvariantError` unless ``ok``; unlike ``assert`` the
    check stays on under ``python -O``."""
    if not ok:
        raise InvariantError(message)


_set = object.__setattr__


class _Record:
    """Base of the package's record classes: frozen instances, and a repr,
    an equality and a hash over the fields named in ``_fields``, in the
    forms ``@dataclass`` writes.  The records on hot paths write their own
    equality and hash.  Fields are set through ``_set`` in ``__init__``;
    setting or deleting an attribute afterwards raises ``AttributeError``."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FaceStructure(_Record):
    """Face layout of a planted map.

    ``interior_sizes[i]`` is the number of non-plant half-edges in face ``i``;
    each face additionally carries its root/plant pair, so face ``i``
    occupies a block of ``interior_sizes[i] + 2`` consecutive ids.  ``k``
    and ``total_half_edges`` are derived once, here; only
    ``interior_sizes`` is compared.
    """

    _fields = ("interior_sizes",)

    def __init__(self, interior_sizes: Iterable[int]):
        sizes = _integers(interior_sizes, "interior sizes")
        if not 1 <= len(sizes) <= 3:
            raise ValidationError(f"face count must be between 1 and 3, got {len(sizes)}")
        if any(s < 0 for s in sizes):
            raise ValidationError(f"interior sizes must be non-negative, got {sizes}")
        _set(self, "interior_sizes", sizes)
        _set(self, "k", len(sizes))
        _set(self, "total_half_edges", sum(sizes) + 2 * len(sizes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.interior_sizes == other.interior_sizes

    def __hash__(self) -> int:
        return hash((self.interior_sizes,))

    @cached_property
    def roots(self) -> tuple[int, ...]:
        """The layout: the first id of each face block, the running sum of
        the block lengths."""
        return tuple(accumulate([s + 2 for s in self.interior_sizes[:-1]], initial=0))

    @cached_property
    def plants(self) -> tuple[int, ...]:
        return tuple(r + s + 1 for r, s in zip(self.roots, self.interior_sizes))

    def root(self, i: int) -> int:
        return self.roots[i]

    def plant(self, i: int) -> int:
        return self.plants[i]

    def face_of(self, h: int) -> int:
        """Index of the face whose block contains id ``h``."""
        if not 0 <= h < self.total_half_edges:
            raise ValidationError(f"half-edge id {h} out of range")
        return bisect_right(self.roots, h) - 1

    @cached_property
    def np_ids(self) -> tuple[int, ...]:
        """Non-plant half-edge ids in face order."""
        return tuple(chain.from_iterable(range(r + 1, s) for r, s in zip(self.roots, self.plants)))


class CellularMap(_Record):
    """A planted cellular map: face layout plus half-edge pairing.

    Instances are immutable; all derived structure (``sigma``, vertices,
    genus, connectivity) is computed on demand and cached.  Use
    :func:`validate` to construct a checked instance.
    """

    def __init__(self, faces: FaceStructure, alpha: tuple[int, ...]):
        _set(self, "faces", faces)
        _set(self, "alpha", alpha)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Maps of one layout mostly share one FaceStructure object.
        faces = self.faces
        return self.alpha == other.alpha and (faces is other.faces or faces == other.faces)

    def __hash__(self) -> int:
        return hash((self.faces.interior_sizes, self.alpha))

    @property
    def k(self) -> int:
        return self.faces.k

    @property
    def total_half_edges(self) -> int:
        return self.faces.total_half_edges

    @property
    def np_edge_count(self) -> int:
        faces = self.faces
        return faces.total_half_edges // 2 - faces.k

    @property
    def plants(self) -> tuple[int, ...]:
        return self.faces.plants

    @cached_property
    def sigma(self) -> tuple[int, ...]:
        """Vertex permutation ``alpha o gamma``; fixes every plant."""
        return _sigma(self.faces, self.alpha)

    @cached_property
    def vertex_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycles of ``sigma``, each rotated to start at its minimum id and
        listed in order of that minimum.  Plants appear as singletons."""
        sigma = self.sigma
        total = self.total_half_edges
        seen = bytearray(total)
        cycles = []
        for start in range(total):
            if seen[start]:
                continue
            cyc = []
            h = start
            while not seen[h]:
                seen[h] = 1
                cyc.append(h)
                h = sigma[h]
            cycles.append(tuple(cyc))
        return tuple(cycles)

    @property
    def vertex_count(self) -> int:
        """Number of vertices (``sigma`` cycles, plants included), counted
        once by :func:`_label_vertices` without storing a cycle; kept as a
        plain attribute, with no ``cached_property`` lock and no instance
        dict."""
        v = getattr(self, "_vertex_count", None)
        if v is None:
            v = _label_vertices(_sigma(self.faces, self.alpha))[1]
            _set(self, "_vertex_count", v)
        return v

    @cached_property
    def vertex_of(self) -> tuple[int, ...]:
        """For each half-edge, the index of its cycle in
        :attr:`vertex_cycles`, labelled without building the cycles."""
        return tuple(_label_vertices(_sigma(self.faces, self.alpha))[0])

    @cached_property
    def is_connected(self) -> bool:
        """Whether the union closure of ``h ~ alpha(h)`` and ``h ~ sigma(h)``
        has a single class, read from the face blocks with no search.

        Since ``sigma = alpha o gamma``, the group ``<alpha, sigma>`` equals
        ``<alpha, gamma>``, and the orbits of ``gamma`` are the face blocks.
        So the map is connected exactly when the graph whose nodes are the
        faces, with a link wherever ``alpha`` pairs ids of two different
        blocks, is connected; a node has no link exactly when its block is
        closed under ``alpha`` (:func:`_closed`).  One face is always
        connected.  Two faces are connected iff block 0 is not closed (then
        neither is block 1).  Three faces are connected iff no block is
        closed: three nodes with a link each need two links, and any two
        links on three nodes share a node.
        """
        faces = self.faces
        if faces.k == 1:
            return True
        if faces.k == 2:
            return not _closed(self.alpha, 0, faces.plants[0])
        return not any(_closed(self.alpha, r, s) for r, s in zip(faces.roots, faces.plants))

    def aggregate_genus(self) -> int:
        """Half the Euler defect ``2 - V + E - k``.

        Equals the genus for connected maps; for disconnected maps it is the
        genus-sum bookkeeping quantity (may be negative) used by the cutting
        and gluing surgeries.
        """
        faces = self.faces
        defect = 2 - self.vertex_count + faces.total_half_edges // 2 - faces.k
        if defect % 2:
            raise OddEulerDefect(f"odd Euler defect {defect}; invalid map")
        return defect // 2

    def genus(self) -> int:
        """Topological genus via ``2 - 2g = V - E + k`` (plants included)."""
        if self.faces.k > 1 and not self.is_connected:
            raise Disconnected("genus requires a connected map")
        g = self.aggregate_genus()
        if g < 0:
            raise ValidationError(f"negative genus {g}; invalid map")
        return g

    def kind(self) -> str:
        """One of ``unicellular``/``bicellular``/``tricellular``; maps with
        two or three faces must be connected."""
        if self.k == 1:
            return "unicellular"
        if not self.is_connected:
            raise Disconnected(f"a {self.k}-face map must be connected")
        return "bicellular" if self.k == 2 else "tricellular"

    def encode(self) -> str:
        """Serialize to the one-line JSON interchange form, written directly:
        the bytes ``json.dumps`` gives with compact separators, since JSON
        writes ints as ``int.__repr__`` does."""
        sizes = ",".join(map(str, self.faces.interior_sizes))
        pairs = ",".join([f"[{h},{p}]" for h, p in enumerate(self.alpha) if h < p])
        return (
            f'{{"schema_version":{SCHEMA_VERSION},"k":{self.k},'
            f'"interiors":[{sizes}],"alpha":[{pairs}]}}'
        )

    def __repr__(self) -> str:
        pairs = ",".join(
            f"({h},{p})" for h, p in enumerate(self.alpha) if h < p and h not in self.faces.roots
        )
        return f"CellularMap(interiors={self.faces.interior_sizes}, pairs=[{pairs}])"


def _sigma(faces: FaceStructure, alpha: tuple[int, ...]) -> tuple[int, ...]:
    """``alpha o gamma`` from slices of ``alpha``, with no ``gamma``: block
    ``R_i..S_i`` reads ``alpha(R_i + 1), ..., alpha(S_i), alpha(R_i)``."""
    if faces.k == 1:
        return alpha[1:] + alpha[:1]
    out: tuple[int, ...] = ()
    for r, s in zip(faces.roots, faces.plants):
        out += alpha[r + 1 : s + 1] + (alpha[r],)
    return out


def _closed(alpha: Sequence[int], lo: int, hi: int) -> bool:
    """Whether ``alpha`` maps the ids ``lo..hi`` onto themselves."""
    seg = alpha[lo : hi + 1]
    return not seg or (min(seg) >= lo and max(seg) <= hi)


def _label_vertices(sigma: Sequence[int]) -> tuple[list[int], int]:
    """Label each half-edge with the index of its ``sigma`` cycle, cycles
    numbered in order of their minimum id; return the labels and the number
    of cycles.  The walk the genus and ``vertex_of`` share."""
    idx = [-1] * len(sigma)
    v = 0
    for start in range(len(sigma)):
        if idx[start] >= 0:
            continue
        h = start
        while idx[h] < 0:
            idx[h] = v
            h = sigma[h]
        v += 1
    return idx, v


def validate(faces: FaceStructure | Sequence[int], alpha: Sequence[int]) -> CellularMap:
    """Check ``alpha`` against the face layout and return the map.

    Raises :class:`SizeMismatch`, :class:`NotInvolution`,
    :class:`HasFixedPoint` or :class:`PlantNotPairedWithRoot` when the data
    does not describe a planted map.
    """
    if not isinstance(faces, FaceStructure):
        faces = FaceStructure(tuple(faces))
    partner = _integers(alpha, "alpha entries")
    total = faces.total_half_edges
    if len(partner) != total:
        raise SizeMismatch(f"alpha has {len(partner)} entries, map has {total} half-edges")
    _check_involution(partner)
    return _rooted(faces, partner)


def _check_involution(partner: Sequence[int], ids: Sequence[int] | None = None) -> None:
    """The one per-id check of a partner array: each entry an id, none fixed,
    each paired back; ``-1`` (unpaired) fails the range check.  The errors
    call position ``h`` by ``ids[h]``, the caller's id for it (default ``h``)."""
    total = len(partner)
    if ids is None:
        ids = range(total)
    for h, p in enumerate(partner):
        if not 0 <= p < total:
            raise SizeMismatch(
                f"half-edge {ids[h]} is unpaired" if p == -1 else f"alpha({ids[h]}) = {p} out of range"
            )
        if p == h:
            raise HasFixedPoint(f"alpha fixes half-edge {ids[h]}")
        if partner[p] != h:
            raise NotInvolution(f"alpha(alpha({ids[h]})) = {ids[partner[p]]} != {ids[h]}")


def _rooted(faces: FaceStructure, partner: tuple[int, ...]) -> CellularMap:
    """The map of the involution ``partner``, once each root is checked to be
    paired with its plant."""
    for i, (r, s) in enumerate(zip(faces.roots, faces.plants)):
        if partner[r] != s:
            raise PlantNotPairedWithRoot(
                f"face {i}: alpha({r}) = {partner[r]}, expected the plant {s}"
            )
    return CellularMap(faces, partner)


def _check_pair_count(pairs: int, total: int) -> None:
    if 2 * pairs != total:
        raise SizeMismatch(f"alpha has {pairs} pairs, map has {total} half-edges")


def involution_from_pairs(pairs: Sequence[tuple[int, int]], total: int) -> tuple[int, ...]:
    """The one reader of id pairs: the partner array of ``pairs``, checked to
    be a fixed-point free involution on ``range(total)``.  The pair count is
    checked before anything is allocated; then :func:`_fill`, and
    :func:`_read_pairs` for an input the fill refuses."""
    _check_pair_count(len(pairs), total)
    partner = _fill(pairs, total)
    return _read_pairs(pairs, total) if partner is None else partner


def _fill(pairs: Iterable, total: int) -> tuple[int, ...] | None:
    """The one fill: the partner array of ``pairs`` when they pair
    ``range(total)`` as a fixed-point free involution of exact ``int`` ids,
    else ``None``.  The caller has checked ``2 * len(pairs) == total``.

    The fill is exact by counting.  The array starts as ``None``; ``total``
    writes that raise nothing and leave an ``int`` in every slot wrote each
    slot exactly once, a negative id ``a`` at slot ``a + total``.  So the ids
    sum to ``total * (total - 1) // 2``, less ``total`` for each negative id;
    with that sum no id is negative, none appears twice, and the array is a
    fixed-point free involution.  Asking for exact ``int`` entries sends
    ``bool`` and NumPy ids to :func:`_read_pairs`, whose ``operator.index``
    makes them plain ints.

    A fill that succeeds also proves the shape of each pair, which is why
    :func:`decode` reads the pair shapes only when the fill refuses.  Each
    slot was written exactly once, so every value written survives: both
    items of every pair are in the array, and so each is of type ``int``.
    A JSON value that unpacks into two items is a two-element list, a
    string of two characters or an object with two keys; only the list can
    hold items that index a list.  So each pair is a two-element list of
    ``int`` ids, which is all the shape check asks.
    """
    partner = [None] * total
    try:
        for a, b in pairs:
            partner[a] = b
            partner[b] = a
    except (IndexError, TypeError, ValueError):
        return None
    if countOf(map(type, partner), int) == total and sum(partner) == total * (total - 1) // 2:
        return tuple(partner)
    return None


def _read_pairs(pairs: Iterable, total: int) -> tuple[int, ...]:
    """The pair-by-pair read: a length check per pair and a range check per
    id, then :func:`_check_involution` names the fault of the array."""
    partner = [-1] * total
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValidationError(f"alpha pair {pair!r} is not two half-edge ids") from None
        try:
            a, b = index(a), index(b)
        except TypeError:
            raise ValidationError(f"half-edge ids must be integers, got ({a!r}, {b!r})") from None
        for h in (a, b):
            if not 0 <= h < total:
                raise SizeMismatch(f"half-edge id {h} out of range 0..{total - 1}")
        partner[a] = b
        partner[b] = a
    _check_involution(partner)
    return tuple(partner)


def from_np_pairs(interiors: Sequence[int], pairs: Iterable[tuple[int, int]]) -> CellularMap:
    """Build a map from interior sizes and a matching on the non-plant
    half-edges, indexed 1..2n across faces in face order.  Plant pairs are
    supplied automatically; the pairs and their count are checked first."""
    faces = FaceStructure(tuple(interiors))
    points = sum(faces.interior_sizes)
    np_pairs = []
    for pair in pairs:
        ints = _integers(pair, "np indices")
        if len(ints) != 2:
            raise ValidationError(f"np pair {pair!r} is not two indices")
        s, t = ints
        if not (1 <= s <= points and 1 <= t <= points):
            raise SizeMismatch(f"np index out of range in pair ({s},{t})")
        np_pairs.append(ints)
    _check_pair_count(faces.k + len(np_pairs), faces.total_half_edges)
    np_ids = faces.np_ids
    all_pairs = list(zip(faces.roots, faces.plants))
    all_pairs += [(np_ids[s - 1], np_ids[t - 1]) for s, t in np_pairs]
    return _rooted(faces, involution_from_pairs(all_pairs, faces.total_half_edges))


@lru_cache(maxsize=8)
def _layout(lengths: tuple[int, ...]) -> FaceStructure:
    """One layout per tuple of face-word lengths, shared by the maps built
    below and by :func:`decode`.  Random inputs bring new lengths with every
    map, so the cache is bounded."""
    return FaceStructure(tuple(length - 2 for length in lengths))


def _build(alpha: Sequence[int], words: Sequence[Sequence[int]]) -> CellularMap:
    """The map whose faces read ``words``, each from its root to its plant.

    Every id keeps its ``alpha`` partner, relabelled by its position in the
    concatenated words.  The ids are dense: those of the input's ``alpha``,
    and a surgery that adds half-edges gives them the ids past its end and
    appends their partners.  So the relabel is a list indexed by id, ``-1``
    where an id is in no word.  Raises :class:`InvariantError` when an id
    appears twice, when the words are not closed under ``alpha`` or when a
    root is not paired with its plant.
    """
    seq = words[0] if len(words) == 1 else list(chain.from_iterable(words))
    new_of = [-1] * len(alpha)
    for new, old in enumerate(seq):
        new_of[old] = new
    if countOf(new_of, -1) != len(alpha) - len(seq):
        raise InvariantError("a half-edge appears in two face positions")
    partner = tuple([new_of[alpha[h]] for h in seq])
    if -1 in partner:
        raise InvariantError("the face words are not closed under the pairing")
    faces = _layout(tuple(map(len, words)))
    for r, s in zip(faces.roots, faces.plants):
        if partner[r] != s:
            raise InvariantError("a face root is not paired with its plant")
    return CellularMap(faces, partner)


def canonicalize(
    k: int,
    cycles: Sequence[Sequence[int]],
    alpha: Mapping[int, int],
) -> CellularMap:
    """Relabel face cycles onto the canonical id scheme.

    Each cycle is written from its root to its plant (the plant is the last
    element and must be paired with the first).  The relabeling is
    order-isomorphic: position in the concatenated cycles becomes the new id.
    Two inputs yield equal maps exactly when they are identical as labelled
    planted maps.  The ids are arbitrary, so they are mapped to their
    positions through a dict; every fault raises a :class:`ValidationError`.
    """
    cycles = [tuple(c) for c in cycles]
    if len(cycles) != k:
        raise SizeMismatch(f"expected {k} cycles, got {len(cycles)}")
    for c in cycles:
        if len(c) < 2:
            raise ValidationError("each face needs at least a root and a plant")
    ids = list(chain.from_iterable(cycles))
    if set(alpha) != set(ids):
        raise SizeMismatch("alpha domain differs from the union of the cycles")
    for c in cycles:
        if alpha[c[0]] != c[-1]:
            raise PlantNotPairedWithRoot(
                f"cycle starting at {c[0]} ends at {c[-1]}, not at its root's partner"
            )
    position = {h: i for i, h in enumerate(ids)}
    if len(position) != len(ids):
        raise SizeMismatch("a half-edge appears in two face positions")
    try:
        partner = tuple([position[alpha[h]] for h in ids])
    except KeyError:
        raise SizeMismatch("the face words are not closed under the pairing") from None
    _check_involution(partner, ids)
    return CellularMap(_layout(tuple(map(len, cycles))), partner)


def decode(text: str) -> CellularMap:
    """Parse the JSON interchange form and validate the map.

    ``schema_version`` may be omitted and defaults to 1.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object")
    # ``type(x) is int`` rather than isinstance: JSON true/false decode to
    # bool, a subclass of int.
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}")
    try:
        k = doc["k"]
        interiors = doc["interiors"]
        alpha_pairs = doc["alpha"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    if not isinstance(interiors, list) or not all(type(s) is int for s in interiors):
        raise ParseError("interiors must be a list of integers")
    if type(k) is not int or k != len(interiors):
        raise ParseError("k must equal the number of interior sizes")
    if not isinstance(alpha_pairs, list):
        raise ParseError("alpha must be a list of id pairs")
    # The count first, so a wrong one allocates nothing; its error is still
    # raised after the shape and layout errors.
    total = sum(interiors) + 2 * k
    partner = _fill(alpha_pairs, total) if 2 * len(alpha_pairs) == total else None
    if partner is None:
        for p in alpha_pairs:
            if type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int:
                raise ParseError("alpha must be a list of id pairs")
    faces = _layout(tuple(s + 2 for s in interiors))
    if partner is None:
        _check_pair_count(len(alpha_pairs), total)
        partner = _read_pairs(alpha_pairs, total)
    return _rooted(faces, partner)
