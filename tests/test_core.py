import json
import random
import re
import time

import pytest

from conftest import mk, uni
from plantedmaps.core import (
    CellularMap,
    Disconnected,
    FaceStructure,
    HasFixedPoint,
    MapError,
    NotInvolution,
    ParseError,
    PlantNotPairedWithRoot,
    SizeMismatch,
    ValidationError,
    _check_involution,
    canonicalize,
    decode,
    from_np_pairs,
    involution_from_pairs,
    validate,
)
from plantedmaps import bijections
from plantedmaps.census import (
    _cellular_stream,
    bicellular_stream,
    compositions,
    tricellular_stream,
    unicellular_stream,
)

EPS = uni(0)
PENDANT = uni(1, (1, 2))


def test_validate_pendant_map():
    m = validate(FaceStructure((2,)), (3, 2, 1, 0))
    assert m == PENDANT
    assert m.np_edge_count == 1


def test_validate_trivial_map():
    m = validate((0,), (1, 0))
    assert m == EPS
    assert m.plants == (1,)


def test_validate_rejects_fixed_point():
    with pytest.raises(HasFixedPoint):
        validate((2,), (3, 1, 2, 0))


def test_validate_rejects_non_involution():
    with pytest.raises(NotInvolution):
        validate((2,), (3, 2, 3, 0))


def test_validate_rejects_unpaired_plant():
    # alpha is a valid involution but pairs the root with an interior id
    with pytest.raises(PlantNotPairedWithRoot):
        validate((2,), (1, 0, 3, 2))


def test_validate_rejects_size_mismatch():
    with pytest.raises(SizeMismatch):
        validate((2,), (1, 0))


def test_sigma_fixes_both_ids_of_trivial_map():
    assert EPS.sigma == (0, 1)


def test_sigma_single_nonplant_vertex():
    m = uni(2, (1, 3), (2, 4))
    assert m.vertex_cycles == ((0, 3, 2, 1, 4), (5,))
    m = uni(4, (1, 5), (2, 6), (3, 7), (4, 8))
    assert m.vertex_cycles[0] == (0, 5, 2, 7, 4, 1, 6, 3, 8)


def test_vertices_of_trivial_map():
    assert EPS.vertex_cycles == ((0,), (1,))


def test_vertices_planar_two_chords():
    m = uni(2, (1, 2), (3, 4))
    assert m.vertex_cycles == ((0, 2, 4), (1,), (3,), (5,))


@pytest.mark.parametrize(
    "m,genus",
    [
        (PENDANT, 0),
        (uni(2, (1, 3), (2, 4)), 1),
        (uni(4, (1, 5), (2, 6), (3, 7), (4, 8)), 2),
        (EPS, 0),
    ],
)
def test_genus(m, genus):
    assert m.genus() == genus


def test_unicellular_always_connected():
    for n in range(4):
        for m in unicellular_stream(n):
            assert m.is_connected


def test_bicellular_connectivity():
    isolated = mk((0, 2), (1, 2))
    assert not isolated.is_connected
    with pytest.raises(Disconnected):
        isolated.kind()
    crossing = mk((1, 1), (1, 2))
    assert crossing.is_connected
    assert crossing.kind() == "bicellular"
    assert crossing.genus() == 0


def _connected_by_search(m):
    """Reference for ``is_connected``: a search over ``<alpha, sigma>`` from
    id 0 that reaches every id exactly when the map is connected."""
    alpha, sigma = m.alpha, m.sigma
    seen = {0}
    stack = [0]
    while stack:
        h = stack.pop()
        for t in (alpha[h], sigma[h]):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen) == m.total_half_edges


def test_connectivity_from_the_face_blocks_matches_the_search():
    maps = [m for k in (2, 3) for n in range(5) for m in _cellular_stream(k, n, False)]
    assert len(maps) == 6266
    results = [m.is_connected for m in maps]
    assert results == [_connected_by_search(m) for m in maps]
    assert True in results and False in results


def _random_cuts(rng, n_values, per_n):
    """Three-face cuts of seeded uniform one-face maps; the maps the cut
    refuses (root degree 2, or scenario B) are skipped."""
    cuts = []
    for n in n_values:
        for _ in range(per_n):
            ids = list(range(1, 2 * n + 1))
            rng.shuffle(ids)
            try:
                cuts.append(bijections.cut(uni(n, *zip(ids[0::2], ids[1::2]))).map)
            except MapError:
                pass
    return cuts


def test_connectivity_on_random_three_face_cuts():
    cuts = _random_cuts(random.Random(20), range(20, 61), 4)
    assert len(cuts) > 40
    for m in cuts:
        assert m.k == 3
        assert m.is_connected == _connected_by_search(m)


def test_canonicalize_identity_and_idempotence():
    m = uni(3, (1, 4), (2, 6), (3, 5))
    cycles = (tuple(range(m.total_half_edges)),)
    alpha = {h: m.alpha[h] for h in range(m.total_half_edges)}
    assert canonicalize(1, cycles, alpha) == m


def test_canonicalize_cut_example():
    # The three face cycles produced by cutting [4; (1,4),(2,6),(3,8),(5,7)]
    m = uni(4, (1, 4), (2, 6), (3, 8), (5, 7))
    cycles = ((1, 2, 3, 4), (5, 6, 7), (0, 8, 9))
    alpha = {h: m.alpha[h] for h in range(10)}
    out = canonicalize(3, cycles, alpha)
    assert out == mk((2, 1, 1), (1, 3), (2, 4))


def test_canonicalize_relabeled_presentation_is_the_same_map():
    # presenting a map through any interior relabelling (cycle and pairing
    # conjugated together) canonicalizes back to the identical value
    m = uni(3, (1, 2), (3, 6), (4, 5))
    total = m.total_half_edges
    rev = {h: 7 - h for h in range(1, 7)}
    cycle = (0,) + tuple(rev[h] for h in range(1, 7)) + (total - 1,)
    alpha = {0: total - 1, total - 1: 0}
    for h in range(1, 7):
        alpha[rev[h]] = rev[m.alpha[h]]
    assert canonicalize(1, (cycle,), alpha) == m


def test_canonicalize_reversed_cycle_order_changes_the_map():
    # walking the face the other way round is a different labelled map,
    # unless the pairing is reversal symmetric
    def reversed_presentation(m):
        last = m.total_half_edges - 1
        cycle = (0,) + tuple(range(last - 1, 0, -1)) + (last,)
        alpha = {h: m.alpha[h] for h in range(m.total_half_edges)}
        return canonicalize(1, (cycle,), alpha)

    m = uni(3, (1, 2), (3, 6), (4, 5))
    out = reversed_presentation(m)
    assert out != m
    assert out == uni(3, (1, 4), (2, 3), (5, 6))
    symmetric = uni(2, (1, 3), (2, 4))
    assert reversed_presentation(symmetric) == symmetric


def test_canonicalize_rejects_unfixed_plant():
    m = uni(1, (1, 2))
    alpha = {h: m.alpha[h] for h in range(4)}
    with pytest.raises(PlantNotPairedWithRoot):
        canonicalize(1, ((1, 2, 3, 0),), alpha)


@pytest.mark.parametrize(
    "cycles, alpha, exc, message",
    [
        # alpha's domain is the union of the cycles, but it sends 1 to 7
        (((0, 1, 2, 3),), {0: 3, 3: 0, 1: 7, 2: 1}, SizeMismatch, "not closed"),
        (((0, 1, 1, 3),), {0: 3, 3: 0, 1: 1}, SizeMismatch, "two face positions"),
        (((0, 1, 2, 3),), {0: 3, 3: 0, 1: 1, 2: 2}, HasFixedPoint, "fixes half-edge 1"),
        # The errors name the caller's ids, not their positions: alpha(alpha(1))
        # is alpha(2) = 4, at position 3; the fixed id 5 is at position 1.
        (((0, 1, 2, 4, 3),), {0: 3, 3: 0, 1: 2, 2: 4, 4: 1}, NotInvolution, "alpha(alpha(1)) = 4 != 1"),
        (((0, 5, 7, 3),), {0: 3, 3: 0, 5: 5, 7: 7}, HasFixedPoint, "fixes half-edge 5"),
    ],
    ids=["leaves_the_cycles", "repeated_id", "fixed_point", "not_involution", "fixed_point_relabelled"],
)
def test_canonicalize_rejects_malformed_alpha(cycles, alpha, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        canonicalize(1, cycles, alpha)


def test_encode_examples():
    assert json.loads(EPS.encode()) == {
        "schema_version": 1,
        "k": 1,
        "interiors": [0],
        "alpha": [[0, 1]],
    }
    m = uni(2, (1, 3), (2, 4))
    assert json.loads(m.encode()) == {
        "schema_version": 1,
        "k": 1,
        "interiors": [4],
        "alpha": [[0, 5], [1, 3], [2, 4]],
    }


def _encode_reference(m):
    """The interchange text built as a document and written by ``json``."""
    pairs = sorted((h, p) for h, p in enumerate(m.alpha) if h < p)
    doc = {
        "schema_version": 1,
        "k": m.k,
        "interiors": list(m.faces.interior_sizes),
        "alpha": [[a, b] for a, b in pairs],
    }
    return json.dumps(doc, separators=(",", ":"))


def test_encode_bytes_match_json_dumps():
    maps = [m for n in range(5) for m in unicellular_stream(n)]
    for n in range(4):
        maps += bicellular_stream(n, connected_only=False)
        maps += tricellular_stream(n, connected_only=False)
    rng = random.Random(200)
    for n in (20, 57, 120, 200):
        ids = list(range(1, 2 * n + 1))
        rng.shuffle(ids)
        maps.append(uni(n, *zip(ids[0::2], ids[1::2])))
    maps += _random_cuts(rng, (20, 90, 200), 3)
    assert {m.k for m in maps} == {1, 2, 3}
    for m in maps:
        assert m.encode() == _encode_reference(m)


def test_decode_accepts_pairs_in_any_order():
    m = uni(3, (1, 4), (2, 6), (3, 5))
    assert decode('{"k":1,"interiors":[6],"alpha":[[5,3],[7,0],[4,1],[2,6]]}') == m


def test_decode_accepts_missing_schema_version():
    m = decode('{"k":1,"interiors":[4],"alpha":[[0,5],[1,3],[2,4]]}')
    assert m == uni(2, (1, 3), (2, 4))


def test_decode_encode_roundtrip_over_census():
    for n in range(4):
        for m in unicellular_stream(n):
            assert decode(m.encode()) == m


def test_decode_errors():
    with pytest.raises(ParseError):
        decode("not json")
    with pytest.raises(ParseError):
        decode('{"k":2,"interiors":[0],"alpha":[[0,1]]}')
    with pytest.raises(ParseError):
        decode('{"schema_version":9,"k":1,"interiors":[0],"alpha":[[0,1]]}')
    with pytest.raises(ValidationError):
        decode('{"k":1,"interiors":[2],"alpha":[[0,3],[1,1],[2,2]]}')
    with pytest.raises(ValidationError):
        decode('{"k":1,"interiors":[2],"alpha":[[0,1],[2,3]]}')


def test_decode_reports_pair_shape_before_size():
    for pairs in ('[[0,3],[1,2,5]]', '[[0,3],[1]]', '[[0,3],{"a":1}]', '[[0,3],[1,2.0]]', '[[0,3],[1,"2"]]'):
        # Four interior ids need three pairs: the size is wrong too.
        with pytest.raises(ParseError):
            decode('{"k":1,"interiors":[4],"alpha":%s}' % pairs)
    with pytest.raises(SizeMismatch):
        decode('{"k":1,"interiors":[4],"alpha":[[0,5],[1,2]]}')


def test_decode_rejects_json_booleans():
    for doc in (
        '{"k": true, "interiors": [0], "alpha": [[0, true]]}',
        '{"k": true, "interiors": [0], "alpha": [[0, 1]]}',
        '{"k": 1, "interiors": [false], "alpha": [[0, 1]]}',
        '{"k": 1, "interiors": [0], "alpha": [[0, true]]}',
        '{"schema_version": true, "k": 1, "interiors": [0], "alpha": [[0, 1]]}',
    ):
        with pytest.raises(ParseError):
            decode(doc)


def test_decode_checks_sizes_before_allocating():
    start = time.perf_counter()
    with pytest.raises(SizeMismatch) as exc:
        decode('{"k":1,"interiors":[40000000],"alpha":[]}')
    assert time.perf_counter() - start < 1.0
    assert len(str(exc.value)) < 80
    with pytest.raises(ValidationError):
        decode('{"k":2,"interiors":[-2,4],"alpha":[[0,1],[2,3]]}')


def test_from_np_pairs_checks_pairs_before_laying_out_ids(monkeypatch):
    # The tuple of non-plant ids is as long as the map: a short pair list
    # for a large map is refused without it.
    def unread(faces):
        raise AssertionError("np_ids read before the pairs were checked")

    monkeypatch.setattr(FaceStructure, "np_ids", property(unread))
    with pytest.raises(SizeMismatch, match="^alpha has 1 pairs, map has 10000002 half-edges$"):
        from_np_pairs((10**7,), [])
    with pytest.raises(SizeMismatch, match="np index out of range"):
        from_np_pairs((10**7,), [(1, 10**7 + 1)])
    with pytest.raises(ValidationError, match="is not two indices"):
        from_np_pairs((10**7,), [(1, 2, 3)])


def test_kind_tags():
    assert EPS.kind() == "unicellular"
    assert mk((1, 1, 2), (1, 3), (2, 4)).kind() == "tricellular"


def test_face_structure_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        FaceStructure(())
    with pytest.raises(ValidationError):
        FaceStructure((1, 1, 1, 1))
    with pytest.raises(ValidationError):
        FaceStructure((-1,))


def test_plants_are_singleton_sigma_cycles():
    for n in range(4):
        for m in unicellular_stream(n):
            cycles = m.vertex_cycles
            for p in m.plants:
                assert (p,) in cycles


def test_maps_are_hashable_values():
    a = uni(2, (1, 3), (2, 4))
    b = uni(2, (1, 3), (2, 4))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_from_np_pairs_rejects_bad_index():
    with pytest.raises(SizeMismatch):
        from_np_pairs((2,), [(1, 5)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: FaceStructure((2.7,)),
        lambda: FaceStructure(("2",)),
        lambda: validate((2,), [3, 2.7, 1, 0]),
        lambda: validate((2.0,), [3, 2, 1, 0]),
        lambda: from_np_pairs((2,), [(1.9, 2)]),
        lambda: from_np_pairs((2,), [("1", 2)]),
        lambda: involution_from_pairs([(0, 1.0)], 2),
    ],
    ids=[
        "size_float", "size_str", "alpha_float", "faces_float", "np_float", "np_str", "pair_float"
    ],
)
def test_non_integral_numbers_are_rejected(call):
    # ``int`` would truncate 2.7 and parse "2"; every entry point refuses
    # them, as ``decode`` refuses 2.0 and "2".
    with pytest.raises(ValidationError, match="must be integers"):
        call()


@pytest.mark.parametrize(
    "call, pair",
    [
        (lambda: from_np_pairs((2,), [(1, 2, 3)]), (1, 2, 3)),
        (lambda: from_np_pairs((2,), [(1,)]), (1,)),
        (lambda: involution_from_pairs([(0, 1, 2), (2, 3)], 4), (0, 1, 2)),
        (lambda: involution_from_pairs([5, (1, 2)], 4), 5),
        (lambda: involution_from_pairs([None, (1, 2)], 4), None),
    ],
    ids=["np_three", "np_one", "pair_three", "pair_int", "pair_none"],
)
def test_wrong_length_pairs_are_rejected(call, pair):
    # Unpacking would raise a bare ValueError or TypeError, which a caller
    # that catches MapError misses; the error names the pair.
    with pytest.raises(ValidationError, match=re.escape(f"pair {pair!r} is not two")):
        call()


@pytest.mark.parametrize(
    "pairs",
    [[(0, True)], [(True, 0)], [(False, True)], [(0, 5), (True, 3), (2, 4)]],
    ids=["bool_partner", "bool_id", "both_bool", "bool_among_ints"],
)
def test_pair_reader_returns_int_ids(pairs):
    # ``bool`` is an ``int`` subclass that indexes a list; the reader must
    # still return plain ints, or ``encode`` would write ``[0,True]``.
    partner = involution_from_pairs(pairs, 2 * len(pairs))
    assert all(type(p) is int for p in partner)
    m = CellularMap(FaceStructure((2 * len(pairs) - 2,)), partner)
    assert "True" not in m.encode() and "False" not in m.encode()


def _pairs_read_one_by_one(pairs, total):
    """The pair reader without its one fill: each id read and range checked,
    then the per-id check of the whole array."""
    partner = [-1] * total
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValidationError(f"alpha pair {pair!r} is not two half-edge ids") from None
        for h in (a, b):
            if not 0 <= h < total:
                raise SizeMismatch(f"half-edge id {h} out of range 0..{total - 1}")
        partner[a] = b
        partner[b] = a
    _check_involution(partner)
    return tuple(partner)


def _read(reader, pairs, total):
    try:
        return reader(pairs, total)
    except MapError as exc:
        return type(exc), str(exc)


def test_one_fill_agrees_with_the_pair_by_pair_read():
    # Every pairing of 4 ids drawn from -5..4, and seeded ones of 6 and 8
    # ids from -9..8: repeated, negative (wrapping or not) and too large ids;
    # and pairs of the wrong length, before and after a faulty pair.
    cases = [
        ([(a, b), (c, d)], 4)
        for a in range(-5, 5) for b in range(-5, 5) for c in range(-5, 5) for d in range(-5, 5)
    ]
    cases += [
        ([(0, 1, 2), (2, 3)], 4), ([(0, 1), (2,)], 4), ([(0, 1), ()], 4),
        ([(0, 0), (1, 2, 3)], 4), ([(0, 9), (1, 2, 3)], 4), ([(3, 1, 2), (0, 9)], 4),
        ([5, (1, 2)], 4), ([None, (1, 2)], 4), ([(0, 9), 5], 4),
    ]
    rng = random.Random(21)
    for total in (6, 8):
        cases += [
            ([(rng.randint(-total - 1, total), rng.randint(-total - 1, total)) for _ in range(total // 2)], total)
            for _ in range(5000)
        ]
        ids = list(range(total))
        for _ in range(500):
            rng.shuffle(ids)
            cases.append((list(zip(ids[0::2], ids[1::2])), total))
    accepted = 0
    for pairs, total in cases:
        got = _read(involution_from_pairs, pairs, total)
        assert got == _read(_pairs_read_one_by_one, pairs, total), (pairs, total)
        accepted += type(got[0]) is int
    assert accepted > 1000


def test_pair_reader_returns_int_ids_for_numpy_ids():
    np = pytest.importorskip("numpy")
    partner = involution_from_pairs([(np.int64(0), np.int32(3)), (1, np.uint8(2))], 4)
    assert partner == (3, 2, 1, 0)
    assert all(type(p) is int for p in partner)


# Malformed pairings of a two-edge one-face map (ids 0..5, interior 1..4):
# the ``alpha`` of a ``decode`` document, the same fault as ``from_np_pairs``
# interior pairs (None where that entry point supplies the root/plant pair
# itself), as a ``validate`` partner array (-1 at an unpaired id), the
# exception class all three must raise, and ``decode``'s exact message.
MALFORMED_ALPHA = {
    "id_out_of_range": (
        [[0, 5], [1, 3], [2, 6]], [(1, 3), (2, 5)], (5, 3, 6, 1, 2, 0), SizeMismatch,
        "half-edge id 6 out of range 0..5",
    ),
    "fixed_point": (
        [[0, 5], [1, 1], [2, 4]], [(1, 1), (2, 4)], (5, 1, 4, 3, 2, 0), HasFixedPoint,
        "alpha fixes half-edge 1",
    ),
    "paired_twice": (
        [[0, 5], [1, 3], [3, 2]], [(1, 3), (3, 2)], (5, 3, 3, 1, 2, 0), NotInvolution,
        "alpha(alpha(1)) = 2 != 1",
    ),
    "unpaired_id": (
        [[0, 5], [1, 3]], [(1, 3)], (5, 3, -1, 1, -1, 0), SizeMismatch,
        "alpha has 2 pairs, map has 6 half-edges",
    ),
    # as many pairs as a full pairing, so an id is left unpaired
    "repeated_pair": (
        [[0, 5], [1, 3], [1, 3]], [(1, 3), (1, 3)], (5, 3, -1, 1, -1, 0), SizeMismatch,
        "half-edge 2 is unpaired",
    ),
    "plant_not_paired_with_root": (
        [[0, 2], [1, 5], [3, 4]], None, (2, 5, 0, 4, 3, 1), PlantNotPairedWithRoot,
        "face 0: alpha(0) = 2, expected the plant 5",
    ),
    # a negative id must not index a list from its end
    "negative_id": (
        [[0, 5], [1, -3], [2, 4]], [(1, -3), (2, 4)], (5, -3, 4, -1, 2, 0), SizeMismatch,
        "half-edge id -3 out of range 0..5",
    ),
    # -6 would land on slot 0, the root's, which its pair writes anyway
    "negative_id_wraps_to_the_plants_slot": (
        [[0, -6], [1, 3], [2, 4]], None, (-6, 3, 4, 1, 2, 0), SizeMismatch,
        "half-edge id -6 out of range 0..5",
    ),
    "id_past_the_end": (
        [[0, 5], [1, 6], [2, 4]], [(1, 6), (2, 4)], (5, 6, 4, -1, 2, 0), SizeMismatch,
        "half-edge id 6 out of range 0..5",
    ),
    "too_many_pairs": (
        [[0, 5], [1, 3], [2, 4], [2, 4]], [(1, 3), (2, 4), (2, 4)], (5, 3, 4, 1, 2, 0, 4),
        SizeMismatch, "alpha has 4 pairs, map has 6 half-edges",
    ),
}


@pytest.mark.parametrize(
    "case, entry",
    [
        (case, entry)
        for case, (_, np_pairs, _, _, _) in MALFORMED_ALPHA.items()
        for entry in ("decode", "from_np_pairs", "validate")
        if entry != "from_np_pairs" or np_pairs is not None
    ],
)
def test_malformed_alpha_raises_one_class(case, entry):
    doc_alpha, np_pairs, partner, exc, message = MALFORMED_ALPHA[case]
    with pytest.raises(exc) as raised:
        if entry == "decode":
            decode(json.dumps({"k": 1, "interiors": [4], "alpha": doc_alpha}))
        elif entry == "from_np_pairs":
            from_np_pairs((4,), np_pairs)
        else:
            validate((4,), partner)
    if entry == "decode":
        assert type(raised.value) is exc
        assert str(raised.value) == message


def _blocks(sizes):
    """The (root, plant) of each face block, laid out here from the interior
    sizes: blocks of ``size + 2`` ids, one after another from 0."""
    blocks, root = [], 0
    for size in sizes:
        blocks.append((root, root + size + 1))
        root += size + 2
    return blocks


@pytest.mark.parametrize("k", [1, 2, 3])
def test_layout_matches_blocks_built_here(k):
    for interior in range(7):
        for sizes in compositions(interior, k):
            faces = FaceStructure(sizes)
            blocks = _blocks(sizes)
            assert faces.roots == tuple(r for r, _ in blocks)
            assert faces.plants == tuple(s for _, s in blocks)
            assert [(faces.root(i), faces.plant(i)) for i in range(k)] == blocks
            assert faces.np_ids == tuple(h for r, s in blocks for h in range(r + 1, s))
            for i, (r, s) in enumerate(blocks):
                assert all(faces.face_of(h) == i for h in range(r, s + 1))
            for h in (-1, faces.total_half_edges):
                with pytest.raises(ValidationError, match="out of range"):
                    faces.face_of(h)


def _check_flat_genus(m):
    """The flat vertex count and the vertex labels against the cycles of
    ``sigma``, and ``sigma`` against ``alpha o gamma`` composed here."""
    gamma = list(range(1, m.total_half_edges + 1))
    for r, s in _blocks(m.faces.interior_sizes):
        gamma[s] = r
    reference = tuple(m.alpha[t] for t in gamma)
    flat_first = CellularMap(m.faces, m.alpha)
    cycles_first = CellularMap(m.faces, m.alpha)
    cycles = cycles_first.vertex_cycles
    defect = 2 - len(cycles) + m.total_half_edges // 2 - m.k
    assert defect % 2 == 0
    assert flat_first.aggregate_genus() == defect // 2 == cycles_first.aggregate_genus()
    assert flat_first.vertex_cycles == cycles
    assert all(flat_first.vertex_of[h] == i for i, c in enumerate(cycles) for h in c)
    assert sorted(h for c in cycles for h in c) == list(range(m.total_half_edges))
    for c in cycles:
        assert all(reference[h] == c[(i + 1) % len(c)] for i, h in enumerate(c))
    assert flat_first.sigma == reference


def test_flat_genus_matches_the_vertex_cycles_over_the_census():
    maps = [m for n in range(6) for m in unicellular_stream(n)]
    for n in range(4):
        maps += bicellular_stream(n, connected_only=False)
        maps += tricellular_stream(n, connected_only=False)
    assert any(m.aggregate_genus() < 0 for m in maps)  # disconnected maps are in
    for m in maps:
        _check_flat_genus(m)


@pytest.mark.parametrize("n", [20, 60, 120, 200])
def test_flat_genus_matches_the_vertex_cycles_on_random_maps(n):
    rng = random.Random(n)
    for _ in range(8):
        ids = list(range(1, 2 * n + 1))
        rng.shuffle(ids)
        _check_flat_genus(uni(n, *zip(ids[0::2], ids[1::2])))
