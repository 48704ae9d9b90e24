import gc
import weakref

import pytest

from plantedmaps import census, oracle, partition, roundtrips
from plantedmaps.core import CellularMap
from plantedmaps.census import bicellular_stream, tricellular_stream, unicellular_stream
from plantedmaps.roundtrips import bi_maps, three_face_maps, tri_maps, uni_maps


@pytest.mark.parametrize("n", range(5))
def test_uni_and_bi_buckets_equal_the_filtered_streams(n):
    for g in range(-1, n + 2):
        assert uni_maps(g, n) == tuple(m for m in unicellular_stream(n) if m.genus() == g)
        assert bi_maps(g, n) == tuple(m for m in bicellular_stream(n) if m.genus() == g)


@pytest.mark.parametrize("n", range(4))
def test_three_face_buckets_equal_the_filtered_streams(n):
    for g in range(-3, n + 2):
        assert tri_maps(g, n) == tuple(m for m in tricellular_stream(n) if m.genus() == g)
        assert three_face_maps(g, n) == tuple(
            m for m in tricellular_stream(n, connected_only=False) if m.aggregate_genus() == g
        )


def _clear_caches():
    for fn in (uni_maps, bi_maps, tri_maps, three_face_maps, roundtrips.maps_by_class):
        fn.cache_clear()


def test_each_stream_is_walked_once_per_genus_and_edge_count(monkeypatch):
    # Each (genus, n) asked walks its stream once and keeps only that genus;
    # a repeated call, or a genus past n // 2, walks nothing.
    passes = []

    def counted(name):
        original = getattr(census, name)

        def stream(*args, **kwargs):
            passes.append((name, args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(census, name, stream)

    for name in ("unicellular_stream", "bicellular_stream", "tricellular_stream"):
        counted(name)
    _clear_caches()
    try:
        for _ in range(2):
            for g in range(3):
                uni_maps(g, 4)
                bi_maps(g, 3)
                tri_maps(g, 3)
                three_face_maps(g - 1, 3)
    finally:
        _clear_caches()
    uni, bi, tri = (
        ("unicellular_stream", (4,), {}),
        ("bicellular_stream", (3,), {}),
        ("tricellular_stream", (3,), {"connected_only": False}),
    )
    # tri_maps(g, 3) walks for three_face_maps(g, 3); three_face_maps(g - 1, 3)
    # walks only at g = 0, for aggregate genus -1.  At g = 2 only uni_maps(2, 4)
    # walks: bi_maps(2, 3) and three_face_maps(2, 3) have no map to find.
    assert passes == [uni, bi, tri, tri, uni, bi, tri, uni]


def test_a_genus_no_map_can_have_walks_no_stream(monkeypatch):
    # 2g = n + 1 - k - closed <= n for any face count k and any pairing.
    def walked(*args, **kwargs):
        raise RuntimeError("a stream was walked")

    for name in ("unicellular_stream", "bicellular_stream", "tricellular_stream"):
        monkeypatch.setattr(census, name, walked)
    _clear_caches()
    try:
        for n in range(6):
            for g in (n // 2 + 1, n + 1, 1000):
                found = (uni_maps(g, n), bi_maps(g, n), tri_maps(g, n), three_face_maps(g, n))
                assert found == ((),) * 4, (g, n)
                assert roundtrips.maps_by_class(g - 2, n - 2)["ALL"] == (), (g, n)
    finally:
        _clear_caches()


def test_check_matches_the_codomain_one_to_one():
    def check(domain, codomain):
        failures: list[str] = []
        sizes = roundtrips._check(domain, abs, abs, codomain, failures, "abs")
        return sizes, failures

    assert check([1, 2, 3], (3, 1, 2)) == ((3, 3), [])
    # A repeated codomain element is not offset by an image element outside
    # the codomain: both lists have three elements and neither misses a value.
    assert check([1, 2, 3], [1, 2, 2]) == (
        (3, 3),
        ["abs: image misses 1 of the 3 codomain elements and adds 1 (image has 3)"],
    )
    assert check([1, -1, 2], [1, 2, 4]) == (
        (3, 2),
        [
            "abs: inverse(forward(x)) != x for -1",
            "abs: image contains duplicates (injectivity broken)",
            "abs: image misses 1 of the 3 codomain elements and adds 0 (image has 2)",
        ],
    )


def _live(cls, keep) -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls and keep(obj))


def test_a_genus_keeps_only_its_own_maps():
    # 945 one-face maps have 5 edges, 483 of them of genus 2; the others are
    # dropped as the stream is walked.
    _clear_caches()
    five_edges = lambda m: m.k == 1 and m.np_edge_count == 5  # noqa: E731
    before = _live(CellularMap, five_edges)
    try:
        maps = uni_maps(2, 5)
        assert len(maps) == 483
        assert _live(CellularMap, five_edges) - before == 483
    finally:
        _clear_caches()


class _Part:
    """An image part that compares by value, so that forward can return a
    fresh copy of an equal part each time."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)


def test_check_holds_each_distinct_image_part_once():
    # Forward returns fresh parts; the four distinct values among the ten
    # parts of the image are held once each.  The last domain element brings
    # new values, so the parts that _check's last ``y`` still refers to are
    # the held copies.
    domain = [(0, 1), (1, 0), (0, 0), (1, 1), (2, 3)]
    refs, live = [], []

    def forward(x):
        y = (_Part(x[0]), _Part(x[1]))
        refs.extend(map(weakref.ref, y))
        return y

    def codomain():
        gc.collect()
        live.append(sum(1 for ref in refs if ref() is not None))
        for a, b in domain:
            yield _Part(a), _Part(b)

    failures: list[str] = []
    inverse = lambda y: (y[0].value, y[1].value)  # noqa: E731
    assert roundtrips._check(domain, forward, inverse, codomain(), failures, "parts") == (5, 5)
    assert failures == [] and live == [4]


@pytest.mark.parametrize("n", range(5))
def test_split5_codomains_have_the_oracle_sizes(n):
    t = oracle.table()
    for g in range((n + 2) // 2 + 2):
        codomains = [entry[3] for entry in roundtrips._checks("split5", g, n).values()]
        expected = [t.single_split(g, n)] * 3 + [t.triple_split(g, n)]
        assert [sum(1 for _ in c) for c in codomains] == expected, (g, n)


def _identity_term(name: str, g: int, n: int) -> int:
    """The term of the counting identity that counts ``name``'s domain."""
    t = oracle.table()
    if name.startswith("eta"):
        return t.u(g + 2, n + 1 if int(name[3]) <= 4 else n)
    if name == "theta":
        return census.count("tricellular", n).get(g, n)
    if name in ("delete", "psi"):
        return (n + 1) * (2 * n + 1) * t.u(g + 1, n)
    if name == "split5":
        return 3 * t.single_split(g, n) + t.triple_split(g, n)
    hist = partition.histogram(g, n)  # cut: every scenario-A leaf
    return hist.total - hist.classes["U1"] - hist.classes["B"]


@pytest.mark.parametrize("name", [b for b in roundtrips.BIJECTION_NAMES if b != "contract"])
def test_domain_sizes_equal_their_identity_terms(name):
    for n in range(4):
        for g in range((n + 2) // 2 + 2):
            rep = roundtrips.roundtrip(name, g, n)
            assert rep["ok"] and rep["domain_size"] == _identity_term(name, g, n), (g, n)


def test_split_codomains_and_convolutions_stop_at_the_largest_genus(monkeypatch):
    # A piece with m edges has genus at most m // 2, so the work of the split
    # codomains and of the oracle's convolutions does not grow with g.
    calls = []

    def budgeted(f):
        def call(*args):
            calls.append(args)
            if len(calls) > 10_000:
                raise RuntimeError(f"over 10 000 calls to uni_maps and HZTable.u, at {f.__name__}")
            return f(*args)

        return call

    monkeypatch.setattr(roundtrips, "uni_maps", budgeted(roundtrips.uni_maps))
    monkeypatch.setattr(oracle.HZTable, "u", budgeted(oracle.HZTable.u))
    assert roundtrips.roundtrip("split5", 10**4, 4)["domain_size"] == 0
    assert oracle.verify_theorem(10**4, 0)["ok"]


def test_an_unknown_bijection_name_is_refused():
    with pytest.raises(ValueError, match="unknown bijection 'nope'"):
        roundtrips._checks("nope", 0, 1)
