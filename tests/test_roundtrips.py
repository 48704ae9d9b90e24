import pytest

from plantedmaps import census, oracle, partition, roundtrips
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
    for fn in (uni_maps, bi_maps, tri_maps, three_face_maps, roundtrips._by_genus):
        fn.cache_clear()


def test_each_stream_is_walked_once_per_edge_count(monkeypatch):
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
        for g in range(3):
            uni_maps(g, 4)
            bi_maps(g, 3)
            tri_maps(g, 3)
            three_face_maps(g - 1, 3)
    finally:
        _clear_caches()
    assert passes == [
        ("unicellular_stream", (4,), {}),
        ("bicellular_stream", (3,), {}),
        ("tricellular_stream", (3,), {"connected_only": False}),
    ]


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
