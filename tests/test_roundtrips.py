import pytest

from plantedmaps import census, roundtrips
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
