"""Exhaustive checks that every surgery bijection is a bijection.

At a theorem index (g, n) each name in :data:`BIJECTION_NAMES` stands for
one or more entries (domain, forward, inverse, codomain), with domain and
codomain enumerated independently of the surgery; ``split5`` has one entry
per F5 class.  Each entry makes one surgery pass, over the domain: every
``x`` must give ``inverse(forward(x)) == x`` and a ``y = forward(x)`` not
seen before.  The codomain is then streamed once against the image, with
no surgery call, and must list each image element exactly once and nothing
else.  A surgery that raises on its own domain fails the check.

``forward(inverse(y)) == y`` on the codomain follows: once the codomain
equals the image, each of its elements is ``y = forward(x)`` for some
domain element ``x``, whose pass found ``inverse(y) == x`` (or recorded the
failure), so ``forward(inverse(y)) == forward(x) == y``.

The ``split5`` codomains are the ordered products of pieces that the
oracle's convolution counts.  A piece with ``m`` edges has genus at most
``m // 2``, so building them costs the same at any ``g``.
"""

from __future__ import annotations

from functools import lru_cache, partial

from plantedmaps import bijections as bij
from plantedmaps import census, partition
from plantedmaps.core import BoundExceeded, CellularMap, MapError

BIJECTION_NAMES = (
    "cut",
    "contract",
    "delete",
    "psi",
    "eta1",
    "eta2",
    "eta3",
    "eta4",
    "eta5",
    "eta6",
    "eta7",
    "theta",
    "split5",
)


@lru_cache(maxsize=None)
def _by_genus(k: int, n: int) -> dict[int, tuple[CellularMap, ...]]:
    """One pass over the census stream of ``k``-face maps with ``n`` edges,
    bucketed by genus in stream order.  The three-face pass keeps the
    disconnected maps and buckets by aggregate genus."""
    census.check_bound(("uni", "bi", "tri")[k - 1], n, census.ENUMERATION_N_MAX)
    buckets: dict[int, list[CellularMap]] = {}
    if k == 3:
        for m in census.tricellular_stream(n, connected_only=False):
            buckets.setdefault(m.aggregate_genus(), []).append(m)
    else:
        stream = census.unicellular_stream(n) if k == 1 else census.bicellular_stream(n)
        for m in stream:
            buckets.setdefault(m.genus(), []).append(m)
    return {g: tuple(ms) for g, ms in buckets.items()}


@lru_cache(maxsize=None)
def uni_maps(genus: int, n: int) -> tuple[CellularMap, ...]:
    return _by_genus(1, n).get(genus, ())


@lru_cache(maxsize=None)
def bi_maps(genus: int, n: int) -> tuple[CellularMap, ...]:
    return _by_genus(2, n).get(genus, ())


@lru_cache(maxsize=None)
def tri_maps(genus: int, n: int) -> tuple[CellularMap, ...]:
    return tuple(m for m in three_face_maps(genus, n) if m.is_connected)


@lru_cache(maxsize=None)
def three_face_maps(aggregate_genus: int, n: int) -> tuple[CellularMap, ...]:
    """All planted three-face maps (connected or not) with the given
    aggregate genus; the codomain of the cut surgery."""
    return _by_genus(3, n).get(aggregate_genus, ())


@lru_cache(maxsize=None)
def maps_by_class(g: int, n: int) -> dict[str, tuple[CellularMap, ...]]:
    """Theorem-indexed census of one-face maps bucketed by partition leaf
    and pendant sub-domain, plus "ALL"."""
    buckets: dict[str, list[CellularMap]] = {
        key: [] for key in (*partition.LEAVES, *partition.PENDANT_DOMAINS, "ALL")
    }
    for u in uni_maps(g + 2, n + 2):
        for key in partition.domains(partition.classify(u)):
            buckets[key].append(u)
        buckets["ALL"].append(u)
    return {k: tuple(v) for k, v in buckets.items()}


def _show(x) -> str:
    """A domain or codomain element as it appears in a failure message."""
    if isinstance(x, CellularMap):
        return x.encode()
    if isinstance(x, tuple):
        return "(" + ", ".join(_show(e) for e in x) + ")"
    return str(x)


def _check(domain, forward, inverse, codomain, failures: list[str], what: str) -> tuple[int, int]:
    """Check that ``forward`` maps ``domain`` bijectively onto ``codomain``
    with inverse ``inverse``; append a message to ``failures`` for each
    violation and return the domain and image sizes.

    One pass over the domain calls the surgeries and collects the image.
    The codomain is then matched against it, each element taking one image
    element away: a codomain element with none left to take (absent from
    the image, or repeated) is missed, and an image element never taken is
    outside the codomain.  As the module docstring argues, this also
    settles ``forward(inverse(y)) == y`` on the codomain.
    """
    size, image, repeats = 0, set(), 0
    for x in domain:
        size += 1
        try:
            y = forward(x)
            before = len(image)
            image.add(y)
            repeats += len(image) == before
            if inverse(y) != x:
                failures.append(f"{what}: inverse(forward(x)) != x for {_show(x)}")
        except MapError as exc:
            failures.append(f"{what}: {type(exc).__name__} on {_show(x)}: {exc}")
    if repeats:
        failures.append(f"{what}: image contains duplicates (injectivity broken)")
    image_size, codomain_size, missed = len(image), 0, 0
    for y in codomain:
        codomain_size += 1
        try:
            image.remove(y)
        except KeyError:
            missed += 1
    if missed or image:
        failures.append(
            f"{what}: image misses {missed} of the {codomain_size} codomain elements "
            f"and adds {len(image)} (image has {image_size})"
        )
    return size, image_size


def _contractible_edges(u: CellularMap) -> list[tuple[CellularMap, tuple[int, int]]]:
    vo = u.vertex_of
    return [
        (u, (a, u.alpha[a]))
        for a in range(1, 2 * u.np_edge_count + 1)
        if a < u.alpha[a] and vo[a] != vo[u.alpha[a]]
    ]


def _mark_pairs(u: CellularMap, same_vertex: bool) -> list[tuple[CellularMap, tuple[int, int]]]:
    """``u`` with every mark pair ``x <= y`` among the root and interior ids,
    restricted to pairs in one vertex when ``same_vertex``."""
    last = 2 * u.np_edge_count
    vo = u.vertex_of
    return [
        (u, (x, y))
        for x in range(last + 1)
        for y in range(x, last + 1)
        if not same_vertex or vo[x] == vo[y]
    ]


def _uni_star(genus: int, n: int) -> tuple[CellularMap, ...]:
    """:func:`uni_maps` less the edgeless map, which no split piece may be."""
    return uni_maps(genus, n) if n else ()


def _pieces(f, h, g: int, n: int) -> list[tuple]:
    """Ordered pairs ``(x, y)``, ``x`` from ``f(a, m)`` and ``y`` from
    ``h(g - a, n - m)``, that :meth:`oracle.HZTable._conv` counts; ``a`` stops
    at ``m // 2``, the largest genus of a one-face piece with ``m`` edges."""
    return [
        (x, y)
        for m in range(n + 1)
        for a in range(min(g, m // 2) + 1)
        for x in f(a, m)
        for y in h(g - a, n - m)
    ]


def _insert_edge(marked: tuple[CellularMap, tuple[int, int]]):
    u, marks = marked
    return bij.insert_edge(u, *marks), bij.inserted_edge_ids(*marks)


def _insert_pair(marked: tuple[CellularMap, tuple[int, int]]) -> CellularMap:
    u, marks = marked
    return bij.insert_pair(u, *marks)


def _checks(name: str, g: int, n: int) -> dict[str, tuple]:
    """Entries (domain, forward, inverse, codomain) of one bijection name,
    keyed by the label its failures carry.  Surgeries are looked up on the
    :mod:`bijections` module at call time."""
    if name not in BIJECTION_NAMES:
        raise ValueError(f"unknown bijection {name!r}; choose from {BIJECTION_NAMES}")
    by_class = maps_by_class(g, n)
    if name == "cut":
        domain = (
            u
            for leaf in ("U2", "G23", "G24", "F51", "F52", "F53", "F54", "II")
            for u in by_class[leaf]
        )
        return {name: (domain, lambda u: bij.cut(u).map, bij.glue, three_face_maps(g, n))}
    if name == "contract":
        domain = (e for u in by_class["ALL"] for e in _contractible_edges(u))
        codomain = (m for u in uni_maps(g + 2, n + 1) for m in _mark_pairs(u, True))
        return {name: (domain, lambda e: bij.contract(*e), _insert_edge, codomain)}
    if name in ("delete", "psi"):
        codomain = (m for u in uni_maps(g + 1, n) for m in _mark_pairs(u, False))
        return {name: (by_class["B"], bij.delete_pair, _insert_pair, codomain)}
    if name.startswith("eta"):
        i = int(name[3])
        domain = (u for key in bij.ETA_DOMAINS[i] for u in by_class[key])
        codomain = uni_maps(g + 2, n + 1 if i <= 4 else n)
        return {name: (domain, partial(bij.eta, i), partial(bij.eta_inv, i), codomain)}
    if name == "theta":
        return {name: (by_class["II"], bij.theta, bij.theta_inv, tri_maps(g, n))}
    single = _pieces(_uni_star, bi_maps, g + 1, n)
    pairs = partial(_pieces, _uni_star, _uni_star)
    triple = [(x, *yz) for x, yz in _pieces(_uni_star, pairs, g + 2, n)]
    return {
        f"split5({i})": (
            by_class[f"F5{i}"],
            partial(bij.split5, i),
            partial(bij.join5, i),
            single if i <= 3 else triple,
        )
        for i in (1, 2, 3, 4)
    }


def roundtrip(name: str, g: int, n: int) -> dict:
    """Check one bijection exhaustively at theorem index (g, n)."""
    if g < 0 or n < 0:
        raise BoundExceeded("g and n must be non-negative")
    bounds = census.ENUMERATION_N_MAX
    n_max = bounds["unicellular"] - 2
    if name in ("cut", "theta"):  # their codomains are three-face maps with n edges
        n_max = min(n_max, bounds["tricellular"])
    if n > n_max:
        raise BoundExceeded(f"roundtrip bounded at n <= {n_max}, got {n}")
    failures: list[str] = []
    domain_size = image_size = 0
    for what, (domain, forward, inverse, codomain) in _checks(name, g, n).items():
        size, image = _check(domain, forward, inverse, codomain, failures, what)
        domain_size += size
        image_size += image
    return {
        "bijection": name,
        "g": g,
        "n": n,
        "domain_size": domain_size,
        "image_size": image_size,
        "failures": failures,
        "ok": not failures,
    }
