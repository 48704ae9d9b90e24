"""Exact reference counts, independent of the census.

One-face counts come from the Harer-Zagier recurrence

    (n+1) u(g,n) = 2(2n-1) u(g,n-1) + (2n-1)(n-1)(2n-3) u(g-1,n-2)

with u(0,0) = 1 and u(g,n) = 0 whenever g < 0, n < 0 or 2g > n.  Every
derived count is one ordered convolution, :meth:`HZTable._conv`: connected
two-face counts are u(g+1,n+1) less the convolution of u with itself, and
the disconnected-pieces count d adds three single splits (u* against the
two-face counts, u* being u without the trivial map) and the triple split
(u* against the convolution of u* with itself).  The terms of the
three-face counting identity are listed once, by
:meth:`HZTable.theorem_terms`; :func:`verify_theorem` checks the identity
and each partition leaf against the recurrence table and the census.
"""

from __future__ import annotations

from functools import lru_cache, partial

from plantedmaps import census, partition
from plantedmaps.core import BoundExceeded, MapError

DEFAULT_N_MAX = 32


class NonIntegralRecurrence(MapError):
    pass


class NegativeCount(MapError):
    pass


class HZTable:
    """Recurrence table of one-face counts with derived convolutions.

    Built once up to ``n_max``; all lookups outside the triangle
    ``0 <= 2g <= n`` return 0, lookups beyond ``n_max`` raise
    :class:`BoundExceeded`.  The two-face counts and the splits are
    memoised by ``lru_cache`` as they are asked for.  The cache key holds
    the table, so each table keeps its own entries (and the cache keeps
    every table it has seen).
    """

    def __init__(self, n_max: int = DEFAULT_N_MAX):
        if n_max < 0:
            raise BoundExceeded("n_max must be non-negative")
        self.n_max = n_max
        self._u: dict[tuple[int, int], int] = {(0, 0): 1}
        for n in range(1, n_max + 1):
            for g in range(n // 2 + 1):
                num = 2 * (2 * n - 1) * self._get(g, n - 1) + (2 * n - 1) * (n - 1) * (
                    2 * n - 3
                ) * self._get(g - 1, n - 2)
                if num % (n + 1):
                    raise NonIntegralRecurrence(f"(n+1) does not divide at (g,n)=({g},{n})")
                self._u[(g, n)] = num // (n + 1)

    def _get(self, g: int, n: int) -> int:
        if g < 0 or n < 0 or 2 * g > n:
            return 0
        return self._u[(g, n)]

    def u(self, g: int, n: int) -> int:
        """One-face count of genus ``g`` with ``n`` non-plant edges."""
        if n > self.n_max:
            raise BoundExceeded(f"n = {n} beyond table bound {self.n_max}")
        return self._get(g, n)

    def u_star(self, g: int, n: int) -> int:
        """Same as :meth:`u` but excluding the trivial edgeless map."""
        if g == 0 and n == 0:
            return 0
        return self.u(g, n)

    def _conv(self, f, h, g: int, n: int) -> int:
        """Ordered pairs of pieces, counted by ``f`` (one-face pieces, of genus
        ``a <= m // 2``) and ``h``, whose genera sum to ``g`` and edge counts to ``n``."""
        return sum(f(a, m) * h(g - a, n - m) for m in range(n + 1) for a in range(min(g, m // 2) + 1))

    @lru_cache(maxsize=None)
    def bicellular(self, g: int, n: int) -> int:
        """Connected two-face count: u(g+1,n+1) minus the ordered two-factor
        convolution of one-face counts."""
        if g < 0 or n < 0:
            return 0
        b = self.u(g + 1, n + 1) - self._conv(self.u, self.u, g + 1, n)
        if b < 0:
            raise NegativeCount(f"negative two-face count at (g,n)=({g},{n})")
        return b

    @lru_cache(maxsize=None)
    def single_split(self, g: int, n: int) -> int:
        """Ordered (one-face piece, two-face piece) pairs with genus sum
        g+1 and edge sum n, the one-face piece non-trivial."""
        return self._conv(self.u_star, self.bicellular, g + 1, n)

    @lru_cache(maxsize=None)
    def triple_split(self, g: int, n: int) -> int:
        """Ordered triples of non-trivial one-face pieces with genus sum
        g+2 and edge sum n."""
        return self._conv(self.u_star, partial(self._conv, self.u_star, self.u_star), g + 2, n)

    def d_value(self, g: int, n: int) -> int:
        """Disconnected-pieces count: three single splits plus the triple
        split."""
        return 3 * self.single_split(g, n) + self.triple_split(g, n)

    def theorem_terms(self, g: int, n: int, t: int) -> tuple[int, int, int, int, int]:
        """The terms of the three-face counting identity, given the
        three-face count ``t``, in the order of ``_TERM_NAMES``; the
        right-hand side is their sum with the fourth subtracted."""
        return (
            t,
            self.d_value(g, n),
            4 * self.u(g + 2, n + 1),
            3 * self.u(g + 2, n),
            (n + 1) * (2 * n + 1) * self.u(g + 1, n),
        )

    def theorem_rhs(self, g: int, n: int, t: int) -> int:
        """Right-hand side of the three-face counting identity, given the
        three-face count ``t``."""
        return _rhs(self.theorem_terms(g, n, t))


_TERM_NAMES = ("tricellular_census", "d", "4u(g+2,n+1)", "3u(g+2,n)", "(n+1)(2n+1)u(g+1,n)")


def _rhs(terms: tuple[int, ...]) -> int:
    t, d, u1, u0, b = terms
    return t + d + u1 - u0 + b


@lru_cache(maxsize=None)
def table() -> HZTable:
    return HZTable(DEFAULT_N_MAX)


def hz(g: int, n: int) -> int:
    return table().u(g, n)


def u_star(g: int, n: int) -> int:
    return table().u_star(g, n)


def bicellular(g: int, n: int) -> int:
    return table().bicellular(g, n)


def d_value(g: int, n: int) -> int:
    return table().d_value(g, n)


def theorem_rhs(g: int, n: int, t: int) -> int:
    return table().theorem_rhs(g, n, t)


def double_factorial_odd(n: int) -> int:
    """(2n-1)!!, the number of perfect matchings on 2n points."""
    out = 1
    for i in range(1, 2 * n, 2):
        out *= i
    return out


# --- relation checkers -----------------------------------------------------
#
# These compare the recurrence table against the census.


def _row(relation: str, g: int | None, n: int, census: int, reference: int) -> dict:
    """One report row: a census value against its reference."""
    return {
        "relation": relation,
        "g": g,
        "n": n,
        "census": str(census),
        "reference": str(reference),
        "ok": census == reference,
    }


def _cell(census: int, expected: int) -> dict:
    """One leaf or pendant entry of a theorem report."""
    return {"census": str(census), "expected": str(expected), "ok": census == expected}


def _verify_counts(relation: str, kind: str, reference, max_n: int) -> list[dict]:
    """Per-(g,n) rows of the census ``kind`` counts against ``reference``,
    and on one face an ``hz-total`` row per n against (2n-1)!!."""
    tbl = census.count_range(kind, max_n)
    reports = []
    for n in range(max_n + 1):
        reports += [_row(relation, g, n, tbl.get(g, n), reference(g, n)) for g in range(n // 2 + 1)]
        if kind == "unicellular":
            reports.append(_row("hz-total", None, n, tbl.total(n), double_factorial_odd(n)))
    return reports


def verify_hz(max_n: int) -> list[dict]:
    """Per-(g,n) comparison of census one-face counts with the recurrence."""
    return _verify_counts("hz", "unicellular", hz, max_n)


def verify_bicellular(max_n: int) -> list[dict]:
    """Per-(g,n) comparison of census two-face counts with the subtraction
    formula (this machine-checks the two-face recursion identity)."""
    return _verify_counts("bicellular", "bicellular", bicellular, max_n)


def check_theorem_bound(n: int) -> None:
    """Reject an edge index beyond the census the theorem check reads,
    before any work is done."""
    bounds = census.N_MAX
    if n > bounds["tricellular"] or n + 2 > bounds["unicellular"]:
        raise BoundExceeded(f"theorem check bounded at n <= {bounds['tricellular']}")


def verify_theorem(g: int, n: int) -> dict:
    """Check the three-face counting identity at one (g, n).

    Compares the recurrence value of u(g+2, n+2) with the census count, with
    the identity right-hand side built from the census three-face count, and
    cross-checks every partition class cardinality against its bijection
    target.
    """
    if n < 0 or g < 0:
        raise BoundExceeded("g and n must be non-negative")
    check_theorem_bound(n)

    t = table()
    lhs_ref = t.u(g + 2, n + 2)
    hist = partition.histogram(g, n)
    terms = t.theorem_terms(g, n, census.count("tricellular", n).get(g, n))
    rhs = _rhs(terms)
    u1, u0 = t.u(g + 2, n + 1), t.u(g + 2, n)
    single = t.single_split(g, n)
    leaf_expected = {
        "U1": u1,
        "U2": u1,
        "G23": u1 - u0,
        "G24": u1 - 2 * u0,
        "F51": single,
        "F52": single,
        "F53": single,
        "F54": t.triple_split(g, n),
        "II": terms[0],
        "B": terms[4],
    }
    leaves = {leaf: _cell(hist.classes[leaf], e) for leaf, e in leaf_expected.items()}
    pendants = {dom: _cell(hist.pendants[dom], u0) for dom in partition.PENDANT_DOMAINS}
    ok = (
        lhs_ref == rhs
        and hist.total == lhs_ref
        and all(v["ok"] for v in leaves.values())
        and all(v["ok"] for v in pendants.values())
    )
    return {
        "relation": "theorem",
        "g": g,
        "n": n,
        "ok": ok,
        "lhs_reference": str(lhs_ref),
        "lhs_census": str(hist.total),
        "rhs": str(rhs),
        "equation": "{} = {} + {} + {} - {} + {}".format(lhs_ref, *terms),
        "terms": {name: str(x) for name, x in zip(_TERM_NAMES, terms)},
        "leaves": leaves,
        "pendant_counts": pendants,
    }


def verify_theorem_range(max_n: int) -> list[dict]:
    """Theorem reports for every (g, n) with n <= max_n and every genus with
    a potentially nonempty side."""
    if max_n < 0:
        raise BoundExceeded("max_n must be non-negative")
    check_theorem_bound(max_n)
    # The largest n first: its census and leaf passes serve every smaller n.
    rows = [[verify_theorem(g, n) for g in range((n + 2) // 2 + 1)] for n in range(max_n, -1, -1)]
    return [report for row in reversed(rows) for report in row]
