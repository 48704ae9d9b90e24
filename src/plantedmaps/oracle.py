"""Exact reference counts, independent of the census.

One-face counts come from the Harer-Zagier recurrence

    (n+1) u(g,n) = 2(2n-1) u(g,n-1) + (2n-1)(n-1)(2n-3) u(g-1,n-2)

with u(0,0) = 1 and u(g,n) = 0 whenever g < 0, n < 0 or 2g > n.  Connected
two-face counts follow by subtracting the ordered two-factor convolution of
one-face counts from u(g+1,n+1).  The disconnected-pieces count d combines
two- and three-factor convolutions built from u* (u with the trivial map
excluded), and the three-face counting identity is checked against both the
recurrence table and the census.
"""

from __future__ import annotations

from functools import lru_cache

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
    :class:`BoundExceeded`.
    """

    def __init__(self, n_max: int = DEFAULT_N_MAX):
        if n_max < 0:
            raise BoundExceeded("n_max must be non-negative")
        self.n_max = n_max
        self.g_max = n_max // 2
        self._u: dict[tuple[int, int], int] = {(0, 0): 1}
        for n in range(1, n_max + 1):
            for g in range(n // 2 + 1):
                num = 2 * (2 * n - 1) * self._get(g, n - 1) + (2 * n - 1) * (n - 1) * (
                    2 * n - 3
                ) * self._get(g - 1, n - 2)
                if num % (n + 1):
                    raise NonIntegralRecurrence(f"(n+1) does not divide at (g,n)=({g},{n})")
                self._u[(g, n)] = num // (n + 1)
        self._b: dict[tuple[int, int], int] = {}

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

    def bicellular(self, g: int, n: int) -> int:
        """Connected two-face count: u(g+1,n+1) minus the ordered two-factor
        convolution of one-face counts."""
        key = (g, n)
        if key in self._b:
            return self._b[key]
        if g < 0 or n < 0:
            return 0
        conv = sum(
            self.u(g1, i) * self.u(g + 1 - g1, n - i)
            for g1 in range(g + 2)
            for i in range(n + 1)
        )
        b = self.u(g + 1, n + 1) - conv
        if b < 0:
            raise NegativeCount(f"negative two-face count at (g,n)=({g},{n})")
        self._b[key] = b
        return b

    def single_split(self, g: int, n: int) -> int:
        """Ordered (one-face piece, two-face piece) pairs with genus sum
        g+1 and edge sum n, the one-face piece non-trivial."""
        return sum(
            self.u_star(g3, m) * self.bicellular(g + 1 - g3, n - m)
            for g3 in range(g + 2)
            for m in range(n + 1)
        )

    def triple_split(self, g: int, n: int) -> int:
        """Ordered triples of non-trivial one-face pieces with genus sum
        g+2 and edge sum n."""
        total = 0
        for g1 in range(g + 3):
            for g2 in range(g + 3 - g1):
                for m1 in range(n + 1):
                    for m2 in range(n + 1 - m1):
                        total += (
                            self.u_star(g1, m1)
                            * self.u_star(g2, m2)
                            * self.u_star(g + 2 - g1 - g2, n - m1 - m2)
                        )
        return total

    def d_value(self, g: int, n: int) -> int:
        """Disconnected-pieces count: three single splits plus the triple
        split."""
        return 3 * self.single_split(g, n) + self.triple_split(g, n)

    def theorem_rhs(self, g: int, n: int, t: int) -> int:
        """Right-hand side of the three-face counting identity, given the
        three-face count ``t``."""
        return (
            t
            + self.d_value(g, n)
            + 4 * self.u(g + 2, n + 1)
            - 3 * self.u(g + 2, n)
            + (n + 1) * (2 * n + 1) * self.u(g + 1, n)
        )


@lru_cache(maxsize=4)
def table(n_max: int = DEFAULT_N_MAX) -> HZTable:
    return HZTable(n_max)


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
# These compare the recurrence table against the census and therefore import
# the census and partition modules lazily.


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


def verify_hz(max_n: int) -> list[dict]:
    """Per-(g,n) comparison of census one-face counts with the recurrence."""
    from plantedmaps import census

    census.check_bound("unicellular", max_n)
    reports = []
    for n in range(max_n + 1):
        tbl = census.count("unicellular", n)
        reports += [_row("hz", g, n, tbl.get(g, n), hz(g, n)) for g in range(n // 2 + 1)]
        reports.append(_row("hz-total", None, n, tbl.total(n), double_factorial_odd(n)))
    return reports


def verify_bicellular(max_n: int) -> list[dict]:
    """Per-(g,n) comparison of census two-face counts with the subtraction
    formula (this machine-checks the two-face recursion identity)."""
    from plantedmaps import census

    census.check_bound("bicellular", max_n)
    reports = []
    for n in range(max_n + 1):
        tbl = census.count("bicellular", n)
        reports += [
            _row("bicellular", g, n, tbl.get(g, n), bicellular(g, n)) for g in range(n // 2 + 1)
        ]
    return reports


def check_theorem_bound(n: int) -> None:
    """Reject an edge index beyond the census the theorem check reads,
    before any work is done."""
    from plantedmaps import census

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
    from plantedmaps import census, partition

    if n < 0 or g < 0:
        raise BoundExceeded("g and n must be non-negative")
    check_theorem_bound(n)

    t = table()
    lhs_ref = t.u(g + 2, n + 2)
    hist = partition.histogram(g, n)
    lhs_census = hist.total
    t_census = census.count("tricellular", n).get(g, n)
    d = t.d_value(g, n)
    term_u1 = 4 * t.u(g + 2, n + 1)
    term_u0 = 3 * t.u(g + 2, n)
    term_b = (n + 1) * (2 * n + 1) * t.u(g + 1, n)
    rhs = t_census + d + term_u1 - term_u0 + term_b

    leaf_expected = {
        "U1": t.u(g + 2, n + 1),
        "U2": t.u(g + 2, n + 1),
        "G23": t.u(g + 2, n + 1) - t.u(g + 2, n),
        "G24": t.u(g + 2, n + 1) - 2 * t.u(g + 2, n),
        "F51": t.single_split(g, n),
        "F52": t.single_split(g, n),
        "F53": t.single_split(g, n),
        "F54": t.triple_split(g, n),
        "II": t_census,
        "B": (n + 1) * (2 * n + 1) * t.u(g + 1, n),
    }
    leaves = {
        leaf: {
            "census": str(hist.classes[leaf]),
            "expected": str(expected),
            "ok": hist.classes[leaf] == expected,
        }
        for leaf, expected in leaf_expected.items()
    }
    pendant_expected = t.u(g + 2, n)
    pendants = {
        dom: {
            "census": str(hist.pendants[dom]),
            "expected": str(pendant_expected),
            "ok": hist.pendants[dom] == pendant_expected,
        }
        for dom in partition.PENDANT_DOMAINS
    }
    ok = (
        lhs_ref == rhs
        and lhs_census == lhs_ref
        and all(v["ok"] for v in leaves.values())
        and all(v["ok"] for v in pendants.values())
    )
    equation = (
        f"{lhs_ref} = {t_census} + {d} + {term_u1} - {term_u0} + {term_b}"
    )
    return {
        "relation": "theorem",
        "g": g,
        "n": n,
        "ok": ok,
        "lhs_reference": str(lhs_ref),
        "lhs_census": str(lhs_census),
        "rhs": str(rhs),
        "equation": equation,
        "terms": {
            "tricellular_census": str(t_census),
            "d": str(d),
            "4u(g+2,n+1)": str(term_u1),
            "3u(g+2,n)": str(term_u0),
            "(n+1)(2n+1)u(g+1,n)": str(term_b),
        },
        "leaves": leaves,
        "pendant_counts": pendants,
    }


def verify_theorem_range(max_n: int) -> list[dict]:
    """Theorem reports for every (g, n) with n <= max_n and every genus with
    a potentially nonempty side."""
    if max_n < 0:
        raise BoundExceeded("max_n must be non-negative")
    check_theorem_bound(max_n)
    reports = []
    for n in range(max_n + 1):
        for g in range((n + 2) // 2 + 1):
            reports.append(verify_theorem(g, n))
    return reports
