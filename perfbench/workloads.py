"""The four benchmark workloads and the checks that verify their outputs.

``census``, ``theorem`` and ``roundtrip`` drive the command line through
``cli.main`` and compare the sha256 of each call's stdout with the digests in
``golden.json``; ``sampled`` hands seeded random one-face maps to the library
as interchange JSON text and checks every surgery against its inverse.

Every workload returns a :class:`Outcome`: its work units (``items``) and
its checks.  A check fails on a digest mismatch, a non-zero exit code, an
``"ok": false`` report, a surgery whose inverse does not give back its
input, an encode/decode mismatch, or broken Euler bookkeeping.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb

from plantedmaps import bijections, cli, core, partition

# Fixed here rather than read from the program so that the workload stays
# the same if the program's list changes.
BIJECTION_NAMES = (
    "cut", "contract", "delete", "psi", "eta1", "eta2", "eta3",
    "eta4", "eta5", "eta6", "eta7", "theta", "split5",
)

# Input sizes.  ``bench`` is what the benchmark measures: one pass takes
# about 0.3-0.4 s, so a run holds dozens of passes and its fastest one can
# dodge the slow spells of a shared host.  ``full`` is the one-off size of
# the project's baseline timings (6-10 s a pass).  ``toy`` runs the same
# code in well under a second per workload; the self-test uses it.
SIZES = {
    "bench": {
        "census": {"calls": [("uni", 7), ("bi", 5), ("tri", 4)]},
        "theorem": {"max_n": 4},
        "roundtrip": {"g": 0, "n": 3},
        "sampled": {"n_min": 20, "n_max": 200, "rounds": 1},
    },
    "full": {
        "census": {"calls": [("uni", 8), ("bi", 6), ("tri", 5)]},
        "theorem": {"max_n": 5},
        "roundtrip": {"g": 0, "n": 4},
        "sampled": {"n_min": 20, "n_max": 200, "rounds": 16},
    },
    "toy": {
        "census": {"calls": [("uni", 4), ("bi", 3), ("tri", 2)]},
        "theorem": {"max_n": 1},
        "roundtrip": {"g": 0, "n": 3},
        "sampled": {"n_min": 20, "n_max": 29, "rounds": 1},
    },
}

_FACES = {"uni": 1, "bi": 2, "tri": 3, "unicellular": 1, "bicellular": 2, "tricellular": 3}


@dataclass
class Outcome:
    """Work units done and checks made by one pass of a workload."""

    items: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def census_argv(params: dict) -> list[list[str]]:
    return [["count", "--kind", kind, "--edges", str(n)] for kind, n in params["calls"]]


def theorem_argv(params: dict) -> list[list[str]]:
    return [["verify", "--relation", "theorem", "--max-n", str(params["max_n"])]]


def roundtrip_argv(params: dict) -> list[list[str]]:
    g, n = str(params["g"]), str(params["n"])
    return [["roundtrip", "--bijection", b, "--g", g, "--n", n] for b in BIJECTION_NAMES]


CLI_WORKLOADS = {"census": census_argv, "theorem": theorem_argv, "roundtrip": roundtrip_argv}


def double_factorial_odd(n: int) -> int:
    """(2n-1)!!, the number of perfect matchings on 2n points."""
    out = 1
    for i in range(1, 2 * n, 2):
        out *= i
    return out


def matchings_visited(kind: str, n: int) -> int:
    """Matchings the census enumerates for one ``count`` call, computed from
    its inputs: one full matching space per ordered split of the 2n
    non-plant half-edges over the k faces."""
    k = _FACES[kind]
    return comb(2 * n + k - 1, k - 1) * double_factorial_odd(n)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``cli.main`` with ``argv`` and return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001
            # As a process, the command would die with a traceback: exit 1.
            code = 1
    return code, buf.getvalue()


def reports_ok(text: str) -> bool:
    """False when the output holds a JSON report with ``"ok": false``."""
    try:
        doc = json.loads(text)
    except ValueError:
        return True
    reports = doc if isinstance(doc, list) else [doc]
    return all(r.get("ok", True) is not False for r in reports if isinstance(r, dict))


def check_cli_call(out: Outcome, argv: list[str], golden: dict[str, str]) -> str:
    """Run one CLI call and count it as one check; returns its stdout."""
    key = " ".join(argv)
    code, text = run_cli(argv)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if golden.get(key) != digest:
        out.check(False, f"{key}: stdout digest {digest[:12]} differs from golden")
    elif code != 0:
        out.check(False, f"{key}: exit code {code}")
    elif not reports_ok(text):
        out.check(False, f"{key}: a report says ok=false")
    else:
        out.check(True, key)
    return text


def run_census(params: dict, golden: dict[str, str]) -> Outcome:
    out = Outcome()
    for argv, (kind, n) in zip(census_argv(params), params["calls"]):
        check_cli_call(out, argv, golden)
        out.items += matchings_visited(kind, n)
    return out


def run_theorem(params: dict, golden: dict[str, str]) -> Outcome:
    out = Outcome()
    for argv in theorem_argv(params):
        check_cli_call(out, argv, golden)
    # histogram(g, n) classifies every one-face map with n + 2 edges, once per n.
    out.items += sum(double_factorial_odd(m) for m in range(2, params["max_n"] + 3))
    return out


def run_roundtrip(params: dict, golden: dict[str, str]) -> Outcome:
    out = Outcome()
    for argv in roundtrip_argv(params):
        text = check_cli_call(out, argv, golden)
        try:
            out.items += int(json.loads(text)["domain_size"])
        except (ValueError, KeyError, TypeError):
            pass
    return out


# --- sampled ---------------------------------------------------------------


def sampled_inputs(params: dict, seed: int) -> list[tuple[str, float]]:
    """Seeded one-face maps as interchange JSON text, each with a uniform
    number used to pick the contracted edge.

    Every edge count in ``[n_min, n_max]`` appears ``rounds`` times, so all
    seeds share one size profile; the matching of each map is a uniform
    random perfect matching of its 2n interior half-edges.
    """
    rng = random.Random(seed)
    docs = []
    for _ in range(params["rounds"]):
        for n in range(params["n_min"], params["n_max"] + 1):
            ids = list(range(1, 2 * n + 1))
            rng.shuffle(ids)
            pairs = sorted(
                [min(a, b), max(a, b)] for a, b in zip(ids[0::2], ids[1::2])
            )
            doc = {
                "schema_version": 1,
                "k": 1,
                "interiors": [2 * n],
                "alpha": [[0, 2 * n + 1]] + pairs,
            }
            docs.append((json.dumps(doc, separators=(",", ":")), rng.random()))
    return docs


def _check_codec(out: Outcome, x: core.CellularMap, what: str) -> None:
    out.check(core.decode(x.encode()) == x, f"{what}: decode(encode(x)) != x")


def sample_one(out: Outcome, text: str, pick: float) -> None:
    """Decode, classify and apply every surgery the map's leaf admits, each
    followed by its inverse; encode the results."""
    u = core.decode(text)
    g = u.genus()
    leaf = partition.classify(u).leaf
    tag = f"n={u.np_edge_count} leaf={leaf}"
    _check_codec(out, u, tag)

    if leaf == "B":
        u2, (a, b) = bijections.delete_pair(u)
        out.check(bijections.insert_pair(u2, a, b) == u, f"{tag}: insert_pair(delete_pair(u)) != u")
        out.check(u2.genus() == g - 1, f"{tag}: delete_pair did not lower the genus by 1")
        _check_codec(out, u2, tag)
    elif leaf != "U1" and g >= 2:
        # Scenario A with root degree >= 3; glue needs aggregate genus >= 0.
        x = bijections.cut(u).map
        out.check(bijections.glue(x) == u, f"{tag}: glue(cut(u)) != u")
        out.check(x.aggregate_genus() == g - 2, f"{tag}: cut did not lower the aggregate genus by 2")
        _check_codec(out, x, tag)
        if leaf == "II":
            t = bijections.theta(u)
            out.check(bijections.theta_inv(t) == u, f"{tag}: theta_inv(theta(u)) != u")
            _check_codec(out, t, tag)
        elif leaf.startswith("F5"):
            i = int(leaf[2])
            pieces = bijections.split5(i, u)
            out.check(bijections.join5(i, pieces) == u, f"{tag}: join5(split5(u)) != u")
            for p in pieces:
                _check_codec(out, p, tag)

    vo = u.vertex_of
    edges = [
        (a, u.alpha[a])
        for a in range(1, 2 * u.np_edge_count + 1)
        if a < u.alpha[a] and vo[a] != vo[u.alpha[a]]
    ]
    if edges:
        edge = edges[int(pick * len(edges))]
        u2, (x, y) = bijections.contract(u, edge)
        out.check(bijections.insert_edge(u2, x, y) == u, f"{tag}: insert_edge(contract(u)) != u")
        out.check(u2.genus() == g, f"{tag}: contract changed the genus")
        _check_codec(out, u2, tag)


def run_sampled(inputs: list[tuple[str, float]]) -> Outcome:
    out = Outcome()
    for text, pick in inputs:
        try:
            sample_one(out, text, pick)
        except (core.MapError, AssertionError, ValueError) as exc:
            # A surgery that rejects a map inside its domain is a failed check.
            out.check(False, f"{type(exc).__name__}: {exc}")
        out.items += 1
    return out


def prepare(workload: str, params: dict, seed: int):
    """Build the workload's inputs outside the timed phase."""
    if workload == "sampled":
        return sampled_inputs(params, seed)
    return None


def run(workload: str, params: dict, golden: dict[str, str], inputs) -> Outcome:
    """One timed pass of ``workload``."""
    if workload == "census":
        return run_census(params, golden)
    if workload == "theorem":
        return run_theorem(params, golden)
    if workload == "roundtrip":
        return run_roundtrip(params, golden)
    return run_sampled(inputs)
