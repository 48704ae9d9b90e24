"""Command-line interface.

Commands: count, classify, verify, roundtrip, show, export.  Exit codes:
0 on success, 1 when a verification or round-trip check fails (including an
internal invariant, reported as one ``error:`` line), 2 on invalid input or
an ``--output`` file that cannot be written.

Index conventions: ``count``, ``classify`` and ``show`` take the raw genus
and non-plant edge count of the maps themselves, while ``verify`` and
``roundtrip`` take the (g, n) indices of the counting identity, which sits
two genera and two edges below the classified maps (so ``verify --relation
theorem --max-n 2`` touches one-face maps of genus 2 with 4 edges).

:func:`main` may be called many times in one process.  The parser is built
on the first call and shared by every later one (``parse_args`` keeps no
state between calls), so a handler must not change it.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from plantedmaps import census, oracle, partition, roundtrips
from plantedmaps.core import InvariantError, MapError, decode
from plantedmaps.roundtrips import BIJECTION_NAMES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_text(table: census.CountTable) -> str:
    lines = ["g n count"]
    lines += [f"{g} {n} {c}" for g, n, c in table.rows()]
    return "\n".join(lines) + "\n"


def cmd_count(a: argparse.Namespace) -> int:
    table = census.count(a.kind, a.edges)
    text = {
        "table": _table_text,
        "json": lambda t: t.to_json() + "\n",
        "csv": lambda t: t.to_csv(),
    }[a.format](table)
    _emit(text, a.output)
    return EXIT_OK


def cmd_export(a: argparse.Namespace) -> int:
    table = census.count_range(a.kind, a.max_edges)
    text = table.to_csv() if a.format == "csv" else table.to_json() + "\n"
    _emit(text, a.output)
    return EXIT_OK


def cmd_classify(a: argparse.Namespace) -> int:
    if a.genus < 2 or a.edges < 2:
        raise MapError(
            "classify needs maps of genus >= 2 with >= 2 edges "
            "(the identity indices are genus-2 and edges-2)"
        )
    hist = partition.histogram(a.genus - 2, a.edges - 2)
    doc = {
        "g": hist.g,
        "n": hist.n,
        "classes": {leaf: str(hist.classes[leaf]) for leaf in partition.LEAVES},
        "pendant_counts": {dom: str(hist.pendants[dom]) for dom in partition.PENDANT_DOMAINS},
    }
    _emit(json.dumps(doc, separators=(",", ":")) + "\n", a.output)
    return EXIT_OK


def cmd_verify(a: argparse.Namespace) -> int:
    if a.relation == "hz":
        reports = oracle.verify_hz(a.max_n)
    elif a.relation == "bicellular":
        reports = oracle.verify_bicellular(a.max_n)
    else:
        reports = oracle.verify_theorem_range(a.max_n)
    _emit(json.dumps(reports, indent=2) + "\n", a.output)
    return EXIT_OK if all(r["ok"] for r in reports) else EXIT_CHECK_FAILED


def cmd_roundtrip(a: argparse.Namespace) -> int:
    report = roundtrips.roundtrip(a.bijection, a.g, a.n)
    _emit(json.dumps(report, indent=2) + "\n", a.output)
    if report["ok"] and report["domain_size"] == 0:
        # Any codomain element would have been a failure: both sides are empty.
        print(
            f"note: {a.bijection} at (g, n) = ({a.g}, {a.n}) has an empty domain "
            "and codomain; the round trip checked nothing",
            file=sys.stderr,
        )
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_show(a: argparse.Namespace) -> int:
    mp = decode(a.map)
    doc = {
        "kind": mp.kind(),
        "genus": mp.genus(),
        "np_edges": mp.np_edge_count,
        "vertices": [list(c) for c in mp.vertex_cycles],
        "class": None,
        "scenario": None,
    }
    if mp.k == 1 and mp.np_edge_count > 0:
        pc = partition.classify(mp)
        doc["class"] = pc.leaf
        doc["scenario"] = partition.scenario(mp)
    _emit(json.dumps(doc, separators=(",", ":")) + "\n", a.output)
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantedmaps",
        description="Exact census, partition and bijection checks for planted cellular maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("count", help="census counts by genus for one edge count")
    p.add_argument("--kind", required=True, choices=["uni", "bi", "tri"])
    p.add_argument("--edges", required=True, type=int, help="non-plant edge count n")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    add_common(p)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("export", help="census table for all edge counts up to a bound")
    p.add_argument("--kind", required=True, choices=["uni", "bi", "tri"])
    p.add_argument("--max-edges", required=True, type=int)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    add_common(p)
    p.set_defaults(handler=cmd_export)

    p = sub.add_parser(
        "classify",
        help="partition histogram of one-face maps with the given genus and edge count",
    )
    p.add_argument("--genus", required=True, type=int, help="map genus (>= 2)")
    p.add_argument("--edges", required=True, type=int, help="non-plant edge count (>= 2)")
    add_common(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify", help="check a counting relation over a grid")
    p.add_argument("--relation", required=True, choices=["hz", "bicellular", "theorem"])
    p.add_argument("--max-n", required=True, type=int)
    add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("roundtrip", help="exhaustive bijection round-trip at one (g, n)")
    p.add_argument("--bijection", required=True, choices=list(BIJECTION_NAMES))
    p.add_argument("--g", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    add_common(p)
    p.set_defaults(handler=cmd_roundtrip)

    p = sub.add_parser("show", help="decode a map and print its derived structure")
    p.add_argument("--map", required=True, help="map in the JSON interchange form")
    add_common(p)
    p.set_defaults(handler=cmd_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (MapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
