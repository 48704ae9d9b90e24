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

:func:`main` may be called many times in one process.  A well-formed
command line (the command, then ``--flag value`` pairs) is read straight
off the option table, ``_COMMANDS``, with no argparse parser.  Any other
line (help, a usage error, another spelling argparse accepts) goes to an
argparse parser that :func:`build_parser` builds for that call alone.
"""

from __future__ import annotations

import argparse
import json
import sys

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


_KIND = {"--kind": {"required": True, "choices": ["uni", "bi", "tri"]}}
_OUTPUT = {"--output": {"default": None, "help": "write to file instead of stdout"}}

#: Each command's help line, handler and options, in the order of the help
#: text: flag -> the keyword arguments of ``add_argument``.  ``_plain_args``
#: reads only ``required``, ``type``, ``choices`` and ``default``; an option
#: with any other keyword (``action``, ``nargs``) needs it changed too.
_COMMANDS = {
    "count": (
        "census counts by genus for one edge count",
        cmd_count,
        {
            **_KIND,
            "--edges": {"required": True, "type": int, "help": "non-plant edge count n"},
            "--format": {"choices": ["table", "json", "csv"], "default": "table"},
            **_OUTPUT,
        },
    ),
    "export": (
        "census table for all edge counts up to a bound",
        cmd_export,
        {
            **_KIND,
            "--max-edges": {"required": True, "type": int},
            "--format": {"choices": ["json", "csv"], "default": "csv"},
            **_OUTPUT,
        },
    ),
    "classify": (
        "partition histogram of one-face maps with the given genus and edge count",
        cmd_classify,
        {
            "--genus": {"required": True, "type": int, "help": "map genus (>= 2)"},
            "--edges": {"required": True, "type": int, "help": "non-plant edge count (>= 2)"},
            **_OUTPUT,
        },
    ),
    "verify": (
        "check a counting relation over a grid",
        cmd_verify,
        {
            "--relation": {"required": True, "choices": ["hz", "bicellular", "theorem"]},
            "--max-n": {"required": True, "type": int},
            **_OUTPUT,
        },
    ),
    "roundtrip": (
        "exhaustive bijection round-trip at one (g, n)",
        cmd_roundtrip,
        {
            "--bijection": {"required": True, "choices": list(BIJECTION_NAMES)},
            "--g": {"required": True, "type": int},
            "--n": {"required": True, "type": int},
            **_OUTPUT,
        },
    ),
    "show": (
        "decode a map and print its derived structure",
        cmd_show,
        {
            "--map": {"required": True, "help": "map in the JSON interchange form"},
            **_OUTPUT,
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """A new argparse parser for the commands of ``_COMMANDS``, for the
    lines that :func:`_plain_args` leaves to argparse."""
    parser = argparse.ArgumentParser(
        prog="plantedmaps",
        description="Exact census, partition and bijection checks for planted cellular maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read off
    ``_COMMANDS`` with no parser, when ``argv`` is a command's exact name
    and then exact ``--flag value`` pairs of that command: each flag once,
    no value starting with ``-``, each value of its option's type and among
    its choices, every required flag given.  ``None`` for any other line
    (help, usage errors, abbreviations, ``--flag=value``, repeated flags,
    values that start with ``-``), which is argparse's to read.

    Building a parser costs a short command more than its counting, and its
    first message lookup imports ``locale``; this path does neither.
    """
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        spec = options.get(flag)
        if spec is None or flag in given or value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0], handler=handler)
    for flag, spec in options.items():
        if flag not in given and spec.get("required"):
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, spec.get("default")))
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
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
