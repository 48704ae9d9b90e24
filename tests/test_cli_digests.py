"""Byte identity of the counting commands.

``cli_digests.json`` holds, for each command line below, the sha256 of its
argv, exit code, stdout and stderr, recorded before the census and leaf
passes were changed to read every smaller size off one pass (the ``show``
commands, ``export`` past its bound and ``classify`` at 12 edges before the
leaf pass moved onto the census classes).  The commands:
``count`` of each kind at every edge count up to one past its bound, in
every format; ``export`` of each kind at its bound, in both formats;
``export --kind tri`` one past its bound; ``verify`` of each relation at
every ``--max-n`` up to one past its bound; ``classify`` at genus 2..5 and
2..12 edges (12 is one past its bound); ``show`` of a connected two-face
map and of three maps it refuses; then spellings that argparse accepts
besides the plain ``command --flag value ...`` form (an abbreviated flag,
``--flag=value``, flags out of order, a repeated flag, a value that starts
with ``-``); last, ``ARGPARSE_TEXT``, help and usage errors, whose output
argparse writes, at 80 columns.

Argparse writes the same help and usage bytes on Python 3.10, 3.11 and 3.12
but other bytes on 3.13 and later, so those entries are compared only below
3.13.  Record the file again, only where a change of output is intended and
only on Python 3.10 to 3.12, with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from plantedmaps.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")

#: A connected two-face map, then a disconnected one, one whose pairs repeat
#: an id and one with a boolean id, the last three refused with exit 2.
SHOW_MAPS = (
    '{"k":2,"interiors":[2,2],"alpha":[[0,3],[1,5],[2,6],[4,7]]}',
    '{"k":2,"interiors":[2,2],"alpha":[[0,3],[1,2],[4,7],[5,6]]}',
    '{"k":1,"interiors":[4],"alpha":[[0,5],[1,3],[1,3]]}',
    '{"k":1,"interiors":[4],"alpha":[[0,5],[true,2],[3,4]]}',
)


#: Command lines in other forms than ``command --flag value ...``.
SPELLINGS = (
    "count --kind uni --ed 4",
    "count --kind=uni --edges=4",
    "count --edges 3 --kind uni",
    "count --kind uni --kind bi --edges 3",
    "count --kind uni --edges -1",
)

#: Help at the top level and for each command (``--help``, ``-h``, no
#: arguments), then usage errors: an unknown choice, a missing option, a
#: value that is not an int.
ARGPARSE_TEXT = tuple(
    f"{command} {arg}".strip()
    for command in ("", "count", "export", "classify", "verify", "roundtrip", "show")
    for arg in ("--help", "-h", "")
) + (
    "count --kind quad --edges 2",
    "count --kind uni",
    "count --kind uni --edges x",
    "verify --relation nope --max-n 1",
    "roundtrip --bijection nope --g 0 --n 0",
)


def commands():
    for kind, bound in (("uni", 11), ("bi", 9), ("tri", 8)):
        for n in range(bound + 2):
            for fmt in ("table", "json", "csv"):
                yield ["count", "--kind", kind, "--edges", str(n), "--format", fmt]
        for fmt in ("csv", "json"):
            yield ["export", "--kind", kind, "--max-edges", str(bound), "--format", fmt]
    yield ["export", "--kind", "tri", "--max-edges", "9"]
    for relation, bound in (("hz", 11), ("bicellular", 9), ("theorem", 8)):
        for n in range(bound + 2):
            yield ["verify", "--relation", relation, "--max-n", str(n)]
    for genus in range(2, 6):
        for edges in range(2, 13):
            yield ["classify", "--genus", str(genus), "--edges", str(edges)]
    for pairs in SHOW_MAPS:
        yield ["show", "--map", pairs]
    yield from (line.split() for line in SPELLINGS + ARGPARSE_TEXT)


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # help and usage errors
                code = exc.code
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def changed(lines) -> list[str]:
    recorded = json.loads(DIGESTS.read_text())
    assert list(recorded) == [" ".join(argv) for argv in commands()]
    return [line for line in lines if digest(line.split()) != recorded[line]]


def test_commands_are_byte_identical():
    lines = [" ".join(argv) for argv in commands()]
    assert changed([line for line in lines if line not in ARGPARSE_TEXT]) == []


def test_argparse_text_is_byte_identical():
    import pytest  # imported here: the recorder runs without pytest

    if sys.version_info >= (3, 13):
        pytest.skip("argparse writes other help and usage bytes from Python 3.13 on")
    assert changed(ARGPARSE_TEXT) == []


if __name__ == "__main__":
    json.dump({" ".join(argv): digest(argv) for argv in commands()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
