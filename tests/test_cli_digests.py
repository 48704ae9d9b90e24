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
map and of three maps it refuses.  Argparse help and usage text are left
out.

Record the file again, only where a change of output is intended, with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

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


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def test_commands_are_byte_identical():
    recorded = json.loads(DIGESTS.read_text())
    assert list(recorded) == [" ".join(argv) for argv in commands()]
    changed = [line for line, d in recorded.items() if digest(line.split()) != d]
    assert changed == []


if __name__ == "__main__":
    json.dump({" ".join(argv): digest(argv) for argv in commands()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
