"""Mutation checks as a repeatable gate: each mutant must be caught.

Each entry of :data:`MUTANTS` names a file, an exact old text, the new text
put in its place and the test files that must catch the change.  For each
entry the script copies ``src/`` and ``tests/`` into a temporary directory,
replaces the old text, which must occur there exactly once, and runs
``pytest -x -q`` on each listed test file in turn; each run must fail.
First it runs every listed test file on the unchanged copy, and those runs
must pass, so that a failure is the mutant's doing.

The exit code is 1 when the unchanged copy fails, a mutant survives one of
its test files, or an old text no longer matches exactly once.  Run from
anywhere, with pytest installed and nothing else set:

    python tests/mutants.py

This module uses only the standard library and is not a test module, so
pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CENSUS = "src/plantedmaps/census.py"
PARTITION = "src/plantedmaps/partition.py"
ORACLE = "src/plantedmaps/oracle.py"
CORE = "src/plantedmaps/core.py"
CLI = "src/plantedmaps/cli.py"
ROUNDTRIPS = "src/plantedmaps/roundtrips.py"

#: ``(file, old text, new text, test files that must each catch it)``.
MUTANTS = (
    # census._step: a close move's multiplicity ignored, then its closed
    # cycles not counted.
    (
        CENSUS,
        "out[key] = out.get(key, 0) + (counts * mult << closed * width)",
        "out[key] = out.get(key, 0) + (counts << closed * width)",
        ("test_census.py", "test_partition.py"),
    ),
    (
        CENSUS,
        "out[key] = out.get(key, 0) + (counts * mult << closed * width)",
        "out[key] = out.get(key, 0) + counts * mult",
        ("test_census.py", "test_partition.py"),
    ),
    # Slots one bit short, so that counts carry into each other.  Kept at one
    # bit or more: a width of 0 leaves _unpack shifting by nothing, forever.
    (
        CENSUS,
        "return pairs.bit_length()",
        "return max(1, pairs.bit_length() - 1)",
        ("test_census.py", "test_partition.py"),
    ),
    # A join counted once per cycle of its length, not once per chord on them.
    (
        CENSUS,
        "length * parts.count(length), 0))",
        "parts.count(length), 0))",
        ("test_census.py", "test_partition.py"),
    ),
    # The disconnected pairings subtracted once per layout of the first
    # component's faces, not once per choice of those faces.
    (
        CENSUS,
        "out[i + j + 1] -= comb(k - 1, s - 1) * x * y",
        "out[i + j + 1] -= x * y",
        ("test_census.py",),
    ),
    # partition._leaf_pass: the states of a known leaf stepped into a dict
    # that is thrown away.
    (
        PARTITION,
        "_step(states, room, width, step.setdefault(tag, {}))",
        "_step(states, room, width, {})",
        ("test_partition.py",),
    ),
    # The crossing joins counted once per cycle, not once per chord on it.
    (
        PARTITION,
        "crossing = length * old.count(length) if old else 0",
        "crossing = old.count(length) if old else 0",
        ("test_partition.py",),
    ),
    # Branch 2 taken as closed with no look at whether a chord crossed into it.
    (
        PARTITION,
        "target[1] == old, target == (1, ())",
        "target[1] == (old or ()), target == (1, ())",
        ("test_partition.py",),
    ),
    # A crossing that keeps the old cycles in the tag.
    (
        PARTITION,
        'moves.append((target, crossing, 0, ("c", None, False, tag[3])))',
        'moves.append((target, crossing, 0, ("c", old, False, tag[3])))',
        ("test_partition.py",),
    ),
    # A move under tag c that leaves chord t's freshness set.
    (
        PARTITION,
        'else ("c", tag[1], False, tag[3])',
        'else ("c", tag[1], tag[2], tag[3])',
        ("test_partition.py",),
    ),
    # The named chord taken as closed only when the frontier's cycle is the last.
    (
        PARTITION,
        "if target[0] != 1:",
        "if target != (1, ()):",
        ("test_partition.py",),
    ),
    # The opening of chord t at h2 + 1 told by the frontier's cycle length alone.
    (
        PARTITION,
        'if target == (2, tag[1]) else _pc("B")',
        'if target[0] == 2 else _pc("B")',
        ("test_partition.py",),
    ),
    # oracle: the triple split recomputed on every call.
    (
        ORACLE,
        "    @lru_cache(maxsize=None)\n    def triple_split",
        "    def triple_split",
        ("test_oracle.py",),
    ),
    # core._fill: ids taken without the exact-int test, then without the id sum.
    (
        CORE,
        "countOf(map(type, partner), int) == total and ",
        "",
        ("test_core.py",),
    ),
    (
        CORE,
        " and sum(partner) == total * (total - 1) // 2",
        "",
        ("test_core.py",),
    ),
    # genus() walking the faces for connectivity on one-face maps too.
    (
        CORE,
        "if self.faces.k > 1 and not self.is_connected:",
        "if not self.is_connected:",
        ("test_core.py",),
    ),
    # core._build: the check for an id in two face positions dropped, then the
    # check that the face words are closed under the pairing.
    (
        CORE,
        "if countOf(new_of, -1) != len(alpha) - len(seq):",
        "if False:",
        ("test_bijections.py",),
    ),
    (
        CORE,
        "if -1 in partner:",
        "if False:",
        ("test_bijections.py",),
    ),
    # core._fill: a pair that does not unpack into two ids escapes as ValueError.
    (
        CORE,
        "except (IndexError, TypeError, ValueError):",
        "except (IndexError, TypeError):",
        ("test_core.py",),
    ),
    # core.from_np_pairs: a pair of the wrong length let through.
    (
        CORE,
        "if len(ints) != 2:",
        "if False:",
        ("test_core.py",),
    ),
    # CellularMap.__eq__ ignoring the face layout.
    (
        CORE,
        "return self.alpha == other.alpha and (faces is other.faces or faces == other.faces)",
        "return self.alpha == other.alpha",
        ("test_core.py",),
    ),
    # cli._plain_args: a value outside its option's choices read off the table.
    (
        CLI,
        'if "choices" in spec and value not in spec["choices"]:',
        "if False:",
        ("test_cli.py", "test_cli_digests.py"),
    ),
    # roundtrips._check: each image element kept with its own copies of its parts.
    (
        ROUNDTRIPS,
        "image.add(tuple(map(shared.setdefault, y, y)) if type(y) is tuple else y)",
        "image.add(y)",
        ("test_roundtrips.py",),
    ),
)


def _pytest(copy: Path, test_file: str) -> bool:
    """Whether ``pytest -x -q`` passes on one test file of ``copy``.  No
    bytecode is written: a restored file of the mutant's size, written in the
    same second, would pass the cache's mtime and size check."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"tests/{test_file}"]
    run = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def _copy(into: Path) -> Path:
    copy = into / "repo"
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    return copy


def main() -> int:
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = _copy(Path(tmp))
        for test_file in sorted({f for *_, files in MUTANTS for f in files}):
            if not _pytest(copy, test_file):
                faults.append(f"unchanged copy: {test_file} fails")
        if faults:
            print("\n".join(faults))
            return 1
        for number, (path, old, new, test_files) in enumerate(MUTANTS, 1):
            target = copy / path
            source = target.read_text()
            if source.count(old) != 1:
                faults.append(f"mutant {number}: {old!r} occurs {source.count(old)} times in {path}")
                continue
            target.write_text(source.replace(old, new))
            try:
                survived = [f for f in test_files if _pytest(copy, f)]
            finally:
                target.write_text(source)
            faults += [f"mutant {number}: {old!r} -> {new!r} survives {f}" for f in survived]
            print(f"mutant {number}: {'survived' if survived else 'killed'}", flush=True)
    print("\n".join(faults) or f"all {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
