"""Record ``golden.json``: the sha256 of the stdout of every command-line
call the ``census``, ``theorem`` and ``roundtrip`` workloads make, at every
size in ``workloads.SIZES``.

The digests pin the program's outputs byte for byte, so re-record them only
at a commit whose outputs are known to be right.  A call that exits
non-zero or reports ``"ok": false`` is refused rather than recorded.

    python3 perfbench/record_golden.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hashlib  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for params in workloads.SIZES.values():
        for name, argv_of in workloads.CLI_WORKLOADS.items():
            for argv in argv_of(params[name]):
                code, text = workloads.run_cli(argv)
                if code != 0 or not workloads.reports_ok(text):
                    print(f"refusing to record {' '.join(argv)}: exit {code}", file=sys.stderr)
                    return 1
                golden[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
                print(" ".join(argv), golden[" ".join(argv)], flush=True)
    path = ROOT / "perfbench" / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
