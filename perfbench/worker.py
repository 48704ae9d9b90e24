"""One measured pass of one workload, in a fresh interpreter.

Started by ``run.py`` as
``python3 -I perfbench/worker.py ROOT WORKLOAD SEED TRACE MODE PARAMS`` with
MODE ``setup`` (set up, report the time and exit) or ``run``.  Set-up is
everything a command-line user pays before any work: interpreter start,
importing the package with every module the commands use, and building the
recurrence table.  The last line of stdout is one JSON object.
"""

import sys
import time

ROOT, WORKLOAD, SEED, TRACE, MODE, PARAMS = sys.argv[1:7]
sys.path[:0] = [ROOT + "/src", ROOT + "/perfbench"]

import plantedmaps  # noqa: E402
import plantedmaps.cli  # noqa: E402,F401
from plantedmaps import oracle  # noqa: E402

if not plantedmaps.__file__.startswith(ROOT + "/src/"):
    sys.exit(f"plantedmaps was imported from {plantedmaps.__file__}, not from {ROOT}/src")

tracer = None
if TRACE == "1":
    import tracer as tracing

    tracer = tracing.install()
oracle.table()
ready = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

if MODE == "setup":
    print(json.dumps({"ready": ready}))
    sys.exit(0)

import workloads  # noqa: E402

params = json.loads(PARAMS)
with open(ROOT + "/perfbench/golden.json", encoding="utf-8") as fh:
    golden = json.load(fh)
inputs = workloads.prepare(WORKLOAD, params, int(SEED))


def peak_rss_kb() -> int:
    """Peak resident set of this process.  ``ru_maxrss`` is not used: on
    Linux it carries over the parent's peak across ``exec``."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timed_pass():
    return workloads.run(WORKLOAD, params, golden, inputs)


start = time.perf_counter()
outcome = tracer.root(timed_pass) if tracer else timed_pass()
run_s = time.perf_counter() - start

result = {
    "ready": ready,
    "run_s": run_s,
    "items": outcome.items,
    "attempted": outcome.attempted,
    "failed": len(outcome.failures),
    "failures": outcome.failures[:10],
    "rss_kb": peak_rss_kb(),
}
if tracer:
    from pathlib import Path

    result["layers"] = tracer.layer_metrics()
    out_dir = Path(ROOT) / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{WORKLOAD}-seed{SEED}.bin")
print(json.dumps(result))
