"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Checks that every workload runs end to end through ``run.py`` with and
without tracing, prints exactly the metrics BENCHMARK.json names, and has
no failed check on two seeds; that a corrupted golden digest and a broken
surgery inverse each make checks fail; and that the benchmark refuses to run
in a directory holding only BENCHMARK.json and the benchmark itself.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from plantedmaps import bijections  # noqa: E402

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

RESULTS: list[bool] = []


def report(ok: bool, what: str) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def fail_share(outcome: workloads.Outcome) -> float:
    return len(outcome.failures) / outcome.attempted


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for seed in (1, 2):
            proc = run_bench(ROOT, "--workload", "all", "--size", "toy", "--seed", str(seed), "--trace", str(trace))
            if proc.returncode != 0:
                report(False, f"toy run, trace {trace}, seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in spec[key]}
            report(sorted(last) == ["attempted", "correct", "failed", "metrics"], f"trace {trace} seed {seed}: result keys")
            report(set(last["metrics"]) == expected, f"trace {trace} seed {seed}: metrics match BENCHMARK.json {key}")
            report(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
                   f"trace {trace} seed {seed}: fail_share 0 on every workload ({last['attempted']} checks)")

    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    params = workloads.SIZES["toy"]
    for name in ("census", "theorem", "roundtrip"):
        corrupted = dict(golden)
        key = " ".join(workloads.CLI_WORKLOADS[name](params[name])[0])
        corrupted[key] = "0" * 64
        out = workloads.run(name, params[name], corrupted, None)
        report(fail_share(out) > 0, f"{name}: a corrupted golden digest raises fail_share to {fail_share(out):.3f}")

    inputs = workloads.prepare("sampled", params["sampled"], 1)
    original = bijections.insert_edge
    bijections.insert_edge = lambda u, x, y: u  # drops the edge it should insert
    try:
        for name in ("sampled", "roundtrip"):
            out = workloads.run(name, params[name], golden, inputs)
            report(fail_share(out) > 0, f"{name}: a broken inverse raises fail_share to {fail_share(out):.3f}")
    finally:
        bijections.insert_edge = original

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "census", "--seed", "1", "--trace", "0")
    report(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program's source: exit {proc.returncode} and no result")
    shutil.rmtree(bare)

    print(f"{sum(RESULTS)}/{len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
