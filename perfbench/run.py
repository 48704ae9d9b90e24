"""Benchmark of the plantedmaps command line and library.

Usage, from the root of a checkout (standard library only, nothing to build):

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/selftest.py

Workloads (see BENCHMARK.json for why each was chosen), at ``--size bench``:

* ``census``    ``count --kind uni --edges 7``, ``--kind bi --edges 5`` and
                ``--kind tri --edges 4`` through ``cli.main``.
* ``theorem``   ``verify --relation theorem --max-n 4``.
* ``roundtrip`` ``roundtrip`` for all 13 bijections at (g, n) = (0, 3), in
                one process so the cached domains are shared.
* ``sampled``   seeded uniform random one-face maps, one for each edge count
                20..200, handed over as JSON text, put through every
                surgery their leaf admits and its inverse.

``--size full`` runs the larger inputs of the project's baseline timings
(uni 8 / bi 6 / tri 5, theorem 5, roundtrip (0, 4), 16 maps per edge count);
``--size toy`` is for the self-test.

Only ``sampled`` depends on ``--seed``; the others are exhaustive.  Every
pass runs in a fresh interpreter (``worker.py``), one at a time, so the
program's caches start cold as they do for a command-line user.  With
``--trace 0`` the benchmark repeats passes until ``--seconds`` have elapsed
(at least one).  It reports the median set-up time and peak RSS of the
passes, and ``run_s`` and ``items_per_s`` of the fastest pass (see
``measure``).  With ``--trace 1`` plain and traced passes alternate; it
reports the per-layer metrics of the fastest traced pass, plus the tracing
overhead (fastest traced minus fastest plain ``run_s``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance and each metric with its unit.  Results and spans are also
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("census", "theorem", "roundtrip", "sampled")
# Every run must end within 180 s; stop starting passes well before that.
BUDGET_S = 165.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def provenance(root: Path, workload: str, seed: int, params: dict) -> dict:
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # informational only, not a gated metric
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "params": params,
    }


def spawn(workload: str, seed: int, trace: int, mode: str, params: dict, deadline: float) -> dict:
    """Run one worker to completion and return its result and set-up time."""
    cmd = [
        sys.executable, "-I", str(ROOT / "perfbench" / "worker.py"),
        str(ROOT), workload, str(seed), str(trace), mode, json.dumps(params),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def load_contract() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def measure(workload: str, seed: int, seconds: float, trace: int, params: dict, deadline: float):
    """Run the passes of one workload; return its metrics, the passes'
    check counts and the raw samples.

    Passes repeat until ``seconds`` have elapsed (at least one of each
    kind).  Timings come from the fastest pass: on a shared host, other
    tenants slow a pass down by up to about 1.8x, in spells of seconds to
    minutes, and the fastest pass is the one they disturbed least.  The median and
    90th percentile of the passes are printed and saved alongside.
    """
    spawn(workload, seed, 0, "setup", params, deadline)  # warm the file cache and bytecode
    # With tracing, plain and traced passes alternate so that both see the
    # same spells of the host; only the fastest traced pass keeps its spans.
    modes = (0, 1) if trace else (0,)
    passes: dict[int, list[dict]] = {m: [] for m in modes}
    spans = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.bin"
    kept = spans.with_suffix(".fastest")
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        for mode in modes:
            result = spawn(workload, seed, mode, "run", params, deadline)
            if mode and spans.exists():
                if result["run_s"] <= min((p["run_s"] for p in passes[mode]), default=float("inf")):
                    os.replace(spans, kept)
                else:
                    spans.unlink()
            passes[mode].append(result)
        now = time.monotonic()
        if now - begin >= seconds or now + (now - started) > deadline:
            break
    plain = min(passes[0], key=lambda p: p["run_s"])
    if trace:
        traced = min(passes[1], key=lambda p: p["run_s"])
        if kept.exists():
            os.replace(kept, spans)
        metrics = dict(traced["layers"])
        metrics["trace.untraced_run_s"] = plain["run_s"]
        metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in passes[0]),
            "run_s": plain["run_s"],
            "items_per_s": plain["items"] / plain["run_s"],
            "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in passes[0]),
        }
    every = [p for m in modes for p in passes[m]]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if not trace:
        # Reported as 1 - fail_share: a share that is 0 on a healthy run
        # cannot be bounded relative to its median.
        metrics["pass_share"] = (attempted - failed) / attempted if attempted else 0.0
    detail = {
        "setup_samples": [p["setup_s"] for p in passes[0]],
        "run_s_samples": {("traced" if m else "plain"): [p["run_s"] for p in passes[m]] for m in modes},
        "items": plain["items"],
        "failures": [f for p in every for f in p["failures"]],
    }
    return metrics, attempted, failed, detail


def pass_summary(samples: list[float]) -> str:
    """Count, fastest, median and 90th percentile of a run's pass times."""
    if len(samples) < 2:
        return f"1 pass, {samples[0]:.4f} s"
    p90 = statistics.quantiles(samples, n=10)[-1]
    return (f"{len(samples)} passes, fastest {min(samples):.4f} s, "
            f"median {statistics.median(samples):.4f} s, p90 {p90:.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="bench", choices=("bench", "full", "toy"),
                        help="input sizes (workloads.SIZES); bench is the measured size")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so that subprocess.run
    # kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        if not (ROOT / "src" / "plantedmaps" / "__init__.py").is_file():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import SIZES

        end_to_end, per_layer = load_contract()
        units = per_layer if args.trace else end_to_end
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        all_metrics: dict[str, dict] = {}
        attempted = failed = 0
        for workload in names:
            params = SIZES[args.size][workload]
            prov = provenance(ROOT, workload, args.seed, params)
            print(json.dumps({"provenance": prov}), flush=True)
            deadline = time.monotonic() + BUDGET_S
            metrics, att, fail, detail = measure(workload, args.seed, args.seconds, args.trace, params, deadline)
            if set(metrics) != set(units):
                raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
            attempted += att
            failed += fail
            for name in units:
                print(f"{workload:<10} {name:<36} {metrics[name]:>16.6f} {units[name]}")
            for kind, samples in detail["run_s_samples"].items():
                print(f"{workload:<10} {kind} run_s: {pass_summary(samples)}")
            print(f"{workload:<10} fail_share = {fail}/{att}")
            for msg in detail["failures"][:5]:
                print(f"{workload:<10} FAILED: {msg}")
            record = {"provenance": prov, "trace": args.trace, "metrics": metrics, "detail": detail}
            (out_dir / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=1) + "\n"
            )
            prefix = f"{workload}." if args.workload == "all" else ""
            for name in units:
                all_metrics[prefix + name] = {"value": metrics[name], "unit": units[name]}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": all_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
