"""Timing spans around the program's layer entry points.

:func:`install` wraps each module's public entry points from outside the
program: it rebinds every ``plantedmaps`` module attribute that refers to an
original function (so ``from ... import`` sites are covered too), replaces
methods on their class, and swaps the function inside each
``cached_property`` so that only real computations are timed.  Every call
appends one span (name, start, end, parent) to flat in-memory arrays;
:meth:`Tracer.layer_metrics` turns them into per-layer counts and self
times, where a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

from plantedmaps import bijections, census, cli, core, oracle, partition, roundtrips
from workloads import matchings_visited

BIJECTION_OPS = (
    "cut", "glue", "contract", "insert_edge", "delete_pair", "insert_pair",
    "eta", "eta_inv", "theta", "theta_inv", "split5", "join5",
)
CACHED = ("sigma", "vertex_cycles", "is_connected")
STREAMS = ("unicellular_stream", "bicellular_stream", "tricellular_stream")
FILTERS = ("uni_maps", "bi_maps", "tri_maps", "three_face_maps")

ROOT_SPAN = "workload"


class Tracer:
    """Span recorder.  Spans are stored in parallel arrays indexed by the
    order in which they open, so a parent always precedes its children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # Counts taken at the layer boundaries.
        self.census_visited = 0
        self.census_counted = 0
        self.connected_k1 = 0
        self.table_build_s = 0.0
        self.filter_kept = 0
        self.stream_passes: list[list[int]] = []  # [creator name id, maps yielded]

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def wrap(self, label: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, result, seconds)``
        runs once the span is closed."""
        nid = self._id(label)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result, ends[idx] - starts[idx])
            return result

        return traced

    def wrap_stream(self, label: str, fn):
        """Wrap a generator function: each ``next`` is one span, and each
        pass records which span created it and how many maps it yielded."""
        nid = self._id(label)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def drive(gen, record):
            # The span bookkeeping of ``wrap`` is repeated inline rather than
            # shared through a helper call: it runs once per map yielded.
            while True:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    stack.pop()
                record[1] += 1
                yield item

        def traced(*args, **kwargs):
            top = stack[-1]
            record = [names[top] if top >= 0 else -1, 0]
            self.stream_passes.append(record)
            return drive(fn(*args, **kwargs), record)

        return traced

    def root(self, fn):
        """Run ``fn()`` inside the workload's root span."""
        return self.wrap(ROOT_SPAN, fn)()

    # --- reduction ---------------------------------------------------------

    def _reduce(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        n = len(self.start)
        cover = [0.0] * n
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        # Children open after their parent, so one backward pass settles
        # every span's child coverage before the span itself is read.
        for i in range(n - 1, -1, -1):
            d = end[i] - start[i]
            nid = name[i]
            calls[nid] += 1
            total[nid] += d
            self_s[nid] += d - cover[i]
            p = parent[i]
            if p >= 0:
                cover[p] += d
        return (
            dict(zip(self.names, calls)),
            dict(zip(self.names, total)),
            dict(zip(self.names, self_s)),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, ratios and self times; ratios with an empty
        base read 0."""
        calls, total, self_s = self._reduce()

        def c(label):
            return calls.get(label, 0)

        def s(label):
            return self_s.get(label, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        filter_ids = {self._ids[f"roundtrips.{f}"] for f in FILTERS if f"roundtrips.{f}" in self._ids}
        filtered_yield = sum(y for creator, y in self.stream_passes if creator in filter_ids)
        m = {
            "census.count.calls": c("census.count"),
            "census.count.self_s": s("census.count"),
            "census.matchings_visited": self.census_visited,
            "census.connected_ratio": ratio(self.census_counted, self.census_visited),
            "census.stream.passes": len(self.stream_passes),
            "census.stream.maps_yielded": sum(y for _, y in self.stream_passes),
            "census.stream.next_self_s": s("census.stream.next"),
        }
        for prop in CACHED:
            m[f"core.{prop}.computes"] = c(f"core.{prop}")
            m[f"core.{prop}.self_s"] = s(f"core.{prop}")
        m["core.is_connected.k1_share"] = ratio(self.connected_k1, c("core.is_connected"))
        for fn in ("genus", "validate", "canonicalize", "decode", "encode"):
            m[f"core.{fn}.calls"] = c(f"core.{fn}")
            m[f"core.{fn}.self_s"] = s(f"core.{fn}")
        m["partition.classify.calls"] = c("partition.classify")
        m["partition.classify.self_s"] = s("partition.classify")
        m["partition.v1_profile.calls"] = c("partition.v1_profile")
        m["partition.v1_profile.per_classify"] = ratio(
            c("partition.v1_profile"), c("partition.classify")
        )
        m["partition.histogram.self_s"] = s("partition.histogram")
        for op in BIJECTION_OPS:
            m[f"bijections.{op}.calls"] = c(f"bijections.{op}")
            m[f"bijections.{op}.self_s"] = s(f"bijections.{op}")
        m["roundtrips.roundtrip.calls"] = c("roundtrips.roundtrip")
        m["roundtrips.roundtrip.self_s"] = s("roundtrips.roundtrip")
        m["roundtrips.kept_ratio"] = ratio(self.filter_kept, filtered_yield)
        m["oracle.table.build_s"] = self.table_build_s
        m["oracle.verify_theorem.calls"] = c("oracle.verify_theorem")
        m["oracle.verify_theorem.self_s"] = s("oracle.verify_theorem")
        m["oracle.d_value.self_s"] = s("oracle.d_value")
        m["cli.main.self_s"] = s("cli.main")
        m["workload.self_s"] = s(ROOT_SPAN)
        m["trace.traced_run_s"] = total.get(ROOT_SPAN, 0.0)
        m["trace.spans"] = len(self.start)
        return m

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "count": len(self.start),
                "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _rebind(original, replacement) -> None:
    """Point every ``plantedmaps`` module attribute that holds ``original``
    at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "plantedmaps" or modname.startswith("plantedmaps.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _miss_detector(cached):
    """For an ``lru_cache`` function: a callable telling whether the call
    just made computed its result rather than hitting the cache."""
    seen = [cached.cache_info().misses]

    def missed() -> bool:
        misses = cached.cache_info().misses
        if misses == seen[0]:
            return False
        seen[0] = misses
        return True

    return missed


def install() -> Tracer:
    """Wrap the entry points of every layer and return the recorder."""
    tr = Tracer()

    def wrap_function(module, attr, label, after=None):
        original = getattr(module, attr)
        _rebind(original, tr.wrap(label, original, after))

    def on_count(args, table, _seconds):
        kind, n = census.normalize_kind(args[0]), args[1]
        tr.census_visited += matchings_visited(kind, n)
        tr.census_counted += table.total(n)

    wrap_function(census, "count", "census.count", on_count)
    for attr in STREAMS:
        original = getattr(census, attr)
        _rebind(original, tr.wrap_stream("census.stream.next", original))

    def on_connected(args, _result, _seconds):
        tr.connected_k1 += args[0].k == 1

    for prop in CACHED:
        cp = core.CellularMap.__dict__[prop]
        cp.func = tr.wrap(f"core.{prop}", cp.func, on_connected if prop == "is_connected" else None)
    core.CellularMap.genus = tr.wrap("core.genus", core.CellularMap.genus)
    core.CellularMap.encode = tr.wrap("core.encode", core.CellularMap.encode)
    for attr in ("validate", "canonicalize", "decode"):
        wrap_function(core, attr, f"core.{attr}")

    for attr in ("classify", "v1_profile", "histogram"):
        wrap_function(partition, attr, f"partition.{attr}")

    for op in BIJECTION_OPS:
        wrap_function(bijections, op, f"bijections.{op}")

    wrap_function(roundtrips, "roundtrip", "roundtrips.roundtrip")
    for attr in FILTERS:
        missed = _miss_detector(getattr(roundtrips, attr))

        def on_filter(_args, result, _seconds, missed=missed):
            if missed():
                tr.filter_kept += len(result)

        wrap_function(roundtrips, attr, f"roundtrips.{attr}", on_filter)

    table_missed = _miss_detector(oracle.table)

    def on_table(_args, _result, seconds):
        if table_missed():
            tr.table_build_s += seconds

    wrap_function(oracle, "table", "oracle.table", on_table)
    wrap_function(oracle, "verify_theorem", "oracle.verify_theorem")
    oracle.HZTable.d_value = tr.wrap("oracle.d_value", oracle.HZTable.d_value)
    wrap_function(cli, "main", "cli.main")
    return tr
