"""Call tracing from outside the package, for the per-layer metrics.

`Tracer` replaces the module attributes that cubedsim looks up at call
time with wrappers that record a span (name, start, end, parent) and a
few work counters, and puts the originals back on exit.  A hook whose
attribute no longer exists, or a counter that no longer fits what the
hooked function takes or returns, is reported as absent instead of
failing, and every metric that needs it reads None rather than 0.
Self time is derived from the spans: a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

MEMORY_LIMIT_ERROR = "MemoryLimitError"


def _halo_cells(counts, _args, result):
    counts["decomp.halo_cells"] += sum(len(ring) for rings in result.halos
                                       for ring in rings)


def _partition(counts, _args, result):
    if result.grid is None:
        counts["decomp.span_ranks"] += result.ranks


def _exchange(counts, _args, result):
    counts["decomp.messages"] += len(result.messages)
    counts["decomp.message_bytes"] += sum(m.bytes for m in result.messages)


def _events(counts, _args, result):
    counts["workload.events"] += len(result)


def _simulate_io(counts, args, _result):
    scenario = args["scenario"]
    two_level = scenario.two_level
    gather = scenario.servers_level1 if two_level else scenario.writer_count
    counts["iosim.gather_servers"] += min(gather, scenario.clients)
    if two_level:
        counts["iosim.two_level_pools"] += scenario.pools


def _stage_one(counts, args, _result):
    counts["iosim.stage_one_client_chunks"] += \
        len(args["chunks"]) * args["n_clients"]


def _stage_two(counts, args, _result):
    counts["iosim.stage_two_arrivals"] += \
        sum(len(stream) for stream in args["arrival_streams"])


def _files(counts, _args, _result):
    counts["cli.files_written"] += 1


# (span name, module, attribute, counter); cli and config import
# load_scenario and build_mesh by name, so those are hooked where used.
HOOKS = (
    ("config.load", "cubedsim.cli", "load_scenario", None),
    ("mesh.build", "cubedsim.cli", "build_mesh", None),
    ("mesh.build", "cubedsim.config", "build_mesh", None),
    ("decomp.partition", "cubedsim.decomp", "partition", _partition),
    ("decomp.compute_halos", "cubedsim.decomp", "compute_halos", _halo_cells),
    ("decomp.exchange_pattern", "cubedsim.decomp", "exchange_pattern",
     _exchange),
    ("dyncore.simulate", "cubedsim.dyncore", "simulate", None),
    ("workload.emission_events", "cubedsim.workload", "emission_events",
     _events),
    ("iosim.simulate_io", "cubedsim.iosim", "simulate_io", _simulate_io),
    ("iosim.stage_one", "cubedsim.iosim", "_simulate_stage_one", _stage_one),
    ("iosim.stage_two", "cubedsim.iosim", "_stage_two", _stage_two),
    ("cli.write", "cubedsim.cli", "_write_atomic", _files),
)

# A span: [name, start_ns, end_ns, parent index or -1, error or None, scenario]
Span = list


class Tracer:
    """Context manager that hooks the package for the duration of a pass."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        # span names of missing hooks, "<span name> counters" of broken ones
        self.absent: List[str] = []
        self.scenario: Optional[str] = None
        self._stack: List[int] = []
        self._broken: set = set()
        self._saved: List[Tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None,
                           self.scenario])
        self._stack.append(index)
        return index

    def end(self, index: int, error: Optional[str] = None) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.spans[index][4] = error
        self._stack.pop()

    def _wrap(self, name, original, counter):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.end(index, type(exc).__name__)
                raise
            self.end(index)
            if counter is not None and counter not in self._broken:
                try:
                    counter(self.counts,
                            signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    self._broken.add(counter)
                    self.absent.append(counters(name))
            return result

        traced.__wrapped__ = original
        return traced

    def __enter__(self) -> "Tracer":
        for name, module_name, attr, counter in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(name, original, counter))
            self._saved.append((module, attr, original))
        return self

    def __exit__(self, *_exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# --- per-layer metrics ---------------------------------------------------

def counters(span: str) -> str:
    """The name under which a span's broken counter is reported absent."""
    return f"{span} counters"


def _with_counters(*names: str) -> Tuple[str, ...]:
    return names + tuple(counters(n) for n in names)


_DECOMP = ("decomp.partition", "decomp.compute_halos",
           "decomp.exchange_pattern")
_STAGES = ("iosim.stage_one", "iosim.stage_two")
# the hooks that can be direct children of cli.main
_CLI_CHILDREN = ("config.load", "mesh.build", "dyncore.simulate",
                 "iosim.simulate_io", "cli.write")

# (metric, unit, what it needs): the span names of the hooks, and the
# counters, without which the metric is None
PER_LAYER = (
    ("config.load_s", "s", ("config.load",)),
    ("config.load_calls", "count", ("config.load",)),
    ("mesh.build_s", "s", ("mesh.build",)),
    ("mesh.build_calls", "count", ("mesh.build",)),
    ("decomp.partition_s", "s", ("decomp.partition",)),
    ("decomp.compute_halos_s", "s", ("decomp.compute_halos",)),
    ("decomp.exchange_pattern_s", "s", ("decomp.exchange_pattern",)),
    ("decomp.halo_cells", "count", _with_counters("decomp.compute_halos")),
    ("decomp.messages", "count", _with_counters("decomp.exchange_pattern")),
    ("decomp.message_bytes", "bytes",
     _with_counters("decomp.exchange_pattern")),
    ("decomp.span_ranks", "count", _with_counters("decomp.partition")),
    ("decomp.us_per_halo_cell", "us/cell",
     _with_counters("decomp.compute_halos")),
    ("decomp.share", "ratio", _DECOMP),
    ("dyncore.simulate_s", "s", ("dyncore.simulate",)),
    ("dyncore.simulate_calls", "count", ("dyncore.simulate",)),
    ("dyncore.cost_self_s", "s", ("dyncore.simulate",) + _DECOMP),
    ("dyncore.guard_rejections", "count", ("dyncore.simulate",)),
    ("dyncore.rejected_halo_s", "s",
     ("dyncore.simulate", "decomp.compute_halos")),
    ("dyncore.rejected_halo_share", "ratio",
     ("dyncore.simulate", "decomp.compute_halos")),
    ("workload.emission_events_s", "s", ("workload.emission_events",)),
    ("workload.events", "count", _with_counters("workload.emission_events")),
    ("iosim.simulate_io_s", "s", ("iosim.simulate_io",)),
    ("iosim.simulate_io_calls", "count", ("iosim.simulate_io",)),
    ("iosim.stage_one_s", "s", ("iosim.stage_one",)),
    ("iosim.stage_one_calls", "count", ("iosim.stage_one",)),
    ("iosim.stage_one_client_chunks", "count",
     _with_counters("iosim.stage_one")),
    ("iosim.stage_two_s", "s", ("iosim.stage_two",)),
    ("iosim.stage_two_calls", "count", ("iosim.stage_two",)),
    ("iosim.stage_two_arrivals", "count", _with_counters("iosim.stage_two")),
    ("iosim.self_s", "s",
     ("iosim.simulate_io", "workload.emission_events") + _STAGES),
    ("iosim.servers_per_stage_one_call", "ratio",
     _with_counters("iosim.simulate_io") + ("iosim.stage_one",)),
    ("iosim.pools_per_stage_two_call", "ratio",
     _with_counters("iosim.simulate_io") + ("iosim.stage_two",)),
    ("iosim.stage_share", "ratio", _STAGES),
    ("cli.self_s", "s", _CLI_CHILDREN),
    ("cli.files_written", "count", _with_counters("cli.write")),
    ("fixed.self_share", "ratio",
     _CLI_CHILDREN + ("workload.emission_events",)),
    ("trace.wall_s", "s", ()), ("trace.untraced_wall_s", "s", ()),
    ("trace.overhead_s", "s", ()), ("trace.spans", "count", ()),
)
COUNTS = {name for name, unit, _needs in PER_LAYER
          if unit in ("count", "bytes")}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span], counts: Dict[str, int], wall_s: float,
                  absent: Iterable[str] = ()) -> Dict[str, Optional[float]]:
    """Per-layer totals of one traced pass; `wall_s` is the pass's summed
    cli.main time, the base of every share.  A metric that needs an
    absent hook or counter is None."""
    children = [0] * len(spans)
    for name, start, end, parent, _err, _sc in spans:
        if parent >= 0:
            children[parent] += end - start
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    rejected_halo = 0
    rejections = 0
    for k, (name, start, end, parent, err, _sc) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - children[k]
        calls[name] += 1
        if name == "dyncore.simulate" and err == MEMORY_LIMIT_ERROR:
            rejections += 1
        if name == "decomp.compute_halos" and parent >= 0 \
                and spans[parent][4] == MEMORY_LIMIT_ERROR:
            rejected_halo += end - start
    s = {key: value / 1e9 for key, value in total.items()}
    own = {key: value / 1e9 for key, value in own.items()}
    fixed = sum(value for key, value in own.items()
                if key.split(".")[0] in ("config", "cli", "mesh", "workload"))
    decomp_s = sum(s.get(f"decomp.{k}", 0.0)
                   for k in ("partition", "compute_halos", "exchange_pattern"))
    stages_s = s.get("iosim.stage_one", 0.0) + s.get("iosim.stage_two", 0.0)
    values = {
        "config.load_s": s.get("config.load", 0.0),
        "config.load_calls": calls["config.load"],
        "mesh.build_s": s.get("mesh.build", 0.0),
        "mesh.build_calls": calls["mesh.build"],
        "decomp.partition_s": s.get("decomp.partition", 0.0),
        "decomp.compute_halos_s": s.get("decomp.compute_halos", 0.0),
        "decomp.exchange_pattern_s": s.get("decomp.exchange_pattern", 0.0),
        "decomp.halo_cells": counts.get("decomp.halo_cells", 0),
        "decomp.messages": counts.get("decomp.messages", 0),
        "decomp.message_bytes": counts.get("decomp.message_bytes", 0),
        "decomp.span_ranks": counts.get("decomp.span_ranks", 0),
        "decomp.us_per_halo_cell": _ratio(
            1e6 * s.get("decomp.compute_halos", 0.0),
            counts.get("decomp.halo_cells", 0)),
        "decomp.share": _ratio(decomp_s, wall_s),
        "dyncore.simulate_s": s.get("dyncore.simulate", 0.0),
        "dyncore.simulate_calls": calls["dyncore.simulate"],
        "dyncore.cost_self_s": own.get("dyncore.simulate", 0.0),
        "dyncore.guard_rejections": rejections,
        "dyncore.rejected_halo_s": rejected_halo / 1e9,
        "dyncore.rejected_halo_share": _ratio(
            rejected_halo / 1e9, s.get("decomp.compute_halos", 0.0)),
        "workload.emission_events_s": s.get("workload.emission_events", 0.0),
        "workload.events": counts.get("workload.events", 0),
        "iosim.simulate_io_s": s.get("iosim.simulate_io", 0.0),
        "iosim.simulate_io_calls": calls["iosim.simulate_io"],
        "iosim.stage_one_s": s.get("iosim.stage_one", 0.0),
        "iosim.stage_one_calls": calls["iosim.stage_one"],
        "iosim.stage_one_client_chunks":
            counts.get("iosim.stage_one_client_chunks", 0),
        "iosim.stage_two_s": s.get("iosim.stage_two", 0.0),
        "iosim.stage_two_calls": calls["iosim.stage_two"],
        "iosim.stage_two_arrivals": counts.get("iosim.stage_two_arrivals", 0),
        "iosim.self_s": own.get("iosim.simulate_io", 0.0),
        "iosim.servers_per_stage_one_call": _ratio(
            counts.get("iosim.gather_servers", 0), calls["iosim.stage_one"]),
        "iosim.pools_per_stage_two_call": _ratio(
            counts.get("iosim.two_level_pools", 0), calls["iosim.stage_two"]),
        "iosim.stage_share": _ratio(stages_s, wall_s),
        "cli.self_s": own.get("cli.main", 0.0) + own.get("cli.write", 0.0),
        "cli.files_written": counts.get("cli.files_written", 0),
        "fixed.self_share": _ratio(fixed, wall_s),
        "trace.spans": len(spans),
    }
    lost = set(absent)
    for name, _unit, needs in PER_LAYER:
        if lost.intersection(needs):
            values[name] = None
    return values


def combine(passes: List[Dict[str, Optional[float]]],
            traced_walls: List[float],
            untraced_walls: List[float]) -> Dict[str, Optional[float]]:
    """Median over traced passes for times and ratios; counts come from
    the first pass (they repeat exactly, which the caller checks).  A
    metric that is None in any pass is None."""
    out: Dict[str, Optional[float]] = {}
    for name, _unit, _needs in PER_LAYER:
        if name.startswith("trace.") and name != "trace.spans":
            continue
        values = [p[name] for p in passes]
        if None in values:
            out[name] = None
        else:
            out[name] = values[0] if name in COUNTS \
                else statistics.median(values)
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = \
        out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def chrome_trace(passes: List[List[Span]], meta: Dict[str, object]) -> dict:
    """Chrome Trace Event JSON: one complete event per span, one thread
    per traced pass; args carry the span id, its parent and the
    scenario, which groups the spans of one CLI call."""
    events = []
    for tid, spans in enumerate(passes, start=1):
        origin = spans[0][1] if spans else 0
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": f"traced pass {tid}"}})
        for k, (name, start, end, parent, err, scenario) in enumerate(spans):
            args = {"id": k, "parent": parent, "scenario": scenario}
            if err:
                args["error"] = err
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "pid": 1, "tid": tid,
                           "ts": (start - origin) / 1e3,
                           "dur": (end - start) / 1e3, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": meta}
