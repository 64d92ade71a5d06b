"""Output checks for benchmark scenarios.

Two kinds.  `output_digest` fingerprints every file a scenario wrote, so
a run can be compared byte for byte with the outputs recorded at the
seed commit (`expected.json`, default seeds only) and with earlier passes
of the same run.  `invariants` checks what must hold for any seed: the
exit code the generator expects, no traceback, bytes conserved, I/O wall
time at or above the compute and bandwidth bounds, and timestep
breakdowns whose parts sum to their total.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from pathlib import Path
from typing import Dict, List, Optional

from workloads import CORES

# CSV cells carry nine significant digits
REL = 2e-8


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()[:12]


def _close(a: float, b: float, slack: float = 1e-12) -> bool:
    return a == b or abs(a - b) <= REL * max(abs(a), abs(b)) + slack


def _rows(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _schedule_bytes(schedule: dict) -> int:
    hours = schedule["run_hours"]
    return sum(e["field_count"] * int((hours + 1e-9) / e["period_hours"])
               * e["bytes_per_field"] for e in schedule["entries"])


def _aggregate_write_rate(io: dict) -> float:
    """Summed effective write rate of all writers (the iosim docstring's
    formula, stated independently)."""
    two_level = io["servers_level1"] > 0 and io["servers_level2"] > 0
    writers = io["servers_level2"] if two_level else \
        (io["servers_level1"] or io["servers_level2"])
    pools = io["pools"]
    per_pool = writers // pools
    stripes = min(io["striping_factor"], io.get("stripe_cap", 8.0))
    penalty = io.get("pool_penalty", 0.25)
    total = 0.0
    for pool in range(pools):
        files = io["files"] // pools + (1 if pool < io["files"] % pools else 0)
        total += per_pool * io["base_write_rate"] * stripes \
            * min(1.0, files / per_pool) / (1.0 + penalty * (per_pool - 1))
    return total


def _check_io_row(row: Dict[str, str], doc: dict, io: dict,
                  where: str) -> List[str]:
    problems = []
    expected = _schedule_bytes(doc["schedule"])
    if int(row["bytes_written"]) != expected:
        problems.append(f"{where}: bytes_written {row['bytes_written']} "
                        f"!= scheduled {expected}")
    wall = float(row["wall_clock_s"])
    compute = doc["schedule"]["run_hours"] * io["compute_rate"]
    bandwidth = expected / _aggregate_write_rate(io)
    for label, bound in (("compute", compute), ("bandwidth", bandwidth)):
        if wall < bound and not _close(wall, bound, 1e-6):
            problems.append(f"{where}: wall {wall} below {label} bound "
                            f"{bound}")
    if not 0.0 <= float(row["wait_pct"]) <= 100.0:
        problems.append(f"{where}: wait_pct {row['wait_pct']} out of range")
    return problems


def _check_breakdown(row: Dict[str, str], where: str,
                     axes: Optional[Dict[str, int]] = None) -> List[str]:
    problems = []
    parts = [float(row[k]) for k in ("user_s", "p2p_s", "coll_s", "etc_s")]
    total = float(row["total_s"])
    if any(p < 0 for p in parts) or not _close(sum(parts), total):
        problems.append(f"{where}: parts {parts} do not sum to {total}")
    for key, value in (axes or {}).items():
        if int(row[key]) != value:
            problems.append(f"{where}: {key} {row[key]} != {value}")
    return problems


def _io_variant(io: dict, axis: str, value: int) -> dict:
    io = dict(io)
    if axis == "servers":
        if io["servers_level1"] and io["servers_level2"]:
            io["servers_level2"] = value
        else:
            io["servers_level1"], io["servers_level2"] = value, 0
    else:
        io[axis] = value
    return io


def _check_outputs(scenario: dict, out: Path, work: Path) -> List[str]:
    kind = scenario["check"]["kind"]
    doc = scenario["config"]
    problems: List[str] = []
    if kind == "report":
        inputs = [_rows(work / "out" / i / "io.csv")[0]
                  for i in scenario["check"]["inputs"]]
        if len(inputs) == 2:
            row = _rows(out / "ratio.csv")[0]
            for key, a in inputs[0].items():
                b = float(inputs[1][key])
                want = float(a) / b if b else math.inf
                if not _close(float(row[key]), want):
                    problems.append(f"ratio {key} {row[key]} != {want}")
        else:
            row = _rows(out / "stats.csv")[0]
            for key in inputs[0]:
                want = statistics.fmean(float(r[key]) for r in inputs)
                if not _close(float(row[f"{key}_mean"]), want):
                    problems.append(f"mean {key} {row[key + '_mean']} "
                                    f"!= {want}")
        return problems
    if kind.startswith("io"):
        io = doc["io_scenario"]
        if kind == "io-run":
            row = _rows(out / "io.csv")[0]
            problems += _check_io_row(row, doc, io, "io.csv")
            if not (out / "summary.txt").is_file():
                problems.append("summary.txt missing")
            return problems
        (axis, values), = doc["sweep"].items()
        rows = _rows(out / f"sweep_{axis}.csv")
        if [int(r[axis]) for r in rows] != values:
            problems.append(f"sweep rows {[r[axis] for r in rows]} "
                            f"!= {values}")
        for row, value in zip(rows, values):
            problems += _check_io_row(row, doc, _io_variant(io, axis, value),
                                      f"{axis}={value}")
        return problems
    cores = CORES[doc["machine"]["builtin"]]
    layout = doc["layout"]
    if kind == "dyncore-run":
        row, = _rows(out / "dyncore.csv")
        problems += _check_breakdown(row, "dyncore.csv", {
            "panel_size": doc["mesh"]["panel_size"], "nodes": layout["nodes"],
            "ranks": layout["nodes"] * layout["ranks_per_node"],
            "threads": layout["threads_per_rank"]})
        if not (out / "summary.txt").is_file():
            problems.append("summary.txt missing")
    elif kind == "dyncore-grid":
        rows = _rows(out / "dyncore.csv")
        want = [(p["panel_size"], p["nodes"], t)
                for p in doc["grid"]["points"] for t in doc["grid"]["threads"]]
        if len(rows) != len(want):
            problems.append(f"{len(rows)} grid rows, expected {len(want)}")
        for row, (n, nodes, t) in zip(rows, want):
            problems += _check_breakdown(row, f"C{n}", {
                "panel_size": n, "nodes": nodes, "threads": t,
                "ranks": nodes * (cores // t)})
    elif kind == "threads-sweep":
        values = doc["sweep"]["threads"]
        rows = _rows(out / "sweep_threads.csv")
        if [int(r["threads"]) for r in rows] != values:
            problems.append(f"thread rows != {values}")
        for row in rows:
            t = int(row["threads"])
            problems += _check_breakdown(row, f"threads={t}", {
                "nodes": layout["nodes"],
                "ranks": layout["nodes"] * (cores // t)})
        best = [r for r in rows if r["best"] == "True"]
        lowest = min((float(r["total_s"]), int(r["threads"])) for r in rows)
        if len(best) != 1 or int(best[0]["threads"]) != lowest[1]:
            problems.append("best flag not on the lowest total")
    elif kind == "nodes-sweep":
        values = doc["sweep"]["nodes"]
        rows = _rows(out / "sweep_nodes.csv")
        if [int(r["nodes"]) for r in rows] != values:
            problems.append(f"node rows != {values}")
        anchor = float(rows[0]["total_s"]) * int(rows[0]["nodes"])
        for row in rows:
            nodes = int(row["nodes"])
            problems += _check_breakdown(row, f"nodes={nodes}", {
                "ranks": nodes * layout["ranks_per_node"]})
            if not _close(float(row["ideal_s"]), anchor / nodes):
                problems.append(f"nodes={nodes}: ideal_s {row['ideal_s']}")
    else:
        problems.append(f"unknown check kind {kind!r}")
    return problems


def invariants(scenario: dict, rc: Optional[int], out: Path, work: Path,
               output: str) -> List[str]:
    """Problems with one call's result; an empty list means it passed."""
    problems = []
    if "Traceback (most recent call last)" in output:
        problems.append("traceback in output")
    if rc != scenario["expect_rc"]:
        return problems + [f"exit code {rc}, expected "
                           f"{scenario['expect_rc']}"]
    if rc != 0:
        if "error:" not in output:
            problems.append(f"exit {rc} without an error message")
        return problems
    try:
        problems += _check_outputs(scenario, out, work)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
