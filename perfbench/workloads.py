"""Seeded scenario generators for the four benchmark workloads.

Each generator turns a seed into a list of scenarios: a config document,
the `cubedsim` argument list that runs it, the exit code it must give
and what the output checks need to know.  The generators import nothing
from the package under test, so the parent commit and a change are fed
identical inputs.

Every scenario slot fixes the work shape that host time depends on:
panel size, rank count, halo depth and mode for timestep runs, and
client, server and schedule structure for I/O runs.  The seed picks
everything else: the machine, how the ranks are laid out over nodes and
threads, mesh levels, timesteps, cost coefficients, I/O rates, buffer
and field sizes, and the criterion-8 style small I/O scenarios.  Two
seeds therefore give different inputs and outputs at the same cost, so
host time measures the code rather than the luck of the draw; the
slots of one workload together cover the shapes the workload is for.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Sequence, Tuple

CORES = {"ARCHER2": 128, "Setonix": 128, "XC40": 36}
LEVELS = (60, 91, 120, 137)
C192_FIELDS = ((38, 18.0), (6, 12.0), (9, 9.0), (27, 3.0), (99, 1.0))
C192_FIELD_BYTES = 78_704_252
C896_FIELD_BYTES = 209_976_873
MIB = 1024 * 1024

Scenario = Dict[str, object]


def layout(rng: random.Random, ranks: int) -> Tuple[str, int, int]:
    """A random (machine, nodes, threads per rank), at most 16 threads,
    placing exactly `ranks` ranks on fully populated nodes; the machine is
    drawn first."""
    options = [(m, ranks // (CORES[m] // t), t) for m in CORES
               for t in range(1, 17)
               if CORES[m] % t == 0 and ranks % (CORES[m] // t) == 0]
    machine = rng.choice(sorted({m for m, _n, _t in options}))
    return rng.choice([o for o in options if o[0] == machine])


# --- config documents ----------------------------------------------------

def _cost_overrides(rng: random.Random) -> Dict[str, float]:
    if rng.random() < 0.5:
        return {}
    return {"c_cell": round(1.6e-5 * rng.uniform(0.8, 1.25), 9),
            "p2p_alpha": round(2.0e-5 * rng.uniform(0.5, 2.0), 9),
            "halo_exchanges_per_step": rng.randint(6, 14)}


def _timestep_doc(rng: random.Random, machine: str, n: int, nodes: int,
                  threads: int, depth: int, mode: str) -> dict:
    lay = {"nodes": nodes, "ranks_per_node": CORES[machine] // threads,
           "threads_per_rank": threads, "halo_depth": depth, "mode": mode,
           "timesteps": rng.choice((24, 96, 192))}
    if rng.random() < 0.3:
        lay["bytes_per_cell"] = rng.choice((960, 2880, 5760))
    doc = {"machine": {"builtin": machine},
           "mesh": {"panel_size": n, "levels": rng.choice(LEVELS)},
           "layout": lay}
    cost = _cost_overrides(rng)
    if cost:
        doc["cost_model"] = cost
    return doc


def _scenario(sid: str, argv: Sequence[str], doc: dict, check: dict,
              expect_rc: int = 0) -> Scenario:
    return {"id": sid, "argv": list(argv), "config": doc, "check": check,
            "expect_rc": expect_rc}


def _run(sid: str, doc: dict, check: dict, expect_rc: int = 0,
         repeat: int = 1) -> Scenario:
    argv = ["run", "--config", f"{{work}}/configs/{sid}.json",
            "--out", f"{{work}}/out/{sid}"]
    if repeat > 1:
        argv += ["--repeat", str(repeat)]
    return _scenario(sid, argv, doc, check, expect_rc)


def _sweep(sid: str, doc: dict, axis: str, check: dict) -> Scenario:
    argv = ["sweep", "--config", f"{{work}}/configs/{sid}.json",
            "--axis", axis, "--out", f"{{work}}/out/{sid}"]
    return _scenario(sid, argv, doc, check)


# --- timestep scenarios --------------------------------------------------

def timestep_run(rng, sid, n, ranks, depth, mode) -> Scenario:
    """One run; rank counts not divisible by six take the span fallback."""
    machine, nodes, t = layout(rng, ranks)
    doc = _timestep_doc(rng, machine, n, nodes, t, depth, mode)
    return _run(sid, doc, {"kind": "dyncore-run"})


def guard_run(rng, sid, n, nodes) -> Scenario:
    """128 single-thread ranks on each of 165 or more nodes: the rank
    tables alone exceed the node memory, so the run must exit 3 after
    building its halos."""
    machine = rng.choice(("ARCHER2", "Setonix"))
    doc = _timestep_doc(rng, machine, n, nodes, 1, 1, "exchange_halos")
    return _run(sid, doc, {"kind": "dyncore-run"}, expect_rc=3)


def thread_sweep(rng, sid, n, ranks, depth, mode) -> Scenario:
    """Threads 1, 2 and 4 on the nodes that hold `ranks` single-thread
    ranks, so the three rank counts are the same on every machine."""
    machine = rng.choice([m for m in CORES if ranks % CORES[m] == 0])
    doc = _timestep_doc(rng, machine, n, ranks // CORES[machine], 1, depth,
                        mode)
    doc["sweep"] = {"threads": [1, 2, 4]}
    return _sweep(sid, doc, "threads", {"kind": "threads-sweep"})


def node_sweep(rng, sid, n, ranks, depth, mode,
               factors=(1, 2, 4)) -> Scenario:
    """Strong scaling from `ranks` ranks over node counts in `factors`."""
    machine, nodes, t = layout(rng, ranks)
    doc = _timestep_doc(rng, machine, n, nodes, t, depth, mode)
    doc["sweep"] = {"nodes": [f * nodes for f in factors]}
    return _sweep(sid, doc, "nodes", {"kind": "nodes-sweep"})


def grid_run(rng, sid, n, ranks) -> Scenario:
    """Weak-scaling grid: panel size doubles while nodes quadruple."""
    machine, nodes, t = layout(rng, ranks)
    doc = _timestep_doc(rng, machine, n, nodes, t, 1, "exchange_halos")
    doc["grid"] = {"points": [{"panel_size": n, "nodes": nodes},
                              {"panel_size": 2 * n, "nodes": 4 * nodes}],
                   "threads": [t]}
    return _run(sid, doc, {"kind": "dyncore-grid"})


# --- I/O scenarios -------------------------------------------------------

def _c192_schedule(rng: random.Random) -> dict:
    size = round(C192_FIELD_BYTES * rng.uniform(0.95, 1.05))
    return {"run_hours": 48.0,
            "entries": [{"field_count": count, "period_hours": period,
                         "bytes_per_field": size}
                        for count, period in C192_FIELDS]}


def _c192_io(rng: random.Random, level1: int, level2: int, pools: int,
             clients_per_l1: int) -> dict:
    clients = level1 * clients_per_l1
    return {"clients": clients, "servers_level1": level1,
            "servers_level2": level2, "pools": pools,
            "buffer_bytes": round(4_000_000 * rng.uniform(0.97, 1.03)),
            "base_write_rate": round(100.0 * MIB * rng.uniform(0.95, 1.05), 1),
            "striping_factor": 1.0, "files": rng.randint(28, 32),
            "compute_rate": round(rng.uniform(19.0, 21.0), 3),
            "pool_penalty": round(rng.uniform(0.2, 0.3), 3)}


def _c896_doc(rng: random.Random, striping: bool) -> dict:
    size = round(C896_FIELD_BYTES * rng.uniform(0.95, 1.05))
    return {"schedule": {"run_hours": 48.0, "entries": [
                {"field_count": 120, "period_hours": 1.0,
                 "bytes_per_field": size}]},
            "io_scenario": {
                "clients": 4704, "servers_level1": 392, "servers_level2": 0,
                "pools": 1, "buffer_bytes": 5_200_000,
                "base_write_rate": round(597688.32 * rng.uniform(0.9, 1.1), 2),
                "striping_factor": round(rng.uniform(2.3, 2.7), 3)
                if striping else 1.0,
                "files": 480, "compute_rate": round(rng.uniform(90, 110), 2),
                "pool_penalty": 0.0}}


def _criterion8_doc(shape: random.Random, rng: random.Random) -> dict:
    """A small I/O scenario drawn like acceptance criterion 8.  `shape`
    draws what the host time depends on (clients, servers, pools, field
    counts and periods, run length) and is the same for every seed; `rng`
    draws sizes and rates."""
    clients = shape.randint(1, 6)
    two_level = shape.random() < 0.4
    pools = shape.choice([1, 2])
    writers = pools * shape.randint(1, 3)
    level1 = shape.randint(1, 4) if two_level else writers
    run_hours = shape.choice([3.0, 6.0, 12.0])
    entries = [(shape.randint(1, 6), shape.choice([0.5, 1.0, 2.0, 3.0]),
                rng.randint(50, 4000)) for _ in range(shape.randint(1, 3))]
    biggest_share = max(b for _c, _p, b in entries) / clients
    return {"schedule": {
                "run_hours": run_hours,
                "entries": [{"field_count": c, "period_hours": p,
                             "bytes_per_field": b} for c, p, b in entries]},
            "io_scenario": {
                "clients": clients,
                "servers_level1": level1,
                "servers_level2": writers if two_level else 0,
                "pools": pools,
                "buffer_bytes": math.ceil(biggest_share)
                + rng.randint(0, 4000),
                "base_write_rate": round(rng.uniform(5.0, 500.0), 3),
                "striping_factor": rng.choice([1.0, 2.0, 3.5]),
                "files": rng.randint(pools, 8),
                "compute_rate": round(rng.uniform(1.0, 60.0), 3),
                "pool_penalty": rng.choice([0.0, 0.25])}}


def _io_sweep_values(doc: dict, axis: str) -> List[int]:
    io = doc["io_scenario"]
    if axis == "buffer_bytes":
        base = io["buffer_bytes"]
        return [base, 2 * base, 4 * base]
    pools = io["pools"]
    if axis == "servers":
        return [pools * k for k in (1, 2, 3)]
    writers = io["servers_level2"] if io["servers_level1"] and \
        io["servers_level2"] else io["servers_level1"] or io["servers_level2"]
    return [p for p in (1, 2, 3, 4, 6)
            if writers % p == 0 and p <= io["files"]]


# --- workloads -----------------------------------------------------------

def timestep_blocks(seed: int) -> List[Scenario]:
    """Block-grid timestep runs and sweeps on all three machines, halo
    depth 1-2, both modes.  Halo BFS and the exchange pattern dominate."""
    rng = random.Random(f"timestep-blocks:{seed}")
    return [
        timestep_run(rng, "b01", 256, 1152, 1, "exchange_halos"),
        timestep_run(rng, "b02", 128, 1152, 2, "exchange_halos"),
        timestep_run(rng, "b03", 192, 1152, 1, "redundant_compute"),
        timestep_run(rng, "b04", 96, 576, 2, "redundant_compute"),
        thread_sweep(rng, "b05", 96, 1152, 1, "exchange_halos"),
        node_sweep(rng, "b06", 48, 288, 2, "exchange_halos"),
        grid_run(rng, "b07", 64, 288),
        timestep_run(rng, "b08", 64, 576, 2, "exchange_halos"),
    ]


def timestep_irregular(seed: int) -> List[Scenario]:
    """Rank counts not divisible by six take the span fallback, and 128x1
    layouts on 190-192 nodes trip the memory guard after their halos are
    built: the decomp layer used the way a blocks-only fast path would
    not cover."""
    rng = random.Random(f"timestep-irregular:{seed}")
    return [
        timestep_run(rng, "i01", 128, 128, 1, "exchange_halos"),
        timestep_run(rng, "i02", 80, 128, 2, "exchange_halos"),
        guard_run(rng, "i03", 80, 192),
        guard_run(rng, "i04", 96, 190),
        node_sweep(rng, "i05", 64, 128, 1, "exchange_halos",
                   factors=(1, 2, 3)),
        timestep_run(rng, "i06", 64, 64, 1, "exchange_halos"),
    ]


def io_servers(seed: int) -> List[Scenario]:
    """Shipped-scale I/O: two-level C192 pools with and without staging
    tracking, flat layouts with many clients per server, C896 with
    striping off and on.  No decomposition code runs."""
    rng = random.Random(f"io-servers:{seed}")
    out = []
    pools_doc = {"schedule": _c192_schedule(rng),
                 "io_scenario": _c192_io(rng, 16, 8, 4, 54),
                 "sweep": {"pools": [4, 8]}}
    out.append(_sweep("o01", pools_doc, "pools", {"kind": "io-sweep"}))
    tracked = {"schedule": _c192_schedule(rng),
               "io_scenario": _c192_io(rng, 16, 8, 8, 54)}
    total = sum(e["field_count"] * int(48.0 / e["period_hours"])
                * e["bytes_per_field"] for e in tracked["schedule"]["entries"])
    tracked["io_scenario"]["server_memory_bytes"] = 10 * total
    out.append(_run("o02", tracked, {"kind": "io-run"}))
    flat = {"schedule": _c192_schedule(rng),
            "io_scenario": _c192_io(rng, rng.choice((8, 9, 10, 12)), 0, 1, 72)}
    out.append(_run("o03", flat, {"kind": "io-run"}))
    wide = {"schedule": _c192_schedule(rng),
            "io_scenario": _c192_io(rng, 72, 0, 1, 12)}
    base = wide["io_scenario"]["buffer_bytes"]
    wide["sweep"] = {"buffer_bytes": [base // 2, base, 2 * base]}
    out.append(_sweep("o04", wide, "buffer_bytes", {"kind": "io-sweep"}))
    out.append(_run("o05", _c896_doc(rng, striping=False), {"kind": "io-run"}))
    out.append(_run("o06", _c896_doc(rng, striping=True), {"kind": "io-run"},
                    repeat=3))
    servers = _c896_doc(rng, striping=True)
    servers["sweep"] = {"servers": [196, 392, 784]}
    out.append(_sweep("o07", servers, "servers", {"kind": "io-sweep"}))
    return out


def _small_shapes() -> List[Tuple[int, int, int, str]]:
    """48 fixed (panel size, ranks, depth, mode) shapes at C40 or less,
    the same for every seed; each costs at most tens of milliseconds."""
    rng = random.Random("small-scenarios shapes")
    shapes = []
    while len(shapes) < 48:
        n = rng.randint(8, 40)
        ranks = rng.choice((6, 8, 12, 16, 24, 32, 36, 48, 72, 96, 144, 192))
        if 4 * ranks <= 6 * n * n and (ranks % 6 == 0 or ranks <= 32):
            shapes.append((n, ranks, rng.choice((1, 2)),
                           rng.choice(("exchange_halos",
                                       "redundant_compute"))))
    return shapes


def small_scenarios(seed: int) -> List[Scenario]:
    """165 small CLI calls: timestep runs at C40 or less and
    I/O runs at acceptance criterion 8's size, where the fixed cost per
    call (argument parsing, config load, mesh build, CSV writes)
    dominates."""
    rng = random.Random(f"small-scenarios:{seed}")
    shape = random.Random("small-scenarios io shapes")
    out: List[Scenario] = []
    for k, (n, ranks, depth, mode) in enumerate(_small_shapes()):
        out.append(timestep_run(rng, f"s{k:03d}", n, ranks, depth, mode))
    for k, (n, ranks) in enumerate(((24, 24), (32, 24), (16, 12), (28, 12),
                                    (20, 24), (12, 6))):
        out.append(node_sweep(rng, f"s{48 + k:03d}", n, ranks, 1,
                              "exchange_halos"))
    # enough I/O calls that the median call is an I/O call of typical
    # size, not the slowest of them
    for k in range(96):
        out.append(_run(f"s{54 + k:03d}", _criterion8_doc(shape, rng),
                        {"kind": "io-run"}))
    for k, axis in enumerate(("buffer_bytes", "servers", "pools") * 3):
        doc = _criterion8_doc(shape, rng)
        doc["sweep"] = {axis: _io_sweep_values(doc, axis)}
        out.append(_sweep(f"s{150 + k:03d}", doc, axis, {"kind": "io-sweep"}))
    rng.shuffle(out)
    io_runs = [s["id"] for s in out if s["check"]["kind"] == "io-run"]
    for k in range(6):
        inputs = rng.sample(io_runs, 2 if k < 4 else 3)
        sid = f"s{159 + k:03d}"
        argv = ["report"] + [f"{{work}}/out/{i}/io.csv" for i in inputs] + \
            ["--out", f"{{work}}/out/{sid}"]
        out.append(_scenario(sid, argv, None,
                             {"kind": "report", "inputs": inputs}))
    return out


WORKLOADS: Dict[str, Callable[[int], List[Scenario]]] = {
    "timestep-blocks": timestep_blocks,
    "timestep-irregular": timestep_irregular,
    "io-servers": io_servers,
    "small-scenarios": small_scenarios,
}


def generate(workload: str, seed: int) -> List[Scenario]:
    return WORKLOADS[workload](seed)
