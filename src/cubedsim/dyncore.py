"""Timestep simulator for the dynamical core.

A timestep is a fixed sequence of phases: threaded user compute over the
owned (plus redundant) cells, blocking halo exchanges posted outside the
threaded regions, global sums implemented as log2-stage allreduces, and
runtime overhead (thread barriers plus a fixed per-rank cost).  The
simulated breakdown accounts for 100% of the step, and the step is
bulk-synchronous: communication cost is the maximum over ranks of the
per-rank serialized message cost.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from . import decomp as dc
from .errors import CubedsimError
from .machine import (CostModel, MachineConfig, MemoryModel,
                      default_cost_model, validate_layout)
from .mesh import CubedSphereMesh


class SimulationError(CubedsimError, ValueError):
    """Invalid run specification."""


class MemoryLimitError(SimulationError):
    """Configuration exceeds the per-node memory guard."""


class Mode(Enum):
    """How a rank gets its halo values: received from their owners, or
    computed locally from a deeper copy of the inputs."""
    EXCHANGE_HALOS = "exchange_halos"
    REDUNDANT_COMPUTE = "redundant_compute"


@dataclass(frozen=True)
class RunSpec:
    mesh: CubedSphereMesh
    machine: MachineConfig
    nodes: int
    ranks_per_node: int
    threads_per_rank: int
    timesteps: int = 96
    cost: Optional[CostModel] = None
    mode: Mode = Mode.EXCHANGE_HALOS
    halo_depth: int = 1
    bytes_per_cell: Optional[int] = None
    memory: MemoryModel = field(default_factory=MemoryModel)

    def __post_init__(self):
        if not 1 <= self.nodes <= self.machine.max_nodes:
            raise SimulationError(f"nodes must be in 1..max_nodes "
                                  f"{self.machine.max_nodes}, got {self.nodes}")
        if self.timesteps < 1:
            raise SimulationError(f"timesteps must be >= 1, got {self.timesteps}")
        validate_layout(self.machine, self.ranks_per_node, self.threads_per_rank)
        if self.ranks > self.mesh.total_horizontal_cells:
            raise SimulationError(
                f"{self.ranks} ranks exceed {self.mesh.total_horizontal_cells} cells")
        dc.check_halo_depth(self.mesh, self.halo_depth)
        if self.bytes_per_cell is not None and self.bytes_per_cell < 1:
            raise SimulationError(
                f"bytes_per_cell must be >= 1, got {self.bytes_per_cell}")

    @property
    def ranks(self) -> int:
        return self.nodes * self.ranks_per_node

    @property
    def cost_model(self) -> CostModel:
        return self.cost if self.cost is not None else default_cost_model(self.machine)


@dataclass(frozen=True)
class TimestepBreakdown:
    """Per-timestep seconds split into the four profiler categories.

    The headline fields are per-rank maxima (the synchronizing step runs
    at the speed of the slowest rank); means are carried alongside."""

    user_s: float
    mpi_p2p_s: float
    mpi_coll_s: float
    etc_s: float
    total_s: float
    user_mean_s: float
    mpi_p2p_mean_s: float


def simulate(run: RunSpec) -> TimestepBreakdown:
    """Deterministic per-timestep breakdown for one configuration.

    The memory guard reads the worst rank's cells off `halo_counts`,
    which sizes each distinct domain shape once, so a layout that does
    not fit is rejected before any per-rank table, message or timing is
    built."""
    cost = run.cost_model
    mesh = run.mesh
    ranks = run.ranks
    threads = run.threads_per_rank

    decomposition = dc.partition(mesh, ranks)
    halos = dc.halo_counts(mesh, decomposition, depth=run.halo_depth)

    # memory guard before any per-rank work, message or timing is built
    node_bytes = run.memory.node_bytes(run.ranks_per_node, halos.worst_cells,
                                       mesh.levels, ranks)
    if node_bytes > run.memory.node_memory_bytes:
        raise MemoryLimitError(
            f"estimated {node_bytes / 2**30:.1f} GiB per node exceeds "
            f"{run.memory.node_memory_bytes / 2**30:.1f} GiB "
            f"({run.ranks_per_node} ranks/node, {ranks} total ranks)")

    # redundant compute computes the halo cells instead of receiving them:
    # no messages, and the halo joins each rank's work
    redundant = run.mode is Mode.REDUNDANT_COMPUTE
    messages = ()
    if not redundant:
        bytes_per_cell = run.bytes_per_cell
        if bytes_per_cell is None:
            bytes_per_cell = dc.default_bytes_per_cell(mesh)
        messages = dc.exchange_pattern(halos, bytes_per_cell).messages

    eff = cost.efficiency(threads)
    work = [decomposition.owned_count(r)
            + (halos.halo_count(r) if redundant else 0)
            for r in range(ranks)]
    user_times = [w * mesh.levels * cost.c_cell / (threads * eff) for w in work]
    user_s = max(user_times)
    user_mean_s = sum(user_times) / ranks

    per_rank_msg_cost = [0.0] * ranks
    for m in messages:
        c = cost.p2p_alpha + m.bytes / cost.p2p_beta
        per_rank_msg_cost[m.src] += c
        per_rank_msg_cost[m.dst] += c
    p2p_times = [c * cost.halo_exchanges_per_step for c in per_rank_msg_cost]
    mpi_p2p_s = max(p2p_times)
    mpi_p2p_mean_s = sum(p2p_times) / ranks

    stages = math.ceil(math.log2(ranks)) if ranks > 1 else 0
    mpi_coll_s = cost.allreduces_per_step * stages * \
        (cost.coll_alpha + cost.reduce_bytes / cost.coll_beta)

    etc_s = cost.parallel_regions_per_step * cost.barrier_cost * threads \
        + cost.etc_fixed

    total_s = user_s + mpi_p2p_s + mpi_coll_s + etc_s
    return TimestepBreakdown(user_s=user_s, mpi_p2p_s=mpi_p2p_s,
                             mpi_coll_s=mpi_coll_s, etc_s=etc_s,
                             total_s=total_s, user_mean_s=user_mean_s,
                             mpi_p2p_mean_s=mpi_p2p_mean_s)


def breakdown_row(run: RunSpec, result: TimestepBreakdown) -> Dict[str, object]:
    return {
        "panel_size": run.mesh.panel_size,
        "nodes": run.nodes,
        "ranks": run.ranks,
        "threads": run.threads_per_rank,
        "user_s": result.user_s,
        "p2p_s": result.mpi_p2p_s,
        "coll_s": result.mpi_coll_s,
        "etc_s": result.etc_s,
        "total_s": result.total_s,
    }


def strong_scaling_study(mesh: CubedSphereMesh, machine: MachineConfig,
                         node_counts: Sequence[int], ranks_per_node: int,
                         threads_per_rank: int,
                         **run_kwargs) -> List[Dict[str, object]]:
    """Time per timestep against node count, with an ideal-scaling
    reference column anchored at the first entry.  Configurations that
    trip the memory guard are skipped with a warning."""
    rows: List[Dict[str, object]] = []
    anchor = None
    for nodes in node_counts:
        run = RunSpec(mesh=mesh, machine=machine, nodes=nodes,
                      ranks_per_node=ranks_per_node,
                      threads_per_rank=threads_per_rank, **run_kwargs)
        try:
            result = simulate(run)
        except MemoryLimitError as exc:
            warnings.warn(f"skipping {nodes} nodes: {exc}")
            continue
        row = breakdown_row(run, result)
        if anchor is None:
            anchor = (nodes, result.total_s)
        row["ideal_s"] = anchor[1] * anchor[0] / nodes
        rows.append(row)
    return rows


def thread_sweep(mesh: CubedSphereMesh, machine: MachineConfig, nodes: int,
                 thread_list: Sequence[int],
                 **run_kwargs) -> List[Dict[str, object]]:
    """Breakdown per thread count at fixed nodes; the lowest-total row
    is flagged, smallest thread count winning exact ties."""
    rows: List[Dict[str, object]] = []
    for t in thread_list:
        run = RunSpec(mesh=mesh, machine=machine, nodes=nodes,
                      ranks_per_node=machine.cores_per_node // t,
                      threads_per_rank=t, **run_kwargs)
        rows.append(breakdown_row(run, simulate(run)))
    best_total = min(row["total_s"] for row in rows)
    flagged = False
    for row in sorted(rows, key=lambda r: r["threads"]):
        row["best"] = (not flagged) and row["total_s"] == best_total
        flagged = flagged or row["best"]
    return rows
