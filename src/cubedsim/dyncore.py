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
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, Optional

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
            raise SimulationError(
                f"timesteps must be >= 1, got {self.timesteps}", "timesteps")
        validate_layout(self.machine, self.ranks_per_node, self.threads_per_rank)
        if self.ranks > self.mesh.total_horizontal_cells:
            raise SimulationError(
                f"{self.ranks} ranks exceed {self.mesh.total_horizontal_cells} cells")
        dc.check_halo_depth(self.mesh, self.halo_depth)
        if self.bytes_per_cell is not None and self.bytes_per_cell < 1:
            raise SimulationError(
                f"bytes_per_cell must be >= 1, got {self.bytes_per_cell}",
                "bytes_per_cell")

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
    at the speed of the slowest rank)."""

    user_s: float
    mpi_p2p_s: float
    mpi_coll_s: float
    etc_s: float
    total_s: float


def simulate(run: RunSpec) -> TimestepBreakdown:
    """Deterministic per-timestep breakdown for one configuration.

    The memory guard reads the worst rank's cells off `halo_counts`,
    which sizes each distinct domain shape once, so a layout that does
    not fit is rejected before any per-rank table, message or timing is
    built.  A breakdown term that overflows a float, from finite but
    extreme cost coefficients, raises SimulationError naming it."""
    cost, mesh, ranks = run.cost_model, run.mesh, run.ranks
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
    # no messages, and the worst rank's halo joins its work.  Rounding is
    # monotone and every factor >= 0, so the slowest rank's time is that
    # of the most cells, and the largest p2p time that of the largest cost
    if run.mode is Mode.REDUNDANT_COMPUTE:
        user_cells, mpi_p2p_s = halos.worst_cells, 0.0
    else:
        user_cells = decomposition.max_owned
        bytes_per_cell = run.bytes_per_cell or dc.default_bytes_per_cell(mesh)
        pattern = dc.exchange_pattern(halos, bytes_per_cell)
        # each message costs alpha + bytes / beta to both ends, added in
        # message-key order, the (src, dst) order of `messages`
        per_rank_msg_cost = [0.0] * ranks
        alpha, beta = cost.p2p_alpha, cost.p2p_beta
        for key, cells in zip(pattern.keys, pattern.cells):
            c = alpha + cells * bytes_per_cell / beta
            per_rank_msg_cost[key // ranks] += c
            per_rank_msg_cost[key % ranks] += c
        mpi_p2p_s = max(per_rank_msg_cost) * cost.halo_exchanges_per_step
    eff = cost.efficiency(threads)
    user_s = user_cells * mesh.levels * cost.c_cell / (threads * eff)

    stages = math.ceil(math.log2(ranks)) if ranks > 1 else 0
    mpi_coll_s = cost.allreduces_per_step * stages * \
        (cost.coll_alpha + cost.reduce_bytes / cost.coll_beta)

    etc_s = cost.parallel_regions_per_step * cost.barrier_cost * threads \
        + cost.etc_fixed

    total_s = user_s + mpi_p2p_s + mpi_coll_s + etc_s
    result = TimestepBreakdown(user_s=user_s, mpi_p2p_s=mpi_p2p_s,
                               mpi_coll_s=mpi_coll_s, etc_s=etc_s,
                               total_s=total_s)
    for term in fields(result):
        value = getattr(result, term.name)
        if not math.isfinite(value):
            raise SimulationError(
                f"{term.name} is {value}: the cost model's terms overflow")
    return result


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
