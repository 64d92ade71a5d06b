"""Target machine descriptions and calibrated cost coefficients.

A machine is what the cost model reads of a system: the cores of a fully
populated node, the clock that user compute scales with, and the node
limit.  Each preset notes the rest of its hardware in a comment.

All CostModel coefficients are calibration values, chosen so that the
simulated per-timestep breakdown of a C512 run on 48 dual-EPYC nodes
lands at the right order of magnitude (about half a second of user
compute per timestep with four threads per rank).  They are not
measurements and every one of them can be overridden per run from the
scenario configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from .errors import CubedsimError

GIB = 1024 ** 3


class LayoutError(CubedsimError, ValueError):
    """ranks-per-node x threads-per-rank does not fill the node."""


class MachineConfigError(CubedsimError, ValueError):
    """Inconsistent machine description."""


@dataclass(frozen=True)
class MachineConfig:
    name: str
    cores_per_node: int
    clock_ghz: float
    max_nodes: int

    def __post_init__(self):
        for attr in ("cores_per_node", "clock_ghz", "max_nodes"):
            if getattr(self, attr) <= 0:
                raise MachineConfigError(
                    f"{self.name}: {attr} must be positive", attr)


def builtin_machines() -> List[MachineConfig]:
    """The three supported system presets."""
    return [
        # 2 CPUs x 64 cores, 4 NUMA domains and 256 MB L3 per CPU, Slingshot 10
        MachineConfig(name="ARCHER2", cores_per_node=128, clock_ghz=2.0,
                      max_nodes=5600),
        # 2 CPUs x 64 cores, 4 NUMA domains and 256 MB L3 per CPU, Slingshot 11
        MachineConfig(name="Setonix", cores_per_node=128, clock_ghz=2.45,
                      max_nodes=1600),
        # 2 CPUs x 18 cores, 1 NUMA domain and 45 MB L3 per CPU, Aries
        MachineConfig(name="XC40", cores_per_node=36, clock_ghz=2.1,
                      max_nodes=2000),
    ]


def builtin_machine(name: str) -> MachineConfig:
    for m in builtin_machines():
        if m.name.lower() == name.lower():
            return m
    known = ", ".join(m.name for m in builtin_machines())
    raise MachineConfigError(f"unknown machine {name!r} (known: {known})")


def validate_layout(machine: MachineConfig, ranks_per_node: int,
                    threads_per_rank: int) -> None:
    """Nodes are always fully populated: ranks x threads must equal the
    core count.  Raises LayoutError otherwise."""
    if ranks_per_node < 1 or threads_per_rank < 1:
        raise LayoutError("ranks_per_node and threads_per_rank must be >= 1")
    product = ranks_per_node * threads_per_rank
    if product != machine.cores_per_node:
        raise LayoutError(
            f"ranks_per_node ({ranks_per_node}) x threads_per_rank "
            f"({threads_per_rank}) = {product} != cores_per_node "
            f"({machine.cores_per_node}) on {machine.name}")


DEFAULT_THREAD_EFFICIENCY: Dict[int, float] = {
    1: 1.0, 2: 1.0, 4: 0.98, 8: 0.93, 16: 0.85,
    32: 0.76, 64: 0.66, 128: 0.55,
}


@dataclass(frozen=True)
class CostModel:
    """Per-timestep time-cost coefficients consumed by the simulator."""

    c_cell: float = 1.6e-5          # s per cell-level of user compute
    p2p_alpha: float = 2.0e-5       # s per point-to-point message
    p2p_beta: float = 1.0e9         # point-to-point bandwidth, bytes/s
    coll_alpha: float = 5.0e-5      # s per allreduce stage
    coll_beta: float = 5.0e8        # allreduce bandwidth per stage, bytes/s
    barrier_cost: float = 2.0e-6    # s per thread per parallel region
    etc_fixed: float = 4.0e-3       # s per timestep per rank, runtime overhead
    parallel_regions_per_step: int = 200
    allreduces_per_step: int = 4
    halo_exchanges_per_step: int = 10
    reduce_bytes: int = 8           # allreduce payload, one scalar
    thread_efficiency: Mapping[int, float] = field(
        default_factory=lambda: dict(DEFAULT_THREAD_EFFICIENCY))

    def __post_init__(self):
        for attr in ("c_cell", "p2p_alpha", "coll_alpha", "barrier_cost",
                     "etc_fixed"):
            if getattr(self, attr) < 0:
                raise MachineConfigError(
                    f"cost coefficient {attr} must be >= 0", attr)
        for attr in ("p2p_beta", "coll_beta"):      # bandwidths divide
            if not getattr(self, attr) > 0:
                raise MachineConfigError(
                    f"cost coefficient {attr} must be > 0, got "
                    f"{getattr(self, attr)}", attr)
        for attr in ("parallel_regions_per_step", "allreduces_per_step",
                     "halo_exchanges_per_step", "reduce_bytes"):
            if getattr(self, attr) < 0:
                raise MachineConfigError(f"{attr} must be >= 0", attr)
        eff = self.thread_efficiency
        if eff.get(1) != 1.0:
            raise MachineConfigError("thread_efficiency[1] must be 1.0",
                                     "thread_efficiency")
        for t, e in eff.items():
            if not (0.0 < e <= 1.0):
                raise MachineConfigError(
                    f"thread_efficiency[{t}] must be in (0, 1], got {e}",
                    "thread_efficiency")

    def efficiency(self, threads: int) -> float:
        """Parallel efficiency at the given thread count.  Unlisted
        counts are interpolated linearly in log2(threads)."""
        eff = self.thread_efficiency
        if threads in eff:
            return eff[threads]
        keys = sorted(eff)
        if threads < keys[0]:
            return eff[keys[0]]
        if threads > keys[-1]:
            return eff[keys[-1]]
        for lo, hi in zip(keys, keys[1:]):
            if lo < threads < hi:
                frac = (math.log2(threads) - math.log2(lo)) / \
                    (math.log2(hi) - math.log2(lo))
                return eff[lo] + frac * (eff[hi] - eff[lo])
        raise MachineConfigError(f"cannot interpolate efficiency at {threads}")


def default_cost_model(machine: Optional[MachineConfig] = None) -> CostModel:
    """Shipped calibration; user compute scales inversely with clock."""
    if machine is None:
        return CostModel()
    return CostModel(c_cell=CostModel.c_cell * 2.0 / machine.clock_ghz)


@dataclass(frozen=True)
class MemoryModel:
    """Per-node memory guard.  Rank-table bytes grow linearly with the
    total rank count, which is what makes fully-populated single-thread
    layouts run out of memory first."""

    node_memory_bytes: int = 256 * GIB
    words_per_cell_level: int = 16
    rank_table_bytes_per_rank: int = 100_000
    fixed_rank_bytes: int = 100 * 1024 * 1024

    def __post_init__(self):
        if self.node_memory_bytes < 1:
            raise MachineConfigError(f"node_memory_bytes must be >= 1, "
                                     f"got {self.node_memory_bytes}",
                                     "node_memory_bytes")
        for attr in ("words_per_cell_level", "rank_table_bytes_per_rank",
                     "fixed_rank_bytes"):
            if getattr(self, attr) < 0:
                raise MachineConfigError(
                    f"{attr} must be >= 0, got {getattr(self, attr)}", attr)

    def node_bytes(self, ranks_per_node: int, cells_per_rank: int,
                   levels: int, total_ranks: int) -> int:
        per_rank = (cells_per_rank * levels * self.words_per_cell_level * 8
                    + self.rank_table_bytes_per_rank * total_ranks
                    + self.fixed_rank_bytes)
        return ranks_per_node * per_rank
