"""Desk-scale performance model of a cubed-sphere dynamical core and its
parallel diagnostic output servers."""

from .errors import ConfigError, CubedsimError
from .mesh import CubedSphereMesh, MeshError, build_mesh
from .decomp import (Decomposition, HaloDepthError, compute_halos,
                     exchange_pattern, local_area, partition)
from .machine import (CostModel, LayoutError, MachineConfig, MemoryModel,
                      builtin_machine, builtin_machines, default_cost_model,
                      validate_layout)
from .workload import (DiagnosticSchedule, ScheduleEntry, emission_events,
                       make_schedule, total_bytes, total_fields)
from .dyncore import (MemoryLimitError, Mode, RunSpec, SimulationError,
                      TimestepBreakdown, simulate)
from .iosim import (IoMetrics, IoScenario, IoConfigError, ServerMemoryError,
                    UnwritableFieldError, simulate_io, striping_compare)
from .config import Scenario, load_scenario, parse_scenario

__version__ = "1.0.0"

__all__ = [
    "ConfigError", "CubedsimError",
    "CubedSphereMesh", "MeshError", "build_mesh",
    "Decomposition", "HaloDepthError", "compute_halos",
    "exchange_pattern", "local_area", "partition",
    "CostModel", "LayoutError", "MachineConfig", "MemoryModel",
    "builtin_machine", "builtin_machines", "default_cost_model",
    "validate_layout",
    "DiagnosticSchedule", "ScheduleEntry", "emission_events",
    "make_schedule", "total_bytes", "total_fields",
    "MemoryLimitError", "Mode", "RunSpec", "SimulationError",
    "TimestepBreakdown", "simulate",
    "IoMetrics", "IoScenario", "IoConfigError", "ServerMemoryError",
    "UnwritableFieldError", "simulate_io", "striping_compare",
    "Scenario", "load_scenario", "parse_scenario",
]
