"""Scenario configuration files.

A scenario is one JSON document of optional sections: machine, cost_model,
memory, mesh, layout, grid, schedule, io_scenario and sweep.  One reader
serves them all: a section's keys are the fields of the dataclass it
builds (the layout's are RunSpec's own), a field without a default is
required, and each value is checked against the field's annotation.
Defaults live only in the dataclasses and rules only in constructors;
this module adds the location, so every error is a ConfigError reading
`<file>.<section>[.key|[k]]: ...`.  A machine section is a builtin
name or MachineConfig's fields.  The layout is checked against the
machine and mesh.  `vary` turns a sweep value into the run or I/O
scenario it stands for; the loader builds each one to check it.  The
`sweep` command simulates what it returns, except for one line in
`cli.cmd_sweep`: on the `threads` and `nodes` axes it drops the layout's
mode, halo depth and bytes per cell, kept because the recorded benchmark
outputs encode it.  `nodes` and `buffer_bytes` lists must not decrease.
"""

from __future__ import annotations

import json
import sys
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import (Any, Dict, List, Optional, Tuple, Union, get_args,
                    get_origin, get_type_hints)

from .dyncore import RunSpec
from .errors import ConfigError, located
from .iosim import IoScenario
from .machine import (CostModel, MachineConfig, MemoryModel, builtin_machine,
                      default_cost_model)
from .mesh import CubedSphereMesh, build_mesh
from .workload import DiagnosticSchedule


@dataclass
class GridPoint:
    panel_size: int
    nodes: int
    levels: Optional[int] = None        # None: the mesh section's levels


@dataclass
class GridSpec:
    points: Tuple[GridPoint, ...]
    threads: Tuple[int, ...] = ()       # empty: the layout's threads_per_rank


@dataclass(init=False, repr=False, eq=False)
class _Mesh:
    """Schema only: the arguments of build_mesh."""
    panel_size: int
    levels: int


@dataclass(init=False, repr=False, eq=False)
class _Sweep:
    """Schema only: one value list per axis."""
    threads: Optional[List[int]] = None
    nodes: Optional[List[int]] = None
    buffer_bytes: Optional[List[int]] = None
    servers: Optional[List[int]] = None
    pools: Optional[List[int]] = None


SWEEP_AXES = tuple(f.name for f in fields(_Sweep))
# axes whose tables read as a progression: a strong-scaling anchor, a
# buffer-size sensitivity curve
_ASCENDING = frozenset({"nodes", "buffer_bytes"})
_SECTIONS = ("machine", "cost_model", "memory", "mesh", "layout", "grid",
             "schedule", "io_scenario", "sweep")
# RunSpec fields that other sections supply; the rest are the layout's
_SUPPLIED = frozenset({"mesh", "machine", "cost", "memory"})
_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          list: "a list", dict: "an object"}
_LIMITS = {int: 2 ** 53, float: sys.float_info.max}


def _expect(kind: type, value: Any, where: str):
    """`value` as `kind`.  A number is finite, and an int is integral (8.0
    reads as 8) and at most 2**53 in magnitude, which a double holds
    exactly (the interoperable range of RFC 8259, section 6)."""
    if kind in _LIMITS:
        if type(value) in (int, float) and abs(value) <= _LIMITS[kind] \
                and (kind is float or value == int(value)):
            return kind(value)
    elif type(value) is kind:
        return value
    raise ConfigError(f"{where}: expected {_KINDS[kind]}, got {value!r}")


@lru_cache(maxsize=None)
def _reader(tp):
    """The checking converter of one annotation, built once per type."""
    origin, args = get_origin(tp), get_args(tp)
    if tp in _KINDS:
        return lambda value, where: _expect(tp, value, where)
    if origin is Union:                                 # Optional[X]
        inner = _reader(args[0])
        return lambda value, where: \
            None if value is None else inner(value, where)
    if origin in (list, tuple):                         # List[X], Tuple[X, ...]
        item = _reader(args[0])
        return lambda value, where: origin(
            item(v, f"{where}[{k}]")
            for k, v in enumerate(_expect(list, value, where)))
    if origin is abc.Mapping:                           # Mapping[int, X]
        entry = _reader(args[1])
        return lambda value, where: {
            _int_key(k, where): entry(v, f"{where}[{k}]")
            for k, v in _expect(dict, value, where).items()}
    if isinstance(tp, type) and issubclass(tp, Enum):
        def read_enum(value, where):
            for member in tp:
                if member.value == value:
                    return member
            raise ConfigError(f"{where}: expected one of "
                              f"{[m.value for m in tp]}, got {value!r}")
        return read_enum
    if is_dataclass(tp):
        return lambda value, where: _build(tp, value, where)
    raise TypeError(f"no configuration reader for {tp!r}")


def _int_key(key: Any, where: str) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}[{key}]: expected an integer key") from None


@lru_cache(maxsize=None)
def _schema(cls, skip: frozenset = frozenset()):
    """Readers of the fields of `cls` not in `skip`, and the required ones."""
    hints = get_type_hints(cls)
    own = [f for f in fields(cls) if f.name not in skip]
    return ({f.name: _reader(hints[f.name]) for f in own},
            [f.name for f in own
             if f.default is MISSING and f.default_factory is MISSING])


def _read(cls, section: Any, where: str,
          skip: frozenset = frozenset()) -> Dict[str, Any]:
    """The keys `section` gives, checked against the fields of `cls`."""
    readers, required = _schema(cls, skip)
    for key in _expect(dict, section, where):
        if key not in readers:
            raise ConfigError(f"{where}.{key}: unknown key")
    for key in required:
        if key not in section:
            raise ConfigError(f"{where}.{key}: missing required key")
    return {key: readers[key](value, f"{where}.{key}")
            for key, value in section.items()}


def _build(cls, section: Any, where: str, **supplied):
    kwargs = _read(cls, section, where, frozenset(supplied))
    with located(where):
        return cls(**kwargs, **supplied)


@dataclass
class Scenario:
    """Parsed and validated configuration bundle."""

    source: str = "config"
    machine: Optional[MachineConfig] = None
    cost_overrides: Dict[str, Any] = field(default_factory=dict)
    memory: Optional[MemoryModel] = None
    mesh: Optional[CubedSphereMesh] = None
    layout: Optional[Dict[str, Any]] = None     # RunSpec keyword arguments
    grid: Optional[GridSpec] = None
    schedule: Optional[DiagnosticSchedule] = None
    io_scenario: Optional[IoScenario] = None
    sweep: Dict[str, List[int]] = field(default_factory=dict)

    def cost_model(self) -> CostModel:
        return replace(default_cost_model(self.machine), **self.cost_overrides)

    def run_spec(self, mesh: Optional[CubedSphereMesh] = None,
                 nodes: Optional[int] = None,
                 threads: Optional[int] = None) -> RunSpec:
        """The layout's run, or one on another mesh, node or thread count."""
        mesh = mesh if mesh is not None else self.mesh
        if self.machine is None or self.layout is None or mesh is None:
            raise ConfigError(f"{self.source}: machine, mesh and layout "
                              "sections are required for a timestep run")
        kwargs = dict(self.layout, mesh=mesh, machine=self.machine,
                      cost=self.cost_model())
        if nodes is not None:
            kwargs["nodes"] = nodes
        if threads is not None:
            kwargs["threads_per_rank"] = threads
            kwargs["ranks_per_node"] = (self.machine.cores_per_node // threads
                                        if threads > 0 else 0)
        if self.memory is not None:
            kwargs["memory"] = self.memory
        return RunSpec(**kwargs)


def vary(s: Scenario, axis: str, value: int) -> Union[RunSpec, IoScenario]:
    """What one sweep value stands for: the layout's run on `value` threads
    or nodes, or the I/O scenario with `value` as its buffer size, pool
    count or writing-server count (level 2 in a two-level layout).  Its
    constructor checks it."""
    if axis in ("threads", "nodes"):
        return s.run_spec(**{axis: value})
    io = s.io_scenario
    if io is None:
        raise ConfigError(f"{s.source}.sweep.{axis}: needs an io_scenario "
                          "section")
    if axis == "servers":
        axis = "servers_level2" if io.two_level else "servers_level1"
    return replace(io, **{axis: value})


def parse_scenario(doc: Dict[str, Any], source: str = "config") -> Scenario:
    for key in _expect(dict, doc, source):
        if key not in _SECTIONS:
            raise ConfigError(f"{source}.{key}: unknown key")
    at = {key: f"{source}.{key}" for key in doc}
    s = Scenario(source=source)
    if "machine" in doc:
        section = doc["machine"]
        if isinstance(section, dict) and list(section) == ["builtin"]:
            name = _expect(str, section["builtin"], f"{at['machine']}.builtin")
            with located(f"{at['machine']}.builtin"):
                s.machine = builtin_machine(name)
        else:
            s.machine = _build(MachineConfig, section, at["machine"])
    if "cost_model" in doc:
        s.cost_overrides = _read(CostModel, doc["cost_model"],
                                 at["cost_model"])
        with located(at["cost_model"]):
            s.cost_model()
    if "memory" in doc:
        s.memory = _build(MemoryModel, doc["memory"], at["memory"])
    if "mesh" in doc:
        mesh = _read(_Mesh, doc["mesh"], at["mesh"])
        with located(at["mesh"]):
            s.mesh = build_mesh(mesh["panel_size"], mesh["levels"])
    if "layout" in doc:
        s.layout = _read(RunSpec, doc["layout"], at["layout"], _SUPPLIED)
        if s.machine is not None and s.mesh is not None:
            with located(at["layout"]):
                s.run_spec()
    if "grid" in doc:
        s.grid = _build(GridSpec, doc["grid"], at["grid"])
        if not s.grid.points:
            raise ConfigError(f"{at['grid']}.points: expected a non-empty "
                              "list")
    if "schedule" in doc:
        s.schedule = _build(DiagnosticSchedule, doc["schedule"],
                            at["schedule"])
    if "io_scenario" in doc:
        if s.schedule is None:
            raise ConfigError(f"{at['io_scenario']}: requires a schedule "
                              "section")
        s.io_scenario = _build(IoScenario, doc["io_scenario"],
                               at["io_scenario"], schedule=s.schedule)
    if "sweep" in doc:
        s.sweep = _read(_Sweep, doc["sweep"], at["sweep"])
        for axis, values in s.sweep.items():
            if not values:
                raise ConfigError(f"{at['sweep']}.{axis}: expected a "
                                  "non-empty list")
            if axis in _ASCENDING and values != sorted(values):
                raise ConfigError(f"{at['sweep']}.{axis}: values must not "
                                  f"decrease, got {values}")
            for k, value in enumerate(values):
                with located(f"{at['sweep']}.{axis}[{k}]", keyed=False):
                    vary(s, axis, value)
    return s


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_scenario(doc, source=path.name)
