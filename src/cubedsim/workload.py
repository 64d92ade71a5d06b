"""Diagnostic output schedules: field counts, data volumes, emission events.

A schedule is a list of (field_count, period_hours, bytes_per_field)
entries over a run of run_hours model hours.  The first output of an
entry happens one full period into the run, never at time zero, so an
18-hour field is written twice in a 48-hour run.  A schedule holds at
most MAX_FIELD_WRITES field writes, which bounds the I/O simulation's
memory and time: its input is one group per output (`emission_groups`),
but stage one still holds each write's hour and size and steps through
each client's writes.  Measured with tracemalloc at 1,000,000 writes, it
holds 16 bytes per write, or 32 when the client buffer is large enough
for its batch and chain shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import List, NamedTuple, Tuple

from .errors import CubedsimError

_EPS = 1e-9
MAX_FIELD_WRITES = 1_000_000


class ScheduleError(CubedsimError, ValueError):
    """Invalid schedule parameters."""


@dataclass(frozen=True)
class ScheduleEntry:
    field_count: int
    period_hours: float
    bytes_per_field: int

    def __post_init__(self):
        if self.field_count < 1:
            raise ScheduleError(f"field_count must be >= 1, got {self.field_count}")
        if self.period_hours <= 0:
            raise ScheduleError(f"period_hours must be > 0, got {self.period_hours}")
        if self.bytes_per_field < 1:
            raise ScheduleError(
                f"bytes_per_field must be >= 1, got {self.bytes_per_field}")


@dataclass(frozen=True)
class DiagnosticSchedule:
    entries: Tuple[ScheduleEntry, ...]
    run_hours: float

    def __post_init__(self):
        if self.run_hours <= 0:
            raise ScheduleError(f"run_hours must be > 0, got {self.run_hours}")
        # checked per entry first, so that a tiny period cannot overflow
        if any((self.run_hours + _EPS) / e.period_hours > MAX_FIELD_WRITES
               for e in self.entries) \
                or total_fields(self) > MAX_FIELD_WRITES:
            raise ScheduleError(
                f"more than {MAX_FIELD_WRITES} field writes over the run")


class EmissionEvent(NamedTuple):
    time_hours: float
    field_index: int
    bytes: int


class EmissionGroup(NamedTuple):
    time_hours: float
    count: int
    bytes: int


def _outputs_per_entry(entry: ScheduleEntry, run_hours: float) -> int:
    return int((run_hours + _EPS) / entry.period_hours)


def total_fields(schedule: DiagnosticSchedule) -> int:
    """Number of field writes over the whole run."""
    return sum(e.field_count * _outputs_per_entry(e, schedule.run_hours)
               for e in schedule.entries)


def total_bytes(schedule: DiagnosticSchedule) -> int:
    """Total diagnostic data volume over the whole run."""
    return sum(e.field_count * _outputs_per_entry(e, schedule.run_hours)
               * e.bytes_per_field for e in schedule.entries)


def emission_events(schedule: DiagnosticSchedule) -> List[EmissionEvent]:
    """Time-ordered field emissions driving the I/O event queue.

    Sorted by time, then entry order, then field index within the entry;
    field_index is the global position in that ordering.
    """
    raw = []
    for entry_idx, entry in enumerate(schedule.entries):
        for k in range(1, _outputs_per_entry(entry, schedule.run_hours) + 1):
            t = k * entry.period_hours
            for f in range(entry.field_count):
                raw.append((t, entry_idx, f, entry.bytes_per_field))
    raw.sort()
    return [EmissionEvent(t, idx, b)
            for idx, (t, _entry, _f, b) in enumerate(raw)]


def emission_groups(schedule: DiagnosticSchedule) -> List[EmissionGroup]:
    """The emissions of `emission_events` as maximal runs of one time and
    one size, in the same order, built per output of each entry rather
    than per field write."""
    outputs = sorted(
        (k * entry.period_hours, entry_idx, entry.field_count,
         entry.bytes_per_field)
        for entry_idx, entry in enumerate(schedule.entries)
        for k in range(1, _outputs_per_entry(entry, schedule.run_hours) + 1))
    return [EmissionGroup(t, sum(map(itemgetter(2), run)), b)
            for (t, b), run in groupby(outputs, key=itemgetter(0, 3))]


def make_schedule(entries: List[Tuple[int, float, int]],
                  run_hours: float) -> DiagnosticSchedule:
    return DiagnosticSchedule(
        entries=tuple(ScheduleEntry(*e) for e in entries),
        run_hours=run_hours)
