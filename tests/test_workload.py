"""Diagnostic schedule counts, volumes and emission ordering."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubedsim.config import load_scenario
from cubedsim.workload import (MAX_FIELD_WRITES, ScheduleError,
                               emission_events, emission_groups, make_schedule,
                               total_bytes, total_fields)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def c192_schedule():
    """The shipped 48-hour C192 diagnostic load."""
    return load_scenario(CONFIG_DIR / "io-c192-baseline.json").schedule


def enumerate_outputs(entries, run_hours):
    """Oracle: walk every whole period of every entry."""
    count = 0
    for field_count, period, _bytes in entries:
        k = 1
        while k * period <= run_hours + 1e-9:
            count += field_count
            k += 1
    return count


def test_c192_field_count():
    schedule = c192_schedule()
    assert total_fields(schedule) == 5329
    entries = [(e.field_count, e.period_hours, e.bytes_per_field)
               for e in schedule.entries]
    assert enumerate_outputs(entries, 48.0) == 5329


def test_c192_volume():
    schedule = c192_schedule()
    assert total_bytes(schedule) == 5329 * 78_704_252
    assert total_bytes(schedule) / 2**30 == pytest.approx(390.6, abs=0.1)


def test_single_entry_counts():
    # a 1-hourly group of 99 fields over 48 h emits 48 times
    schedule = make_schedule([(99, 1.0, 10)], 48.0)
    assert total_fields(schedule) == 99 * 48 == 4752
    assert total_bytes(schedule) == 4752 * 10


def test_first_output_is_one_period_in():
    schedule = make_schedule([(2, 12.0, 5)], 48.0)
    events = emission_events(schedule)
    assert [e.time_hours for e in events] == [12.0, 12.0, 24.0, 24.0,
                                              36.0, 36.0, 48.0, 48.0]
    assert all(e.time_hours > 0 for e in events)


def test_partial_trailing_period_is_dropped():
    schedule = make_schedule([(1, 18.0, 5)], 48.0)
    assert total_fields(schedule) == 2  # 18 h and 36 h only
    schedule = make_schedule([(1, 48.0, 5)], 48.0)
    assert total_fields(schedule) == 1  # exactly at the end of the run


def test_emission_events_are_ordered_and_indexed():
    schedule = c192_schedule()
    events = emission_events(schedule)
    assert len(events) == 5329
    assert [e.field_index for e in events] == list(range(5329))
    times = [e.time_hours for e in events]
    assert times == sorted(times)
    assert sum(e.bytes for e in events) == total_bytes(schedule)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        make_schedule([(0, 1.0, 10)], 48.0)
    with pytest.raises(ScheduleError):
        make_schedule([(1, 0.0, 10)], 48.0)
    with pytest.raises(ScheduleError):
        make_schedule([(1, 1.0, 0)], 48.0)
    with pytest.raises(ScheduleError):
        make_schedule([(1, 1.0, 10)], 0.0)


@given(st.lists(st.tuples(st.integers(1, 20),
                          st.sampled_from([1.0, 2.0, 3.0, 6.0, 12.0]),
                          st.integers(1, 10**6)),
                min_size=1, max_size=5),
       st.sampled_from([6.0, 24.0, 48.0]))
@settings(max_examples=100, deadline=None)
def test_events_agree_with_totals(entries, run_hours):
    schedule = make_schedule(entries, run_hours)
    events = emission_events(schedule)
    assert len(events) == total_fields(schedule)
    assert sum(e.bytes for e in events) == total_bytes(schedule)
    assert enumerate_outputs(entries, run_hours) == total_fields(schedule)


def test_schedule_size_is_bounded_at_load():
    # the count is a closed form, so nothing is built to check it
    make_schedule([(MAX_FIELD_WRITES // 24, 1.0, 10)], 24.0)
    with pytest.raises(ScheduleError, match="field writes"):
        make_schedule([(MAX_FIELD_WRITES // 24 + 1, 1.0, 10)], 24.0)
    with pytest.raises(ScheduleError, match="field writes"):
        make_schedule([(1, 5e-324, 10)], 24.0)    # no overflow on the way


@given(st.lists(st.tuples(st.integers(1, 6),
                          st.sampled_from([0.1, 0.3, 0.5, 0.75, 1.0, 1.5, 2.5,
                                           7.0]),
                          st.sampled_from([1, 10, 10**6])),
                min_size=1, max_size=5),
       st.sampled_from([1.0, 4.5, 6.0, 24.0]))
@settings(max_examples=200, deadline=None, derandomize=True)
# equal times across entries (1.5 * 2 == 1.0 * 3), of equal and of other
# sizes, and periods that do not divide the run
@example([(2, 1.0, 10), (3, 1.5, 10), (1, 1.5, 1), (4, 2.5, 10)], 6.0)
@example([(1, 0.1, 10), (2, 0.3, 10)], 1.0)
def test_groups_expand_to_the_events(entries, run_hours):
    """Each group stands for `count` writes of one time and size; expanded,
    the groups are the events' (time, bytes), in order, and no two
    neighbouring groups share both."""
    schedule = make_schedule(entries, run_hours)
    groups = emission_groups(schedule)
    assert [(t, b) for t, n, b in groups for _ in range(n)] == \
        [(e.time_hours, e.bytes) for e in emission_events(schedule)]
    assert all((g.time_hours, g.bytes) != (h.time_hours, h.bytes)
               for g, h in zip(groups, groups[1:]))
