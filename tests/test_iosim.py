"""I/O server simulation tests.

The small fixed cases are worked out by hand from the queueing rules:
clients emit equal shares of each field, block when their buffer is
full, and servers drain in FIFO order.
"""

import contextlib
import heapq
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import add
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import io_oracle
from cubedsim import iosim, workload
from cubedsim.cli import main
from cubedsim.config import load_scenario
from cubedsim.iosim import (IoConfigError, IoScenario, ServerMemoryError,
                            UnwritableFieldError, metrics_row, simulate_io,
                            striping_compare)
from cubedsim.workload import make_schedule

MIB = 1024 * 1024


def tiny(**overrides):
    base = dict(clients=1, servers_level1=1, servers_level2=0, pools=1,
                buffer_bytes=10**9, base_write_rate=50.0, striping_factor=1.0,
                files=1, schedule=make_schedule([(1, 1.0, 100)], 1.0),
                compute_rate=10.0, pool_penalty=0.0)
    base.update(overrides)
    return IoScenario(**base)


def test_single_field_hand_case():
    # emission at 1 h = 10 s of compute; 100 bytes at 50 B/s takes 2 s
    metrics = simulate_io(tiny())
    assert metrics.wall_clock_s == pytest.approx(12.0)
    assert metrics.client_wait_s == 0.0
    assert metrics.client_wait_pct == 0.0
    assert metrics.bytes_written == 100
    assert metrics.server_write_rate == pytest.approx((100 / 2.0) / MIB)


def test_blocking_hand_case():
    # two 100-byte fields, 100-byte buffer: the second push waits until
    # the first write finishes at t = 12, then writes until t = 14
    metrics = simulate_io(tiny(
        schedule=make_schedule([(2, 1.0, 100)], 1.0), buffer_bytes=100))
    assert metrics.wall_clock_s == pytest.approx(14.0)
    assert metrics.client_wait_s == pytest.approx(2.0)
    assert metrics.client_wait_pct == pytest.approx(100.0 * 2.0 / 12.0)
    assert metrics.bytes_written == 200


def test_full_hiding_with_large_buffer():
    # with a large buffer the writes complete before the next compute
    # hour; wall clock equals the compute time plus the last drain
    metrics = simulate_io(tiny(schedule=make_schedule([(2, 1.0, 100)], 1.0)))
    assert metrics.client_wait_s == 0.0
    assert metrics.wall_clock_s == pytest.approx(14.0)  # last write lands late
    hidden = simulate_io(tiny(
        schedule=make_schedule([(2, 0.5, 100)], 1.0), compute_rate=100.0))
    # emissions at 0.5 h = 50 s and 1 h = 100 s; 4 s of writing hides
    # entirely inside the 100 s of compute except the final 4 s tail
    assert hidden.wall_clock_s == pytest.approx(104.0)


def test_two_level_hand_case():
    # gather at 4x base rate (0.5 s), then one writer at base rate (2 s)
    metrics = simulate_io(tiny(servers_level1=1, servers_level2=1))
    assert metrics.wall_clock_s == pytest.approx(12.5)
    assert metrics.bytes_written == 100
    assert metrics.server_write_rate == pytest.approx((100 / 2.0) / MIB)


def test_empty_emission_window():
    # period longer than the run: nothing is ever written
    metrics = simulate_io(tiny(schedule=make_schedule([(1, 2.0, 100)], 1.0)))
    assert metrics.bytes_written == 0
    assert metrics.wall_clock_s == pytest.approx(10.0)
    assert metrics.server_write_rate == 0.0


def test_unwritable_field():
    with pytest.raises(UnwritableFieldError):
        simulate_io(tiny(buffer_bytes=99))
    # exactly fitting is fine
    simulate_io(tiny(buffer_bytes=100))


def test_server_memory_guard():
    with pytest.raises(ServerMemoryError):
        simulate_io(tiny(servers_level1=1, servers_level2=1,
                         server_memory_bytes=10))
    simulate_io(tiny(servers_level1=1, servers_level2=1,
                     server_memory_bytes=1000))


def test_scenario_validation():
    with pytest.raises(IoConfigError):
        tiny(clients=0)
    with pytest.raises(IoConfigError):
        tiny(servers_level1=0)
    # level 1 takes the clients in every layout; level 2 is optional
    with pytest.raises(IoConfigError, match="servers_level1 must be >= 1"):
        tiny(servers_level1=0, servers_level2=2)
    assert not tiny(servers_level1=2, servers_level2=0).two_level
    assert tiny(servers_level1=2, servers_level2=2).two_level
    with pytest.raises(IoConfigError):
        tiny(servers_level1=4, servers_level2=4, pools=3)
    with pytest.raises(IoConfigError):
        tiny(pools=2, files=1)
    with pytest.raises(IoConfigError):
        tiny(striping_factor=0.5)
    with pytest.raises(IoConfigError):
        tiny(buffer_bytes=0)


def test_writer_rate_model():
    scenario = tiny(servers_level1=4, files=2, pool_penalty=0.0)
    # four writers share two files: each runs at half the base rate
    assert scenario.writer_rate(0) == pytest.approx(50.0 * 2 / 4)
    assert scenario.aggregate_write_rate == pytest.approx(100.0)
    striped = tiny(striping_factor=3.0)
    assert striped.writer_rate(0) == pytest.approx(150.0)
    capped = tiny(striping_factor=100.0, stripe_cap=8.0)
    assert capped.writer_rate(0) == pytest.approx(400.0)
    penalized = replace(tiny(), servers_level1=2, pool_penalty=0.25, files=2)
    assert penalized.writer_rate(0) == pytest.approx(50.0 / 1.25)


def test_clients_share_fields_equally():
    # doubling the client count halves each share but conserves bytes
    one = simulate_io(tiny())
    two = simulate_io(tiny(clients=2))
    assert one.bytes_written == two.bytes_written == 100


def sweep(scenario, **axis):
    """One row per value of the single keyword's list, as `sweep` writes."""
    [(name, values)] = axis.items()
    return [{name: v, **metrics_row(simulate_io(replace(scenario,
                                                        **{name: v})))}
            for v in values]


def test_buffer_sweep_monotone_wait():
    scenario = tiny(schedule=make_schedule([(8, 1.0, 100)], 4.0),
                    buffer_bytes=100)
    rows = sweep(scenario, buffer_bytes=[100, 200, 400, 800, 1600, 3200])
    waits = [row["wait_pct"] for row in rows]
    assert waits == sorted(waits, reverse=True)
    assert waits[0] > 0
    assert waits[-1] == 0.0
    assert len({row["bytes_written"] for row in rows}) == 1


def test_server_sweep_improves_then_saturates():
    scenario = tiny(clients=8, schedule=make_schedule([(8, 1.0, 100)], 4.0),
                    buffer_bytes=100, files=16)
    rows = sweep(scenario, servers_level1=[1, 2, 4, 8])
    walls = [row["wall_clock_s"] for row in rows]
    assert walls == sorted(walls, reverse=True)
    waits = [row["wait_pct"] for row in rows]
    assert waits == sorted(waits, reverse=True)


def test_pool_sweep_requires_divisibility():
    scenario = tiny(servers_level1=2, servers_level2=4, pools=1, files=8)
    rows = sweep(scenario, pools=[1, 2, 4])
    assert [row["pools"] for row in rows] == [1, 2, 4]
    assert len({row["bytes_written"] for row in rows}) == 1
    with pytest.raises(IoConfigError):
        replace(scenario, pools=3)


def test_striping_compare_at_factor_one_is_identity():
    off, on, summary = striping_compare(tiny(striping_factor=1.0))
    assert off == on
    assert summary["write_rate_ratio"] == 1.0
    assert summary["wall_ratio"] == 1.0


def test_striping_raises_rate_and_lowers_wall():
    scenario = tiny(schedule=make_schedule([(8, 1.0, 100)], 4.0),
                    buffer_bytes=100, striping_factor=2.0)
    off, on, summary = striping_compare(scenario)
    assert summary["write_rate_ratio"] == pytest.approx(2.0)
    assert on.wall_clock_s <= off.wall_clock_s
    assert summary["wait_pct_on"] <= summary["wait_pct_off"]


def test_simulate_io_is_deterministic():
    scenario = tiny(clients=6, servers_level1=2,
                    schedule=make_schedule([(8, 1.0, 100)], 4.0),
                    buffer_bytes=120)
    assert simulate_io(scenario) == simulate_io(scenario)


# --- run-compressed stages against the per-chunk oracle --------------------

def _expanded(chunks):
    """The (model_hour, bytes) of every chunk of iosim's grouped chunks."""
    return [(t, b) for t, n, b in chunks.groups for _ in range(n)]


def _stage_inputs(scenario):
    """simulate_io's per-client chunks, grouped as iosim takes them and
    one by one as the oracle takes them, and its per-level-1-server
    keys."""
    share_of = 1.0 / scenario.clients
    groups = iosim._Chunks((t, n, b * share_of) for t, n, b in
                           workload.emission_groups(scenario.schedule))
    chunks = [(ev.time_hours, ev.bytes * share_of)
              for ev in workload.emission_events(scenario.schedule)]
    assert _expanded(groups) == chunks
    assert len(groups) == len(chunks)
    n = scenario.servers_level1
    keys = [(scenario.clients // n + (1 if s < scenario.clients % n else 0),
             scenario.gather_rate if scenario.two_level
             else scenario.writer_rate(s % scenario.pools))
            for s in range(n)]
    return groups, chunks, keys


def _oracle_staging_total(scenario, keys, classes):
    """simulate_io's summed peak staging, from the oracle's stage two."""
    total = 0.0
    pools = scenario.pools
    for p in range(pools):
        members = [key for key in keys[p::pools] if key[0]]
        total += io_oracle.stage_two(
            [classes[key].arrivals for key in members],
            scenario.servers_level2 // pools, scenario.writer_rate(p),
            True)[2]
    return total


@st.composite
def io_scenarios(draw):
    """Small scenarios whose float paths cover the stages' shortcuts:
    mixed sizes within an hour, uneven clients per server, whole-number
    times that tie, and compute rate 0."""
    entries = draw(st.lists(st.tuples(
        st.integers(1, 12), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
        st.sampled_from([7, 30, 64, 100, 101, 250, 333, 977])), min_size=1,
        max_size=4))
    run_hours = draw(st.sampled_from([1.0, 2.0, 3.0, 4.5, 6.0]))
    level1 = draw(st.integers(1, 4))
    pools = draw(st.integers(1, 3))
    writers = pools * draw(st.integers(0, 3))
    if writers == 0:
        pools = 1
    clients = draw(st.integers(1, 9))
    biggest = max(b for _c, _p, b in entries)
    return IoScenario(
        clients=clients, servers_level1=level1, servers_level2=writers,
        pools=pools, files=pools * draw(st.integers(1, 3)),
        buffer_bytes=draw(st.integers(-(-biggest // clients), 4 * biggest)),
        base_write_rate=draw(st.sampled_from([25.0, 50.0, 64.0, 97.3])),
        striping_factor=draw(st.sampled_from([1.0, 2.0])),
        compute_rate=draw(st.sampled_from([0.0, 1.0, 2.0, 10.0, 3.7])),
        gather_rate_factor=draw(st.sampled_from([1.0, 4.0])),
        pool_penalty=draw(st.sampled_from([0.0, 0.25])),
        schedule=make_schedule(entries, run_hours))


def _two_level(**overrides):
    base = dict(servers_level2=1, pools=1, files=1, striping_factor=1.0,
                gather_rate_factor=4.0, pool_penalty=0.0)
    return IoScenario(**{**base, **overrides})


def test_sweeps_that_keep_stage_one_simulate_it_once(monkeypatch, tmp_path):
    # pools, and the writing servers of a two-level layout, change only
    # stage two: a sweep simulates each of the two stage-one classes (3
    # and 2 clients per gathering server) once over all its points, and
    # the shared results give the metrics that unshared ones give
    calls = []
    stage_one = iosim._simulate_stage_one

    def counted(chunks, n_clients, *args, **kwargs):
        calls.append(n_clients)
        return stage_one(chunks, n_clients, *args, **kwargs)

    monkeypatch.setattr(iosim, "_simulate_stage_one", counted)
    config = tmp_path / "pools.json"
    config.write_text(json.dumps({
        "schedule": {"run_hours": 2.0, "entries": [
            {"field_count": 3, "period_hours": 0.5, "bytes_per_field": 100}]},
        "io_scenario": {"clients": 10, "servers_level1": 4,
                        "servers_level2": 8, "pools": 1, "files": 8,
                        "buffer_bytes": 250, "base_write_rate": 50.0,
                        "striping_factor": 1.0, "compute_rate": 10.0},
        "sweep": {"pools": [1, 2, 4], "servers": [4, 8, 16]}}))
    for axis in ("pools", "servers"):
        calls.clear()
        assert main(["sweep", "--config", str(config), "--axis", axis,
                     "--out", str(tmp_path / axis)]) == 0
        assert sorted(calls) == [2, 3]
    base = load_scenario(config).io_scenario
    points = [replace(base, pools=pools) for pools in (1, 2, 4)] + \
        [replace(base, servers_level2=servers) for servers in (4, 16)]
    shared = {}
    metrics = [simulate_io(point, shared) for point in points]
    assert [simulate_io(point) for point in points] == metrics


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario=io_scenarios(), piece=st.sampled_from([1, 2, 3, 7, 1 << 14]),
       window=st.sampled_from([1, 2, 3, 7, iosim._WINDOW]),
       runs_from=st.sampled_from([0, iosim._RUNS_FROM]))
# a chain whose drain-one/push-one cycle moves the fill by an ulp, with
# the buffer set between the two fills' last pushes
@example(scenario=_two_level(
    clients=6, servers_level1=3, buffer_bytes=893.1666656666666,
    base_write_rate=50.0, compute_rate=0.0,
    schedule=make_schedule([(5, 0.5, 7), (4, 2.0, 101), (6, 1.0, 977)], 2.0)),
    piece=2, window=1, runs_from=0)
# a resume at the same instant as the next client's event, which has the
# lower id and so goes first
@example(scenario=_two_level(
    clients=5, servers_level1=1, buffer_bytes=342, base_write_rate=50.0,
    compute_rate=2.0, schedule=make_schedule(
        [(5, 2.0, 64), (11, 0.5, 250), (3, 1.0, 977), (9, 1.0, 64)], 3.0)),
    piece=2, window=1, runs_from=0)
# a lone client whose queue holds a chunk of another size just after the
# ones a chain would drain
@example(scenario=_two_level(
    clients=6, servers_level1=1, buffer_bytes=61, base_write_rate=25.0,
    compute_rate=3.7, schedule=make_schedule(
        [(8, 1.0, 7), (4, 2.0, 100), (3, 0.5, 101), (9, 1.0, 101)], 4.5)),
    piece=2, window=1, runs_from=0)
# uneven classes in one pool, all done at whole instants: at equal times
# the merge orders chunks by position, then size, then stream
@example(scenario=_two_level(
    clients=4, servers_level1=3, buffer_bytes=8, base_write_rate=25.0,
    striping_factor=2.0, compute_rate=0.0, gather_rate_factor=1.0,
    schedule=make_schedule([(1, 0.5, 7), (1, 0.5, 30)], 1.0)),
    piece=1, window=2, runs_from=0)
# with the shipped steps, so identical members take the run-wise writers:
# writers backlogged within each output hour and idle between hours,
@example(scenario=_two_level(
    clients=8, servers_level1=2, servers_level2=2, files=2, buffer_bytes=5000,
    base_write_rate=97.3, compute_rate=1000.0,
    schedule=make_schedule([(40, 1.0, 1000)], 4.0)),
    piece=iosim._PIECE, window=iosim._WINDOW, runs_from=iosim._RUNS_FROM)
# writers faster than the gathering, idle at every arrival,
@example(scenario=_two_level(
    clients=4, servers_level1=1, servers_level2=2, files=2, buffer_bytes=5000,
    base_write_rate=50.0, striping_factor=2.0, gather_rate_factor=1.0,
    compute_rate=0.0, schedule=make_schedule([(60, 1.0, 1000)], 2.0)),
    piece=iosim._PIECE, window=iosim._WINDOW, runs_from=iosim._RUNS_FROM)
# and a stream of three chunk sizes, its writers backlogged across them
@example(scenario=_two_level(
    clients=4, servers_level1=2, servers_level2=2, files=2, buffer_bytes=5000,
    base_write_rate=64.0, compute_rate=200.0, schedule=make_schedule(
        [(30, 1.0, 1000), (20, 1.0, 600), (10, 2.0, 300)], 4.0)),
    piece=iosim._PIECE, window=iosim._WINDOW, runs_from=iosim._RUNS_FROM)
# two clients of one server whose chains cut each other short in turn
@example(scenario=tiny(
    clients=2, buffer_bytes=1000, compute_rate=1.0,
    schedule=make_schedule([(60, 1.0, 100)], 2.0)),
    piece=iosim._PIECE, window=iosim._WINDOW, runs_from=iosim._RUNS_FROM)
# a lone client whose chain leaves the last chunk of an hour, which it
# pushes at once before its next compute arrival,
@example(scenario=tiny(
    buffer_bytes=2000, compute_rate=1000.0,
    schedule=make_schedule([(30, 1.0, 100)], 2.0)),
    piece=iosim._PIECE, window=iosim._WINDOW, runs_from=iosim._RUNS_FROM)
# and one whose last chunk of a size is followed in that hour by chunks of
# another size, which it pushes event by event
@example(scenario=tiny(
    buffer_bytes=2000, compute_rate=1000.0,
    schedule=make_schedule([(30, 1.0, 100), (10, 1.0, 60)], 2.0)),
    piece=iosim._PIECE, window=iosim._WINDOW, runs_from=iosim._RUNS_FROM)
def test_stages_equal_the_per_chunk_oracle(scenario, piece, window, runs_from):
    """Every float of both stages, and the metrics, equal the oracle's
    with ==, whatever the stage-two step (`_PIECE`) and the staging
    replay's window (`_WINDOW`) are, and with stage one's batches and
    chains on for any buffer (`_RUNS_FROM` 0)."""
    groups, chunks, keys = _stage_inputs(scenario)
    cap = float(scenario.buffer_bytes)
    with mock.patch.multiple(iosim, _PIECE=piece, _WINDOW=window,
                             _RUNS_FROM=runs_from):
        ours, theirs = {}, {}
        for key in set(k for k in keys if k[0]):
            args = (key[0], key[1], cap, scenario.compute_rate,
                    scenario.two_level)
            ours[key] = iosim._simulate_stage_one(groups, *args)
            theirs[key] = io_oracle.simulate_stage_one(chunks, *args)
            assert ours[key].waits == theirs[key].waits
            assert ours[key].busy_s == theirs[key].busy_s
            assert ours[key].last_done == theirs[key].last_done
            assert [(t, b) for t, _seq, b in ours[key].arrivals.tagged()] \
                == theirs[key].arrivals
            assert len(ours[key].arrivals) == len(theirs[key].arrivals)
        pools = scenario.pools
        for p in range(pools if scenario.two_level else 0):
            members = [key for key in keys[p::pools] if key[0]]
            for track in (False, True):
                args = (scenario.servers_level2 // pools,
                        scenario.writer_rate(p), track)
                assert iosim._stage_two(
                    [ours[key].arrivals for key in members], *args) == \
                    io_oracle.stage_two(
                        [theirs[key].arrivals for key in members], *args)
        assert _outcome(scenario) == _outcome(scenario, oracle=True)
        if scenario.two_level:
            # the memory guard decides the same at the peak and just below;
            # a limit under one byte is a configuration error
            total = _oracle_staging_total(scenario, keys, theirs)
            below = math.nextafter(total, -math.inf)
            if below < 1:
                with pytest.raises(IoConfigError, match="server_memory"):
                    replace(scenario, server_memory_bytes=below)
                return
            for limit in (total, below):
                limited = replace(scenario, server_memory_bytes=limit)
                assert _outcome(limited) == _outcome(limited, oracle=True)
            assert _outcome(limited).startswith("OUT_OF_MEMORY: ")


def test_a_lone_client_takes_a_heap_event_per_output_hour():
    """A lone client whose buffer holds 20 of its chunks blocks every
    hour.  Its chains, and the push and the compute arrival after each,
    come before any other client's event, so they are taken without the
    heap: at most one heap event per output hour, where resuming through
    the heap took two.  The metrics are the oracle's."""
    scenario = tiny(buffer_bytes=2000, compute_rate=10.0,
                    schedule=make_schedule([(50, 1.0, 100)], 6.0))
    events = []

    def pop(heap):
        events.append("pop")
        return heapq.heappop(heap)

    def pushpop(heap, item):
        out = heapq.heappushpop(heap, item)
        if out is not item:
            events.append("exchange")
        return out

    with mock.patch.multiple(iosim, heappop=pop, heappushpop=pushpop):
        metrics = simulate_io(scenario)
    assert metrics.client_wait_s > 0
    assert len(events) <= 6
    assert metrics == _outcome(scenario, oracle=True)


def _outcome(scenario, oracle=False):
    """simulate_io's metrics, or OUT_OF_MEMORY with the error's text; with
    the oracle's stages when `oracle` is set."""
    stages = mock.patch.multiple(
        iosim, _simulate_stage_one=lambda chunks, *args:
        io_oracle.simulate_stage_one(_expanded(chunks), *args),
        _stage_two=io_oracle.stage_two)
    with stages if oracle else contextlib.nullcontext():
        try:
            return simulate_io(scenario)
        except ServerMemoryError as err:
            return f"OUT_OF_MEMORY: {err}"


def _staging_bound(scenario):
    """simulate_io's bound on the summed peak staging, exactly:
    B = T * (1 + 2*m*2**-53), m = clients * field writes + pools + 3."""
    sched = scenario.schedule
    m = scenario.clients * workload.total_fields(sched) + scenario.pools + 3
    return workload.total_bytes(sched) * (1 + Fraction(2 * m, 2 ** 53))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenario=io_scenarios().filter(lambda s: s.two_level))
# a writer that finishes nothing before the last arrival, so the peak is
# the whole running sum of the arrivals, here above the total bytes: the
# bound's tightest case
@example(scenario=_two_level(
    clients=9, servers_level1=2, buffer_bytes=10**6, base_write_rate=50.0,
    gather_rate_factor=1000.0, compute_rate=0.0,
    schedule=make_schedule([(7, 0.5, 100), (3, 1.0, 977)], 1.0)))
def test_staging_bound_spares_the_replay(scenario):
    """The bound is at least the oracle's staging total.  At a limit of
    ceil(bound) the guard replays nothing and passes, as the oracle does.
    Between the total and the bound, and just below the total, the replay
    runs and the guard decides, and words its error, as the oracle does."""
    _groups, chunks, keys = _stage_inputs(scenario)
    classes = {key: io_oracle.simulate_stage_one(
        chunks, key[0], key[1], float(scenario.buffer_bytes),
        scenario.compute_rate, True) for key in set(keys) if key[0]}
    total = _oracle_staging_total(scenario, keys, classes)
    bound = _staging_bound(scenario)
    assert total <= bound

    def refuse(*_args):
        raise AssertionError("the staging replay ran above the bound")

    limited = replace(scenario, server_memory_bytes=max(math.ceil(bound), 1))
    with mock.patch.object(iosim._Staging, "replay", refuse):
        assert _outcome(limited) == _outcome(limited, oracle=True) \
            == simulate_io(scenario)
    if total <= 1:
        return      # no limit below the total is valid
    between = float((Fraction(total) + bound) / 2)
    assert total < between < bound
    for limit in (between, math.nextafter(total, -math.inf)):
        limited = replace(scenario, server_memory_bytes=limit)
        with mock.patch.object(iosim._Staging, "replay", autospec=True,
                               side_effect=iosim._Staging.replay) as replay:
            assert _outcome(limited) == _outcome(limited, oracle=True)
        assert replay.called


def test_untracked_identical_members_expand_no_run():
    """With staging off, the writers of identical members bisect the
    stream's runs: the stage builds no list with an entry per chunk, so
    50,000 chunks in one run take a few KiB of traced allocation.  The
    result is the per-chunk oracle's, float for float."""
    scenario = _two_level(clients=2, servers_level1=2, servers_level2=2,
                          files=2, buffer_bytes=4000, base_write_rate=1000.0,
                          compute_rate=0.0, gather_rate_factor=5.0,
                          schedule=make_schedule([(50_000, 1.0, 1000)], 1.0))
    groups, chunks, keys = _stage_inputs(scenario)
    args = (*keys[0], float(scenario.buffer_bytes), 0.0, True)
    ours = iosim._simulate_stage_one(groups, *args).arrivals
    assert len(ours.runs) == 1
    theirs = io_oracle.simulate_stage_one(chunks, *args).arrivals
    writing = (2, scenario.writer_rate(0), False)
    expected = io_oracle.stage_two([theirs, theirs], *writing)

    def expand(*_args):
        raise AssertionError("untracked stage two expanded the stream")

    with mock.patch.multiple(iosim._Arrivals, pieces=expand, tagged=expand):
        tracemalloc.start()
        try:
            result = iosim._stage_two([ours, ours], *writing)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result == expected
    assert peak < 64 * 1024


def _binade(x):
    """The index of the binade of x >= 0, in which the floats are the
    multiples of ulp(x); zero and the subnormals share the lowest."""
    if x == math.inf:
        return 1025
    return max(math.frexp(x)[1], -1021) if x else -1021


@st.composite
def _sums(draw):
    """(x, d, n) for `_add_n`: d anywhere, subnormal, a multiple of a
    quarter ulp of x (so below half an ulp, or a half-ulp tie), a power of
    two, or at least x."""
    x = draw(st.one_of(st.just(0.0), st.floats(0.0, allow_infinity=False)))
    kind = draw(st.sampled_from(["any", "subnormal", "ulps", "two", "above"]))
    if kind == "any":
        d = draw(st.floats(0.0, allow_infinity=False))
    elif kind == "subnormal":
        d = draw(st.floats(0.0, 2.0 ** -1022, exclude_max=True))
    elif kind == "ulps":
        d = math.ulp(x) * (draw(st.integers(0, 1 << 20)) / 4)
    elif kind == "two":
        d = math.ldexp(1.0, draw(st.integers(-1074, 1023)))
    else:
        d = min(x * draw(st.floats(1.0, 1e6)), 1e308)
    n = draw(st.one_of(st.integers(0, 64), st.integers(0, 10**6)))
    return x, d, n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_sums())
@example(case=(0.0, 5e-324, 10**6))
@example(case=(0.0, 2.0 ** -1073, 999_999))
@example(case=(1.0, 1.5 * 2.0 ** -52, 10**6))      # (M + 1/2) ulps, M = 1
@example(case=(1.0, 2.0 ** -53, 10**6))            # a tie that stays put
@example(case=(1.0 + 2.0 ** -52, 2.0 ** -53, 3))   # a tie from an odd count
@example(case=(3.0, 2.0 ** -60, 10**6))            # below half an ulp
@example(case=(2.0 - 2.0 ** -52, 1.25 * 2.0 ** -52, 3))  # an ulp below a top
@example(case=(2.0 ** -40, 1.0, 10**6))            # across 60 binades
@example(case=(1.5e308, 1e303, 10**6))             # overflows to inf
def test_add_n_is_n_additions(case):
    """`_add_n(x, d, n)` is n additions of d to x, bit for bit, and takes
    at most two steps per binade the sum enters, so a binade bound that
    is off by one, and steps back or one ulp at a time, fails here."""
    x, d, n = case
    steps = []

    def ulp(y):
        steps.append(y)
        assert len(steps) <= 2 * (_binade(math.inf) - _binade(x) + 1)
        return math.ulp(y)

    with mock.patch.object(iosim, "ulp", ulp):
        total = iosim._add_n(x, d, n)
    assert total == reduce(add, repeat(d, n), x)
    assert len(steps) <= 2 * (_binade(total) - _binade(x) + 1)


def test_peak_staging_memory_is_bounded():
    """Stage two of io-c192-tuned.json with staging tracked, as any
    limit below its bound makes it, replays 2.3 M staging events.
    Replayed a bounded window at a time, with the writers' done times held
    as runs, they take about 2.7 MiB of traced allocation.  Holding every
    done time not yet replayed took about 10 MiB, and sorting all events
    at once, as the per-chunk replay does, took 194 MiB.  Stage one runs
    before tracing starts."""
    config = Path(__file__).resolve().parent.parent / "configs"
    scenario = load_scenario(config / "io-c192-tuned.json").io_scenario
    groups, _chunks, keys = _stage_inputs(scenario)
    classes = {key: iosim._simulate_stage_one(
        groups, key[0], key[1], float(scenario.buffer_bytes),
        scenario.compute_rate, True) for key in set(keys) if key[0]}
    # the distinct pools, as simulate_io simulates them
    pools = {(tuple(key for key in keys[p::scenario.pools] if key[0]),
              scenario.writer_rate(p)) for p in range(scenario.pools)}
    tracemalloc.start()
    try:
        for members, rate in pools:
            iosim._stage_two([classes[key].arrivals for key in members],
                             scenario.servers_level2 // scenario.pools, rate,
                             True)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * MIB


def test_peak_staging_holds_no_writer_backlog():
    """Two members gather 50,000 chunks each, five times as fast as their
    one writer writes, so the writer finishes ten times later than the last
    arrival.  The replay holds the writer's done times as one run, expands
    it a window at a time and stops at the last arrival: about 1.6 MiB of
    traced allocation, where holding every done time took 10.7 MiB.  The
    result is the per-chunk oracle's, float for float."""
    scenario = _two_level(clients=2, servers_level1=2, buffer_bytes=4000,
                          base_write_rate=1000.0, compute_rate=0.0,
                          gather_rate_factor=5.0,
                          schedule=make_schedule([(50_000, 1.0, 1000)], 1.0))
    groups, chunks, keys = _stage_inputs(scenario)
    args = (*keys[0], float(scenario.buffer_bytes), 0.0, True)
    ours = iosim._simulate_stage_one(groups, *args).arrivals
    assert len(ours.runs) == 1
    writing = (1, scenario.writer_rate(0), True)
    tracemalloc.start()
    try:
        result = iosim._stage_two([ours, ours], *writing)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * MIB
    theirs = io_oracle.simulate_stage_one(chunks, *args).arrivals
    assert result == io_oracle.stage_two([theirs, theirs], *writing)
    # the writer ends ten times later than the last arrival
    assert result[1] > 9.9 * theirs[-1][0]
