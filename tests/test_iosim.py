"""I/O server simulation tests.

The small fixed cases are worked out by hand from the queueing rules:
clients emit equal shares of each field, block when their buffer is
full, and servers drain in FIFO order.
"""

from dataclasses import replace

import pytest

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
