"""Acceptance suite.

One test per criterion; each prints a single PASS line when its checks
hold.  Tolerances are stated inline next to every assertion.  The
fixture criteria (9 and 10) are regressions against the shipped
calibration, not hardware claims.
"""

import math
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from cubedsim import decomp as dc
from cubedsim.cli import main as cli_main, read_csv
from cubedsim.config import load_scenario
from cubedsim.dyncore import RunSpec, breakdown_row, simulate
from cubedsim.iosim import IoScenario, simulate_io, striping_compare
from cubedsim.machine import builtin_machine
from cubedsim.mesh import build_mesh
from cubedsim.workload import make_schedule, total_bytes, total_fields

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def shipped(name):
    """The scenario of a shipped config file."""
    return load_scenario(CONFIG_DIR / name)


def ok(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_mesh_cell_counts():
    start = time.perf_counter()
    assert build_mesh(512, 120).total_horizontal_cells == 1_572_864
    assert build_mesh(256, 120).total_horizontal_cells == 393_216
    assert build_mesh(1024, 120).total_horizontal_cells == 6_291_456
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"exact cell counts for C256/C512/C1024 in {elapsed:.3f} s")


def test_criterion_02_local_area_arithmetic():
    cases_256 = [(256, 12), (512, 48), (1024, 192)]
    cases_128 = [(256, 24), (512, 96), (1024, 384)]
    for panel_size, nodes in cases_256:
        assert dc.local_area(build_mesh(panel_size, 120), nodes * 128) == 256
    for panel_size, nodes in cases_128:
        assert dc.local_area(build_mesh(panel_size, 120), nodes * 128) == 128
    ok(2, "exact 256 and 128 cells/core at 128 cores/node")


def test_criterion_03_mesh_structure_properties():
    for n in range(1, 17):
        mesh = build_mesh(n, 1)
        adjacency = mesh.adjacency
        edges = set()
        for cell, neighbors in adjacency.items():
            assert len(set(neighbors)) == 4          # 4-regular
            for nb in neighbors:
                assert cell in adjacency[nb]          # symmetric
                edges.add(frozenset((cell, nb)))
        assert len(edges) == 12 * n * n               # 12 N^2 edges
        seen = {next(iter(adjacency))}
        frontier = list(seen)
        while frontier:
            frontier = [nb for cell in frontier for nb in adjacency[cell]
                        if nb not in seen and not seen.add(nb)]
        assert len(seen) == 6 * n * n                 # connected
    ok(3, "4-regularity, symmetry, connectivity, 12N^2 edges for N <= 16")


def test_criterion_04_halo_factor_law():
    start = time.perf_counter()
    mesh = build_mesh(64, 120)
    per_rank_bytes = {}
    total_bytes_by_ranks = {}
    for ranks in (24, 96, 384):
        halos = dc.compute_halos(mesh, dc.partition(mesh, ranks), depth=1)
        messages = dc.exchange_pattern(
            halos, dc.default_bytes_per_cell(mesh)).messages
        per_rank = [sum(m.bytes for m in messages if m.dst == r)
                    for r in range(ranks)]
        per_rank_bytes[ranks] = sum(per_rank) / ranks
        total_bytes_by_ranks[ranks] = sum(m.bytes for m in messages)
        assert len({dc_ for dc_ in per_rank}) == 1    # square, identical
    # quadrupling per-rank area: 384 -> 96 -> 24 ranks
    assert per_rank_bytes[96] == pytest.approx(2 * per_rank_bytes[384],
                                               rel=0.05)
    assert per_rank_bytes[24] == pytest.approx(2 * per_rank_bytes[96],
                                               rel=0.05)
    assert total_bytes_by_ranks[96] == pytest.approx(
        total_bytes_by_ranks[384] / 2, rel=0.05)
    assert total_bytes_by_ranks[24] == pytest.approx(
        total_bytes_by_ranks[96] / 2, rel=0.05)
    assert 384 == 4 * 96 and 96 == 4 * 24             # participants, exact
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(4, f"halo doubling/halving law on C64 (+-5%) in {elapsed:.2f} s")


def test_criterion_05_weak_scaling_attribution():
    archer2 = builtin_machine("archer2")
    rows = []
    for panel_size, nodes in ((256, 12), (512, 48), (1024, 192)):
        run = RunSpec(mesh=build_mesh(panel_size, 120), machine=archer2,
                      nodes=nodes, ranks_per_node=32, threads_per_rank=4)
        rows.append(breakdown_row(run, simulate(run)))
    users = [row["user_s"] for row in rows]
    colls = [row["coll_s"] for row in rows]
    assert max(users) / min(users) < 1.01             # constant within 1%
    assert colls[0] < colls[1] < colls[2]             # strictly increasing
    growth = rows[-1]["total_s"] - rows[0]["total_s"]
    coll_growth = colls[-1] - colls[0]
    share = coll_growth / growth
    assert share >= 0.90
    ok(5, f"collectives carry {100 * share:.0f}% of the weak-scaling "
          f"growth (>= 90%)")


def test_criterion_06_thread_sweep_shape(tmp_path):
    # C512 with 120 levels on 48 ARCHER2 nodes, threads 1, 2, 4, 8 and 16
    assert cli_main(["sweep", "--config",
                     str(CONFIG_DIR / "threads-c512.json"),
                     "--axis", "threads", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_threads.csv")
    totals = {row["threads"]: row["total_s"] for row in rows}
    best = min(totals, key=totals.get)
    assert best in (1, 2, 4)
    assert totals[8] > totals[best]
    assert totals[16] > totals[best]
    ok(6, f"best thread count is {best} (in {{1,2,4}}); 8 and 16 are worse")


def test_criterion_07_diagnostic_schedule_count():
    schedule = shipped("io-c192-baseline.json").schedule
    assert total_fields(schedule) == 5329             # exact
    ok(7, "C192 diagnostic schedule yields exactly 5329 fields")


def _random_scenario(rng):
    clients = rng.randint(1, 6)
    two_level = rng.random() < 0.4
    pools = rng.choice([1, 2])
    writers = pools * rng.randint(1, 3)
    entries = [(rng.randint(1, 6),
                rng.choice([0.5, 1.0, 2.0, 3.0]),
                rng.randint(50, 4000))
               for _ in range(rng.randint(1, 3))]
    schedule = make_schedule(entries, rng.choice([3.0, 6.0, 12.0]))
    biggest_share = max(b for _c, _p, b in entries) / clients
    buffer_bytes = math.ceil(biggest_share) + rng.randint(0, 4000)
    return IoScenario(
        clients=clients,
        servers_level1=rng.randint(1, 4) if two_level else writers,
        servers_level2=writers if two_level else 0,
        pools=pools,
        buffer_bytes=buffer_bytes,
        base_write_rate=rng.uniform(5.0, 500.0),
        striping_factor=rng.choice([1.0, 2.0, 3.5]),
        files=rng.randint(pools, 8),
        schedule=schedule,
        compute_rate=rng.uniform(1.0, 60.0),
        pool_penalty=rng.choice([0.0, 0.25]),
    )


def test_criterion_08_io_conservation_and_bounds():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(1000):
        scenario = _random_scenario(rng)
        metrics = simulate_io(scenario)
        expected_bytes = total_bytes(scenario.schedule)
        assert metrics.bytes_written == expected_bytes       # conservation
        compute_bound = scenario.schedule.run_hours * scenario.compute_rate
        bandwidth_bound = expected_bytes / scenario.aggregate_write_rate
        assert metrics.wall_clock_s >= max(compute_bound,
                                           bandwidth_bound) - 1e-6
        bigger = simulate_io(replace(scenario,
                                     buffer_bytes=2 * scenario.buffer_bytes))
        assert bigger.client_wait_pct <= metrics.client_wait_pct + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(8, f"1000 randomized scenarios conserve bytes, respect bounds and "
          f"buffer monotonicity in {elapsed:.1f} s")


def test_criterion_09_c192_tuning_fixture():
    baseline = simulate_io(shipped("io-c192-baseline.json").io_scenario)
    tuned = simulate_io(shipped("io-c192-tuned.json").io_scenario)
    speedup = baseline.wall_clock_s / tuned.wall_clock_s
    wait_reduction = baseline.client_wait_s / tuned.client_wait_s
    assert speedup >= 1.8
    assert wait_reduction >= 5.0
    ok(9, f"tuned server layout: {speedup:.2f}x faster (>= 1.8), "
          f"{wait_reduction:.0f}x less client wait (>= 5)")


def test_criterion_10_c896_striping_fixture(tmp_path):
    off, on, summary = striping_compare(shipped("io-c896.json").io_scenario)
    assert 2.1 <= summary["write_rate_ratio"] <= 2.9
    assert 6.0 <= summary["wait_pct_off"] <= 9.0       # the 6-9% band
    assert summary["wait_pct_on"] < 2.5
    # the CLI emits mean/std columns for this fixture under --repeat 3
    code = cli_main(["run", "--config", str(CONFIG_DIR / "io-c896.json"),
                     "--out", str(tmp_path), "--repeat", "3"])
    assert code == 0
    header = (tmp_path / "io_stats.csv").read_text().splitlines()[0]
    assert "wall_clock_s_mean" in header and "wall_clock_s_std" in header
    ok(10, f"striping raises write rate {summary['write_rate_ratio']:.2f}x "
           f"(in [2.1, 2.9]); wait {summary['wait_pct_off']:.1f}% -> "
           f"{summary['wait_pct_on']:.2f}% (< 2.5%)")


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert cli_main(["run", "--config", str(CONFIG_DIR / "minimal.json"),
                         "--out", str(out)]) == 0
        assert cli_main(["run", "--config",
                         str(CONFIG_DIR / "io-c192-tuned.json"),
                         "--out", str(out)]) == 0
        assert cli_main(["sweep", "--config",
                         str(CONFIG_DIR / "io-dev-rig.json"),
                         "--axis", "servers", "--out", str(out)]) == 0
        assert cli_main(["sweep", "--config",
                         str(CONFIG_DIR / "io-pools-c192.json"),
                         "--axis", "pools", "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(out.iterdir())
                        if p.suffix == ".csv"})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) >= 4
    ok(11, "repeated runs and sweeps produce byte-identical CSV output")
