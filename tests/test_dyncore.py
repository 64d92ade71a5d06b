"""Timestep simulator tests.

The small-case oracle recomputes every cost term from the decomposition
and the published closed forms, bypassing the simulator internals.
"""

import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubedsim import decomp as dc
from cubedsim.dyncore import (MemoryLimitError, Mode, RunSpec,
                              SimulationError, TimestepBreakdown,
                              breakdown_row, simulate)
from cubedsim.machine import (MachineConfig, MemoryModel, builtin_machine,
                              default_cost_model)
from cubedsim.mesh import build_mesh
from test_decomp import bfs_messages

TOY = MachineConfig(name="toy", cores_per_node=4, clock_ghz=2.0,
                    max_nodes=64)
BIG_MEMORY = MemoryModel(node_memory_bytes=2**50)


def oracle_breakdown(run):
    """Closed-form recomputation of all four cost terms."""
    cost = run.cost_model
    mesh = run.mesh
    ranks = run.ranks
    decomposition = dc.partition(mesh, ranks)
    halos = dc.compute_halos(mesh, decomposition, depth=run.halo_depth)
    redundant = run.mode is Mode.REDUNDANT_COMPUTE
    messages = () if redundant else dc.exchange_pattern(
        halos, dc.default_bytes_per_cell(mesh)).messages
    eff = cost.efficiency(run.threads_per_rank)
    user = max(
        (decomposition.owned_count(r)
         + (halos.halo_count(r) if redundant else 0))
        * mesh.levels * cost.c_cell / (run.threads_per_rank * eff)
        for r in range(ranks))
    per_rank = [0.0] * ranks
    for m in messages:
        c = cost.p2p_alpha + m.bytes / cost.p2p_beta
        per_rank[m.src] += c
        per_rank[m.dst] += c
    p2p = max(per_rank) * cost.halo_exchanges_per_step
    stages = math.ceil(math.log2(ranks)) if ranks > 1 else 0
    coll = cost.allreduces_per_step * stages * \
        (cost.coll_alpha + cost.reduce_bytes / cost.coll_beta)
    etc = cost.parallel_regions_per_step * cost.barrier_cost \
        * run.threads_per_rank + cost.etc_fixed
    return user, p2p, coll, etc


@pytest.mark.parametrize("mode,threads,ranks_per_node", [
    (Mode.EXCHANGE_HALOS, 1, 4),
    (Mode.EXCHANGE_HALOS, 2, 2),
    (Mode.REDUNDANT_COMPUTE, 1, 4),
])
def test_simulate_matches_closed_form(mode, threads, ranks_per_node):
    run = RunSpec(mesh=build_mesh(8, 10), machine=TOY, nodes=6,
                  ranks_per_node=ranks_per_node, threads_per_rank=threads,
                  mode=mode, memory=BIG_MEMORY)
    result = simulate(run)
    user, p2p, coll, etc = oracle_breakdown(run)
    assert result.user_s == pytest.approx(user, rel=1e-12)
    assert result.mpi_p2p_s == pytest.approx(p2p, rel=1e-12)
    assert result.mpi_coll_s == pytest.approx(coll, rel=1e-12)
    assert result.etc_s == pytest.approx(etc, rel=1e-12)
    assert result.total_s == user + p2p + coll + etc


@pytest.mark.parametrize("n,nodes,ranks_per_node,threads,depth,mode", [
    (8, 24, 4, 1, 3, Mode.EXCHANGE_HALOS),      # 2 x 2 blocks, depth 3
    (6, 54, 4, 1, 4, Mode.REDUNDANT_COMPUTE),   # 1 x 1 blocks, depth 4
    (10, 18, 4, 1, 2, Mode.EXCHANGE_HALOS),     # uneven 4 x 3 grid
    (10, 18, 2, 2, 3, Mode.EXCHANGE_HALOS),     # uneven 3 x 2 grid
    (12, 6, 1, 4, 4, Mode.EXCHANGE_HALOS),      # whole panels, corners
    (8, 7, 4, 1, 2, Mode.EXCHANGE_HALOS),       # 28 ranks: spans
])
def test_simulate_equals_oracle(n, nodes, ranks_per_node, threads, depth,
                                mode):
    run = RunSpec(mesh=build_mesh(n, 10), machine=TOY, nodes=nodes,
                  ranks_per_node=ranks_per_node, threads_per_rank=threads,
                  halo_depth=depth, mode=mode, memory=BIG_MEMORY)
    result = simulate(run)
    assert (result.user_s, result.mpi_p2p_s, result.mpi_coll_s,
            result.etc_s) == oracle_breakdown(run)


def test_redundant_compute_has_no_p2p():
    # no message is sent, and each rank computes its halo cells too
    mesh = build_mesh(8, 10)
    run = RunSpec(mesh=mesh, machine=TOY, nodes=6,
                  ranks_per_node=4, threads_per_rank=1,
                  mode=Mode.REDUNDANT_COMPUTE, memory=BIG_MEMORY)
    exchange = RunSpec(mesh=mesh, machine=TOY, nodes=6,
                       ranks_per_node=4, threads_per_rank=1,
                       memory=BIG_MEMORY)
    redundant_result = simulate(run)
    exchange_result = simulate(exchange)
    assert redundant_result.mpi_p2p_s == 0.0
    assert exchange_result.mpi_p2p_s > 0.0
    halos = dc.compute_halos(mesh, dc.partition(mesh, 24), depth=1)
    work = [16 + halos.halo_count(r) for r in range(24)]
    assert min(work) > 16
    c_cell = run.cost_model.c_cell
    assert exchange_result.user_s == 16 * mesh.levels * c_cell
    assert redundant_result.user_s == max(work) * mesh.levels * c_cell


def test_run_spec_validation():
    mesh = build_mesh(8, 10)
    with pytest.raises(SimulationError):
        RunSpec(mesh=mesh, machine=TOY, nodes=0, ranks_per_node=4,
                threads_per_rank=1)
    with pytest.raises(SimulationError):
        RunSpec(mesh=mesh, machine=TOY, nodes=1, ranks_per_node=4,
                threads_per_rank=1, timesteps=0)
    with pytest.raises(SimulationError):
        # more ranks than horizontal cells
        RunSpec(mesh=build_mesh(2, 1), machine=TOY, nodes=10,
                ranks_per_node=4, threads_per_rank=1)


def test_run_spec_checks_machine_and_mesh_limits():
    mesh = build_mesh(8, 10)
    with pytest.raises(SimulationError, match="max_nodes"):
        RunSpec(mesh=mesh, machine=TOY, nodes=65, ranks_per_node=4,
                threads_per_rank=1)
    with pytest.raises(dc.DecompositionError):
        RunSpec(mesh=mesh, machine=TOY, nodes=1, ranks_per_node=4,
                threads_per_rank=1, halo_depth=0)
    with pytest.raises(dc.HaloDepthError):
        RunSpec(mesh=mesh, machine=TOY, nodes=1, ranks_per_node=4,
                threads_per_rank=1, halo_depth=9)
    with pytest.raises(SimulationError, match="bytes_per_cell"):
        RunSpec(mesh=mesh, machine=TOY, nodes=1, ranks_per_node=4,
                threads_per_rank=1, bytes_per_cell=0)
    edge = RunSpec(mesh=mesh, machine=TOY, nodes=64, ranks_per_node=4,
                   threads_per_rank=1, halo_depth=8, bytes_per_cell=1)
    assert edge.ranks == 256


def test_memory_guard_trips_widest_single_thread_layout():
    archer2 = builtin_machine("archer2")
    mesh = build_mesh(1024, 120)
    wide = RunSpec(mesh=mesh, machine=archer2, nodes=192,
                   ranks_per_node=128, threads_per_rank=1)
    with pytest.raises(MemoryLimitError):
        simulate(wide)
    threaded = RunSpec(mesh=mesh, machine=archer2, nodes=192,
                       ranks_per_node=32, threads_per_rank=4)
    assert simulate(threaded).total_s > 0


@pytest.mark.parametrize(
    "n,nodes,depth",
    [(1024, 192, 1), (80, 192, 1), (96, 190, 1), (80, 192, 2)],
    ids=["1024-192", "80-192", "96-190", "80-192-depth2"])
def test_memory_guard_needs_no_halo_geometry(monkeypatch, n, nodes, depth):
    # 96 x 190: 24,320 ranks, not a multiple of six, so spans; the guard
    # sizes shape classes, taking the rectangles of at most one rank it
    # must size alone: a span crossing a row, one per row boundary, or a
    # block near a cube corner, as the corner blocks of 80 x 192 are at
    # depth 2
    def no_halos(*_args, **_kwargs):
        raise AssertionError("the guard must not need halo cells")

    built = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def call_counted(*args, **kwargs):
            built[name] += 1
            return original(*args, **kwargs)
        return call_counted

    monkeypatch.setattr(dc, "compute_halos", no_halos)
    monkeypatch.setattr(dc, "_rank_rings", no_halos)
    for owner, name in ((dc.Decomposition, "rects"), (dc, "_span_rects")):
        monkeypatch.setattr(owner, name, counted(owner, name))
    wide = RunSpec(mesh=build_mesh(n, 120), machine=builtin_machine("archer2"),
                   nodes=nodes, ranks_per_node=128, threads_per_rank=1,
                   halo_depth=depth)
    with pytest.raises(MemoryLimitError):
        simulate(wide)
    assert sum(built.values()) < 6 * n + 100, built


@given(n=st.integers(1, 12), ranks=st.integers(1, 864),
       depth=st.integers(1, 12))
@example(n=4, ranks=32, depth=1)     # 3-cell spans crossing rows of 4
@example(n=6, ranks=7, depth=3)      # spans crossing panels
@example(n=11, ranks=242, depth=2)   # one-row spans near the corners
@example(n=12, ranks=250, depth=2)   # ... and crossing rows, past C10
@example(n=6, ranks=9, depth=2)      # bands of whole rows
@example(n=12, ranks=8, depth=3)     # ... across panels, past C10
@example(n=7, ranks=54, depth=2)     # 3 x 3 blocks only at the corners
@settings(max_examples=20, deadline=None, derandomize=True)
def test_guard_worst_cells_match_bfs_oracle(n, ranks, depth):
    # the worst owned-plus-halo count from shape classes against every
    # rank's frontier expansion, and the guard at the oracle's estimate
    # and one byte below it
    ranks, depth = min(ranks, 6 * n * n), min(depth, n)
    mesh = build_mesh(n, 1)
    decomposition = dc.partition(mesh, ranks)
    oracle = dc.compute_halos(mesh, decomposition, depth=depth)
    worst = max(decomposition.owned_count(r) + oracle.halo_count(r)
                for r in range(ranks))
    if decomposition.grid is None:
        assert dc._shape_counts(mesh, decomposition,
                                depth).worst_cells == worst
    assert dc.halo_counts(mesh, decomposition, depth).worst_cells == worst
    node_bytes = MemoryModel().node_bytes(ranks, worst, mesh.levels, ranks)
    machine = MachineConfig(name="one", cores_per_node=ranks, clock_ghz=2.0,
                            max_nodes=1)

    def run(limit):
        return RunSpec(mesh=mesh, machine=machine, nodes=1,
                       ranks_per_node=ranks, threads_per_rank=1,
                       halo_depth=depth, memory=MemoryModel(limit))

    assert simulate(run(node_bytes)).total_s > 0
    with pytest.raises(MemoryLimitError) as rejected:
        simulate(run(node_bytes - 1))
    assert str(rejected.value) == (
        f"estimated {node_bytes / 2**30:.1f} GiB per node exceeds "
        f"{(node_bytes - 1) / 2**30:.1f} GiB "
        f"({ranks} ranks/node, {ranks} total ranks)")


def test_span_run_walks_no_cells(monkeypatch):
    # C48 on 128 ranks at depth 2: spans, sized and counted as row runs,
    # every one crossing a row, expanded once per class (14 of them: four
    # start columns, the rows to the panel edges, five crossing a panel)
    run = RunSpec(mesh=build_mesh(48, 10), machine=TOY, nodes=32,
                  ranks_per_node=4, threads_per_rank=1, halo_depth=2,
                  memory=BIG_MEMORY)
    expected = oracle_breakdown(run)

    def no_cells(*_args, **_kwargs):
        raise AssertionError("a span run must not walk cells")

    expanded = Counter()
    span_near = dc._span_near

    def counted(mesh, rects, depth):
        expanded[tuple(rects)] += 1
        return span_near(mesh, rects, depth)

    monkeypatch.setattr(dc, "compute_halos", no_cells)
    monkeypatch.setattr(dc, "_rank_rings", no_cells)
    monkeypatch.setattr(dc.Decomposition, "owned_cells", no_cells)
    monkeypatch.setattr(dc, "_span_near", counted)
    result = simulate(run)
    assert (result.user_s, result.mpi_p2p_s, result.mpi_coll_s,
            result.etc_s) == expected
    assert len(expanded) <= 16 and set(expanded.values()) == {1}


@pytest.mark.parametrize("mode", list(Mode))
def test_span_run_builds_nothing_per_rank(monkeypatch, mode):
    # C96 on 4,001 span ranks at depth 2: the worst cells come from the
    # two span sizes and the class halos, the messages from one owner
    # table per class and the owners along each panel edge, so no span's
    # rectangles and no row-run expansion per rank (it takes 45 of each)
    built = Counter()
    span_rects = dc._span_rects
    span_near = dc._span_near

    def counted(*args):
        built["_span_rects"] += 1
        return span_rects(*args)

    def near_counted(*args):
        built["_span_near"] += 1
        return span_near(*args)

    monkeypatch.setattr(dc, "_span_rects", counted)
    monkeypatch.setattr(dc, "_span_near", near_counted)
    machine = MachineConfig(name="one", cores_per_node=4001, clock_ghz=2.0,
                            max_nodes=1)
    run = RunSpec(mesh=build_mesh(96, 10), machine=machine, nodes=1,
                  ranks_per_node=4001, threads_per_rank=1, halo_depth=2,
                  mode=mode, memory=BIG_MEMORY)
    assert simulate(run).total_s > 0
    assert built["_span_rects"] <= 200 and built["_span_near"] <= 200, built


def test_redundant_span_run_peak_memory_is_bounded():
    """C1024 on 1,000,003 span ranks in redundant mode: the user time
    comes from the worst rank's cells that the memory guard sized, with no
    list per rank, about 0.3 MiB of traced allocation.  A work and a time
    list over every rank took about 70 MiB."""
    ranks = 1_000_003
    machine = MachineConfig(name="one", cores_per_node=ranks, clock_ghz=2.0,
                            max_nodes=1)
    run = RunSpec(mesh=build_mesh(1024, 10), machine=machine, nodes=1,
                  ranks_per_node=ranks, threads_per_rank=1,
                  mode=Mode.REDUNDANT_COMPUTE,
                  memory=MemoryModel(node_memory_bytes=2**60))
    tracemalloc.start()
    try:
        result = simulate(run)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.mpi_p2p_s == 0.0 and result.user_s > 0
    assert peak < 2 * 2**20


@pytest.mark.parametrize("mode", list(Mode))
def test_block_grid_run_builds_nothing_per_rank(monkeypatch, mode):
    # C96 on 1152 ranks, a 16 x 12 grid on each panel at depth 2: the
    # cells come from the grid offsets and the block classes, and the
    # messages from one owner table per rank class (9 of them) and the
    # owners along each panel edge, with no domain per rank and no
    # rectangle past an edge
    built = Counter()
    edge_rects, rank_classes = dc._edge_rects, dc._rank_classes

    def per_rank(*_args, **_kwargs):
        raise AssertionError("no domain per rank")

    def edge_counted(*args):
        built["_edge_rects"] += 1
        return edge_rects(*args)

    def classes_counted(*args):
        classes = rank_classes(*args)
        built["class tables"] += len(classes)
        return classes

    monkeypatch.setattr(dc.Decomposition, "rects", per_rank)
    monkeypatch.setattr(dc, "_edge_rects", edge_counted)
    monkeypatch.setattr(dc, "_rank_classes", classes_counted)
    run = RunSpec(mesh=build_mesh(96, 10), machine=builtin_machine("archer2"),
                  nodes=9, ranks_per_node=128, threads_per_rank=1,
                  halo_depth=2, mode=mode, memory=BIG_MEMORY)
    assert simulate(run).total_s > 0
    assert built["_edge_rects"] == 0 and built["class tables"] <= 16, built


def test_one_rectangle_spans_expand_no_row_runs(monkeypatch):
    # C12 on 863 ranks: 862 one-cell spans and one two-cell span, each one
    # rectangle, so simulate counts their messages straight from their
    # strips and diagonal cells, never from expanded row runs
    mesh = build_mesh(12, 10)
    machine = MachineConfig(name="one", cores_per_node=863, clock_ghz=2.0,
                            max_nodes=1)
    run = RunSpec(mesh=mesh, machine=machine, nodes=1, ranks_per_node=863,
                  threads_per_rank=1, halo_depth=3, memory=BIG_MEMORY)
    expected = bfs_messages(mesh, dc.partition(mesh, 863), 3,
                            dc.default_bytes_per_cell(mesh))
    breakdown = oracle_breakdown(run)
    seen = []
    exchange_pattern = dc.exchange_pattern

    def recorded(*args):
        pattern = exchange_pattern(*args)
        seen.append(pattern.messages)
        return pattern

    def no_rows(*_args, **_kwargs):
        raise AssertionError("a one-rectangle span needs no row runs")

    monkeypatch.setattr(dc, "_span_near", no_rows)
    monkeypatch.setattr(dc, "exchange_pattern", recorded)
    result = simulate(run)
    assert seen == [expected]
    assert (result.user_s, result.mpi_p2p_s, result.mpi_coll_s,
            result.etc_s) == breakdown


@pytest.mark.parametrize("n,ranks", [
    (24, 96),   # a 2 x 2 block grid per panel
    (16, 28),   # spans, some crossing a panel
])
def test_simulate_builds_no_message_tuple(monkeypatch, n, ranks):
    # simulate folds the message keys; only other callers read `messages`
    def unread(_pattern):
        raise AssertionError("simulate must not build the Message tuple")

    monkeypatch.setattr(dc.ExchangePattern, "messages", property(unread))
    machine = MachineConfig(name="one", cores_per_node=ranks, clock_ghz=2.0,
                            max_nodes=1)
    run = RunSpec(mesh=build_mesh(n, 10), machine=machine, nodes=1,
                  ranks_per_node=ranks, threads_per_rank=1, halo_depth=2,
                  memory=BIG_MEMORY)
    assert simulate(run).mpi_p2p_s > 0


def folded_breakdown(run):
    """The breakdown with every rank's p2p cost folded over the
    `exchange_pattern(...).messages` tuple, message by message in its
    order, the user time from every rank's owned cells, plus its halo
    cells when redundant, and the other terms by simulate's own
    formulas."""
    cost, mesh, ranks = run.cost_model, run.mesh, run.ranks
    threads = run.threads_per_rank
    decomposition = dc.partition(mesh, ranks)
    halos = dc.halo_counts(mesh, decomposition, run.halo_depth)
    redundant = run.mode is Mode.REDUNDANT_COMPUTE
    eff = cost.efficiency(threads)
    user = [(decomposition.owned_count(r)
             + (halos.halo_count(r) if redundant else 0))
            * mesh.levels * cost.c_cell / (threads * eff)
            for r in range(ranks)]
    per_rank = [0.0] * ranks
    for m in () if redundant else dc.exchange_pattern(
            halos, run.bytes_per_cell).messages:
        c = cost.p2p_alpha + m.bytes / cost.p2p_beta
        per_rank[m.src] += c
        per_rank[m.dst] += c
    p2p = [c * cost.halo_exchanges_per_step for c in per_rank]
    stages = math.ceil(math.log2(ranks)) if ranks > 1 else 0
    coll = cost.allreduces_per_step * stages * \
        (cost.coll_alpha + cost.reduce_bytes / cost.coll_beta)
    etc = cost.parallel_regions_per_step * cost.barrier_cost * threads \
        + cost.etc_fixed
    return TimestepBreakdown(
        user_s=max(user), mpi_p2p_s=max(p2p), mpi_coll_s=coll, etc_s=etc,
        total_s=max(user) + max(p2p) + coll + etc)


@given(n=st.integers(1, 12), blocks=st.booleans(), a=st.integers(1, 12),
       b=st.integers(1, 864), depth=st.integers(1, 3),
       redundant=st.booleans(), alpha=st.floats(1e-7, 1e-3),
       beta=st.floats(1e6, 1e11), bytes_per_cell=st.integers(1, 5760))
@example(n=6, blocks=False, a=1, b=7, depth=3, redundant=False, alpha=2e-5,
         beta=1e9, bytes_per_cell=720)     # spans crossing panels
@example(n=8, blocks=True, a=8, b=8, depth=3, redundant=False, alpha=2e-5,
         beta=1e9, bytes_per_cell=720)     # 1 x 1 blocks
@settings(max_examples=100, deadline=None, derandomize=True)
def test_simulate_equals_the_message_fold(n, blocks, a, b, depth, redundant,
                                          alpha, beta, bytes_per_cell):
    # every field, to the last bit: simulate adds each message's cost to
    # its two ranks in key order, the order of the Message tuple
    ranks = 6 * min(a, n) * min(b, n) if blocks else min(b, 6 * n * n)
    machine = MachineConfig(name="one", cores_per_node=ranks, clock_ghz=2.0,
                            max_nodes=1)
    cost = replace(default_cost_model(machine), p2p_alpha=alpha,
                   p2p_beta=beta)
    run = RunSpec(mesh=build_mesh(n, 10), machine=machine, nodes=1,
                  ranks_per_node=ranks, threads_per_rank=1, cost=cost,
                  halo_depth=min(depth, n), bytes_per_cell=bytes_per_cell,
                  mode=Mode.REDUNDANT_COMPUTE if redundant
                  else Mode.EXCHANGE_HALOS, memory=BIG_MEMORY)
    assert simulate(run) == folded_breakdown(run)


def test_weak_scaling_attribution():
    # constant per-rank area: compute stays flat and the growth is
    # carried by the collective term
    archer2 = builtin_machine("archer2")
    rows = []
    for panel_size, nodes in ((256, 12), (512, 48), (1024, 192)):
        run = RunSpec(mesh=build_mesh(panel_size, 120), machine=archer2,
                      nodes=nodes, ranks_per_node=32, threads_per_rank=4)
        rows.append(breakdown_row(run, simulate(run)))
    users = [row["user_s"] for row in rows]
    colls = [row["coll_s"] for row in rows]
    assert max(users) / min(users) < 1.01
    assert colls[0] < colls[1] < colls[2]


def test_clock_scaling_between_machines():
    mesh = build_mesh(64, 120)
    results = {}
    for name in ("archer2", "setonix"):
        run = RunSpec(mesh=mesh, machine=builtin_machine(name), nodes=3,
                      ranks_per_node=32, threads_per_rank=4)
        results[name] = simulate(run)
    ratio = results["archer2"].user_s / results["setonix"].user_s
    assert ratio == pytest.approx(2.45 / 2.0, rel=1e-9)


def test_simulate_is_deterministic():
    run = RunSpec(mesh=build_mesh(16, 10), machine=TOY, nodes=6,
                  ranks_per_node=4, threads_per_rank=1, memory=BIG_MEMORY)
    assert simulate(run) == simulate(run)
