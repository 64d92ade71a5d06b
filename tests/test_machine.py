"""Machine presets, layout validation, cost and memory models."""

import math

import pytest

from cubedsim.machine import (CostModel, LayoutError, MachineConfig,
                              MachineConfigError, MemoryModel,
                              builtin_machine, builtin_machines,
                              default_cost_model, validate_layout)


def test_builtin_preset_values():
    archer2 = builtin_machine("archer2")
    assert archer2.cores_per_node == 128
    assert archer2.clock_ghz == 2.0
    assert archer2.max_nodes == 5600
    setonix = builtin_machine("Setonix")
    assert setonix.clock_ghz == 2.45
    assert setonix.max_nodes == 1600
    xc40 = builtin_machine("XC40")
    assert xc40.cores_per_node == 36
    assert xc40.clock_ghz == 2.1
    assert len(builtin_machines()) == 3


def test_unknown_machine():
    with pytest.raises(MachineConfigError):
        builtin_machine("fugaku")


def test_machine_validation():
    with pytest.raises(MachineConfigError):
        MachineConfig(name="bad", cores_per_node=0, clock_ghz=2.0,
                      max_nodes=10)
    with pytest.raises(MachineConfigError):
        MachineConfig(name="bad", cores_per_node=8, clock_ghz=-1.0,
                      max_nodes=10)


def test_validate_layout_full_population():
    archer2 = builtin_machine("archer2")
    for threads in (1, 2, 4, 8, 16, 32, 64, 128):
        validate_layout(archer2, 128 // threads, threads)
    with pytest.raises(LayoutError):
        validate_layout(archer2, 128, 2)
    with pytest.raises(LayoutError):
        validate_layout(archer2, 63, 2)
    with pytest.raises(LayoutError):
        validate_layout(archer2, 0, 1)


def test_efficiency_table_and_interpolation():
    cost = CostModel()
    assert cost.efficiency(1) == 1.0
    assert cost.efficiency(16) == 0.85
    assert cost.efficiency(128) == 0.55
    assert cost.efficiency(256) == 0.55  # clamped above the table
    # log2-linear between 2 (1.0) and 4 (0.98): 3 sits log2(3)-1 of the way
    frac = math.log2(3) - 1.0
    assert cost.efficiency(3) == pytest.approx(1.0 + frac * (0.98 - 1.0))


def test_cost_model_validation():
    with pytest.raises(MachineConfigError):
        CostModel(c_cell=-1.0)
    with pytest.raises(MachineConfigError):
        CostModel(thread_efficiency={1: 0.9})
    with pytest.raises(MachineConfigError):
        CostModel(thread_efficiency={1: 1.0, 2: 1.5})


def test_default_cost_model_clock_scaling():
    base = default_cost_model()
    assert base.c_cell == 1.6e-5
    setonix = default_cost_model(builtin_machine("setonix"))
    assert setonix.c_cell == pytest.approx(1.6e-5 * 2.0 / 2.45)
    assert setonix.p2p_alpha == base.p2p_alpha


def test_memory_model_closed_form():
    model = MemoryModel()
    ranks_per_node, cells, levels, total = 8, 1000, 120, 4096
    expected = ranks_per_node * (cells * levels * 16 * 8
                                 + 100_000 * total + 100 * 1024 * 1024)
    assert model.node_bytes(ranks_per_node, cells, levels, total) == expected


@pytest.mark.parametrize("field,value", [
    ("node_memory_bytes", 0), ("node_memory_bytes", -1),
    ("words_per_cell_level", -1), ("rank_table_bytes_per_rank", -1),
    ("fixed_rank_bytes", -1)])
def test_memory_model_rejects_negative_sizes(field, value):
    with pytest.raises(MachineConfigError, match=field):
        MemoryModel(**{field: value})
    assert MemoryModel(node_memory_bytes=1, words_per_cell_level=0,
                       rank_table_bytes_per_rank=0, fixed_rank_bytes=0)


def test_memory_model_rank_table_dominates_wide_runs():
    # fully populated single-thread layouts fail first because the
    # per-rank rank table grows with the total rank count
    model = MemoryModel()
    cells, levels = 256, 120
    wide = model.node_bytes(128, cells, levels, 192 * 128)
    threaded = model.node_bytes(32, cells * 4, levels, 192 * 32)
    assert wide > model.node_memory_bytes
    assert threaded < model.node_memory_bytes
