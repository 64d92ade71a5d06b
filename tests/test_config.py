"""Configuration parsing and validation diagnostics."""

import json
from dataclasses import replace

import pytest

from cubedsim.config import ConfigError, load_scenario, parse_scenario, vary

CONFIG_DIR = __file__.rsplit("/", 2)[0] + "/configs"


def test_minimal_config_builds_run_spec():
    scenario = load_scenario(f"{CONFIG_DIR}/minimal.json")
    run = scenario.run_spec()
    assert run.machine.name == "ARCHER2"
    assert run.mesh.panel_size == 24
    assert run.ranks == 24


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="config.frobnicate"):
        parse_scenario({"frobnicate": 1})


def test_unknown_nested_key_reports_location():
    with pytest.raises(ConfigError, match="config.layout.widht"):
        parse_scenario({"machine": {"builtin": "archer2"},
                        "layout": {"nodes": 1, "ranks_per_node": 128,
                                   "threads_per_rank": 1, "widht": 3}})


def test_missing_required_key_reports_location():
    with pytest.raises(ConfigError, match="config.mesh.levels"):
        parse_scenario({"mesh": {"panel_size": 8}})


def test_bad_value_types():
    with pytest.raises(ConfigError, match="panel_size"):
        parse_scenario({"mesh": {"panel_size": "big", "levels": 10}})
    with pytest.raises(ConfigError, match="panel_size"):
        parse_scenario({"mesh": {"panel_size": 8.5, "levels": 10}})


def test_unknown_builtin_machine():
    with pytest.raises(ConfigError, match="builtin"):
        parse_scenario({"machine": {"builtin": "summit"}})


def test_io_scenario_requires_schedule():
    doc = json.loads(open(f"{CONFIG_DIR}/io-dev-rig.json").read())
    del doc["schedule"]
    with pytest.raises(ConfigError, match="schedule"):
        parse_scenario(doc)


def test_bad_mode_value():
    with pytest.raises(ConfigError, match="mode"):
        parse_scenario({"machine": {"builtin": "archer2"},
                        "layout": {"nodes": 1, "ranks_per_node": 128,
                                   "threads_per_rank": 1,
                                   "mode": "telepathy"}})


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="bad.json"):
        load_scenario(bad)


@pytest.mark.parametrize("name", [
    "minimal.json", "weak-256.json", "strong-c1024.json",
    "threads-c512.json", "io-c192-baseline.json", "io-c192-tuned.json",
    "io-c896.json", "io-dev-rig.json", "io-pools-c192.json",
])
def test_shipped_configs_load(name):
    assert load_scenario(f"{CONFIG_DIR}/{name}").source == name


def test_cost_model_overrides():
    scenario = parse_scenario({
        "machine": {"builtin": "archer2"},
        "cost_model": {"c_cell": 1e-6,
                       "thread_efficiency": {"1": 1.0, "8": 0.5}}})
    cost = scenario.cost_model()
    assert cost.c_cell == 1e-6
    assert cost.efficiency(8) == 0.5
    with pytest.raises(ConfigError, match="cost_model.c_sell"):
        parse_scenario({"cost_model": {"c_sell": 1e-6}})


def test_default_cost_model_uses_machine_clock():
    scenario = parse_scenario({"machine": {"builtin": "setonix"}})
    assert scenario.cost_model().c_cell == pytest.approx(1.6e-5 * 2.0 / 2.45)


def test_custom_machine_section():
    scenario = parse_scenario({"machine": {
        "name": "toy", "cores_per_node": 4, "clock_ghz": 2.0,
        "max_nodes": 64}})
    assert scenario.machine.cores_per_node == 4


def test_sweep_section_validation():
    with pytest.raises(ConfigError, match="sweep.voltage"):
        parse_scenario({"sweep": {"voltage": [1, 2]}})
    with pytest.raises(ConfigError, match="sweep.nodes"):
        parse_scenario({"sweep": {"nodes": []}})


def test_library_errors_get_one_location():
    with pytest.raises(ConfigError) as info:
        parse_scenario({"mesh": {"panel_size": 0, "levels": 10}})
    assert str(info.value) == \
        "config.mesh.panel_size: panel_size must be >= 1, got 0"
    with pytest.raises(ConfigError) as info:
        parse_scenario({"mesh": {"panel_size": 4, "levels": 0}})
    assert str(info.value) == "config.mesh.levels: levels must be >= 1, got 0"
    with pytest.raises(ConfigError) as info:
        parse_scenario({"mesh": {"panel_size": "big", "levels": 10}})
    assert str(info.value) == \
        "config.mesh.panel_size: expected an integer, got 'big'"


@pytest.mark.parametrize("section,key,value", [
    ("machine", "cores_per_node", 0), ("machine", "clock_ghz", 0.0),
    ("cost_model", "etc_fixed", -1.0), ("cost_model", "reduce_bytes", -1),
    ("cost_model", "thread_efficiency", {"1": 0.5}),
    ("cost_model", "thread_efficiency", {"1": 1.0, "2": 1.5}),
    ("memory", "fixed_rank_bytes", -1), ("io_scenario", "pools", 0),
    ("io_scenario", "buffer_bytes", 0), ("io_scenario", "stripe_cap", 0.5),
    ("io_scenario", "gather_rate_factor", 0.0),
    ("io_scenario", "striping_factor", 0.5),
    ("io_scenario", "pool_penalty", -1.0),
    ("io_scenario", "server_memory_bytes", 0),
])
def test_one_field_checks_name_their_key(section, key, value):
    doc = json.loads(open(f"{CONFIG_DIR}/io-dev-rig.json").read())
    del doc["sweep"]
    doc["machine"] = {"name": "toy", "cores_per_node": 4, "clock_ghz": 2.0,
                      "max_nodes": 64}
    doc[section] = dict(doc.get(section, {}), **{key: value})
    with pytest.raises(ConfigError) as info:
        parse_scenario(doc)
    assert str(info.value).startswith(f"config.{section}.{key}: ")


@pytest.mark.parametrize("value", [True, None, [], {}, float("nan"),
                                   float("inf"), 10 ** 400, "1"])
def test_float_fields_take_finite_numbers_only(value):
    doc = json.loads(open(f"{CONFIG_DIR}/io-dev-rig.json").read())
    doc["io_scenario"]["compute_rate"] = value
    with pytest.raises(ConfigError, match="io_scenario.compute_rate"):
        parse_scenario(doc)


@pytest.mark.parametrize("value", [True, None, [], {}, 1.5, float("nan"),
                                   float("inf"), 2 ** 53 + 1, -2 ** 54,
                                   2.0 ** 54, 10 ** 309, "1"])
def test_int_fields_take_exact_integers_only(value):
    # integral and at most 2**53 in magnitude, which a double holds exactly
    doc = json.loads(open(f"{CONFIG_DIR}/io-dev-rig.json").read())
    doc["io_scenario"]["buffer_bytes"] = value
    with pytest.raises(ConfigError, match="io_scenario.buffer_bytes"):
        parse_scenario(doc)
    for exact in (2 ** 53, 2.0 ** 53):
        doc["io_scenario"]["buffer_bytes"] = exact
        assert parse_scenario(doc).io_scenario.buffer_bytes == 2 ** 53


def test_layout_and_grid_round_trip_with_defaults_left_out():
    doc = {"machine": {"builtin": "xc40"},
           "mesh": {"panel_size": 12, "levels": 8},
           "layout": {"nodes": 2, "ranks_per_node": 18, "threads_per_rank": 2,
                      "mode": "redundant_compute", "bytes_per_cell": 64},
           "grid": {"points": [{"panel_size": 12, "nodes": 2},
                               {"panel_size": 24, "nodes": 8, "levels": 4}]}}
    scenario = parse_scenario(doc)
    run = scenario.run_spec()
    assert run.mode.value == "redundant_compute"
    assert (run.timesteps, run.halo_depth, run.bytes_per_cell) == (96, 1, 64)
    assert scenario.grid.points[1].levels == 4
    assert scenario.grid.points[0].levels is None


def test_layout_checked_against_machine_and_mesh():
    doc = {"machine": {"builtin": "archer2"},
           "mesh": {"panel_size": 4, "levels": 8},
           "layout": {"nodes": 1, "ranks_per_node": 64,
                      "threads_per_rank": 2, "halo_depth": 5}}
    with pytest.raises(ConfigError, match="config.layout: halo depth 5"):
        parse_scenario(doc)
    # without a mesh the layout waits for one (a grid point's)
    del doc["mesh"]
    assert parse_scenario(doc).layout["halo_depth"] == 5


def test_sweep_values_checked_by_the_scenario_they_build():
    doc = json.loads(open(f"{CONFIG_DIR}/io-dev-rig.json").read())
    doc["sweep"] = {"servers": [1, 0]}
    with pytest.raises(ConfigError, match=r"config.sweep.servers\[1\]"):
        parse_scenario(doc)
    doc["sweep"] = {"buffer_bytes": [0]}
    with pytest.raises(ConfigError, match=r"config.sweep.buffer_bytes\[0\]"):
        parse_scenario(doc)


def test_node_and_buffer_sweeps_must_not_decrease():
    minimal = json.loads(open(f"{CONFIG_DIR}/minimal.json").read())
    rig = json.loads(open(f"{CONFIG_DIR}/io-dev-rig.json").read())
    for doc, axis, values in ((minimal, "nodes", [4, 2]),
                              (rig, "buffer_bytes", [200, 100])):
        doc["sweep"] = {axis: values}
        with pytest.raises(ConfigError) as info:
            parse_scenario(doc)
        assert str(info.value) == \
            f"config.sweep.{axis}: values must not decrease, got {values}"
        # repeated values keep their order
        doc["sweep"] = {axis: [values[1], values[1], values[0]]}
        assert parse_scenario(doc).sweep[axis] == doc["sweep"][axis]
    # the other axes are tables, not progressions
    rig["sweep"] = {"servers": [4, 2, 1]}
    assert parse_scenario(rig).sweep["servers"] == [4, 2, 1]


def test_vary_builds_what_a_sweep_value_stands_for():
    rig = load_scenario(f"{CONFIG_DIR}/io-dev-rig.json")
    io = rig.io_scenario
    assert vary(rig, "buffer_bytes", 4096) == replace(io, buffer_bytes=4096)
    assert vary(rig, "pools", 2) == replace(io, pools=2)
    flat = vary(rig, "servers", 4)
    assert flat == replace(io, servers_level1=4)
    assert flat.servers_level2 == 0
    two_level = replace(io, servers_level1=2, servers_level2=2)
    rig.io_scenario = two_level
    assert vary(rig, "servers", 4) == replace(two_level, servers_level2=4)
    minimal = load_scenario(f"{CONFIG_DIR}/minimal.json")
    assert vary(minimal, "nodes", 6) == replace(minimal.run_spec(), nodes=6)
    assert vary(minimal, "threads", 4) == replace(
        minimal.run_spec(), threads_per_rank=4, ranks_per_node=32)
