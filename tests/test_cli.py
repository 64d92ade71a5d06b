"""Command line driver tests: exit codes, output files, determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cubedsim
from cubedsim.cli import TableMismatchError, main, ratio_report

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MINIMAL = json.loads((CONFIG_DIR / "minimal.json").read_text())
IO_RIG = json.loads((CONFIG_DIR / "io-dev-rig.json").read_text())


def run_cli(*argv):
    return main(list(argv))


def test_run_dyncore_outputs(tmp_path, capsys):
    code = run_cli("run", "--config", str(CONFIG_DIR / "minimal.json"),
                   "--out", str(tmp_path))
    assert code == 0
    csv_text = (tmp_path / "dyncore.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == ("panel_size,nodes,ranks,threads,"
                      "user_s,p2p_s,coll_s,etc_s,total_s")
    assert len(csv_text.splitlines()) == 2
    summary = (tmp_path / "summary.txt").read_text()
    assert "user" in summary and "#" in summary
    assert "dyncore.csv" in capsys.readouterr().out


def test_run_io_outputs(tmp_path):
    code = run_cli("run", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
                   "--out", str(tmp_path))
    assert code == 0
    header = (tmp_path / "io.csv").read_text().splitlines()[0]
    assert header == "wall_clock_s,wait_pct,write_rate_mib_s,bytes_written"
    assert "wall clock" in (tmp_path / "summary.txt").read_text()


def test_repeat_emits_stats_table(tmp_path, monkeypatch):
    calls = []
    simulate_io = cubedsim.iosim.simulate_io

    def counted(scenario):
        calls.append(scenario)
        return simulate_io(scenario)

    monkeypatch.setattr(cubedsim.iosim, "simulate_io", counted)
    code = run_cli("run", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
                   "--out", str(tmp_path), "--repeat", "3")
    assert code == 0
    assert len(calls) == 1    # deterministic: one simulation serves all
    stats = (tmp_path / "io_stats.csv").read_text().splitlines()
    assert "wall_clock_s_mean" in stats[0]
    assert "wall_clock_s_std" in stats[0]
    # deterministic simulator: zero spread across repeats
    row = dict(zip(stats[0].split(","), stats[1].split(",")))
    assert float(row["wall_clock_s_std"]) == 0.0


def test_missing_config_exits_2(tmp_path, capsys):
    code = run_cli("run", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mesh": {"panel_size": 8}}))
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert "levels" in capsys.readouterr().err


def test_simulation_failure_exits_3(tmp_path, capsys):
    cfg = tmp_path / "oom.json"
    cfg.write_text(json.dumps({
        "machine": {"builtin": "archer2"},
        "mesh": {"panel_size": 1024, "levels": 120},
        "layout": {"nodes": 192, "ranks_per_node": 128,
                   "threads_per_rank": 1}}))
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 3
    assert "GiB" in capsys.readouterr().err


def test_sweep_threads(tmp_path):
    code = run_cli("sweep", "--config", str(CONFIG_DIR / "threads-c512.json"),
                   "--axis", "threads", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep_threads.csv").read_text().splitlines()
    assert lines[0].endswith(",best")
    assert len(lines) == 6


# 128 single-threaded ranks per node on 192 nodes trip the memory guard
WIDE_C1024 = {
    "machine": {"builtin": "ARCHER2"},
    "mesh": {"panel_size": 1024, "levels": 120},
    "layout": {"nodes": 12, "ranks_per_node": 128, "threads_per_rank": 1},
}


@pytest.mark.parametrize("nodes,code", [([12, 192], 0), ([192], 3)],
                         ids=["one-skipped", "all-skipped"])
def test_nodes_sweep_names_skipped_points(tmp_path, capsys, nodes, code):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(WIDE_C1024, sweep={"nodes": nodes})))
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(cfg), "--axis", "nodes",
                   "--out", str(out)) == code
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(
        "warning: c.json.sweep.nodes: skipping 192 nodes: estimated ")
    if code:
        assert err[1:] == ["error: c.json.sweep.nodes: every value trips "
                           "the memory guard"]
        assert not out.exists()
    else:
        assert err[1:] == []
        rows = (out / "sweep_nodes.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["12"]


def test_sweep_unknown_axis_exits_2(tmp_path, capsys):
    code = run_cli("sweep", "--config", str(CONFIG_DIR / "threads-c512.json"),
                   "--axis", "nodes", "--out", str(tmp_path))
    assert code == 2
    assert "nodes" in capsys.readouterr().err


def test_sweep_buffer(tmp_path):
    code = run_cli("sweep", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
                   "--axis", "buffer_bytes", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep_buffer_bytes.csv").read_text().splitlines()
    assert lines[0].startswith("buffer_bytes,")
    assert len(lines) == 8


SMALL_POOLS = {
    "schedule": {"run_hours": 6.0, "entries": [
        {"field_count": 6, "period_hours": 1.0, "bytes_per_field": 3000},
        {"field_count": 2, "period_hours": 3.0, "bytes_per_field": 5000}]},
    "io_scenario": {"clients": 6, "servers_level1": 2, "servers_level2": 4,
                    "pools": 1, "buffer_bytes": 2500,
                    "base_write_rate": 400.0, "striping_factor": 2.0,
                    "files": 8, "compute_rate": 10.0},
    "sweep": {"pools": [1, 2, 4], "servers": [4, 8]},
}


def _varied(doc, axis, value):
    """`doc` as the single run that one sweep value stands for."""
    io = dict(doc["io_scenario"])
    if axis == "servers":
        axis = "servers_level2" if io["servers_level2"] else "servers_level1"
    io[axis] = value
    return {"schedule": doc["schedule"], "io_scenario": io}


@pytest.mark.parametrize("doc,axis", [
    (IO_RIG, "buffer_bytes"),
    (IO_RIG, "servers"),
    (SMALL_POOLS, "pools"),
    (SMALL_POOLS, "servers"),
], ids=["rig-buffer_bytes", "rig-servers", "pools", "two-level-servers"])
def test_io_sweep_rows_equal_the_runs_they_vary(tmp_path, doc, axis):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("sweep", "--config", str(cfg), "--axis", axis,
                   "--out", str(tmp_path / "sweep")) == 0
    header, *rows = (tmp_path / "sweep" / f"sweep_{axis}.csv") \
        .read_text().splitlines()
    assert header.startswith(f"{axis},")
    assert [int(row.split(",")[0]) for row in rows] == doc["sweep"][axis]
    for k, value in enumerate(doc["sweep"][axis]):
        point = tmp_path / f"point{k}"
        point.with_suffix(".json").write_text(
            json.dumps(_varied(doc, axis, value)))
        assert run_cli("run", "--config", str(point.with_suffix(".json")),
                       "--out", str(point)) == 0
        run_header, run_row = (point / "io.csv").read_text().splitlines()
        assert header == f"{axis},{run_header}"
        assert rows[k] == f"{value},{run_row}"


def test_report_two_inputs_ratio(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli("run", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
            "--out", str(out_a))
    run_cli("run", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
            "--out", str(out_b))
    code = run_cli("report", str(out_a / "io.csv"), str(out_b / "io.csv"),
                   "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "ratio.csv").read_text().splitlines()
    assert all(float(v) == 1.0 for v in lines[1].split(","))


def test_report_keeps_sweep_axes(tmp_path):
    sweep = tmp_path / "a" / "sweep_buffer_bytes.csv"
    run_cli("sweep", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
            "--axis", "buffer_bytes", "--out", str(sweep.parent))
    assert run_cli("report", str(sweep), str(sweep),
                   "--out", str(tmp_path)) == 0
    ratios = (tmp_path / "ratio.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in ratios] == \
        [r.split(",")[0] for r in sweep.read_text().splitlines()]


def test_report_three_inputs_stats(tmp_path):
    out = tmp_path / "a"
    run_cli("run", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
            "--out", str(out))
    code = run_cli("report", str(out / "io.csv"), str(out / "io.csv"),
                   str(out / "io.csv"), "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "stats.csv").read_text().splitlines()
    assert "wall_clock_s_mean" in lines[0]


def test_stats_copy_the_axes(tmp_path):
    # axes agree row by row, so a stats table names its rows by them
    out = tmp_path / "a"
    run_cli("run", "--config", str(CONFIG_DIR / "minimal.json"),
            "--out", str(out), "--repeat", "3")
    table = out / "dyncore.csv"
    assert run_cli("report", str(table), str(table), str(table),
                   "--out", str(tmp_path)) == 0
    run_header, run_row = table.read_text().splitlines()
    for stats in (out / "dyncore_stats.csv", tmp_path / "stats.csv"):
        header, row = stats.read_text().splitlines()
        assert header == "panel_size,nodes,ranks,threads," + ",".join(
            f"{col}_{stat}" for col in run_header.split(",")[4:]
            for stat in ("mean", "std"))
        assert row.split(",")[:4] == run_row.split(",")[:4]


def test_module_entry_point_warns_nothing():
    # the package does not import the command-line module, so running it
    # with -m executes it once, without runpy's double-import warning
    src = Path(cubedsim.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cubedsim.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def run_in_child(config, out, limit):
    """`run` on `config` in a child with `limit` bytes of address space."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from cubedsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = Path(cubedsim.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", code, "run", "--config", str(config),
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)


def test_huge_schedule_keeps_the_exit_code_contract(tmp_path):
    # a valid edit of io-dev-rig.json: 100,000 fields every 0.01 h over
    # 24 h is 240 M field writes; in a child with 512 MiB of address
    # space the call must still end in 0, 2 or 3, without a traceback
    doc = copy.deepcopy(IO_RIG)
    doc["schedule"]["entries"] = [{"field_count": 100_000,
                                   "period_hours": 0.01,
                                   "bytes_per_field": 8388608}]
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    done = run_in_child(config, tmp_path / "out", 512 * 1024 * 1024)
    assert done.returncode in (0, 2, 3), done.stderr
    assert "Traceback" not in done.stderr
    if done.returncode == 2:
        assert done.stderr.startswith("error: huge.json.schedule: ")


def test_huge_rank_count_keeps_the_exit_code_contract(tmp_path):
    # a custom machine of 1,000,000 single-thread ranks per node on 12
    # nodes: 12 M ranks of about two C2048 cells each, whose rank tables
    # trip the memory guard; in a child with 1 GiB of address space the
    # guard must speak before any per-rank object is built
    doc = {"machine": {"name": "huge", "cores_per_node": 1_000_000,
                       "clock_ghz": 2.0, "max_nodes": 100},
           "mesh": {"panel_size": 2048, "levels": 30},
           "layout": {"nodes": 12, "ranks_per_node": 1_000_000,
                      "threads_per_rank": 1}}
    config = tmp_path / "ranks.json"
    config.write_text(json.dumps(doc))
    done = run_in_child(config, tmp_path / "out", 1024 * 1024 * 1024)
    assert done.returncode in (0, 2, 3), done.stderr
    assert "Traceback" not in done.stderr
    assert done.returncode == 3, done.stderr
    assert "GiB per node exceeds" in done.stderr


def test_ratio_report():
    row_a = {"panel_size": 16, "nodes": 6, "ranks": 24, "threads": 1,
             "user_s": 2.0, "p2p_s": 0.5, "total_s": 3.0}
    row_b = dict(row_a, user_s=1.0, p2p_s=0.0, total_s=1.5)
    rows = ratio_report([row_a], [row_b])
    assert rows == [{"panel_size": 16, "nodes": 6, "ranks": 24, "threads": 1,
                     "user_s": 2.0, "p2p_s": float("inf"), "total_s": 2.0}]
    assert ratio_report([row_a], [row_a])[0]["total_s"] == 1.0
    with pytest.raises(TableMismatchError):
        ratio_report([row_a], [dict(row_a, ranks=12, threads=2)])
    with pytest.raises(TableMismatchError):
        ratio_report([row_a], [row_a, row_a])


def test_report_too_few_inputs(tmp_path, capsys):
    out = tmp_path / "a"
    run_cli("run", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
            "--out", str(out))
    code = run_cli("report", str(out / "io.csv"), "--out", str(tmp_path))
    assert code == 2


def test_reruns_are_byte_identical(tmp_path):
    outputs = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        for cfg, extra in (("minimal.json", []),
                           ("io-dev-rig.json", ["--repeat", "2"])):
            run_cli("run", "--config", str(CONFIG_DIR / cfg),
                    "--out", str(out), *extra)
        run_cli("sweep", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
                "--axis", "servers", "--out", str(out))
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


# --- the exit-code contract ----------------------------------------------


def edited(doc, **sections):
    """`doc` with the given sections' keys replaced or added."""
    doc = copy.deepcopy(doc)
    for section, keys in sections.items():
        doc[section] = dict(doc.get(section, {}), **keys)
    return doc


# (id, document, sweep axis or None, location, text the message holds)
CONTRACT = [
    ("machine-interconnect", dict(MINIMAL, machine={
        "name": "toy", "cores_per_node": 128, "clock_ghz": 2.0,
        "max_nodes": 8, "interconnect": "Slingshot 10"}), None,
     "c.json.machine.interconnect", "unknown key"),
    ("cost-negative", edited(MINIMAL, cost_model={"c_cell": -1}), None,
     "c.json.cost_model", "c_cell"),
    ("efficiency-key", edited(MINIMAL, cost_model={
        "thread_efficiency": {"x": 1.0}}), None,
     "c.json.cost_model.thread_efficiency[x]", "integer key"),
    ("memory-string", edited(MINIMAL, memory={"node_memory_bytes": "big"}),
     None, "c.json.memory.node_memory_bytes", "integer"),
    ("memory-negative", edited(MINIMAL, memory={"node_memory_bytes": -1}),
     None, "c.json.memory", "node_memory_bytes must be >= 1"),
    ("nodes-string", edited(MINIMAL, layout={"nodes": "3"}), None,
     "c.json.layout.nodes", "integer"),
    ("ranks-threads", edited(MINIMAL, layout={"ranks_per_node": 8,
                                              "threads_per_rank": 4}),
     None, "c.json.layout", "cores_per_node"),
    ("depth-zero", edited(MINIMAL, layout={"halo_depth": 0}), None,
     "c.json.layout", "halo depth"),
    ("depth-too-deep", edited(MINIMAL, layout={"halo_depth": 99}), None,
     "c.json.layout", "halo depth"),
    ("bytes-zero", edited(MINIMAL, layout={"bytes_per_cell": 0}), None,
     "c.json.layout", "bytes_per_cell"),
    ("timesteps-fraction", edited(MINIMAL, layout={"timesteps": 1.5}), None,
     "c.json.layout.timesteps", "integer"),
    ("nodes-above-max", edited(MINIMAL, layout={"nodes": 6000}), None,
     "c.json.layout", "max_nodes"),
    ("ranks-above-cells", edited(MINIMAL, mesh={"panel_size": 2},
                                 layout={"nodes": 4}), None,
     "c.json.layout", "cells"),
    ("grid-points-number", edited(MINIMAL, grid={"points": 5}), None,
     "c.json.grid.points", "list"),
    ("grid-threads", edited(MINIMAL, grid={
        "points": [{"panel_size": 24, "nodes": 3}], "threads": [3]}), None,
     "c.json.grid.points[0]", "threads_per_rank (3)"),
    ("sweep-threads", edited(MINIMAL, sweep={"threads": [3]}), "threads",
     "c.json.sweep.threads[0]", "cores_per_node"),
    ("sweep-nodes-string", edited(MINIMAL, sweep={"nodes": ["a"]}), "nodes",
     "c.json.sweep.nodes[0]", "integer"),
    ("sweep-pools", edited(IO_RIG, sweep={"pools": [1, 3]}), "pools",
     "c.json.sweep.pools[1]", "pools (3)"),
    ("sweep-buffer-descending", edited(IO_RIG, sweep={
        "buffer_bytes": [4194304, 2097152]}), "buffer_bytes",
     "c.json.sweep.buffer_bytes", "must not decrease"),
    ("sweep-nodes-descending", edited(MINIMAL, sweep={"nodes": [2, 1]}),
     "nodes", "c.json.sweep.nodes", "must not decrease"),
    ("write-rate-string", edited(IO_RIG, io_scenario={
        "base_write_rate": "fast"}), None,
     "c.json.io_scenario.base_write_rate", "number"),
    ("clients-fraction", edited(IO_RIG, io_scenario={"clients": 8.5}), None,
     "c.json.io_scenario.clients", "integer"),
    ("io-level1-zero", edited(IO_RIG, io_scenario={"servers_level1": 0,
                                                   "servers_level2": 2}),
     None, "c.json.io_scenario", "servers_level1 must be >= 1"),
]


@pytest.mark.parametrize("doc,axis,location,text",
                         [case[1:] for case in CONTRACT],
                         ids=[case[0] for case in CONTRACT])
def test_config_problem_exits_2_naming_its_location(tmp_path, capsys, doc,
                                                    axis, location, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["sweep", "--axis", axis] if axis else ["run"]
    code = run_cli(*argv, "--config", str(cfg), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {location}: ")
    assert text in err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    # a field share larger than the client buffer
    edited(IO_RIG, io_scenario={"buffer_bytes": 1024}),
    # two-level staging beyond the server memory
    edited(IO_RIG, io_scenario={"servers_level1": 2, "servers_level2": 2,
                                "server_memory_bytes": 1}),
], ids=["unwritable-field", "staging-overflow"])
def test_io_simulation_failure_exits_3(tmp_path, capsys, doc):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra", [["--repeat", "0"], ["--repeat", "-1"],
                                   ["--repeat", "x"], ["--seed", "1"]])
def test_argument_errors_exit_2(tmp_path, extra):
    with pytest.raises(SystemExit) as info:
        run_cli("run", "--config", str(CONFIG_DIR / "minimal.json"),
                "--out", str(tmp_path), *extra)
    assert info.value.code == 2


# no data rows, a row that does not fit the header, or bytes that are not text
@pytest.mark.parametrize("data", [
    b"", b"wall_clock_s,wait_pct\n", b"wall_clock_s,wait_pct\n1,2,3\n",
    b"wall_clock_s,wait_pct\n1,2\n3\n", b"\xff\xfe",
], ids=["empty", "header-only", "ragged-row", "short-row", "undecodable"])
def test_report_rejects_tables_without_rows(tmp_path, capsys, data):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    good = tmp_path / "a"
    run_cli("run", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
            "--out", str(good))
    capsys.readouterr()
    code = run_cli("report", str(good / "io.csv"), str(bad),
                   "--out", str(tmp_path / "r"))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not (tmp_path / "r").exists()


def doubled_nodes(row):
    """A dyncore.csv row on twice its node count."""
    panel_size, nodes, rest = row.split(",", 2)
    return f"{panel_size},{2 * int(nodes)},{rest}"


@pytest.mark.parametrize("odd", ["columns", "rows", "axes"])
def test_report_rejects_tables_of_different_shape(tmp_path, capsys, odd):
    config = "minimal.json" if odd == "axes" else "io-dev-rig.json"
    run_cli("run", "--config", str(CONFIG_DIR / config),
            "--out", str(tmp_path / "a"))
    base, = (tmp_path / "a").glob("*.csv")
    header, row = base.read_text().splitlines()
    other = tmp_path / "other.csv"
    if odd == "columns":
        run_cli("run", "--config", str(CONFIG_DIR / "minimal.json"),
                "--out", str(tmp_path / "b"))
        other = tmp_path / "b" / "dyncore.csv"
    elif odd == "rows":
        other.write_text(f"{header}\n{row}\n{row}\n")
    else:
        other.write_text(f"{header}\n{doubled_nodes(row)}\n")
    capsys.readouterr()
    code = run_cli("report", str(base), str(base), str(other),
                   "--out", str(tmp_path / "r"))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {other}: ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("odd", ["rows", "axes", "io-axes", "columns"])
def test_two_input_report_names_the_odd_input(tmp_path, capsys, odd):
    other = tmp_path / "other.csv"
    if odd == "columns":
        # a run's table and its mean/std table share no column
        run_cli("run", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
                "--out", str(tmp_path / "a"), "--repeat", "2")
        base = tmp_path / "a" / "io.csv"
        other = tmp_path / "a" / "io_stats.csv"
    elif odd == "io-axes":
        # the same sweep over twice the buffer sizes
        base = tmp_path / "a" / "sweep_buffer_bytes.csv"
        run_cli("sweep", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
                "--axis", "buffer_bytes", "--out", str(base.parent))
        header, *rows = base.read_text().splitlines()
        rows = [f"{2 * int(size)},{rest}"
                for size, rest in (r.split(",", 1) for r in rows)]
        other.write_text("\n".join([header] + rows) + "\n")
    else:
        base = tmp_path / "a" / "dyncore.csv"
        run_cli("run", "--config", str(CONFIG_DIR / "minimal.json"),
                "--out", str(base.parent))
        header, row = base.read_text().splitlines()
        rows = [row, row] if odd == "rows" else [doubled_nodes(row)]
        other.write_text("\n".join([header] + rows) + "\n")
    capsys.readouterr()
    code = run_cli("report", str(base), str(other),
                   "--out", str(tmp_path / "r"))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {other}: ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
def test_out_path_on_a_file_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / below if below else blocker
    code = run_cli("run", "--config", str(CONFIG_DIR / "minimal.json"),
                   "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == ""


# --- any malformed input: exit 0, 2 or 3, never a traceback ----------------

SMALL_GRID = {
    "machine": {"builtin": "XC40"},
    "mesh": {"panel_size": 6, "levels": 4},
    "layout": {"nodes": 1, "ranks_per_node": 36, "threads_per_rank": 1,
               "halo_depth": 2, "mode": "redundant_compute"},
    "cost_model": {"thread_efficiency": {"1": 1.0, "2": 0.9}},
    "grid": {"points": [{"panel_size": 6, "nodes": 1},
                        {"panel_size": 12, "nodes": 2, "levels": 5}],
             "threads": [1, 2]},
}
SMALL_SWEEP = {
    "machine": {"builtin": "XC40"},
    "mesh": {"panel_size": 8, "levels": 4},
    "memory": {"node_memory_bytes": 2 ** 36},
    "layout": {"nodes": 1, "ranks_per_node": 36, "threads_per_rank": 1,
               "timesteps": 24, "bytes_per_cell": 96},
    "sweep": {"threads": [1, 2, 4], "nodes": [1, 2]},
}
# (document, argv before --config)
MUTABLE = [(MINIMAL, ["run"]), (IO_RIG, ["run"]), (SMALL_GRID, ["run"]),
           (SMALL_SWEEP, ["sweep", "--axis", "threads"]),
           (SMALL_SWEEP, ["sweep", "--axis", "nodes"])]
ODD_VALUES = [-1, 0, 0.5, "x", True, None, [], {}]


def _paths(node, prefix=()):
    """The path of every value under `node`, with whether it is an object."""
    yield prefix, isinstance(node, dict)
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutations(draw):
    doc, argv = draw(st.sampled_from(MUTABLE))
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    action = draw(st.sampled_from(("drop", "add", "set")))
    if action == "add":
        path = draw(st.sampled_from([p for p, is_object in paths if is_object]))
    else:
        path = draw(st.sampled_from([p for p, _ in paths[1:]]))
    target = doc
    for key in path[:-1] if action != "add" else path:
        target = target[key]
    if action == "drop":
        del target[path[-1]]
    elif action == "add":
        target["unknown"] = draw(st.sampled_from(ODD_VALUES))
    else:
        target[path[-1]] = draw(st.sampled_from(ODD_VALUES))
    return doc, argv


@settings(max_examples=400, deadline=None)
@given(mutations())
def test_mutated_configs_exit_0_2_or_3(case):
    doc, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run_cli(*argv, "--config", str(cfg), "--out", str(out))
        assert code in (0, 2, 3)
        if code:
            # a config problem names its place; a simulation failure its cause
            assert err.getvalue().startswith(
                "error: c.json" if code == 2 else "error: ")
            assert not out.exists()
