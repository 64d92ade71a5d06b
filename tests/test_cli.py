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
from cubedsim.cli import TableMismatchError, main, ratio_report, read_csv
from cubedsim.config import parse_scenario, vary
from cubedsim.dyncore import simulate
from cubedsim.machine import builtin_machine

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MINIMAL = json.loads((CONFIG_DIR / "minimal.json").read_text())
IO_RIG = json.loads((CONFIG_DIR / "io-dev-rig.json").read_text())
IO_C192 = json.loads((CONFIG_DIR / "io-c192-tuned.json").read_text())


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


TOY = {"name": "toy", "cores_per_node": 4, "clock_ghz": 2.0, "max_nodes": 64}
BIG_MEMORY = {"node_memory_bytes": 2 ** 50}


def run_sweep(tmp_path, doc, axis):
    """Sweep `doc` over `axis`; the path of the CSV written."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("sweep", "--config", str(cfg), "--axis", axis,
                   "--out", str(tmp_path / "sweep")) == 0
    return tmp_path / "sweep" / f"sweep_{axis}.csv"


def test_strong_scaling_study(tmp_path):
    rows = read_csv(run_sweep(tmp_path, {
        "machine": TOY, "memory": BIG_MEMORY,
        "mesh": {"panel_size": 16, "levels": 10},
        "layout": {"nodes": 1, "ranks_per_node": 4, "threads_per_rank": 1},
        "sweep": {"nodes": [1, 2, 4, 6]}}, "nodes"))
    assert [row["nodes"] for row in rows] == [1, 2, 4, 6]
    totals = [row["total_s"] for row in rows]
    assert totals == sorted(totals, reverse=True)
    assert rows[0]["ideal_s"] == totals[0]
    assert rows[1]["ideal_s"] == pytest.approx(totals[0] / 2)


def test_strong_scaling_skips_oom_points(tmp_path, capsys):
    rows = read_csv(run_sweep(tmp_path, {
        "machine": {"builtin": "ARCHER2"},
        "mesh": {"panel_size": 256, "levels": 120},
        "layout": {"nodes": 12, "ranks_per_node": 128, "threads_per_rank": 1},
        "sweep": {"nodes": [12, 384]}}, "nodes"))
    assert capsys.readouterr().err.startswith(
        "warning: c.json.sweep.nodes: skipping 384 nodes: ")
    assert [row["nodes"] for row in rows] == [12]
    assert rows[0]["ideal_s"] == rows[0]["total_s"]


def test_thread_sweep_flags_single_best(tmp_path):
    rows = read_csv(run_sweep(tmp_path, {
        "machine": TOY, "memory": BIG_MEMORY,
        "mesh": {"panel_size": 16, "levels": 10},
        "layout": {"nodes": 6, "ranks_per_node": 4, "threads_per_rank": 1},
        "sweep": {"threads": [1, 2, 4]}}, "threads"))
    assert [row["best"] for row in rows].count("True") == 1
    best = min(rows, key=lambda r: r["total_s"])
    assert best["best"] == "True"


def test_thread_sweep_tie_goes_to_fewer_threads(tmp_path):
    """Without halo exchanges, allreduces or barriers, 1 and 2 threads
    per rank take exactly the same time; the 1-thread row is flagged
    although the sweep lists it second."""
    doc = {"machine": {"builtin": "ARCHER2"},
           "mesh": {"panel_size": 16, "levels": 10},
           "layout": {"nodes": 1, "ranks_per_node": 128,
                      "threads_per_rank": 1},
           "cost_model": {"halo_exchanges_per_step": 0,
                          "allreduces_per_step": 0, "barrier_cost": 0.0},
           "sweep": {"threads": [2, 1, 4]}}
    scenario = parse_scenario(doc)
    total = {t: simulate(vary(scenario, "threads", t)).total_s
             for t in (2, 1)}
    assert total[2] == total[1]
    rows = read_csv(run_sweep(tmp_path, doc, "threads"))
    assert [(row["threads"], row["best"]) for row in rows] == \
        [(2, "False"), (1, "True"), (4, "False")]


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


# the layout keys that threads and nodes sweeps drop, so the run of one
# of their points leaves them out too
DROPPED = ("mode", "halo_depth", "bytes_per_cell")


def _varied(doc, axis, value):
    """`doc` as the single run that one sweep value stands for."""
    if axis in ("threads", "nodes"):
        layout = {k: v for k, v in doc["layout"].items() if k not in DROPPED}
        if axis == "threads":
            cores = builtin_machine(doc["machine"]["builtin"]).cores_per_node
            layout.update(threads_per_rank=value, ranks_per_node=cores // value)
        else:
            layout["nodes"] = value
        return {"machine": doc["machine"], "mesh": doc["mesh"],
                "layout": layout}
    io = dict(doc["io_scenario"])
    if axis == "servers":
        axis = "servers_level2" if io["servers_level2"] else "servers_level1"
    io[axis] = value
    return {"schedule": doc["schedule"], "io_scenario": io}


def _sweep_and_runs(tmp_path, doc, axis):
    """The header and rows of the sweep of `doc` over `axis`, and the
    header and row of the run of each value."""
    header, *rows = run_sweep(tmp_path, doc, axis).read_text().splitlines()
    name = "io.csv" if "io_scenario" in doc else "dyncore.csv"
    runs = []
    for k, value in enumerate(doc["sweep"][axis]):
        point = tmp_path / f"point{k}"
        point.with_suffix(".json").write_text(
            json.dumps(_varied(doc, axis, value)))
        assert run_cli("run", "--config", str(point.with_suffix(".json")),
                       "--out", str(point)) == 0
        runs.append((point / name).read_text().splitlines())
    return header, rows, runs


@pytest.mark.parametrize("doc,axis", [
    (IO_RIG, "buffer_bytes"),
    (IO_RIG, "servers"),
    (SMALL_POOLS, "pools"),
    (SMALL_POOLS, "servers"),
], ids=["rig-buffer_bytes", "rig-servers", "pools", "two-level-servers"])
def test_io_sweep_rows_equal_the_runs_they_vary(tmp_path, doc, axis):
    header, rows, runs = _sweep_and_runs(tmp_path, doc, axis)
    assert header.startswith(f"{axis},")
    assert [int(row.split(",")[0]) for row in rows] == doc["sweep"][axis]
    for value, row, (run_header, run_row) in zip(doc["sweep"][axis], rows,
                                                 runs):
        assert header == f"{axis},{run_header}"
        assert row == f"{value},{run_row}"


SMALL_LAYOUT = {
    "machine": {"builtin": "ARCHER2"},
    "mesh": {"panel_size": 48, "levels": 30},
    "layout": {"nodes": 2, "ranks_per_node": 64, "threads_per_rank": 2},
    "sweep": {"threads": [1, 2, 4], "nodes": [1, 2, 4]},
}
REDUNDANT_LAYOUT = dict(SMALL_LAYOUT, layout=dict(
    SMALL_LAYOUT["layout"], mode="redundant_compute", halo_depth=2,
    bytes_per_cell=40))


@pytest.mark.parametrize("doc", [SMALL_LAYOUT, REDUNDANT_LAYOUT],
                         ids=["default", "redundant-depth2"])
@pytest.mark.parametrize("axis,extra", [("threads", "best"),
                                        ("nodes", "ideal_s")])
def test_timestep_sweep_rows_equal_the_runs_they_vary(tmp_path, doc, axis,
                                                      extra):
    """Each row is its point's run plus one column.  The runs leave out
    the layout's mode, halo depth and bytes per cell, which threads and
    nodes sweeps drop."""
    header, rows, runs = _sweep_and_runs(tmp_path, doc, axis)
    assert len(rows) == len(runs) == len(doc["sweep"][axis])
    for row, (run_header, run_row) in zip(rows, runs):
        assert header == f"{run_header},{extra}"
        assert row.rpartition(",")[0] == run_row


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_follow_the_umask(tmp_path, umask, mode):
    # as files written by open() would, not private as mkstemp makes them
    old = os.umask(umask)
    try:
        assert run_cli("run", "--config", str(CONFIG_DIR / "minimal.json"),
                       "--out", str(tmp_path / "out")) == 0
    finally:
        os.umask(old)
    files = sorted((tmp_path / "out").iterdir())
    assert [path.name for path in files] == ["dyncore.csv", "summary.txt"]
    assert [path.stat().st_mode & 0o777 for path in files] == [mode, mode]


def test_one_process_answers_as_fresh_ones(tmp_path, capsys):
    # main builds its parser once per process: a run, an argument error, a
    # sweep and a report in one process give the exit codes, output and
    # files that each gives in a fresh process
    out = tmp_path / "out"
    calls = [
        ["run", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
         "--out", str(out / "run")],
        ["run", "--config", str(CONFIG_DIR / "minimal.json"),
         "--out", str(out / "bad"), "--repeat", "0"],
        ["sweep", "--config", str(CONFIG_DIR / "io-dev-rig.json"),
         "--axis", "servers", "--out", str(out / "sweep")],
        ["report", str(out / "run" / "io.csv"), str(out / "run" / "io.csv"),
         "--out", str(out / "report")],
    ]

    def files():
        return {path: path.read_bytes() for path in out.rglob("*")
                if path.is_file()}

    src = Path(cubedsim.__file__).resolve().parent.parent
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        here = (code, *capsys.readouterr(), files())
        fresh = subprocess.run(
            [sys.executable, "-m", "cubedsim.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=60)
        assert here == (fresh.returncode, fresh.stdout, fresh.stderr, files())
        codes.append(code)
    assert codes == [0, 2, 0, 0]
    assert cubedsim.cli.build_parser() is cubedsim.cli.build_parser()


def run_in_child(config, out, limit):
    """`run` on `config` in a child with `limit` bytes of address space;
    the last line of its stdout is its peak RSS in KiB, VmHWM, since the
    child's ru_maxrss keeps the RSS of the process that started it."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from cubedsim.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM')))\n"
            "sys.exit(code)\n")
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


def test_huge_span_layout_exits_3_in_little_memory(tmp_path):
    # 1,000,000 single-thread ranks per node on 11 nodes at C2048: 11 M
    # spans, which no 6 * p * q grid holds; the guard must speak from the
    # two span sizes and the classes of the spans crossing a row, in a
    # child with 1 GiB of address space and under 50 MiB of max RSS
    doc = {"machine": {"name": "huge", "cores_per_node": 1_000_000,
                       "clock_ghz": 2.0, "max_nodes": 100},
           "mesh": {"panel_size": 2048, "levels": 30},
           "layout": {"nodes": 11, "ranks_per_node": 1_000_000,
                      "threads_per_rank": 1}}
    config = tmp_path / "spans.json"
    config.write_text(json.dumps(doc))
    done = run_in_child(config, tmp_path / "out", 1024 * 1024 * 1024)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert "GiB per node exceeds" in done.stderr
    assert int(done.stdout.split()[-1]) < 50 * 1024, done.stdout


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
     "c.json.cost_model.c_cell", "c_cell"),
    ("p2p-beta-zero", edited(MINIMAL, cost_model={"p2p_beta": 0}), None,
     "c.json.cost_model.p2p_beta", "must be > 0"),
    ("coll-beta-zero", edited(MINIMAL, cost_model={"coll_beta": 0}), None,
     "c.json.cost_model.coll_beta", "must be > 0"),
    ("efficiency-key", edited(MINIMAL, cost_model={
        "thread_efficiency": {"x": 1.0}}), None,
     "c.json.cost_model.thread_efficiency[x]", "integer key"),
    ("memory-string", edited(MINIMAL, memory={"node_memory_bytes": "big"}),
     None, "c.json.memory.node_memory_bytes", "integer"),
    ("memory-negative", edited(MINIMAL, memory={"node_memory_bytes": -1}),
     None, "c.json.memory.node_memory_bytes",
     "node_memory_bytes must be >= 1"),
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
     "c.json.layout.bytes_per_cell", "must be >= 1"),
    ("timesteps-zero", edited(MINIMAL, layout={"timesteps": 0}), None,
     "c.json.layout.timesteps", "must be >= 1"),
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
    ("grid-panel-zero", edited(MINIMAL, grid={
        "points": [{"panel_size": 0, "nodes": 3}]}), None,
     "c.json.grid.points[0].panel_size", "must be >= 1"),
    ("sweep-threads", edited(MINIMAL, sweep={"threads": [3]}), "threads",
     "c.json.sweep.threads[0]", "cores_per_node"),
    ("sweep-nodes-string", edited(MINIMAL, sweep={"nodes": ["a"]}), "nodes",
     "c.json.sweep.nodes[0]", "integer"),
    ("sweep-pools", edited(IO_RIG, sweep={"pools": [1, 3]}), "pools",
     "c.json.sweep.pools[1]", "pools (3)"),
    # a sweep value is located by its place in the list, not by the key
    # it sets
    ("sweep-buffer-zero", edited(IO_RIG, sweep={"buffer_bytes": [0]}),
     "buffer_bytes", "c.json.sweep.buffer_bytes[0]",
     "buffer_bytes must be positive"),
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
     None, "c.json.io_scenario.servers_level1", "servers_level1 must be >= 1"),
    # integers past 2**53, which a double does not hold exactly
    *[(f"{key.replace('_', '-')}-huge", edited(MINIMAL, cost_model={
        key: 10 ** 309}), None, f"c.json.cost_model.{key}", "integer")
      for key in ("reduce_bytes", "parallel_regions_per_step",
                  "allreduces_per_step")],
    ("bytes-per-cell-huge", edited(MINIMAL, layout={
        "bytes_per_cell": 10 ** 308}), None, "c.json.layout.bytes_per_cell",
     "integer"),
    ("buffer-huge", edited(IO_RIG, io_scenario={"buffer_bytes": 10 ** 309}),
     None, "c.json.io_scenario.buffer_bytes", "integer"),
    ("field-bytes-huge", edited(IO_RIG, schedule={"entries": [dict(
        IO_RIG["schedule"]["entries"][0], bytes_per_field=10 ** 309)]}),
     None, "c.json.schedule.entries[0].bytes_per_field", "integer"),
    *[(f"server-memory-{name}", edited(IO_C192, io_scenario={
        "server_memory_bytes": value}), None,
       "c.json.io_scenario.server_memory_bytes", "must be >= 1")
      for name, value in (("negative", -5), ("zero", 0))],
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


@pytest.mark.parametrize("doc,text", [
    # a field share larger than the client buffer
    (edited(IO_RIG, io_scenario={"buffer_bytes": 1024}),
     "exceeds the 1024-byte client buffer"),
    # two-level staging beyond the server memory: the peak and the limit
    # in exact bytes, and the key that sets the limit
    (edited(IO_RIG, io_scenario={"servers_level1": 2, "servers_level2": 2,
                                 "server_memory_bytes": 1}),
     "peak server staging of 102760448.0 bytes (98.0 MiB) exceeds the "
     "server_memory_bytes limit of 1 bytes (0.0 MiB)"),
], ids=["unwritable-field", "staging-overflow"])
def test_io_simulation_failure_exits_3(tmp_path, capsys, doc, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err
    assert not (tmp_path / "o").exists()


def test_flat_layouts_ignore_the_staging_limit(tmp_path):
    # only level-2 servers stage data, so a flat layout runs as if the
    # limit were unset, however small it is
    cfg = tmp_path / "c.json"
    outputs = []
    for extra in ({}, {"server_memory_bytes": 1}):
        cfg.write_text(json.dumps(edited(IO_RIG, io_scenario=extra)))
        out = tmp_path / f"out{len(outputs)}"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        outputs.append((out / "io.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("costs,term", [
    ({"p2p_alpha": 1e308}, "mpi_p2p_s"),
    ({"coll_beta": 1e-320}, "mpi_coll_s"),
], ids=["p2p-alpha", "coll-beta"])
def test_overflowing_breakdown_exits_3(tmp_path, capsys, costs, term):
    # finite coefficients whose breakdown is not: no inf in dyncore.csv,
    # and no summary bar drawn from a NaN share
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(edited(MINIMAL, cost_model=costs)))
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {term} is ") and "Traceback" not in err
    assert not (tmp_path / "o" / "dyncore.csv").exists()


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
