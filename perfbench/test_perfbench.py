"""Self-test of the benchmark machinery at tiny scale.

Runs in a few seconds under the repository's test command
(PYTHONPATH=src python -m pytest); it does not time anything.
"""

from __future__ import annotations

import importlib
import random
from pathlib import Path

import pytest

import checks
import child
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli():
    return child.import_cli(ROOT)


def _tiny(work: Path):
    rng = random.Random(3)
    scenarios = [
        workloads.timestep_run(rng, "t1", 12, 24, 1, "exchange_halos"),
        workloads.node_sweep(rng, "t2", 10, 8, 2, "exchange_halos",
                             factors=(1, 2, 3)),
        workloads._run("t3", workloads._criterion8_doc(rng, rng),
                       {"kind": "io-run"}),
    ]
    run.write_inputs(scenarios, work)
    return scenarios


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reproduces_its_workload_and_seeds_differ(name):
    first = workloads.generate(name, 7)
    assert first == workloads.generate(name, 7)
    assert first != workloads.generate(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_recorded_digests_match_the_generator(name):
    seed = 0
    expected = run.expected_outcomes(name, seed,
                                     workloads.generate(name, seed))
    assert expected is not None and len(expected) > 0


def test_tracer_restores_originals_and_counts_work(cli, tmp_path):
    originals = {(module, attr): getattr(importlib.import_module(module), attr)
                 for _name, module, attr, _counter in spans.HOOKS}
    result = child.run_pass(cli, _tiny(tmp_path), tmp_path, trace=True,
                            check=True)
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    assert result["absent"] == []
    assert [c["problems"] for c in result["calls"]] == [[], [], []]
    layers = result["layers"]
    # C12 on 24 ranks: 2 x 2 blocks of 6 x 6 per panel, 24 halo cells each
    # at depth 1; the sweep adds 8 and 16 span ranks and 24 block ranks
    assert layers["decomp.halo_cells"] > 24 * 24
    assert layers["dyncore.simulate_calls"] == 4
    assert layers["decomp.span_ranks"] == 8 + 16
    assert layers["iosim.simulate_io_calls"] == 1
    assert layers["config.load_calls"] == 3
    # t1: CSV and summary, t2: one sweep CSV, t3: CSV and summary
    assert layers["cli.files_written"] == 5


def test_missing_hook_is_reported_absent(monkeypatch):
    iosim = importlib.import_module("cubedsim.iosim")
    monkeypatch.delattr(iosim, "_stage_two")
    with spans.Tracer() as tracer:
        assert tracer.absent == ["iosim.stage_two"]
    assert not hasattr(iosim, "_stage_two")
    layers = spans.layer_metrics(tracer.spans, tracer.counts, 1.0,
                                 tracer.absent)
    # what needs the stage-two hook is absent, not a perfect 0
    for name in ("iosim.stage_two_s", "iosim.stage_two_calls",
                 "iosim.stage_two_arrivals", "iosim.self_s",
                 "iosim.pools_per_stage_two_call", "iosim.stage_share"):
        assert layers[name] is None, name
    assert layers["iosim.stage_one_s"] == 0.0
    combined = spans.combine([layers, dict(layers, **{"trace.spans": 0})],
                             [1.0], [1.0])
    assert combined["iosim.stage_two_calls"] is None


def test_broken_counter_is_reported_absent(cli, tmp_path, monkeypatch):
    def stale(_counts, _args, result):
        return result.rings_by_rank    # an attribute the result lacks

    monkeypatch.setattr(spans, "HOOKS", tuple(
        (name, module, attr, stale if counter is spans._halo_cells
         else counter) for name, module, attr, counter in spans.HOOKS))
    result = child.run_pass(cli, _tiny(tmp_path), tmp_path, trace=True,
                            check=True)
    assert result["absent"] == ["decomp.compute_halos counters"]
    layers = result["layers"]
    assert layers["decomp.halo_cells"] is None
    assert layers["decomp.us_per_halo_cell"] is None
    assert layers["decomp.compute_halos_s"] > 0
    assert layers["decomp.messages"] > 0


def test_corrupted_digest_is_a_failure(cli, tmp_path):
    result = child.run_pass(cli, _tiny(tmp_path), tmp_path, trace=False,
                            check=True)
    expected = {c["id"]: f"{c['rc']}:{c['digest']}" for c in result["calls"]}
    assert run.judge([result, result], expected) == []
    expected["t1"] = "0:000000000000"
    failures = run.judge([result], expected)
    assert len(failures) == 1 and " t1: outcome " in failures[0]


def test_invariants_catch_wrong_output(cli, tmp_path):
    scenarios = _tiny(tmp_path)
    child.run_pass(cli, scenarios, tmp_path, trace=False, check=False)
    io_csv = tmp_path / "out" / "t3" / "io.csv"
    header, row = io_csv.read_text().splitlines()
    io_csv.write_text(f"{header}\n{row.rsplit(',', 1)[0]},1\n")
    problems = checks.invariants(scenarios[2], 0, io_csv.parent, tmp_path, "")
    assert any("bytes_written" in p for p in problems)
    assert checks.invariants(scenarios[0], 3, tmp_path, tmp_path, "") == \
        ["exit code 3, expected 0"]
