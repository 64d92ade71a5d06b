"""The shipped configs' outputs, byte for byte.

Each case is one command-line call on a file of `configs/`: `run` of
every config, `run --repeat 3` of io-c896.json, and `sweep` of every axis
in a config's sweep section.  The case compares every file the call
writes with the files of `tests/golden/<case>/`, and names the first that
differs.

To re-record a case after a deliberate output change, delete its
directory and repeat the call from the repository root, for example:

    rm -r tests/golden/io-dev-rig-sweep-servers
    cubedsim sweep --config configs/io-dev-rig.json --axis servers \\
        --out tests/golden/io-dev-rig-sweep-servers
    cubedsim run --config configs/io-c896.json --repeat 3 \\
        --out tests/golden/io-c896-repeat3
    cubedsim run --config configs/minimal.json --out tests/golden/minimal-run
"""

import json
from pathlib import Path

import pytest

from cubedsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _cases():
    """(case name, argv without --out) of every recorded call."""
    cases = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = ["--config", str(path)]
        cases.append((f"{path.stem}-run", ["run", *config]))
        if path.name == "io-c896.json":
            cases.append((f"{path.stem}-repeat3",
                          ["run", *config, "--repeat", "3"]))
        for axis in json.loads(path.read_text()).get("sweep", {}):
            cases.append((f"{path.stem}-sweep-{axis}",
                          ["sweep", *config, "--axis", axis]))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_shipped_config_outputs_match_golden(tmp_path, capsys, name, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    golden = GOLDEN_DIR / name
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for file in written:
        assert (tmp_path / file).read_bytes() == \
            (golden / file).read_bytes(), f"{name}/{file} differs"
