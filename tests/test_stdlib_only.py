"""The runtime stays stdlib-only: every module of the package imports
only the standard library and the package itself, and the command line
imports every module of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cubedsim"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_are_stdlib_or_cubedsim(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            assert top in sys.stdlib_module_names or top == "cubedsim", \
                f"{path.name}:{node.lineno} imports {name}"


def test_the_command_line_imports_every_module():
    """Each module serves the program: no fixtures or helpers kept as
    code that only tests reach."""
    modules = {"cubedsim" if path.stem == "__init__" else
               f"cubedsim.{path.stem}" for path in SRC.glob("*.py")}
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    shown = subprocess.run(
        [sys.executable, "-c", "import sys, cubedsim.cli; print(*sorted("
         "m for m in sys.modules if m.partition('.')[0] == 'cubedsim'))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert modules - set(shown) == set()
