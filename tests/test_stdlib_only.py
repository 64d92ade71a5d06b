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


def test_every_private_name_is_used_in_src():
    """No private helper is kept only for the tests: every module-level
    private function, class and constant, and every private method, is
    referenced in the package outside its own definition."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    defined = []   # (module, name, the defining node)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined += [(module, node.name, node)] * private(node.name)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defined += [(module, target.id, node) for target in targets
                            if isinstance(target, ast.Name)
                            and private(target.id)]
            if isinstance(node, ast.ClassDef):
                defined += [(module, item.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and private(item.name)]
    uses = []      # (module, name, line)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                uses += [(module, alias.name, node.lineno)
                         for alias in node.names]
    unused = [f"{module}:{node.lineno} {name}"
              for module, name, node in defined
              if not any(used == name and not (
                  where == module
                  and node.lineno <= line <= node.end_lineno)
                  for where, used, line in uses)]
    assert unused == []
