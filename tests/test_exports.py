"""The package's export list names only what the package defines: a
stale entry would break `from cubedsim import *` and nothing else."""

import cubedsim


def test_every_exported_name_resolves():
    assert [name for name in cubedsim.__all__
            if not hasattr(cubedsim, name)] == []
    assert len(set(cubedsim.__all__)) == len(cubedsim.__all__)
