"""The package's error classes: one base carrying the CLI exit code."""

import importlib
import inspect
import pkgutil

import cubedsim
from cubedsim.errors import ConfigError, CubedsimError
from cubedsim.iosim import ServerMemoryError


def package_exceptions():
    """Every exception class defined in a cubedsim module."""
    for info in pkgutil.iter_modules(cubedsim.__path__):
        module = importlib.import_module(f"cubedsim.{info.name}")
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) \
                    and cls.__module__ == module.__name__:
                yield cls


def test_every_package_error_derives_from_the_base():
    classes = set(package_exceptions())
    assert len(classes) >= 14    # the base and the 13 errors beneath it
    for cls in classes:
        assert issubclass(cls, CubedsimError), cls


def test_exit_codes_and_builtin_bases():
    for cls in package_exceptions():
        if issubclass(cls, ConfigError):
            assert cls.exit_code == 2, cls
        else:
            assert cls.exit_code == 3, cls
        if cls is not CubedsimError:
            # callers catching the builtin base keep working
            builtin = RuntimeError if cls is ServerMemoryError else ValueError
            assert issubclass(cls, builtin), cls
