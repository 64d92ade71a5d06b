"""The package's error classes.  Each carries the command-line exit
status it maps to, and keeps a builtin base so callers may catch either."""


class CubedsimError(Exception):
    """Base of the package's errors; 3 is a simulation failure."""

    exit_code = 3


class ConfigError(CubedsimError, ValueError):
    """Invalid configuration; the message carries the offending location."""

    exit_code = 2


class located:
    """Prefix a package error with `where` once, making it a ConfigError."""

    def __init__(self, where: str):
        self.where = where

    def __enter__(self):
        return self

    def __exit__(self, _kind, exc, _tb):
        if isinstance(exc, CubedsimError) and not isinstance(exc, ConfigError):
            raise ConfigError(f"{self.where}: {exc}") from exc
