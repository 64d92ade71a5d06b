"""The package's error classes.  Each carries the command-line exit
status it maps to, and keeps a builtin base so callers may catch either."""


class CubedsimError(Exception):
    """Base of the package's errors; 3 is a simulation failure.  `key`
    names the key of the located section the error is about, if one."""

    exit_code = 3

    def __init__(self, message: str = "", key: str | None = None):
        super().__init__(message)
        self.key = key


class ConfigError(CubedsimError, ValueError):
    """Invalid configuration; the message carries the offending location."""

    exit_code = 2


class located:
    """Prefix a package error with `where`, and its key if it names one
    and `keyed`, once, making it a ConfigError.  A sweep value is located
    by its place in the list, which stands for the key it sets."""

    def __init__(self, where: str, keyed: bool = True):
        self.where, self.keyed = where, keyed

    def __enter__(self):
        return self

    def __exit__(self, _kind, exc, _tb):
        if isinstance(exc, CubedsimError) and not isinstance(exc, ConfigError):
            key = "" if exc.key is None or not self.keyed else f".{exc.key}"
            raise ConfigError(f"{self.where}{key}: {exc}") from exc
