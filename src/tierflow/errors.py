"""Exception classes mapped to CLI exit codes (config=1, output=1, data=2, numeric=3)."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(ValueError):
    """Malformed input data (parse failures, width mismatches, missing ids)."""


class NumericError(ArithmeticError):
    """Non-finite values produced where the engine guarantees finiteness."""


class OutputError(OSError):
    """An artifact that could not be written (disk full, permission lost, ...)."""
