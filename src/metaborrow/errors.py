"""Exception hierarchy with CLI exit codes.

Every failure surfaced by the library maps onto one of three classes so
that the command line can translate it into a stable exit status:
configuration problems (2), malformed or inconsistent input data (3),
and numerical failures such as singular designs or non-convergence (4).
The setting checks live here too, so every module words a refusal alike.
"""


class MetaborrowError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(MetaborrowError):
    """Invalid configuration: missing paths, bad flag combinations."""

    exit_code = 2


class DataError(MetaborrowError):
    """Malformed input data: schema violations, duplicate arms, bad values."""

    exit_code = 3


class NumericalError(MetaborrowError):
    """Numerical failure: singular design, non-convergence, unestimable arm."""

    exit_code = 4


def check_int(name, value, least):
    """ConfigError (exit 2) unless the setting ``name``'s ``value`` is an int, not a bool,
    and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "nonnegative" if least == 0 else f">= {least}"
        raise ConfigError(f"{name} must be {bound}, got {value}")


def _check_choice(name, value, choices):
    """ConfigError (exit 2) unless the setting ``name``'s ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
