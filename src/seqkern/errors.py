"""Exception types shared across the package, and the checks of numeric
parameters that raise them.

The CLI maps these onto process exit codes (config errors: 2, data
errors: 3, numerical failures: 4).  Every numeric parameter of a public
constructor or entry point is checked by one of :func:`check_integer`,
:func:`check_positive` and :func:`check_nonnegative`, which raise
:class:`DataError` naming the parameter.
"""

import math

import numpy as np


class SeqKernError(Exception):
    """Base class for all package errors."""


class ConfigError(SeqKernError):
    """Invalid or incomplete configuration (unknown keys, bad values)."""


class DataError(SeqKernError):
    """Malformed input data (FASTA records, label tables, embeddings)."""


class NumericalError(SeqKernError):
    """A computation produced non-finite values or an unusable matrix."""


def check_integer(name: str, value, minimum: int, maximum: float = math.inf) -> int:
    """``value`` as an ``int`` in ``[minimum, maximum]``; bools, floats and
    strings are refused, Python and numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DataError(f"{name} must be at least {minimum}, got {value}")
    if value > maximum:
        raise DataError(f"{name} must be at most {maximum}, got {value}")
    return int(value)


def check_positive(**values: float) -> None:
    """:class:`DataError` naming the first of ``values`` not finite and positive."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise DataError(f"{name} must be finite and positive, got {value}")


def check_nonnegative(**values: float) -> None:
    """:class:`DataError` naming the first of ``values`` not finite and ``>= 0``."""
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise DataError(f"{name} must be finite and >= 0, got {value}")
