"""Exception types shared across the package, and the checks that raise them.

The CLI maps these onto process exit codes (config errors: 2, data
errors: 3, numerical failures: 4).  Every numeric parameter of a public
constructor or entry point is checked by one of :func:`check_integer`,
:func:`check_positive` and :func:`check_nonnegative`, which raise
:class:`ParameterError` naming the parameter: a :class:`DataError` to a
library caller, and a configuration error, exit code 2, to the CLI.
:func:`check_finite` names the first entry of an array that is not
finite.
"""

import math

import numpy as np


#: the most float64 entries one numpy array holds: its bytes must fit a
#: signed index, or numpy refuses it as "array is too big"
MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(float).itemsize


class SeqKernError(Exception):
    """Base class for all package errors."""


class ConfigError(SeqKernError):
    """Invalid or incomplete configuration (unknown keys, bad values)."""


class DataError(SeqKernError):
    """Malformed input data (FASTA records, label tables, embeddings)."""


class NumericalError(SeqKernError):
    """A computation produced non-finite values or an unusable matrix."""


class ParameterError(DataError, ConfigError):
    """A parameter that breaks its rule, named in the message."""


def check_integer(name: str, value, minimum: int, maximum: float = math.inf) -> int:
    """``value`` as an ``int`` in ``[minimum, maximum]``; bools, floats and
    strings are refused, Python and numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be at least {minimum}, got {value}")
    if value > maximum:
        raise ParameterError(f"{name} must be at most {maximum}, got {value}")
    return int(value)


def check_positive(**values: float) -> None:
    """:class:`ParameterError` naming the first of ``values`` not finite and positive."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ParameterError(f"{name} must be finite and positive, got {value}")


def check_nonnegative(**values: float) -> None:
    """:class:`ParameterError` naming the first of ``values`` not finite and ``>= 0``."""
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ParameterError(f"{name} must be finite and >= 0, got {value}")


def check_finite(a: np.ndarray, what: str, error: type = NumericalError) -> None:
    """``error`` naming the first entry of ``a`` that is not finite:
    ``{what} entry i`` of a vector, ``{what} entry (i, j)`` of a matrix."""
    if not np.isfinite(a).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        where = index[0] if len(index) == 1 else index
        raise error(f"{what} entry {where} is not finite: {a[index]}")
