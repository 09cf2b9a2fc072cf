"""Exception types shared across the package, its argument rules and its reducer.

Every module imports this one, so each rule is written here once: `_whole`
for a whole number in a range (ValueError), `_positive` for a finite real
number > 0 and `_finite` for a finite real number of any sign (both
DomainError).  None of them takes a bool.  `_max_abs` is the one worst
case: an empty batch has none, so it is a ValueError naming the batch.
"""

import math
import numbers
import operator

import numpy as np


class DomainError(ValueError):
    """A field or map was evaluated outside its domain."""


class SingularityError(DomainError):
    """Evaluation at a singular point of a transform (Cayley pole, origin for sigma)."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; signals a convention or transcription bug."""


class AccuracyError(RuntimeError):
    """Quadrature refinement did not reach the requested tolerance.

    Carries the best available estimate and its refinement table (empty
    when there is none) so callers can still inspect them.
    """

    def __init__(self, message, value=None, error=None, table=()):
        super().__init__(message)
        self.value = value
        self.error = error
        self.table = table


def _whole(value, name: str, lo: int, hi: int | None = None) -> int:
    """`value` as an int in lo..hi (no upper end when hi is None), else ValueError.

    Python and numpy integers pass through `operator.index`; a bool
    (True == 1) and a float (1.0, NaN) are refused.
    """
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:  # a float, NaN included, or no number at all
        n = None
    if n is None or n < lo or (hi is not None and n > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return n


def _real(value) -> float:
    """`value` as a float if it is a real number, else NaN.

    A bool, a string or an array is no real number, although float() takes
    some; an integer beyond the float range reads NaN too, not OverflowError.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _positive(value, name: str) -> float:
    """`value` as a float if it is a real number, finite and > 0, else DomainError."""
    x = _real(value)
    if not 0.0 < x < math.inf:  # False on NaN
        raise DomainError(f"{name} must be a finite real number > 0, got {value!r}")
    return x


def _finite(value, name: str):
    """`value`, unchanged, if it is a finite real number of any sign, else DomainError."""
    if not math.isfinite(_real(value)):
        raise DomainError(f"{name} must be a finite real number, got {value!r}")
    return value


def _max_abs(*parts) -> float:
    """Largest |entry| over every part; NaN anywhere gives NaN, no entry a ValueError.

    The one reducer for worst cases: Python's max(worst, x) keeps `worst`
    when x is NaN, so a broken check would read as a pass.
    """
    mags = [np.abs(part) for part in parts]
    if not mags or not all(m.size for m in mags):
        raise ValueError("a worst case needs at least one entry, got an empty batch")
    return float(np.max([np.max(m) for m in mags]))
