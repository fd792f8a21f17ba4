"""Exception types shared across the package, and its four argument rules.

Every public entry point checks its scalar arguments by one of the first three
rules, each of which returns the checked value as a plain ``int`` or ``float``,
and its real-valued arrays and values by the fourth:

- ``_integer(name, value, low, high=None)``: a dimension, size, index or seed
  is an ``int`` or numpy integer, never a bool, with ``low <= value`` and,
  when ``high`` is given, ``value < high``;
- ``_positive(name, value)``: a scale (hbar, t, beta = 1/hbar, a radius) is a
  finite real number > 0 (an ``int``, ``float`` or numpy real), never a bool;
- ``_sign(value)``: the sign sigma of the concentration kernel is the integer
  +1 or -1;
- ``_reals(name, values, shape=None)``: an observable's values, a point, a
  frame, tangent vectors, a direction or a Bessel order or argument is read by
  ``np.asarray`` as integers or floats (not bools, strings, complex numbers or
  objects), every entry is finite and, when ``shape`` is given, the array has
  exactly that shape; it is returned as a float array.

A value that breaks its rule raises ``InvalidArgumentError``.  The scalar
rules test ``type(value) is int``, which leaves out bool, an int subclass;
numpy's bool is neither a numpy integer nor a numpy float.  An array-like is
judged by the dtype numpy reads it with, so a list mixing bools with floats
reads as floats and passes ``_reals``.
"""

from __future__ import annotations

import math

import numpy as np


class DiracLabError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(DiracLabError, ValueError):
    """An argument violates a documented precondition (bad value, shape or dimension)."""


class UnsupportedDegreeError(DiracLabError):
    """A formal word product exceeds the supported degree (at most two generators)."""


class InvalidGraphError(DiracLabError):
    """A star graph or a collection of star graphs is malformed."""


class OutOfInjectivityError(DiracLabError):
    """A point lies outside the injectivity domain of the exponential map."""


class OutOfNeighbourhoodError(DiracLabError):
    """A point lies outside the sampling neighbourhood around the base point."""


class SamplingFailureError(DiracLabError):
    """Rejection sampling failed to produce enough points within the retry budget."""


class NumericFailureError(DiracLabError):
    """An iterative numeric routine failed to converge.

    Carries the best estimate so far and a diagnostics dict so callers can
    inspect how far the routine got.
    """

    def __init__(self, message: str, best=None, diagnostics: dict | None = None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


class ConfigError(DiracLabError):
    """A configuration file or flag set is invalid; message includes the offending line."""


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int, if it is an integer (not a bool) in [low, high)."""
    if type(value) is int or isinstance(value, np.integer):
        if low <= value and (high is None or value < high):
            return int(value)
    if high is None:
        bounds = f">= {low}"
    else:
        # A power of two past 2^32, as the seed's bound 2^64, is spelled 2^k.
        top = f"2^{high.bit_length() - 1}" if high > 2**32 and not high & (high - 1) else high
        bounds = f"in [{low}, {top})"
    raise InvalidArgumentError(f"{name} must be an integer {bounds}, got {value!r}")


def _positive(name: str, value) -> float:
    """``value`` as a float, if it is a finite real number > 0 (not a bool)."""
    if type(value) in (int, float) or isinstance(value, (np.integer, np.floating)):
        if math.isfinite(value) and value > 0.0:
            return float(value)
    raise InvalidArgumentError(f"{name} must be finite and > 0, got {value!r}")


def _sign(value) -> int:
    """``value`` as an int, if it is the integer +1 or -1 (not a bool)."""
    if (type(value) is int or isinstance(value, np.integer)) and value in (1, -1):
        return int(value)
    raise InvalidArgumentError(f"sign must be +1 or -1, got {value!r}")


def _reals(name: str, values, shape: tuple | None = None) -> np.ndarray:
    """``values`` as a float array, if numpy reads it as integers or floats
    (not bools), every entry is finite and, when given, its shape is ``shape``.

    For every input it accepts, the result is ``np.asarray(values, dtype=float)``.
    """
    arr = np.asarray(values)
    if shape is not None and arr.shape != shape:
        raise InvalidArgumentError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite real numbers, got {arr!r}")
    return arr.astype(float, copy=False)
