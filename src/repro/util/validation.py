"""Argument-validation helpers with consistent error messages.

Hardware-model parameters (cache geometry, TLB geometry, page sizes) have
structural constraints — power-of-two sizes, positive counts — that are
easy to violate silently.  These helpers fail fast with the parameter name
in the message.

JSON arriving at a boundary is decoded by :func:`decode_json`, the one
rule under which every way a document can fail to decode is a
:class:`ValueError`.

Array-shaped inputs (communication matrices arriving from CSV files or
the mapping service's HTTP boundary) get the same treatment: the
``check_*_array`` helpers reject NaN/Inf, negative cells and non-square
shapes with a typed :class:`ValidationError`, so callers can distinguish
"the input is garbage" (reject the request) from a programming error.
"""

from __future__ import annotations

import json
from typing import Any, Union

import numpy as np

Number = Union[int, float]


class ValidationError(ValueError):
    """An input failed structural validation (bad shape, NaN/Inf, sign).

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; boundary layers (the mapping service, CSV
    loaders) catch this type specifically to turn garbage input into a
    clean client-facing error instead of propagating it into the solver.
    """


def check_square_array(name: str, array: "np.ndarray") -> "np.ndarray":
    """Require a 2-D square float array; returns it as float64."""
    a = np.asarray(array, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(
            f"{name} must be a square 2-D array, got shape {a.shape}"
        )
    return a


def check_finite_array(name: str, array: "np.ndarray") -> "np.ndarray":
    """Reject NaN and ±Inf cells (they would silently poison any solve)."""
    a = np.asarray(array, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        bad = int(np.size(a) - np.count_nonzero(np.isfinite(a)))
        raise ValidationError(
            f"{name} must be finite, found {bad} NaN/Inf cell(s)"
        )
    return a


def check_non_negative_array(name: str, array: "np.ndarray") -> "np.ndarray":
    """Reject negative cells (communication amounts are magnitudes)."""
    a = np.asarray(array, dtype=np.float64)
    if np.any(a < 0):
        raise ValidationError(
            f"{name} must be non-negative, found minimum {a.min()!r}"
        )
    return a


def check_positive(name: str, value: Number) -> Number:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_power_of_two(name: str, value: int) -> int:
    """Require ``value`` to be a positive power of two (sizes, ways, pages)."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0.0 <= value <= 1.0``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_in_range(name: str, value: Number, lo: Number, hi: Number) -> Number:
    """Require ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def decode_json(data: Union[bytes, str]) -> Any:
    """Decode a JSON document; every way it can fail raises ValueError.

    Besides ``JSONDecodeError`` (and ``UnicodeDecodeError`` for bytes),
    ``json.loads`` raises ``RecursionError`` for nesting deeper than the
    interpreter's limit and a plain ``ValueError`` for an integer literal
    past its digit limit; boundaries answer all of them alike.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise ValueError(str(exc) or type(exc).__name__) from exc
