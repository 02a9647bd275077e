"""Scalar-or-array arithmetic for the performance formulas.

An op's shape fields may be ints, or int arrays along one sweep axis
(input lengths of a sum stage, contexts of a gen stage; see
:mod:`repro.llm.graph`), and every perf model prices such an op
elementwise in one call.  Each formula is written once, with these
helpers where Python's builtins would not take an array: on Python
numbers they take the builtin path, so a scalar call computes exactly
the float it always did; on arrays they take numpy's elementwise path.
Both round every ``+ - * /`` the same (IEEE double), so each element of
an array result equals the scalar result bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def maximum(a, b):
    """``max(a, b)``, elementwise when either is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def minimum(a, b):
    """``min(a, b)``, elementwise when either is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def where(condition, a, b):
    """``a if condition else b``, elementwise when ``condition`` is an
    array (then both branches are evaluated)."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, a, b)
    return a if condition else b


def to_float(value):
    """``float(value)``, elementwise (as float64) for an array."""
    if isinstance(value, np.ndarray):
        return value.astype(float)
    return float(value)


def any_true(condition) -> bool:
    """Whether ``condition`` holds anywhere (a bool, or a bool array)."""
    if isinstance(condition, np.ndarray):
        return bool(condition.any())
    return condition


def uniform(condition) -> bool:
    """The one truth value of ``condition``: a bool, or a bool array
    that must hold everywhere or nowhere."""
    if not isinstance(condition, np.ndarray):
        return condition
    if condition.all():
        return True
    if condition.any():
        raise ConfigurationError(
            "an array-valued op must not mix cases its formulas tell apart")
    return False
