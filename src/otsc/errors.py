"""The package's one exception type, and the two entry-point checks.

A numerical failure (a Sinkhorn sum that underflows, a zero-row
embedding, a non-finite gradient, loss or encoder output) raises
:class:`NumericalError`, which the CLI maps to exit status 2; a bad input
or setting raises plain ``ValueError`` (exit status 1). The message says
what failed and where. `as_matrix` and `check_integer` are the input
checks of the package's entry points and `check_fields` that of its
settings objects.
"""

from dataclasses import fields
from numbers import Integral, Real

import numpy as np


def as_matrix(a, name: str = "a") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{name} contains non-finite entries, first at [{i}, {j}]")
    return arr


def check_integer(name: str, value) -> None:
    """Refuse, by name, a value that is not an integer: numpy's are taken, a bool is not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_fields(settings, check_bounds) -> None:
    """Refuse, by name, a dataclass field that its annotation does not take:
    ``int`` an integer (numpy's too, not a bool), ``float`` a real number
    but not a bool, ``float | None`` None too. The class's ``check_bounds()``
    runs next, on well-typed values; a NaN or infinite float is refused last,
    after any bound that refuses it."""
    typed = [(f.name, f.type, getattr(settings, f.name)) for f in fields(settings)]
    for name, kind, value in typed:
        if kind == "int":
            check_integer(name, value)
        number = isinstance(value, Real) and not isinstance(value, bool)
        if kind.startswith("float") and not (number or value is None and kind == "float | None"):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    check_bounds()
    for name, kind, value in typed:
        if kind.startswith("float") and value is not None and not abs(value) < np.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")


class NumericalError(ArithmeticError):
    """A runtime numerical failure (underflow, non-convergence, a non-finite value)."""
