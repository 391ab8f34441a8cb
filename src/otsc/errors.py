"""The package's one exception type, and the two entry-point checks.

A numerical failure (a Sinkhorn sum that underflows, a zero-row
embedding, a non-finite gradient, loss or encoder output) raises
:class:`NumericalError`, which the CLI maps to exit status 2; a bad input
or setting raises plain ``ValueError`` (exit status 1). The message says
what failed and where. `as_matrix` is the input check of the package's
entry points and `check_finite_fields` that of its settings objects.
"""

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


def check_finite_fields(settings) -> None:
    """Refuse a dataclass instance with a NaN or infinite float field,
    naming the field."""
    for name, value in vars(settings).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class NumericalError(ArithmeticError):
    """A runtime numerical failure (underflow, non-convergence, a non-finite value)."""
