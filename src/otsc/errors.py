"""Exception types shared across the package, and the two entry-point checks.

Numerical failures subclass :class:`NumericalError` so the CLI can map them
to a distinct exit status; contract violations stay plain ``ValueError``.
The two refusals a degenerate embedding meets, `RankError` and
`ZeroRowError`, are both, so callers that catch ``ValueError`` still do.
`as_matrix` is the input check of the package's entry points and
`check_finite_fields` that of its settings objects.
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
    """Base for runtime numerical failures (underflow, NaN, refused updates)."""


class SinkhornUnderflowError(NumericalError):
    """A row or column sum underflowed to zero during Sinkhorn scaling."""

    def __init__(self, axis: str, index: int, eta: float):
        self.axis = axis
        self.index = index
        self.eta = eta
        super().__init__(
            f"{axis} {index} sum underflowed to 0 during Sinkhorn scaling (eta={eta})"
        )


class PoisonedUpdateError(NumericalError):
    """An optimizer step was refused because a gradient contained NaN."""


class TrainingAbortError(NumericalError):
    """Training aborted on a non-finite loss; message carries epoch/step."""


class RankError(NumericalError, ValueError):
    """Input matrix is numerically rank-deficient where full rank is required."""


class ZeroRowError(NumericalError, ValueError):
    """A row to be normalized has norm 0."""
