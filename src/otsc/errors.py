"""The package's one exception type, and its input checks.

A numerical failure (a Sinkhorn sum that underflows, a zero-row
embedding, a non-finite gradient, loss or encoder output) raises
:class:`NumericalError`, which the CLI maps to exit status 2; a bad input
or setting raises plain ``ValueError`` (exit status 1). The message says
what failed and where. `as_matrix` checks an array argument of an entry
point; `check_number` is the one refusal of a bad scalar, an entry point's
argument or, through `check_fields`, a settings field against the range its
class states beside it.
"""

import math
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


def check_number(name: str, value, kind: type = Integral, bound: str | None = None) -> None:
    """Refuse, by name, in this order: a value that is not of ``kind``,
    ``Integral`` or ``Real`` (numpy's are taken, a bool is not); one that is
    not finite; one outside ``bound``, written ``">= N"``, ``"> N"`` or as an
    interval such as ``"[0, 1)"``. The message says "must be" an integer or
    a real number, finite, ``>= N``, positive or nonnegative (a real's bound
    at 0), or "must lie in" the interval, and ends ``, got {value!r}``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        rule = "be an integer" if kind is Integral else "be a real number"
    elif not -math.inf < value < math.inf:  # NaN fails too
        rule = "be finite"
    elif bound is None:
        return
    elif bound[0] in "[(":
        low, high = map(float, bound[1:-1].split(","))
        above = low < value if bound[0] == "(" else low <= value
        if above and (value < high if bound[-1] == ")" else value <= high):
            return
        rule = f"lie in {bound}"
    else:
        op, low = bound.split()
        if (value > float(low)) if op == ">" else (value >= float(low)):
            return
        words = {">": "be positive", ">=": "be nonnegative"}
        rule = words[op] if kind is Real and float(low) == 0 else f"be {bound}"
    raise ValueError(f"{name} must {rule}, got {value!r}")


def check_fields(settings, bounds: dict[str, str]) -> None:
    """Refuse, by name through `check_number`, a dataclass field that its
    annotation does not take, ``int`` an integer and ``float`` a real number
    (``float | None`` None too), or that lies outside its entry in
    ``bounds``; fields are checked in their order."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        kind = {"int": Integral, "float": Real, "float | None": Real}.get(f.type)
        if kind is not None and not (value is None and f.type == "float | None"):
            check_number(f.name, value, kind, bounds.get(f.name))


class NumericalError(ArithmeticError):
    """A runtime numerical failure (underflow, non-convergence, a non-finite value)."""
