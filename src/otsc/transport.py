"""Entropic optimal transport via Sinkhorn scaling.

One scaling core, ``_scale``, builds every kernel of both solvers and has
two stop rules. ``sinkhorn_algorithm1`` builds training targets with a
fixed count: exponentiate similarities divided by ``eta``, then alternate
column- and row-normalization a fixed number of times, ending on rows.
``sinkhorn_marginal``, used for analysis and testing, solves for
prescribed marginals to a tolerance by the same sweeps on the same kernel.
Both return W = diag(u) K diag(v) in its factors, a `SinkhornTarget`,
with its residuals read off them (Cuturi 2013; Peyré & Cuturi 2019, §4);
its `plan` is the one place W is formed, and training never forms it.
They run in the kernel domain: wherever ``exp(values/eta)``, shifted by its
max, underflows, the kernel entry is 0, a forbidden cell, and a line made
only of such cells is refused as underflowed. The sweeps check their
scalings once per solve, and replay checked to name a failed line. Exact
solutions of small instances, which the tests check both solvers against,
live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

from .errors import NumericalError, as_matrix, check_number

__all__ = ["SinkhornTarget", "sinkhorn_algorithm1", "sinkhorn_marginal"]


@dataclass(frozen=True)
class SinkhornTarget:
    """W = diag(u) @ kernel @ diag(v) in its ``factors`` ``(kernel, u, v)``,
    as `softmax_cross_entropy` takes it: what both solvers return. Its
    max-norm residuals against ``marginals`` are measured on the factors on
    first read (the fitted side from the last sweep's product in ``sums``,
    the other by one more) and reported as computed, never clipped; like
    `plan`, they hold while the kernel does. W is nonnegative, each entry at
    most the marginal of its line that the last half-sweep fitted, so it is
    not checked."""

    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    marginals: tuple
    sums: tuple[np.ndarray | None, np.ndarray | None]
    iterations_used: int

    row_marginal_residual = cached_property(lambda self: self._residual(0))
    col_marginal_residual = cached_property(lambda self: self._residual(1))

    def _residual(self, axis: int) -> float:
        kernel, u, v = self.factors
        sums = self.sums[axis]
        if sums is None:
            sums = kernel @ v if axis == 0 else u @ kernel
        return float(np.abs((u, v)[axis] * sums - self.marginals[axis]).max())

    @property
    def plan(self) -> np.ndarray:
        """W, formed on each read: the one place a plan is formed."""
        kernel, u, v = self.factors
        return u[:, None] * kernel * v


def _fit(target, sums, axis: str, eta: float) -> np.ndarray:
    """Scaling that fits ``sums`` to ``target``; refuses a sum that
    underflowed to 0 or to a subnormal whose reciprocal overflows, and a NaN
    sum (a kernel with no finite entry)."""
    scaling = target / sums
    if not scaling.max() < np.inf:  # also catches NaN
        index = int(np.argmin(scaling < np.inf))
        raise NumericalError(
            f"{axis} {index} sum underflowed to 0 during Sinkhorn scaling (eta={eta})"
        )
    return scaling


def _scale(values, r, c, eta, max_iter, tol=None, rows_first=False, out=None):
    """Sinkhorn scaling of the Gibbs kernel ``exp(values/eta)`` to marginals
    ``r``, ``c``, the one builder of kernels. ``values/eta`` is formed once,
    in ``out`` if given; an entry that overflows to +inf is refused, naming
    it. It is shifted by its max ``top`` and exponentiated in place (Peyré &
    Cuturi 2019, §4.4); an entry that is -inf, or whose exp underflows, is a
    forbidden cell. Rows are exact after each sweep, so the column residual
    ``v * (k.T @ u) - c`` costs only the product the next sweep starts from;
    the loop stops on it within ``tol`` if given, else after ``max_iter``
    sweeps; ``rows_first`` sweeps ``k.T``. The sweeps reuse their vectors
    and reduce none per half-sweep: as 0 * inf is NaN, a non-finite scaling
    entry leaves one in every later u or v (and in the residual), so u and v
    are checked after the loop, which replays with `_fit`'s check on each
    half-sweep to name the line that failed first. Returns ``(kernel, u, v,
    top, n, kv)`` after ``n`` sweeps: the kernel ``exp(values/eta - top)``
    the loop measured, unscaled, its row and column scalings, so the plan is
    ``diag(u) @ kernel @ diag(v)``, and ``kv``, the last ``k @ v``, of which
    ``u * kv`` are the plan's sums over the lines the last half-sweep fitted.
    """
    first, second = ("row", "column") if rows_first else ("column", "row")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernel = np.divide(values, eta, out=out)
        top = kernel.max()
        if top == np.inf:
            i, j = np.unravel_index(np.argmax(kernel), kernel.shape)
            raise NumericalError(f"entry [{i}, {j}] overflowed dividing by eta (eta={eta})")
        kernel -= top
        np.exp(kernel, out=kernel)
        k, r, c = (kernel.T, c, r) if rows_first else (kernel, r, c)
        kv, sums = np.empty(k.shape[0]), np.empty(k.shape[1])
        for checked in (False, True):
            u, v, sweep, res = np.ones(k.shape[0]), np.ones(k.shape[1]), 0, 0.0
            np.dot(u, k, out=sums)
            while sweep < max_iter:
                if sweep and tol is not None:
                    res = np.abs(v * sums - c).max()
                    if res <= tol or not (checked or res < np.inf):
                        break
                sweep += 1
                if checked:
                    v = _fit(c, sums, first, eta)
                    kv = k @ v
                    u = _fit(r, kv, second, eta)
                else:
                    np.divide(c, sums, out=v)
                    np.divide(r, np.dot(k, v, out=kv), out=u)
                if sweep < max_iter:
                    np.dot(u, k, out=sums)
            if checked or (res < np.inf and u.max() < np.inf and v.max() < np.inf):
                break
    return (kernel, v, u, top, sweep, kv) if rows_first else (kernel, u, v, top, sweep, kv)


def sinkhorn_algorithm1(
    logits: np.ndarray, eta: float, iterations: int, *, out: np.ndarray | None = None
) -> SinkhornTarget:
    """Fixed-iteration Sinkhorn on a similarity matrix.

    Computes ``exp(logits/eta)`` (stabilized by subtracting the per-matrix
    max, which cancels in the first normalization) and then alternates
    column-normalize / row-normalize exactly ``iterations`` times. The final
    step is a row normalization, so rows of the target sum to 1 and columns
    are approximately uniform at total mass ``m/n`` each.

    Returns the target in its factors: the kernel, built in ``out``, a
    float64 array shaped like ``logits``, when given, else in a new array,
    and its scalings u and v; the plan is never formed. Its residuals, if
    read, are against the implied marginals, 1 per row and ``m/n`` per
    column, and measured on the operator the loss applies: the rows
    ``u * (kernel @ v)`` from the loop's last product, the columns
    ``v * (u @ kernel)`` by one more. The arguments are trusted, as
    `TrainConfig` and ``otsc ot-debug`` check them: ``0 < eta < inf``,
    ``iterations >= 1`` and ``logits`` finite, but for masked -inf entries
    (0 in the kernel); an overflowing ``logits/eta`` is refused.
    """
    m, n = logits.shape
    kernel, u, v, _, used, kv = _scale(logits, 1.0, 1.0, eta, iterations, out=out)
    return SinkhornTarget((kernel, u, v), (1.0, m / n), (kv, None), used)


def sinkhorn_marginal(
    cost,
    row_marginals,
    col_marginals,
    eta: float,
    tol: float = 1e-9,
    max_iter: int = 10_000,
) -> tuple[SinkhornTarget, tuple[np.ndarray, np.ndarray]]:
    """Sinkhorn solve of the entropy-regularized transport problem.

    Minimizes ``sum(Q * cost) + eta * sum(Q * log Q)`` subject to the given
    row/column marginals. Sweeps alternate the row and column scaling
    updates, so columns are exact after each one, until the max-norm row
    residual falls to ``tol`` or ``max_iter`` sweeps elapse; the residuals
    are reported either way, read off the factors: the rows by one product,
    the columns from the loop's last. Returns the `SinkhornTarget` and
    ``(log_alpha, log_beta)``, the row and column log scalings, in log form
    so they stay representable at small ``eta``: the plan is
    ``diag(exp(log_alpha)) @ exp(-cost/eta) @ diag(exp(log_beta))``, but 0
    at forbidden cells, with the kernel's shift by its max in ``log_alpha``.

    Runs in the kernel domain at every ``eta`` (see ``_scale``): a +inf
    entry of ``-cost/eta`` is refused, one whose exp underflows after the
    shift by the max is a forbidden cell, and a line made only of forbidden
    cells is refused as underflowed.
    """
    check_number("eta", eta, Real, "> 0")
    check_number("tol", tol, Real, ">= 0")
    check_number("max_iter", max_iter, bound=">= 1")
    cost = as_matrix(cost, "cost")
    r = np.asarray(row_marginals, dtype=np.float64)
    c = np.asarray(col_marginals, dtype=np.float64)
    if (r.shape, c.shape) != (cost.shape[:1], cost.shape[1:]):
        raise ValueError(f"marginals of shapes {r.shape}, {c.shape} do not fit cost {cost.shape}")
    if not (((r > 0) & (r < np.inf)).all() and ((c > 0) & (c < np.inf)).all()):
        raise ValueError("marginals must be strictly positive and finite")
    total_r, total_c = float(r.sum()), float(c.sum())
    if abs(total_r - total_c) > 1e-9 * max(1.0, total_r, total_c):
        raise ValueError(f"infeasible marginals: row total {total_r!r} != column total {total_c!r}")

    # the sweeps' matrix-vector products run fastest on a 64-byte boundary
    buf = np.empty(cost.size + 7)
    kernel = buf[(-buf.ctypes.data // 8) % 8:][: cost.size].reshape(cost.shape)
    np.negative(cost, out=kernel)
    _, a, b, top, used, ka = _scale(kernel, r, c, eta, max_iter, tol, rows_first=True, out=kernel)
    return SinkhornTarget((kernel, a, b), (r, c), (None, ka), used), (np.log(a) - top, np.log(b))
