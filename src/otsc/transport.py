"""Entropic optimal transport via Sinkhorn scaling.

One scaling core, ``_scale``, serves both solvers and has two stop rules.
``sinkhorn_algorithm1`` builds training targets with a fixed count:
exponentiate similarities divided by ``eta``, then alternate column- and
row-normalization a fixed number of times, ending on rows.
``sinkhorn_marginal`` solves for prescribed marginals to a tolerance,
switching to log-domain updates at small ``eta``; it reports its scaling
vectors and is the variant used for analysis and testing. Exact solutions
of small instances, which the tests check both solvers against, live in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SinkhornUnderflowError, as_matrix

__all__ = [
    "TransportPlan",
    "SinkhornState",
    "sinkhorn_algorithm1",
    "sinkhorn_marginal",
]

# kernel-domain scaling is safe above this eta; below it exp(cost/eta)
# under/overflows and the solver switches to log-domain updates
_LOG_DOMAIN_ETA = 0.01


@dataclass(frozen=True)
class TransportPlan:
    """A transport plan plus the marginal residuals it actually achieved.

    ``row_marginal_residual`` / ``col_marginal_residual`` are max-norm
    deviations from the requested marginals; they are reported as computed,
    never clipped. A plan holding a negative, infinite or NaN entry is
    refused; the check is two reductions with no boolean masks (``min``
    propagates NaN).
    """

    plan: np.ndarray
    row_marginal_residual: float
    col_marginal_residual: float
    iterations_used: int

    def __post_init__(self):
        if not (self.plan.min() >= 0.0 and self.plan.max() < np.inf):
            raise ValueError("transport plan must be nonnegative and finite")


@dataclass(frozen=True)
class SinkhornState:
    """Row/column scalings of a converged marginal-constrained solve.

    Scalings are kept in log form so the state stays representable at small
    ``eta``. The plan is
    ``diag(exp(log_alpha)) @ exp(-cost/eta) @ diag(exp(log_beta))``.
    """

    log_alpha: np.ndarray
    log_beta: np.ndarray
    eta: float


def _measured(plan: np.ndarray, r, c, iterations: int) -> TransportPlan:
    """``plan`` with its max-norm residuals against marginals ``r`` and ``c``."""
    return TransportPlan(
        plan=plan,
        row_marginal_residual=float(np.abs(plan.sum(axis=1) - r).max()),
        col_marginal_residual=float(np.abs(plan.sum(axis=0) - c).max()),
        iterations_used=iterations,
    )


def _sums(k, scaling, axis: int, log_domain: bool) -> np.ndarray:
    """Sums of ``k`` along ``axis`` with the other side scaled by ``scaling``;
    in the log domain, a max-shifted log-sum-exp."""
    if not log_domain:
        return scaling @ k if axis == 0 else k @ scaling
    a = k + (scaling[:, None] if axis == 0 else scaling)
    top = a.max(axis=axis, keepdims=True)
    a -= top
    np.exp(a, out=a)
    return np.log(a.sum(axis=axis)) + top.ravel()


def _fit(target, sums, axis: str, eta: float, log_domain: bool) -> np.ndarray:
    """Scaling that fits ``sums`` to ``target``; refuses a kernel-domain sum
    that underflowed to 0 or to a subnormal whose reciprocal overflows."""
    if log_domain:
        return target - sums
    scaling = target / sums
    if not scaling.max() < np.inf:  # also catches NaN
        raise SinkhornUnderflowError(axis, int(np.argmin(scaling < np.inf)), eta)
    return scaling


def _scale(k, r, c, eta, max_iter, tol=None, log_domain=False, rows_first=False):
    """Alternate column and row scaling of the kernel ``k``.

    The plan ``diag(u) @ k @ diag(v)`` is never formed: a half-sweep is one
    matrix-vector product and one reciprocal or, in the log domain (``k``
    the log-kernel, ``u`` and ``v`` the potentials), one max-shifted
    log-sum-exp. Rows are exact after each sweep, so the column residual
    ``v * (k.T @ u) - c`` costs only the product the next sweep starts
    from; the loop stops on it within ``tol`` if given, else after
    ``max_iter`` sweeps. ``rows_first`` sweeps ``k.T`` instead, so rows and
    columns swap roles. Returns ``(u, v, sweeps)``.
    """
    first, second = ("row", "column") if rows_first else ("column", "row")
    if rows_first:
        k, r, c = k.T, c, r
    r_fit, c_fit = (np.log(r), np.log(c)) if log_domain else (r, c)
    u = np.zeros(k.shape[0]) if log_domain else np.ones(k.shape[0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sums = _sums(k, u, 0, log_domain)
        for sweep in range(1, max_iter + 1):
            v = _fit(c_fit, sums, first, eta, log_domain)
            u = _fit(r_fit, _sums(k, v, 1, log_domain), second, eta, log_domain)
            if sweep == max_iter:
                break
            sums = _sums(k, u, 0, log_domain)
            if tol is not None:
                mass = np.exp(v + sums) if log_domain else v * sums
                if np.abs(mass - c).max() <= tol:
                    break
    return (v, u, sweep) if rows_first else (u, v, sweep)


def sinkhorn_algorithm1(
    logits: np.ndarray, eta: float, iterations: int, *, out: np.ndarray | None = None
) -> TransportPlan:
    """Fixed-iteration Sinkhorn on a similarity matrix.

    Computes ``exp(logits/eta)`` (stabilized by subtracting the per-matrix
    max, which cancels in the first normalization) and then alternates
    column-normalize / row-normalize exactly ``iterations`` times. The final
    step is a row normalization, so rows of the result sum to 1 and columns
    are approximately uniform at total mass ``m/n`` each.

    Residuals are reported against those implied marginals: 1 per row and
    ``m/n`` per column. ``logits`` are trusted to be finite, but for masked
    -inf entries (0 in the plan). The plan is built in ``out``, a float64
    array shaped like ``logits``, when given, else in a new array.
    """
    _check_eta(eta)
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    m, n = logits.shape
    w = np.divide(logits, eta, out=out)
    w -= w.max()
    np.exp(w, out=w)
    u, v, _ = _scale(w, 1.0, 1.0, eta, iterations)
    w *= u[:, None]
    w *= v
    return _measured(w, 1.0, m / n, iterations)


def _check_eta(eta: float) -> None:
    """Both solvers take an entropic weight in (0, inf)."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not eta < np.inf:  # also catches NaN
        raise ValueError(f"eta must be finite, got {eta}")


def _check_marginals(row_marginals, col_marginals) -> tuple[np.ndarray, np.ndarray]:
    r = np.asarray(row_marginals, dtype=np.float64)
    c = np.asarray(col_marginals, dtype=np.float64)
    if r.ndim != 1 or c.ndim != 1:
        raise ValueError("marginals must be 1-D vectors")
    if (r <= 0).any() or (c <= 0).any():
        raise ValueError("marginals must be strictly positive")
    total_r, total_c = float(r.sum()), float(c.sum())
    if abs(total_r - total_c) > 1e-9 * max(1.0, total_r, total_c):
        raise ValueError(
            f"infeasible marginals: row total {total_r!r} != column total {total_c!r}"
        )
    return r, c


def sinkhorn_marginal(
    cost,
    row_marginals,
    col_marginals,
    eta: float,
    tol: float = 1e-9,
    max_iter: int = 10_000,
) -> tuple[TransportPlan, SinkhornState]:
    """Sinkhorn solve of the entropy-regularized transport problem.

    Minimizes ``sum(Q * cost) + eta * sum(Q * log Q)`` subject to the given
    row/column marginals. Sweeps alternate the row and column scaling
    updates, so columns are exact after each one, until the max-norm row
    residual falls to ``tol`` or ``max_iter`` sweeps elapse; the residuals
    of the returned plan are reported either way.

    Runs in the kernel domain for moderate ``eta`` and switches to
    log-domain updates when ``eta <= 0.01``, where ``exp(-cost/eta)`` is no
    longer representable.
    """
    cost = as_matrix(cost, "cost")
    r, c = _check_marginals(row_marginals, col_marginals)
    m, n = cost.shape
    if r.size != m or c.size != n:
        raise ValueError("marginal lengths must match the cost matrix shape")
    _check_eta(eta)
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if not tol < np.inf:  # also catches NaN
        raise ValueError(f"tol must be finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    log_domain = eta <= _LOG_DOMAIN_ETA
    k = -cost / eta if log_domain else np.exp(-cost / eta)
    a, b, used = _scale(k, r, c, eta, max_iter, tol, log_domain, rows_first=True)
    if log_domain:
        plan, log_a, log_b = np.exp(a[:, None] + k + b), a, b
    else:
        plan, log_a, log_b = a[:, None] * k * b, np.log(a), np.log(b)
    state = SinkhornState(log_alpha=log_a, log_beta=log_b, eta=eta)
    return _measured(plan, r, c, used), state

