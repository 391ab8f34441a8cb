"""Entropic optimal transport via Sinkhorn scaling.

One scaling core, ``_scale``, builds every kernel and plan of both solvers
and has two stop rules. ``sinkhorn_algorithm1`` builds training targets
with a fixed count: exponentiate similarities divided by ``eta``, then
alternate column- and row-normalization a fixed number of times, ending on
rows. ``sinkhorn_marginal`` solves for prescribed marginals to a tolerance,
at small ``eta`` by the same sweeps on a kernel that absorbs log-domain
potentials; it reports its log scalings and is the variant used for
analysis and testing. Kernel-domain sweeps check their scalings once per
solve, and replay checked to name a failed line. Exact solutions of small
instances, which the tests check both solvers against, live in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, as_matrix

__all__ = [
    "TransportPlan",
    "sinkhorn_algorithm1",
    "sinkhorn_marginal",
]

# below this eta exp(-cost/eta) underflows; the solver works from the log-kernel
_LOG_DOMAIN_ETA = 0.01
# a log-domain solve folds its scalings into its potentials once one of
# them exceeds this, long before a product with the kernel can overflow
_ABSORB = 1e50


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


def _measured(plan: np.ndarray, r, c, iterations: int) -> TransportPlan:
    """``plan`` with its max-norm residuals against marginals ``r`` and ``c``."""
    return TransportPlan(
        plan=plan,
        row_marginal_residual=float(np.abs(plan.sum(axis=1) - r).max()),
        col_marginal_residual=float(np.abs(plan.sum(axis=0) - c).max()),
        iterations_used=iterations,
    )


def _fit(target, sums, axis: str, eta: float) -> tuple[np.ndarray, float]:
    """Scaling that fits ``sums`` to ``target``, and its largest entry;
    refuses a sum that underflowed to 0 or to a subnormal whose reciprocal
    overflows, and a NaN sum (a log-domain line whose entries are all -inf)."""
    scaling = target / sums
    top = scaling.max()
    if not top < np.inf:  # also catches NaN
        index = int(np.argmin(scaling < np.inf))
        raise NumericalError(
            f"{axis} {index} sum underflowed to 0 during Sinkhorn scaling (eta={eta})"
        )
    return scaling, top


def _log_fit(target, log_k, axis: int, name: str, eta: float) -> np.ndarray:
    """Log scaling that fits the sums of ``exp(log_k)`` along ``axis`` to
    ``target``, by a max-shifted log-sum-exp."""
    top = log_k.max(axis=axis, keepdims=True)
    scaling, _ = _fit(target, np.exp(log_k - top).sum(axis=axis), name, eta)
    return np.log(scaling) - top.ravel()


def _scale(values, r, c, eta, max_iter, tol=None, log_domain=False, rows_first=False, out=None):
    """Sinkhorn scaling of the Gibbs kernel ``exp(values/eta)`` to marginals
    ``r``, ``c``, the one builder of kernels and plans. ``values/eta`` is
    formed once, in ``out`` if given; an entry that overflows to +inf is
    refused, naming it, and a -inf one is a forbidden cell. The kernel domain
    shifts it by its max and exponentiates, in place (Peyré & Cuturi 2019,
    §4.4). Rows are exact after each sweep, so the column residual
    ``v * (k.T @ u) - c`` costs only the product the next sweep starts from;
    the loop stops on it within ``tol`` if given, else after ``max_iter``
    sweeps; ``rows_first`` sweeps ``k.T``. Kernel-domain sweeps reuse their
    vectors and reduce none per half-sweep: as 0 * inf is NaN, a non-finite
    scaling entry leaves one in every later u or v (and in the residual),
    so u and v are checked after the loop, which replays with `_fit`'s check
    on each half-sweep to name the line that failed first. In the log
    domain, which `_fit` checks, sweep 1 is a log-sum-exp, and later sweeps
    scale ``exp(values/eta + f + g)``, absorbing the scalings into the
    potentials ``f``, ``g`` once one exceeds ``_ABSORB`` (Schmitzer 2019,
    arXiv:1610.06519). Returns ``(plan, (f, u), (g, v), n)`` after ``n``
    sweeps: in both domains the kernel the loop measured, scaled in place
    into the plan ``diag(u * exp(f)) @ exp(values/eta) @ diag(v * exp(g))``.
    Rebuilding it from the potentials instead would lose its O(1) part when
    ``f`` and ``g`` are huge and cancel.
    """
    first, second = ("row", "column") if rows_first else ("column", "row")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernel = np.divide(values, eta, out=out)
        top = kernel.max()
        if top == np.inf:
            i, j = np.unravel_index(np.argmax(kernel), kernel.shape)
            raise NumericalError(f"entry [{i}, {j}] overflowed dividing by eta (eta={eta})")
        k, r, c = (kernel.T, c, r) if rows_first else (kernel, r, c)
        if log_domain:
            log_k = k
            g = _log_fit(c, log_k, 0, first, eta)
            f = _log_fit(r, log_k + g, 1, second, eta)
            k = np.exp(log_k + f[:, None] + g)
        else:  # one potential holds the shift
            f, g = 0.0, -top
            kernel -= top
            np.exp(kernel, out=kernel)
        kv, sums = np.empty(k.shape[0]), np.empty(k.shape[1])
        for checked in (log_domain, True):  # the log domain's sweep 1 is done
            u, v, sweep, res = np.ones(k.shape[0]), np.ones(k.shape[1]), int(log_domain), 0.0
            np.dot(u, k, out=sums)
            while sweep < max_iter:
                if sweep and tol is not None:
                    res = np.abs(v * sums - c).max()
                    if res <= tol or not (checked or res < np.inf):
                        break
                sweep += 1
                if checked:
                    v, v_top = _fit(c, sums, first, eta)
                    u, u_top = _fit(r, k @ v, second, eta)
                    if log_domain and max(v_top, u_top) > _ABSORB:
                        f, g = f + np.log(u), g + np.log(v)
                        k = np.exp(log_k + f[:, None] + g)
                        u, v = np.ones_like(u), np.ones_like(v)
                else:
                    np.divide(c, sums, out=v)
                    np.divide(r, np.dot(k, v, out=kv), out=u)
                if sweep < max_iter:
                    np.dot(u, k, out=sums)
            if checked or (res < np.inf and u.max() < np.inf and v.max() < np.inf):
                break
        k *= u[:, None]
        k *= v
    return (k.T, (g, v), (f, u), sweep) if rows_first else (k, (f, u), (g, v), sweep)


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
    -inf entries (0 in the plan); an overflowing ``logits/eta`` is refused.
    The plan is built in ``out``, a float64 array shaped like ``logits``,
    when given, else in a new array.
    """
    _check_eta(eta)
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    m, n = logits.shape
    plan, _, _, _ = _scale(logits, 1.0, 1.0, eta, iterations, out=out)
    return _measured(plan, 1.0, m / n, iterations)


def _check_eta(eta: float) -> None:
    """Both solvers take an entropic weight in (0, inf)."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not eta < np.inf:  # also catches NaN
        raise ValueError(f"eta must be finite, got {eta}")


def sinkhorn_marginal(
    cost,
    row_marginals,
    col_marginals,
    eta: float,
    tol: float = 1e-9,
    max_iter: int = 10_000,
) -> tuple[TransportPlan, tuple[np.ndarray, np.ndarray]]:
    """Sinkhorn solve of the entropy-regularized transport problem.

    Minimizes ``sum(Q * cost) + eta * sum(Q * log Q)`` subject to the given
    row/column marginals. Sweeps alternate the row and column scaling
    updates, so columns are exact after each one, until the max-norm row
    residual falls to ``tol`` or ``max_iter`` sweeps elapse; the residuals
    of the returned plan are reported either way. Returns the plan and
    ``(log_alpha, log_beta)``, the row and column log scalings, in log form
    so they stay representable at small ``eta``: the plan is
    ``diag(exp(log_alpha)) @ exp(-cost/eta) @ diag(exp(log_beta))``.

    Runs in the kernel domain for moderate ``eta`` and from the log-kernel
    ``-cost/eta`` when ``eta <= 0.01`` (see ``_scale``); a +inf entry there
    is refused, a -inf one is a forbidden cell, and a line of them underflows.
    """
    cost = as_matrix(cost, "cost")
    r = np.asarray(row_marginals, dtype=np.float64)
    c = np.asarray(col_marginals, dtype=np.float64)
    if (r.shape, c.shape) != (cost.shape[:1], cost.shape[1:]):
        raise ValueError(f"marginals of shapes {r.shape}, {c.shape} do not fit cost {cost.shape}")
    if not (((r > 0) & (r < np.inf)).all() and ((c > 0) & (c < np.inf)).all()):
        raise ValueError("marginals must be strictly positive and finite")
    total_r, total_c = float(r.sum()), float(c.sum())
    if abs(total_r - total_c) > 1e-9 * max(1.0, total_r, total_c):
        raise ValueError(
            f"infeasible marginals: row total {total_r!r} != column total {total_c!r}"
        )
    _check_eta(eta)
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if not tol < np.inf:  # also catches NaN
        raise ValueError(f"tol must be finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    # the sweeps' matrix-vector products run fastest on a 64-byte boundary
    buf = np.empty(cost.size + 7)
    kernel = buf[(-buf.ctypes.data // 8) % 8:][: cost.size].reshape(cost.shape)
    np.negative(cost, out=kernel)
    plan, (f, a), (g, b), used = _scale(
        kernel, r, c, eta, max_iter, tol, eta <= _LOG_DOMAIN_ETA, rows_first=True, out=kernel
    )
    return _measured(plan, r, c, used), (f + np.log(a), g + np.log(b))
