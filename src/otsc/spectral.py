"""Affinity modeling, its loss, and embedding orthogonalization.

The affinity over a batch is a row-softmax of pairwise cosine similarities
with the diagonal masked to -inf, so each sample distributes one unit of
affinity over the other B-1 samples. Orthogonalization offers two strategies: the
polar factor (nearest column-orthonormal matrix in Frobenius norm) or the QR
factor, both from LAPACK through numpy; the trainer makes it trainable with
a straight-through backward that passes gradients through unchanged.

These run on every training step and trust their inputs (finite float64
matrices, row-stochastic targets); inputs are validated where they enter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import RankError

__all__ = [
    "OrthogonalizationResult",
    "off_diagonal",
    "softmax_cross_entropy",
    "affinity_grad_to_embeddings",
    "thin_svd",
    "orthogonalize",
    "orthogonal_penalty",
    "row_normalize",
    "row_normalize_vjp",
]

# The backward's B x B work goes in row panels of at most this many bytes:
# one fits a 2 MB per-core L2 cache, the 8 MB plane of B = 1024 does not.
PANEL_BYTES = 512 * 1024


@dataclass(frozen=True)
class OrthogonalizationResult:
    """Orthogonalized embeddings and the conditioning warning, if any."""

    z_new: np.ndarray
    warning: str | None = None


def off_diagonal(square: np.ndarray) -> np.ndarray:
    """Mask the diagonal of a B x B matrix (B >= 2) to -inf, in place, and
    return the matrix: a row softmax of it, or a Sinkhorn kernel built from
    it, then gives each sample exactly 0 affinity to itself."""
    b = square.shape[0]
    if b < 2 or square.shape != (b, b):
        raise ValueError("expected a square matrix with at least 2 rows")
    np.fill_diagonal(square, -np.inf)
    return square


def softmax_cross_entropy(
    target: np.ndarray,
    logits: np.ndarray,
    tau: float,
    *,
    out: np.ndarray | None = None,
    masked_diagonal: bool = False,
) -> tuple[float, np.ndarray]:
    """Row-wise cross entropy of ``softmax(logits/tau)`` against ``target``.

    Returns the summed loss and its gradient with respect to ``logits``,
    ``(softmax(logits/tau) - target) / tau``. ``target`` rows must be
    nonnegative and sum to 1, as fixed-count Sinkhorn targets do, so each
    row's log-partition enters the loss once. ``masked_diagonal`` says that
    the square ``logits`` have a -inf diagonal (`off_diagonal`) and
    ``target`` a zero one; the gradient's diagonal is then 0. The gradient
    is built in ``out``, a float64 array shaped like ``logits``, when given,
    else in a new array.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    shifted = np.divide(logits, tau, out=out)
    shifted -= shifted.max(axis=1, keepdims=True)
    if masked_diagonal:  # its targets are 0, and 0 * -inf would be NaN
        np.fill_diagonal(shifted, 0.0)
    # -sum(target * (shifted - log(sums))), sums the row sums of exp(shifted)
    cross = np.vdot(target, shifted)
    grad = np.exp(shifted, out=shifted)  # turned into the gradient in place
    if masked_diagonal:  # exp(-inf), as the mask has it
        np.fill_diagonal(grad, 0.0)
    sums = grad.sum(axis=1)
    loss = float(np.log(sums).sum() - cross)
    grad /= sums[:, None]
    grad -= target
    grad /= tau
    return loss, grad


def affinity_grad_to_embeddings(grad_logits: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Chain the gradient A of the B x B affinity logits z @ z.T back to the
    embeddings: d/dz = A @ z + A.T @ z, by row panels A[s:e] of at most
    `PANEL_BYTES`: rows s:e of A @ z, and terms z.T[:, s:e] @ A[s:e] of the
    sum z.T @ A (z.T copied contiguous: A.T @ z walks A by columns, over
    twice as slow at B = 1024, D = 2).
    """
    b = z.shape[0]
    rows = min(b, max(1, PANEL_BYTES // (8 * b)))
    zt, grad = z.T.copy(), np.empty_like(z)
    for s in range(0, b, rows):
        a = grad_logits[s : s + rows]
        np.matmul(a, z, out=grad[s : s + rows])
        zt_a = zt[:, s : s + rows] @ a if s == 0 else zt_a + zt[:, s : s + rows] @ a
    grad += zt_a.T
    return grad


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a = u @ diag(s) @ vt`` of a tall (or square) matrix.

    Requires ``m >= n``; callers with wide inputs transpose first. Returns
    numpy's ``(u, s, vt)``: exactly ``n`` factors, ``s`` nonincreasing.
    """
    m, n = a.shape
    if m < n:
        raise ValueError(f"thin_svd requires m >= n, got {m}x{n}; transpose at call site")
    return np.linalg.svd(a, full_matrices=False)


def orthogonalize(z: np.ndarray, mode: str = "procrustes") -> OrthogonalizationResult:
    """Map B x D embeddings (B >= D) to a column-orthonormal matrix.

    ``procrustes`` returns the polar factor u @ vt of the thin SVD, the
    closest column-orthonormal matrix in Frobenius norm. ``qr`` returns the
    reduced Q factor with column signs fixed so diag(q) >= 0 (the convention
    under which the QR route moves the embeddings much further than the
    polar factor does); it raises :class:`RankError` when a diagonal entry
    of R falls at or below ``1e-12 * max|z|``.
    """
    warning = None
    if mode == "procrustes":
        u, s, vt = thin_svd(z)
        s_max = float(s[0])
        s_min = float(s[-1])
        if s_min < 1e-10 * s_max or s_max == 0.0:
            warning = (
                f"ill-conditioned polar factor: sigma_min={s_min:.3e}, "
                f"sigma_max={s_max:.3e}"
            )
            warnings.warn(warning, RuntimeWarning, stacklevel=2)
        z_new = u @ vt
    elif mode == "qr":
        m, n = z.shape
        if m < n:
            raise ValueError(f"qr requires m >= n, got {m}x{n}")
        q, r = np.linalg.qr(z, mode="reduced")
        if np.abs(np.diag(r)).min() <= 1e-12 * np.abs(z).max():
            raise RankError("qr input is numerically rank-deficient")
        z_new = q * np.where(np.diag(q) < 0, -1.0, 1.0)
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'procrustes' or 'qr'")
    return OrthogonalizationResult(z_new=z_new, warning=warning)


def orthogonal_penalty(z: np.ndarray, rho: float) -> tuple[float, np.ndarray]:
    """Soft orthogonality penalty rho * ||z.T z - I||_F^2 and its gradient."""
    d = z.shape[1]
    gram_defect = z.T @ z - np.eye(d)
    penalty = float(rho * np.sum(gram_defect**2))
    grad = 4.0 * rho * z @ gram_defect
    return penalty, grad


def row_normalize(z: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm."""
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if (norms == 0).any():
        raise ValueError("row_normalize received a zero row")
    return z / norms


def row_normalize_vjp(z: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Backward of `row_normalize` at input ``z``.

    Per row the Jacobian is the tangent projection (I - zhat zhat.T)/||z||.
    """
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    zhat = z / norms
    radial = (grad_out * zhat).sum(axis=1, keepdims=True)
    return (grad_out - radial * zhat) / norms
