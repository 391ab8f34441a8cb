"""Affinity modeling, its loss, and embedding orthogonalization.

The affinity over a batch is a row-softmax of pairwise cosine similarities
with the diagonal removed, so each sample distributes one unit of affinity
over the other B-1 samples. Orthogonalization offers two strategies: the
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
    "scatter_off_diagonal",
    "softmax_cross_entropy",
    "affinity_grad_to_embeddings",
    "thin_svd",
    "orthogonalize",
    "orthogonal_penalty",
    "row_normalize",
    "row_normalize_vjp",
]

@dataclass(frozen=True)
class OrthogonalizationResult:
    """Orthogonalized embeddings and the conditioning warning, if any."""

    z_new: np.ndarray
    warning: str | None = None


def _kept_runs(full: np.ndarray, packed: np.ndarray, row0: int) -> list[tuple]:
    """Flat views of a p x B panel (rows ``row0 ..`` of a B x B matrix) and of
    its p x (B-1) form without entries (i, row0+i), paired where they hold
    the same entries: those before the first dropped entry, the runs of B
    between two (dropped entries lie B+1 apart), and those after the last."""
    p, b = full.shape
    if b < 2 or p < 1 or not 0 <= row0 <= b - p:
        raise ValueError("expected a square matrix with at least 2 rows, or rows of one")
    f, k = full.reshape(-1), packed.reshape(-1)
    tail = row0 + (p - 1) * b
    between = f[row0 + 1 : tail + p].reshape(p - 1, b + 1)[:, :b]
    return [(f[:row0], k[:row0]), (between, k[row0:tail].reshape(p - 1, b)),
            (f[tail + p :], k[tail:])]


def off_diagonal(
    square: np.ndarray, *, row0: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Drop the diagonal of a B x B matrix, keeping row-wise column order, or
    the entries (i, row0+i) of its p x B rows ``row0 ..``. ``out``, a
    C-contiguous p x (B-1) float64 array, receives the result and is
    returned; by default a new array is."""
    out = np.empty((square.shape[0], square.shape[1] - 1)) if out is None else out
    for full, packed in _kept_runs(square, out, row0):
        packed[...] = full
    return out


def scatter_off_diagonal(
    values: np.ndarray, *, row0: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of `off_diagonal`: B x (B-1) values, or p rows ``row0 ..`` of
    them, placed into a B x B matrix, or p x B panel, with zeros where it
    drops entries. ``out``, a C-contiguous p x B float64 array, receives the
    result and is returned; by default a new array is."""
    b = values.shape[1] + 1
    full = np.empty((values.shape[0], b)) if out is None else out
    for whole, packed in _kept_runs(full, values, row0):
        whole[...] = packed
    full.reshape(-1)[row0 :: b + 1] = 0.0
    return full


def softmax_cross_entropy(
    target: np.ndarray, logits: np.ndarray, tau: float, *, out: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Row-wise cross entropy of ``softmax(logits/tau)`` against ``target``.

    Returns the summed loss and its gradient with respect to ``logits``,
    ``(softmax(logits/tau) - target) / tau``. ``target`` rows must be
    nonnegative and sum to 1, as fixed-count Sinkhorn targets do, so each
    row's log-partition enters the loss once. The gradient is built in
    ``out``, a float64 array shaped like ``logits``, when given, else in a
    new array.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    shifted = np.divide(logits, tau, out=out)
    shifted -= shifted.max(axis=1, keepdims=True)
    # -sum(target * (shifted - log(sums))), sums the row sums of exp(shifted)
    cross = np.vdot(target, shifted)
    grad = np.exp(shifted, out=shifted)  # turned into the gradient in place
    sums = grad.sum(axis=1)
    loss = float(np.log(sums).sum() - cross)
    grad /= sums[:, None]
    grad -= target
    grad /= tau
    return loss, grad


def affinity_grad_to_embeddings(
    grad_logits: np.ndarray, z: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Chain an affinity-logit gradient back to the embeddings.

    The gradient comes in the layout the logits had: B x (B-1) for the
    off-diagonal logits, scattered here to a zero-diagonal B x B matrix A,
    or B x B for the full z @ z.T, taken as A unchanged. Then
    d/dz = A @ z + A.T @ z by row panels A[s:e]: rows s:e of A @ z, and
    terms z.T[:, s:e] @ A[s:e] of the sum z.T @ A (z.T copied contiguous:
    A.T @ z walks A by columns, over twice as slow at B = 1024, D = 2).
    ``out``, a p x B float64 array, holds each scattered panel in turn and
    sets their height; by default A is one panel, as a B x B gradient is.
    """
    b = z.shape[0]
    scatter = grad_logits.shape[1] == b - 1
    panel = np.empty((b, b)) if scatter and out is None else out
    rows = panel.shape[0] if scatter else b
    zt, grad = z.T.copy(), np.empty_like(z)
    for s in range(0, b, rows):
        e = min(s + rows, b)
        a = grad_logits[s:e]
        a = scatter_off_diagonal(a, row0=s, out=panel[: e - s]) if scatter else a
        np.matmul(a, z, out=grad[s:e])
        zt_a = zt[:, s:e] @ a if s == 0 else zt_a + zt[:, s:e] @ a
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
