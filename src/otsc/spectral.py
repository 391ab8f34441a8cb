"""Affinity modeling, the training loss, and embedding orthogonalization.

The affinity over a batch is a row-softmax of pairwise cosine similarities
with the diagonal masked to -inf, so each sample distributes one unit of
affinity over the other B-1 samples. Both losses of a training step, the
affinity loss on z @ z.T and the clustering loss on z @ prototypes.T, are
one row-softmax cross entropy of bilinear logits, `softmax_cross_entropy`,
which returns the gradients in both factors. Orthogonalization offers two
strategies: the polar factor (nearest column-orthonormal matrix in Frobenius
norm) or the QR factor, both from LAPACK through numpy; the trainer makes it
trainable with a straight-through backward that passes gradients through
unchanged.

These run on every training step and trust their inputs (finite float64
matrices, row-stochastic targets, a positive temperature); inputs are
validated where they enter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "OrthogonalizationResult",
    "off_diagonal",
    "softmax_cross_entropy",
    "thin_svd",
    "orthogonalize",
    "orthogonal_penalty",
    "row_normalize",
    "row_normalize_vjp",
]

# The cross entropy works through its logit plane in row panels of at most this
# many bytes: one fits a 2 MB per-core L2 cache, the 8 MB affinity plane of
# B = 1024 does not.
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
    target: np.ndarray, logits: np.ndarray, z: np.ndarray, y: np.ndarray, tau: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Row-wise cross entropy of ``softmax(logits/tau)`` against ``target``
    W for the bilinear logits L = z @ y.T, and its gradients in z and y.

    ``logits`` holds L, -inf where an entry is masked (`off_diagonal`, with
    W 0 there); W's rows sum to 1. With E = exp(L/tau - m), m the row maxima
    of L/tau, s the row sums of E and A = E/s - W, the logit gradient times
    tau:

        loss = sum(log s + m) - <W y, z> / tau
        d/dz = A y / tau,   d/dy = A.T z / tau

    A overwrites ``logits`` by row panels of at most `PANEL_BYTES`, each
    used for its rows of A y and its term of the sum z.T A while it is in
    cache (z.T copied contiguous: A.T z walks A by columns, over twice as
    slow at B = 1024, D = 2). <W y, z> is read off the factors, so a masked
    entry needs no care: exp(-inf) = 0 and W is 0 there.
    """
    b = z.shape[0]
    rows = min(b, max(1, PANEL_BYTES // (8 * logits.shape[1])))
    zt, grad_z = z.T.copy(), np.empty_like(z)
    log_partition = cross = 0.0
    for s in range(0, b, rows):
        a = logits[s : s + rows]
        a /= tau
        m = a.max(axis=1, keepdims=True)
        a -= m
        np.exp(a, out=a)
        sums = a.sum(axis=1, keepdims=True)
        log_partition += float(np.log(sums).sum() + m.sum())
        cross += float(np.vdot(target[s : s + rows] @ y, z[s : s + rows]))
        a *= 1.0 / sums
        a -= target[s : s + rows]
        np.matmul(a, y, out=grad_z[s : s + rows])
        zt_a = zt[:, s : s + rows] @ a if s == 0 else zt_a + zt[:, s : s + rows] @ a
    grad_z /= tau
    return log_partition - cross / tau, grad_z, zt_a.T / tau


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
    polar factor does); it raises :class:`NumericalError` when a diagonal entry
    of R falls at or below ``1e-12 * max|z|``. An ill-conditioned polar
    factor warns once per call site (fixed text); ``warning`` has its sigmas.
    """
    warning = None
    if mode == "procrustes":
        u, s, vt = thin_svd(z)
        s_max = float(s[0])
        s_min = float(s[-1])
        if s_min < 1e-10 * s_max or s_max == 0.0:
            warning = f"ill-conditioned polar factor: sigma_min={s_min:.3e}, sigma_max={s_max:.3e}"
            warnings.warn("ill-conditioned polar factor", RuntimeWarning, stacklevel=2)
        z_new = u @ vt
    elif mode == "qr":
        m, n = z.shape
        if m < n:
            raise ValueError(f"qr requires m >= n, got {m}x{n}")
        q, r = np.linalg.qr(z, mode="reduced")
        if np.abs(np.diag(r)).min() <= 1e-12 * np.abs(z).max():
            raise NumericalError("qr input is numerically rank-deficient")
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
    """Scale each row to unit Euclidean norm.

    A row whose norm is 0, or overflows or is NaN, has no unit direction to
    return: it raises :class:`NumericalError` naming the first such row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    if not (norms.min() > 0.0 and norms.max() < np.inf):  # NaN fails both
        i = int(np.argmin((norms > 0.0) & (norms < np.inf)))
        raise NumericalError(f"row_normalize received row {i} of norm {float(norms[i, 0])!r}")
    return z / norms


def row_normalize_vjp(z: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Backward of `row_normalize` at input ``z``.

    Per row the Jacobian is the tangent projection (I - zhat zhat.T)/||z||.
    """
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    zhat = z / norms
    radial = (grad_out * zhat).sum(axis=1, keepdims=True)
    return (grad_out - radial * zhat) / norms
