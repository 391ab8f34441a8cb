"""Affinity modeling, the training loss, and embedding orthogonalization.

The affinity over a batch is a row-softmax of pairwise cosine similarities
with the diagonal masked to -inf, so each sample distributes one unit of
affinity over the other B-1 samples. Both losses of a training step, the
affinity loss on z @ z.T and the clustering loss on z @ prototypes.T, are
one row-softmax cross entropy of bilinear logits, `softmax_cross_entropy`,
which returns the gradients in both factors. Orthogonalization is the
polar factor (the nearest column-orthonormal matrix in Frobenius norm),
from LAPACK's SVD through numpy; the trainer makes it trainable with a
straight-through backward that passes gradients through unchanged.
`panel_rows` sizes the row panels of the plane work here and in the
spectral baseline; `worker_thread` and `both_halves` run half of the
training step, or of the baseline's affinity, on a second thread when the
process may use 2 CPUs.

These run on every training step and trust their inputs, which are
validated where they enter (`fit`, `TrainConfig`): finite float64
matrices, row-stochastic targets, a positive temperature; for
`off_diagonal` a B x B plane with B >= 2 (``batch_size >= 2``); for
`thin_svd` and `orthogonalize` a B x D matrix with B >= D (``embed_dim <=
batch_size / 2``).
"""

from __future__ import annotations

import contextlib
import os
import warnings
from concurrent import futures
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

# The cross entropy works through its logit plane, and the spectral baseline
# through its affinity, in row panels of at most this many bytes: one fits a
# 2 MB per-core L2 cache, the 8 MB affinity plane of B = 1024 does not.
PANEL_BYTES = 512 * 1024


def panel_rows(cols: int) -> int:
    """Rows of a float64 panel of ``cols`` columns within `PANEL_BYTES`, at least 1."""
    return max(1, PANEL_BYTES // (8 * cols))


def worker_thread(wanted: bool):
    """A one-thread executor for `both_halves` if ``wanted`` and this process
    may use 2 CPUs, else a null context whose worker is None."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if wanted and (cpus or 1) >= 2:
        return futures.ThreadPoolExecutor(1)
    return contextlib.nullcontext()


def both_halves(fn, worker):
    """``[fn(0), fn(1)]``. A worker (from `worker_thread`) runs fn(1)
    meanwhile; it is joined before an error is raised, fn(0)'s if both fail."""
    if worker is None:
        return [fn(0), fn(1)]
    second = worker.submit(fn, 1)
    try:
        return [fn(0), second.result()]
    finally:
        futures.wait([second])


@dataclass(frozen=True)
class OrthogonalizationResult:
    """Orthogonalized embeddings and the conditioning warning, if any."""

    z_new: np.ndarray
    warning: str | None = None


def off_diagonal(square: np.ndarray) -> np.ndarray:
    """Mask the diagonal of a B x B matrix (B >= 2) to -inf, in place, and
    return the matrix: a row softmax of it, or a Sinkhorn kernel built from
    it, then gives each sample exactly 0 affinity to itself."""
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
    rows = min(b, panel_rows(logits.shape[1]))
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

    Trusts ``m >= n``. Returns numpy's ``(u, s, vt)``: exactly ``n``
    factors, ``s`` nonincreasing.
    """
    return np.linalg.svd(a, full_matrices=False)


def orthogonalize(z: np.ndarray) -> OrthogonalizationResult:
    """Map B x D embeddings (B >= D) to their polar factor u @ vt, from the
    thin SVD: the closest column-orthonormal matrix in Frobenius norm.

    An ill-conditioned polar factor warns once per call site (fixed text);
    ``warning`` has its sigmas.
    """
    u, s, vt = thin_svd(z)
    s_max = float(s[0])
    s_min = float(s[-1])
    warning = None
    if s_min < 1e-10 * s_max or s_max == 0.0:
        warning = f"ill-conditioned polar factor: sigma_min={s_min:.3e}, sigma_max={s_max:.3e}"
        warnings.warn("ill-conditioned polar factor", RuntimeWarning, stacklevel=2)
    return OrthogonalizationResult(z_new=u @ vt, warning=warning)


def orthogonal_penalty(z: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft orthogonality penalty ||z.T z - I||_F^2 and its gradient."""
    d = z.shape[1]
    gram_defect = z.T @ z - np.eye(d)
    return float(np.sum(gram_defect**2)), 4.0 * z @ gram_defect


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
