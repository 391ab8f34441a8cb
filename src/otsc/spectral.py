"""Affinity modeling, its loss, and embedding orthogonalization.

The affinity over a batch is a row-softmax of pairwise cosine similarities
with the diagonal removed, so each sample distributes one unit of affinity
over the other B-1 samples. Orthogonalization offers three strategies: the
polar factor (nearest column-orthonormal matrix in Frobenius norm), the QR
factor, or identity; the trainer makes it trainable with a straight-through
backward that passes gradients through unchanged.

These run on every training step and trust their inputs (finite float64
matrices, row-stochastic targets); inputs are validated where they enter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import qr_decompose, thin_svd

__all__ = [
    "OrthogonalizationResult",
    "off_diagonal",
    "scatter_off_diagonal",
    "softmax_cross_entropy",
    "affinity_grad_to_embeddings",
    "orthogonalize",
    "orthogonal_penalty",
    "row_normalize",
    "row_normalize_vjp",
]

ORTH_MODES = ("procrustes", "qr", "none")


@dataclass(frozen=True)
class OrthogonalizationResult:
    """Orthogonalized embeddings and the Frobenius distance to the input."""

    z_new: np.ndarray
    inconsistency: float
    warning: str | None = None


def off_diagonal(square: np.ndarray) -> np.ndarray:
    """Drop the diagonal of a B x B matrix, keeping row-wise column order."""
    b = square.shape[0]
    if square.shape != (b, b) or b < 2:
        raise ValueError("expected a square matrix with at least 2 rows")
    # past entry (0, 0) the row-major entries fall into rows of B+1 that each
    # end on a diagonal entry; dropping that column leaves the rest in order
    return square.reshape(-1)[1:].reshape(b - 1, b + 1)[:, :b].reshape(b, b - 1)


def scatter_off_diagonal(values: np.ndarray) -> np.ndarray:
    """Inverse of the diagonal removal: place B x (B-1) values into a
    B x B matrix with zero diagonal."""
    b = values.shape[0]
    if values.shape != (b, b - 1):
        raise ValueError("expected a B x (B-1) matrix")
    full = np.empty((b, b))
    full.reshape(-1)[:: b + 1] = 0.0
    full.reshape(-1)[1:].reshape(b - 1, b + 1)[:, :b] = values.reshape(b - 1, b)
    return full


def softmax_cross_entropy(
    target: np.ndarray, logits: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """Row-wise cross entropy of ``softmax(logits/tau)`` against ``target``.

    Returns the summed loss and its gradient with respect to ``logits``,
    ``(softmax(logits/tau) - target) / tau``. ``target`` rows must be
    nonnegative and sum to 1, as fixed-count Sinkhorn targets do.
    """
    row_mass = target.sum(axis=1)
    if tau <= 0:
        raise ValueError("tau must be positive")
    shifted = logits / tau
    shifted -= shifted.max(axis=1, keepdims=True)
    # -sum(target * (shifted - log(sums))), sums the row sums of exp(shifted)
    cross = np.vdot(target, shifted)
    grad = np.exp(shifted, out=shifted)  # turned into the gradient in place
    sums = grad.sum(axis=1)
    loss = float(row_mass @ np.log(sums) - cross)
    grad /= sums[:, None]
    grad -= target
    grad /= tau
    return loss, grad


def affinity_grad_to_embeddings(grad_logits: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Chain an off-diagonal-logit gradient back to the embeddings.

    With A the gradient scattered to a zero-diagonal B x B matrix and the
    logits being z @ z.T off-diagonal, d/dz = A @ z + A.T @ z.
    """
    a = scatter_off_diagonal(grad_logits)
    return a @ z + a.T @ z


def orthogonalize(z: np.ndarray, mode: str = "procrustes") -> OrthogonalizationResult:
    """Map embeddings to a column-orthonormal matrix.

    ``procrustes`` returns the polar factor u @ v.T of the thin SVD, the
    closest column-orthonormal matrix in Frobenius norm. ``qr`` returns the
    Q factor with column signs fixed so diag(q) >= 0 (the convention under
    which the QR route shows its characteristic large inconsistency).
    ``none`` passes the input through. The Frobenius distance between input
    and output is always computed and reported.
    """
    if mode not in ORTH_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {ORTH_MODES}")
    warning = None
    if mode == "none":
        z_new = z.copy()
    elif mode == "procrustes":
        b, d = z.shape
        if b < d:
            raise ValueError(f"need B >= D for orthogonalization, got {b}x{d}")
        svd = thin_svd(z)
        s_max = float(svd.singular_values[0]) if svd.singular_values.size else 0.0
        s_min = float(svd.singular_values[-1]) if svd.singular_values.size else 0.0
        if s_min < 1e-10 * s_max or s_max == 0.0:
            warning = (
                f"ill-conditioned polar factor: sigma_min={s_min:.3e}, "
                f"sigma_max={s_max:.3e}"
            )
            warnings.warn(warning, RuntimeWarning, stacklevel=2)
        z_new = svd.u @ svd.v.T
    else:  # qr
        b, d = z.shape
        if b < d:
            raise ValueError(f"need B >= D for orthogonalization, got {b}x{d}")
        q, _ = qr_decompose(z)
        signs = np.where(np.diag(q)[:d] < 0, -1.0, 1.0)
        z_new = q * signs
    inconsistency = float(np.linalg.norm(z - z_new))
    return OrthogonalizationResult(z_new=z_new, inconsistency=inconsistency, warning=warning)


def orthogonal_penalty(z: np.ndarray, rho: float) -> tuple[float, np.ndarray]:
    """Soft orthogonality penalty rho * ||z.T z - I||_F^2 and its gradient."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
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
