"""Affinity modeling, its loss, and embedding orthogonalization.

The affinity over a batch is a row-softmax of pairwise cosine similarities
with the diagonal removed, so each sample distributes one unit of affinity
over the other B-1 samples. Orthogonalization offers three strategies: the
polar factor (nearest column-orthonormal matrix in Frobenius norm), the QR
factor, or identity; the straight-through wrapper makes the polar map
trainable by passing gradients through unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, qr_decompose, thin_svd

__all__ = [
    "AffinityBatch",
    "OrthogonalizationResult",
    "cross_affinity",
    "off_diagonal",
    "scatter_off_diagonal",
    "softmax_cross_entropy",
    "affinity_loss",
    "affinity_grad_to_embeddings",
    "spectral_objective",
    "orthogonalize",
    "straight_through",
    "orthogonal_penalty",
    "row_normalize",
    "row_normalize_vjp",
]

ORTH_MODES = ("procrustes", "qr", "none")


@dataclass(frozen=True)
class AffinityBatch:
    """Off-diagonal cosine-similarity logits and the softmax temperature."""

    logits: np.ndarray  # B x (B-1), row i holds z_i . z_j for j != i in order
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @property
    def affinities(self) -> np.ndarray:
        """Row-stochastic affinity matrix softmax(logits / temperature)."""
        return _row_softmax(self.logits / self.temperature)


@dataclass(frozen=True)
class OrthogonalizationResult:
    """Orthogonalized embeddings and the Frobenius distance to the input."""

    z_new: np.ndarray
    inconsistency: float
    mode: str
    warning: str | None = None


def _check_unit_rows(z: np.ndarray, tol: float = 1e-8):
    norms = np.linalg.norm(z, axis=1)
    if np.abs(norms - 1.0).max() > tol:
        raise ValueError("rows of z must be unit-norm")


def off_diagonal(square: np.ndarray) -> np.ndarray:
    """Drop the diagonal of a B x B matrix, keeping row-wise column order."""
    b = square.shape[0]
    if square.shape != (b, b) or b < 2:
        raise ValueError("expected a square matrix with at least 2 rows")
    # past entry (0, 0) the row-major entries fall into rows of B+1 that each
    # end on a diagonal entry; dropping that column leaves the rest in order
    return square.reshape(-1)[1:].reshape(b - 1, b + 1)[:, :b].reshape(b, b - 1)


def cross_affinity(z) -> np.ndarray:
    """Pairwise cosine similarities with the diagonal removed.

    Row i of the result holds ``z_i . z_j`` for the B-1 indices ``j != i``
    in their original order. Rows of ``z`` must be unit-norm.
    """
    z = as_matrix(z, "z")
    b = z.shape[0]
    if b < 2:
        raise ValueError(f"cross_affinity needs a batch of at least 2, got {b}")
    _check_unit_rows(z)
    return off_diagonal(z @ z.T)


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


def _row_softmax(scaled: np.ndarray) -> np.ndarray:
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(
    target, logits, tau: float
) -> tuple[float, np.ndarray]:
    """Row-wise cross entropy of ``softmax(logits/tau)`` against ``target``.

    Returns the summed loss and its gradient with respect to ``logits``,
    ``(softmax(logits/tau) - target) / tau``. ``target`` rows must sum to 1.
    """
    target = as_matrix(target, "target")
    logits = as_matrix(logits, "logits")
    if target.shape != logits.shape:
        raise ValueError("target and logits shapes differ")
    row_mass = target.sum(axis=1)
    if (target < 0).any() or np.abs(row_mass - 1.0).max() > 1e-8:
        raise ValueError("target must be row-stochastic")
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


def affinity_loss(target, logits, tau: float) -> tuple[float, np.ndarray]:
    """Cross entropy between target affinities and the modeled softmax.

    ``target`` is a row-stochastic B x (B-1) matrix, ``logits`` the raw
    off-diagonal cosine similarities. Gradient is with respect to the
    logits; chaining into embeddings is `affinity_grad_to_embeddings`.
    """
    return softmax_cross_entropy(target, logits, tau)


def affinity_grad_to_embeddings(grad_logits: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Chain an off-diagonal-logit gradient back to the embeddings.

    With A the gradient scattered to a zero-diagonal B x B matrix and the
    logits being z @ z.T off-diagonal, d/dz = A @ z + A.T @ z.
    """
    a = scatter_off_diagonal(grad_logits)
    return a @ z + a.T @ z


def spectral_objective(w, z) -> float:
    """Trace objective Tr(z.T @ w @ z), evaluated as sum(w * (z @ z.T))."""
    w = as_matrix(w, "w")
    z = as_matrix(z, "z")
    n = z.shape[0]
    if w.shape != (n, n):
        raise ValueError(f"w must be {n}x{n} to conform with z, got {w.shape}")
    return float(np.sum(w * (z @ z.T)))


def orthogonalize(z, mode: str = "procrustes") -> OrthogonalizationResult:
    """Map embeddings to a column-orthonormal matrix.

    ``procrustes`` returns the polar factor u @ v.T of the thin SVD, the
    closest column-orthonormal matrix in Frobenius norm. ``qr`` returns the
    Q factor with column signs fixed so diag(q) >= 0 (the convention under
    which the QR route shows its characteristic large inconsistency).
    ``none`` passes the input through. The Frobenius distance between input
    and output is always computed and reported.
    """
    z = as_matrix(z, "z")
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
    return OrthogonalizationResult(
        z_new=z_new, inconsistency=inconsistency, mode=mode, warning=warning
    )


def straight_through(z, z_new) -> np.ndarray:
    """Re-parameterized embeddings: the value is ``z_new`` exactly.

    Backward contract: the gradient arriving at the output is passed to
    ``z`` unchanged; the ``z_new - z`` branch carries no gradient. Callers
    implement the backward by simply reusing the upstream gradient as the
    gradient at ``z``.
    """
    z = as_matrix(z, "z")
    z_new = as_matrix(z_new, "z_new")
    if z.shape != z_new.shape:
        raise ValueError("z and z_new shapes differ")
    return z + (z_new - z)


def orthogonal_penalty(z, rho: float) -> tuple[float, np.ndarray]:
    """Soft orthogonality penalty rho * ||z.T z - I||_F^2 and its gradient."""
    z = as_matrix(z, "z")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    d = z.shape[1]
    gram_defect = z.T @ z - np.eye(d)
    penalty = float(rho * np.sum(gram_defect**2))
    grad = 4.0 * rho * z @ gram_defect
    return penalty, grad


def row_normalize(z) -> np.ndarray:
    """Scale each row to unit Euclidean norm."""
    z = as_matrix(z, "z")
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
