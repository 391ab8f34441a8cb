"""Dense double-precision factorizations with pinned conventions.

Everything downstream (polar orthogonalization, the classical spectral
baseline, the QR comparison) relies on the guarantees fixed here: descending
spectra, orthonormal factors and a deterministic sign convention for QR.
LAPACK (through numpy and scipy) does the heavy lifting.

`as_matrix` is the input check of the package's entry points; `sym_eig` runs
it because it skips LAPACK's own. `thin_svd` and `qr_decompose` run on every
training step and take finite float64 matrices as given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RankError

__all__ = ["EigResult", "SvdResult", "sym_eig", "thin_svd", "qr_decompose", "as_matrix"]


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


@dataclass(frozen=True)
class EigResult:
    """Leading eigenpairs of a symmetric matrix, eigenvalues nonincreasing.

    Holds the k largest pairs `sym_eig` was asked for (the full spectrum
    when k is None). ``eigenvectors[:, i]`` pairs with ``eigenvalues[i]``;
    columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = u @ diag(s) @ v.T`` with nonincreasing ``s >= 0``."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def sym_eig(a, tol: float = 1e-10, k: int | None = None) -> EigResult:
    """The ``k`` leading eigenpairs of a symmetric matrix.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric matrix; asymmetry beyond ``tol`` (scaled by the largest
        entry magnitude) is rejected.
    tol : float
        Symmetry tolerance.
    k : int or None
        Number of largest eigenvalues to return, 1 <= k <= n; None means
        all n. LAPACK's relatively robust representation driver (evr)
        computes only the requested pairs.

    Returns
    -------
    EigResult
        The k largest eigenvalues sorted nonincreasing with matching
        orthonormal columns.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m != n:
        raise ValueError(f"sym_eig requires a square matrix, got {m}x{n}")
    k = n if k is None else k
    if not 1 <= k <= n:
        raise ValueError(f"sym_eig needs 1 <= k <= {n}, got k={k}")
    scale = max(1.0, float(np.abs(a).max()))
    asym = a - a.T
    if float(np.abs(asym, out=asym).max()) > tol * scale:
        raise ValueError("sym_eig input is not symmetric within tolerance")
    # as_matrix has checked finiteness; LAPACK returns ascending order
    evals, evecs = scipy.linalg.eigh(a, subset_by_index=[n - k, n - 1], check_finite=False)
    return EigResult(eigenvalues=evals[::-1], eigenvectors=evecs[:, ::-1])


def thin_svd(a: np.ndarray) -> SvdResult:
    """Thin SVD of a tall (or square) matrix.

    Requires ``m >= n``; callers with wide inputs transpose first. Returns
    exactly ``n`` factors.
    """
    m, n = a.shape
    if m < n:
        raise ValueError(f"thin_svd requires m >= n, got {m}x{n}; transpose at call site")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=u, singular_values=s, v=vt.T)


def qr_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with a nonnegative-diagonal sign convention on ``r``.

    Returns ``(q, r)`` with ``q`` of shape (m, n), ``q.T @ q = I`` and
    ``r`` upper-triangular with ``diag(r) >= 0`` (deterministic output).
    Raises :class:`RankError` when a diagonal entry of ``r`` falls at or
    below ``1e-12 * max|a|``.
    """
    m, n = a.shape
    if m < n:
        raise ValueError(f"qr_decompose requires m >= n, got {m}x{n}")
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    q = q * signs
    r = r * signs[:, None]
    if np.abs(np.diag(r)).min() <= 1e-12 * np.abs(a).max():
        raise RankError("qr_decompose input is numerically rank-deficient")
    return q, r
