"""Classical comparison methods: Lloyd's k-means and shallow spectral clustering.

The spectral baseline follows the classical three-stage recipe: a Gaussian
affinity (fixed bandwidth or self-tuning per-point bandwidths from the
k-th nearest neighbor), row normalization to a random-walk matrix, top-K
eigenvectors (LAPACK's evr driver through scipy), then k-means on the
embedding rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import as_matrix, check_finite_fields
from .spectral import row_normalize

__all__ = [
    "SpectralConfig", "kmeans_lloyd", "classical_spectral", "kmeans_plusplus_seed", "sym_eig",
]

_MAX_LLOYD_ITER = 100
_DENSE_EIG_BOUND = 4096
# asymmetry `sym_eig` tolerates, relative to the largest entry magnitude
SYM_TOL = 1e-10


@dataclass(frozen=True)
class SpectralConfig:
    """Bandwidth choice and cluster count for the spectral baseline.

    ``bandwidth_mode`` is "fixed" (requires ``sigma``) or "self_tuning"
    (per-point bandwidth = distance to the ``k_neighbor``-th nearest
    neighbor; ``sigma`` is refused).
    """

    num_clusters: int
    bandwidth_mode: str = "self_tuning"
    sigma: float | None = None
    k_neighbor: int = 7

    def __post_init__(self):
        if self.num_clusters < 2:
            raise ValueError("num_clusters must be >= 2")
        if self.bandwidth_mode not in ("fixed", "self_tuning"):
            raise ValueError("bandwidth_mode must be 'fixed' or 'self_tuning'")
        if self.bandwidth_mode == "fixed":
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("fixed bandwidth requires sigma > 0")
        elif self.sigma is not None:
            raise ValueError("sigma applies to bandwidth_mode 'fixed' only")
        if self.k_neighbor < 1:
            raise ValueError("k_neighbor must be >= 1")
        check_finite_fields(self)


def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and of y, clamped at 0."""
    # a copied transpose keeps numpy off its much slower x @ x.T (syrk) path
    d2 = np.sum(x**2, axis=1)[:, None] + np.sum(y**2, axis=1)[None, :] - 2.0 * (x @ y.T.copy())
    np.maximum(d2, 0.0, out=d2)
    return d2


def _gaussian_affinity(x: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """exp(-d2 / width) with a zero diagonal, built in the distance buffer."""
    d2 = _squared_distances(x, x)
    if cfg.bandwidth_mode == "fixed":
        d2 /= 2.0 * cfg.sigma**2
    else:
        # entry k_neighbor of each partitioned row = squared distance to the
        # k-th nearest neighbor (row position 0 is the point itself)
        local = np.sqrt(np.partition(d2, cfg.k_neighbor, axis=1)[:, cfg.k_neighbor])
        if (local == 0).any():
            raise ValueError("duplicate points collapse the self-tuning bandwidth")
        d2 /= np.outer(local, local)
    np.negative(d2, out=d2)
    np.exp(d2, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def sym_eig(a, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` leading eigenpairs of a symmetric matrix.

    ``a`` must be finite, square and symmetric within ``SYM_TOL`` (scaled
    by the largest entry magnitude), and ``1 <= k <= n``. LAPACK's
    relatively robust representation driver (evr) computes only the
    requested pairs. Returns ``(eigenvalues, eigenvectors)``: the k largest
    eigenvalues, nonincreasing, and the matching orthonormal columns.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m != n:
        raise ValueError(f"sym_eig requires a square matrix, got {m}x{n}")
    if not 1 <= k <= n:
        raise ValueError(f"sym_eig needs 1 <= k <= {n}, got k={k}")
    scale = max(1.0, float(np.abs(a).max()))
    asym = a - a.T
    if float(np.abs(asym, out=asym).max()) > SYM_TOL * scale:
        raise ValueError("sym_eig input is not symmetric within tolerance")
    import scipy.linalg  # loaded here, so that importing otsc does not load scipy

    # as_matrix has checked finiteness; LAPACK returns ascending order
    evals, evecs = scipy.linalg.eigh(a, subset_by_index=[n - k, n - 1], check_finite=False)
    return evals[::-1], evecs[:, ::-1]


def kmeans_plusplus_seed(x, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding: k rows of x chosen to spread over the data."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = x[rng.integers(n)]
        else:
            centers[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def kmeans_lloyd(
    x, k: int, restarts: int = 10, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-restarts Lloyd iterations with k-means++ seeding.

    Each restart runs until the assignment stops changing or 100 iterations.
    An emptied cluster is re-seeded at the point farthest from its assigned
    center. Returns (labels, centers, inertia) of the restart with the
    lowest inertia; deterministic given ``seed``.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of samples {n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers = kmeans_plusplus_seed(x, k, rng)
        labels = None
        for _ in range(_MAX_LLOYD_ITER):
            d2 = _squared_distances(x, centers)
            new_labels = np.argmin(d2, axis=1)
            for j in range(k):
                members = new_labels == j
                if members.any():
                    centers[j] = x[members].mean(axis=0)
                else:
                    far = np.argmax(np.take_along_axis(d2, new_labels[:, None], 1)[:, 0])
                    centers[j] = x[far]
                    new_labels[far] = j
            if labels is not None and np.array_equal(labels, new_labels):
                break
            labels = new_labels
        inertia = float(_squared_distances(x, centers)[np.arange(n), labels].sum())
        if best is None or inertia < best[2]:
            best = (labels.copy(), centers.copy(), inertia)
    return best


def classical_spectral(
    x, cfg: SpectralConfig, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Three-stage spectral clustering on raw coordinates.

    Builds the Gaussian affinity S (zero diagonal), solves the top-K
    eigenproblem of the row-normalized affinity through its symmetric
    conjugate D^(-1/2) S D^(-1/2), maps eigenvectors back, and clusters
    their row-normalized rows with k-means. Returned embeddings are the
    mapped-back eigenvectors themselves (unit-norm columns), so each
    retained pair satisfies the eigen-residual of the random-walk matrix.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if seed < 0:  # refused here too, before the affinity and eigensolve
        raise ValueError("seed must be nonnegative")
    if n > _DENSE_EIG_BOUND:
        raise ValueError(f"dense eigensolver bound exceeded: {n} > {_DENSE_EIG_BOUND}")
    if cfg.num_clusters > n:
        raise ValueError("more clusters than samples")
    if cfg.bandwidth_mode == "self_tuning" and cfg.k_neighbor >= n:
        raise ValueError("k_neighbor must be smaller than the number of samples")
    s = _gaussian_affinity(x, cfg)
    degrees = s.sum(axis=1)
    isolated = np.flatnonzero(degrees <= 0)
    if isolated.size:
        raise ValueError(f"point {int(isolated[0])} is isolated (zero affinity row)")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    s *= inv_sqrt[:, None]
    s *= inv_sqrt[None, :]
    conjugate = np.add(s, s.T)
    del s  # one n x n buffer fewer while the eigensolver copies its input
    conjugate *= 0.5
    _, top = sym_eig(conjugate, k=cfg.num_clusters)
    # map back to eigenvectors of D^-1 S and renormalize each column
    embeddings = inv_sqrt[:, None] * top
    embeddings /= np.linalg.norm(embeddings, axis=0, keepdims=True)
    # a point outside every retained eigenvector's support embeds at 0
    unreached = np.flatnonzero(~embeddings.any(axis=1))
    if unreached.size:
        raise ValueError(
            f"point {int(unreached[0])} has a zero spectral embedding: the affinity "
            f"graph has more connected components than K={cfg.num_clusters}"
        )
    labels, _, _ = kmeans_lloyd(
        row_normalize(embeddings), cfg.num_clusters, restarts=10, seed=seed
    )
    return labels, embeddings
