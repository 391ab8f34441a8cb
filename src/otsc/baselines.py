"""Classical comparison methods: Lloyd's k-means and shallow spectral clustering.

The spectral baseline follows the classical three-stage recipe: a Gaussian
affinity with the self-tuning per-point bandwidths of Zelnik-Manor and
Perona (each point's distance to its k-th nearest neighbor), row
normalization to a random-walk matrix, top-K eigenvectors, then k-means
on the embedding rows.

The eigenvalues of the symmetric conjugate D^-1/2 S D^-1/2 lie in [-1, 1],
and eigenvalue 1 has one eigenvector per connected component of the
affinity graph, so `sym_eig` iterates with the inverse shifted next to 1,
applied through one Cholesky factor, instead of reducing the whole matrix
to tridiagonal form. It converges only the K pairs the baseline uses: pair
K + 1 only has to be placed on one side of 1 - COMPONENT_TOL, which its
Ritz value (a lower bound on eigenvalue K + 1) and that value plus its
residual mostly settle sweeps before the pair itself converges. It factors
the matrix in place and multiplies by it through the triangle the factor
leaves untouched, so the whole baseline holds one n x n buffer. The
affinity sets its entries below 2^-511 to 0: subnormal entries in the
Cholesky factor make the factorization about ten times slower, and no
degree changes. It clamps the bandwidth quotient at AFFINITY_CUT before the
exp, because numpy's exp takes a slow path on arguments whose result
underflows, and every clamped entry is set to 0 by the floor anyway. The
affinity is built in that one buffer: the Gram product, formed whole, then
every later stage a row panel at a time, half of the panels on a worker
thread when the process may use 2 CPUs. The symmetrization with the degree
scalings reads the n x n matrix transposed through square tiles of TILE
rows, since a plain transposed pass strides across the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, as_matrix, check_fields, check_integer
from .spectral import both_halves, panel_rows, row_normalize, worker_thread

__all__ = ["SpectralConfig", "kmeans_lloyd", "classical_spectral", "sym_eig"]

_MAX_LLOYD_ITER = 100
# most samples the spectral baseline takes: its n x n affinity, factored
# in place by `sym_eig`, is one 128 MiB buffer at this n
AFFINITY_MAX_N = 4096
# `sym_eig`'s shift, extra block columns, band below 1 that widens the
# block, residual tolerance and sweep cap (see its docstring)
EIG_SHIFT = 1e-8
EIG_PAD = 8
EIG_BAND = 1e-6
EIG_TOL = 1e-13
EIG_MAX_SWEEPS = 100
# affinity entries below this are set to 0; its square is the smallest normal double
AFFINITY_FLOOR = 2.0**-511
# bandwidth quotients are clamped here before exp: exp(-AFFINITY_CUT) is a
# normal double below AFFINITY_FLOOR, so a clamped entry still becomes 0
AFFINITY_CUT = 360.0
# edge of the square tiles through which an n x n matrix is read transposed
TILE = 128
# eigenvalue K+1 of D^-1/2 S D^-1/2 this close to 1: more than K components
COMPONENT_TOL = 1e-10


@dataclass(frozen=True)
class SpectralConfig:
    """Cluster count and neighbor rank for the spectral baseline.

    Point i's bandwidth is its distance to its ``k_neighbor``-th nearest
    neighbor, and the affinity of i and j is exp(-d_ij^2 / (local_i local_j)).
    """

    num_clusters: int
    k_neighbor: int = 7

    def __post_init__(self):
        check_fields(self, self._check_bounds)

    def _check_bounds(self):
        if self.num_clusters < 2:
            raise ValueError("num_clusters must be >= 2")
        if self.k_neighbor < 1:
            raise ValueError("k_neighbor must be >= 1")


def _gram_to_distances(g: np.ndarray, sq_rows: np.ndarray, sq_cols: np.ndarray) -> np.ndarray:
    """A Gram block x_i . y_j turned in place into the squared distances
    sq_i + sq_j - 2 g, clamped at 0, where ``sq_rows`` and ``sq_cols`` hold
    the squared norms of its rows and columns; returns ``g``."""
    g *= -2.0  # exact, so adding sq_i + sq_j rounds as subtracting 2 g does
    g += sq_rows[:, None] + sq_cols
    np.maximum(g, 0.0, out=g)
    return g


def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and of y, clamped at 0:
    k-means' n x K (`_gaussian_affinity` builds its n x n in place)."""
    # a copied transpose keeps numpy off its much slower x @ x.T (syrk) path
    return _gram_to_distances(x @ y.T.copy(), np.sum(x**2, axis=1), np.sum(y**2, axis=1))


def _gaussian_affinity(x: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """exp(-d2 / (local_i local_j)) with a zero diagonal, built in the Gram buffer.

    The Gram product is formed whole, since products of row panels round
    some entries differently. Every later stage runs in row panels of
    `panel_rows`, every other one on a worker thread when the process may
    use 2 CPUs: the distances clamped at 0 (and each row's k-th neighbor),
    then the quotient, its clamp, the exp and the floor.
    """
    n = len(x)
    sq = np.sum(x**2, axis=1)
    # a copied transpose keeps numpy off its much slower x @ x.T (syrk) path
    s = x @ x.T.copy()
    rows = panel_rows(n)
    panels = [slice(i, i + rows) for i in range(0, n, rows)]
    halves = panels[::2], panels[1::2]
    k, kth = cfg.k_neighbor, np.empty(n)

    def distances(half):
        for p in halves[half]:
            d2 = _gram_to_distances(s[p], sq[p], sq)
            # entry k of the partitioned row: the squared distance to the
            # k-th nearest neighbor (row position 0 is the point itself)
            kth[p] = np.partition(d2, k, axis=1)[:, k]

    def affinity(half):
        for p in halves[half]:
            d2 = s[p]
            # dividing by the negated width negates exactly, so the clamp
            # below takes the place of a negation pass
            d2 /= np.outer(-local[p], local)
            np.maximum(d2, -AFFINITY_CUT, out=d2)
            np.exp(d2, out=d2)
            np.copyto(d2, 0.0, where=d2 < AFFINITY_FLOOR)
            np.fill_diagonal(s[p, p.start :], 0.0)

    with worker_thread(len(panels) >= 2) as worker:
        both_halves(distances, worker)
        local = np.sqrt(kth)
        if (local == 0).any():
            raise ValueError("duplicate points collapse the self-tuning bandwidth")
        both_halves(affinity, worker)
    return s


def sym_eig(a, k: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """The ``k`` leading eigenpairs of a symmetric matrix with eigenvalues at
    most 1, and whether eigenvalue k + 1 reaches 1 - COMPONENT_TOL.

    Trusts its arguments, as `classical_spectral`, its one caller, makes
    them: ``a`` a finite n x n float64 array, exactly symmetric, and ``1 <=
    k <= n``. T = ((1 + EIG_SHIFT) I - a)^-1 is applied through one Cholesky
    factor; an eigenvalue above 1 makes the factorization fail and is
    refused. ``a`` is overwritten: the factor is written over one triangle,
    and `dsymm` multiplies by ``a`` through the other, which keeps -a, with
    the diagonal of -a swapped in for each product, so the residual test
    below takes a true product by ``a``. A refused ``a`` is left partly
    factored. From a fixed-seed Gaussian block q of p = min(n, k + 1 +
    EIG_PAD) columns, each sweep takes the p leading Ritz pairs of ``a`` on
    span{T q, T^2 q}. It stops once every returned pair has ||a v - lambda
    v|| <= EIG_TOL and pair k + 1, with Ritz value theta and residual r, is
    decided against the cut 1 - COMPONENT_TOL: theta at or above the cut
    (by interlacing, eigenvalue k + 1 is at least theta), theta + r below it
    (an eigenvalue lies within r of theta), or r <= EIG_TOL; at k = n there
    is no pair k + 1. Past EIG_MAX_SWEEPS sweeps it raises `NumericalError`.
    T^2 keeps a pair far from 1 converging when the rest of the spectrum is
    flat, where T alone gains a few percent a sweep. While the p-th Ritz
    value lies within EIG_BAND of 1, eigenvalues beyond the block can sit as
    close to 1 as those in it, where T hardly tells them apart, so the block
    doubles. Returns ``(eigenvalues, eigenvectors, extra)``: the k largest
    eigenvalues, nonincreasing, the matching orthonormal columns, and
    whether theta reaches the cut.
    """
    n = len(a)
    import scipy.linalg  # loaded here, so that importing otsc does not load scipy
    from scipy.linalg.blas import dsymm

    np.negative(a, out=a)
    negated_diagonal = a.flat[:: n + 1]  # a copy
    a.flat[:: n + 1] += 1.0 + EIG_SHIFT
    try:
        # the transpose is the same matrix in Fortran order, factored in place:
        # potrf writes its upper triangle, the strict lower one keeps -a
        factor = scipy.linalg.cho_factor(a.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"sym_eig input has an eigenvalue above 1: (1 + {EIG_SHIFT:g}) I - a "
            "is not positive definite"
        ) from None
    factor_diagonal = a.flat[:: n + 1]

    def solve(block):
        return scipy.linalg.cho_solve(factor, block, check_finite=False)

    cut = 1.0 - COMPONENT_TOL
    rng = np.random.default_rng(0)
    basis = rng.standard_normal((n, min(n, k + 1 + EIG_PAD)))
    for _ in range(EIG_MAX_SWEEPS):
        p = basis.shape[1]
        first, _ = np.linalg.qr(solve(basis))
        span, _ = np.linalg.qr(np.hstack([first, solve(first)]))
        # a @ span as -((-a) span), read from the transpose's lower
        # triangle with the diagonal of -a swapped in for the factor's
        a.flat[:: n + 1] = negated_diagonal
        a_span = dsymm(-1.0, a.T, span, lower=1)
        a.flat[:: n + 1] = factor_diagonal
        ritz, rotation = np.linalg.eigh(span.T @ a_span)  # ascending
        ritz, rotation = ritz[::-1][:p], rotation[:, ::-1][:, :p]
        basis = span @ rotation
        # the residuals of the k returned pairs and, below n, of pair k + 1
        residual = np.linalg.norm(
            a_span @ rotation[:, : k + 1] - basis[:, : k + 1] * ritz[: k + 1], axis=0
        )
        worst = float(residual[:k].max())
        extra = k < n and bool(ritz[k] >= cut)
        decided = k == n or extra or ritz[k] + residual[k] < cut or residual[k] <= EIG_TOL
        if worst <= EIG_TOL and decided:
            return ritz[:k], basis[:, :k], extra
        if p < n and ritz[-1] > 1.0 - EIG_BAND:
            basis = np.hstack([basis, rng.standard_normal((n, min(p, n - p)))])
    if worst > EIG_TOL:
        unmet = f"residual {worst:.3g} > {EIG_TOL:g}"
    else:
        unmet = (
            f"pair {k + 1} has Ritz value {ritz[k]:.17g} and residual "
            f"{residual[k]:.3g}, which straddle 1 - {COMPONENT_TOL:g}"
        )
    raise NumericalError(f"sym_eig did not converge in {EIG_MAX_SWEEPS} sweeps: {unmet}")


def _kmeans_plusplus_seed(x, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding: k rows of the checked x, spread over the data."""
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
    for name, value in (("k", k), ("restarts", restarts), ("seed", seed)):
        check_integer(name, value)
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
        centers = _kmeans_plusplus_seed(x, k, rng)
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

    Builds the self-tuning Gaussian affinity S (zero diagonal), solves the
    top-K eigenproblem of the row-normalized affinity through its symmetric
    conjugate D^(-1/2) S D^(-1/2), maps eigenvectors back, and clusters
    their row-normalized rows with k-means. Returned embeddings are the
    mapped-back eigenvectors themselves (unit-norm columns), so each
    retained pair satisfies the eigen-residual of the random-walk matrix.
    Eigenvalue K+1 within COMPONENT_TOL of 1 means the affinity graph has
    more than K connected components, which is refused; `sym_eig`, asked
    for the K pairs, tells whether it is.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    # refused here too, before the affinity and eigensolve
    check_integer("seed", seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if n > AFFINITY_MAX_N:
        raise ValueError(
            f"the spectral baseline builds an n x n affinity; n = {n} exceeds {AFFINITY_MAX_N}"
        )
    if cfg.num_clusters > n:
        raise ValueError("more clusters than samples")
    if cfg.k_neighbor >= n:
        raise ValueError("k_neighbor must be smaller than the number of samples")
    s = _gaussian_affinity(x, cfg)
    degrees = s.sum(axis=1)
    isolated = np.flatnonzero(degrees <= 0)
    if isolated.size:
        raise ValueError(f"point {int(isolated[0])} is isolated (zero affinity row)")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # 0.5 (c + c.T) of c = D^-1/2 S D^-1/2 in place, a pair of TILE-edge
    # tiles at a time, (r, c) on or above the diagonal and its mirror (c, r),
    # each tile scaled by its rows, then its columns: the sum is exactly symmetric
    for i in range(0, n, TILE):
        r = slice(i, i + TILE)
        for j in range(i, n, TILE):
            c = slice(j, j + TILE)
            t = s[r, c] * inv_sqrt[r, None]
            t *= inv_sqrt[c]
            mirror = s[c, r] * inv_sqrt[c, None]
            mirror *= inv_sqrt[r]
            t += mirror.T
            t *= 0.5
            s[r, c] = t
            s[c, r] = t.T
    k = cfg.num_clusters
    _, top, extra = sym_eig(s, k)  # factors s in place
    # eigenvalue 1 has one eigenvector per connected component of the graph
    if extra:
        raise ValueError(f"the affinity graph has more connected components than K={k}")
    # map back to eigenvectors of D^-1 S and renormalize each column
    embeddings = inv_sqrt[:, None] * top
    embeddings /= np.linalg.norm(embeddings, axis=0, keepdims=True)
    labels, _, _ = kmeans_lloyd(
        row_normalize(embeddings), k, restarts=10, seed=seed
    )
    return labels, embeddings
