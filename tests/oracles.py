"""Independent oracles used by the test suite.

Everything here is deliberately naive: brute-force enumeration, central
finite differences, exact linear programs, and direct formula evaluation.
None of it shares code with the implementation it checks. The Sinkhorn
references are the package's earlier solver loops, kept as they were
written: the fixed-count loop rescales the whole matrix at every half-sweep,
and the tolerance loops rebuild the plan after every sweep to measure its
residuals. `checked_scale` is the package's scaling core as it was before
its kernel-domain sweeps dropped their per-half-sweep check: every scaling
is checked as it is formed, so it names the first line that underflowed. The spectral-baseline reference is the earlier full-spectrum
embedding (every eigenpair from ``np.linalg.eigh``, the leading K kept); it
clusters with the package's k-means, which is not what it checks.
`unclamped_gaussian_affinity` is the baseline's affinity as it was before
the quotient was clamped: exp(-d2 / width) over the whole plane. `whole_plane_gaussian_affinity` is
the clamped affinity as it was before it was built in row panels: each
stage over the whole plane, from the package's `_squared_distances`, which
the affinity no longer calls. The
affinity-backward references are the trainer's earlier forms: the B x B
logit gradient of the masked cross entropy, the two plain products into the
embeddings, and the temperature gradient read off the B x B logit and
gradient planes. `held_step_loss` is the training step's loss written out
from the package's forward pieces (encoder forward, row
normalization, orthogonality penalty) and this module's cross entropy and
masks; it runs no part of the step. The last three helpers are the small
builders several test files share: `unit_rows`, `random_stochastic` and
`clone`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.special import logsumexp

from otsc import network as net
from otsc.errors import NumericalError
from otsc.spectral import orthogonal_penalty, row_normalize


def central_difference(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        xp = x0.copy()
        xp[ix] += h
        xm = x0.copy()
        xm[ix] -= h
        grad[ix] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.abs(want).max()), 1e-12)
    return float(np.abs(got - want).max()) / denom


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Minimum assignment cost by enumerating all permutations."""
    n = cost.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        best = min(best, total)
    return best


def brute_force_transport(cost: np.ndarray, r: np.ndarray, c: np.ndarray) -> float:
    """Minimum transport cost via enumeration of basic feasible solutions.

    A vertex of the transportation polytope is supported on at most
    m + n - 1 cells; enumerate all supports of that size, solve the
    marginal equations on each, and keep the feasible minimum.
    """
    m, n = cost.shape
    cells = [(i, j) for i in range(m) for j in range(n)]
    size = m + n - 1
    best = math.inf
    b = np.concatenate([r, c])
    for support in itertools.combinations(cells, size):
        a = np.zeros((m + n, size))
        for col, (i, j) in enumerate(support):
            a[i, col] = 1.0
            a[m + j, col] = 1.0
        x, residual, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.abs(a @ x - b).max() > 1e-9:
            continue
        if (x < -1e-9).any():
            continue
        total = sum(cost[i, j] * max(v, 0.0) for (i, j), v in zip(support, x))
        best = min(best, total)
    return best


def exact_ot_oracle(cost, r, c) -> np.ndarray:
    """Exact minimizer of the linear transport objective ``sum(plan * cost)``.

    Unit square marginals are solved as a linear assignment (the optimum is
    a permutation); other small instances as an exact LP over the
    transportation polytope. Instances above ``m*n = 256`` are refused.
    """
    cost = np.asarray(cost, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    m, n = cost.shape
    if (r.size, c.size) != (m, n) or abs(r.sum() - c.sum()) > 1e-9 * r.sum():
        raise ValueError("marginals must match the cost shape and carry equal mass")
    if m * n > 256:
        raise ValueError(f"oracle limited to m*n <= 256, got {m}x{n}")
    if m == n and (r == 1.0).all() and (c == 1.0).all():
        rows, cols = linear_sum_assignment(cost)
        plan = np.zeros_like(cost)
        plan[rows, cols] = 1.0
        return plan
    return _transportation_lp(cost, r, c)


def _transportation_lp(cost, r, c) -> np.ndarray:
    """Optimal plan of the transportation LP, solved exactly by HiGHS."""
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([r, c])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise ValueError(f"exact transport LP failed: {res.message}")
    return np.clip(res.x.reshape(m, n), 0.0, None)


def transport_cost(plan, cost) -> float:
    """Linear transport objective ``sum(plan * cost)``."""
    return float(np.sum(np.asarray(plan) * np.asarray(cost, dtype=np.float64)))


def scaling_plan(log_alpha, log_beta, cost, eta: float) -> np.ndarray:
    """``diag(alpha) @ exp(-cost/eta) @ diag(beta)`` evaluated in log space."""
    return np.exp(log_alpha[:, None] - np.asarray(cost) / eta + log_beta[None, :])


def eig_reconstruct(eigenvalues, eigenvectors) -> np.ndarray:
    """``Q @ diag(lambda) @ Q.T`` from an eigendecomposition."""
    return (eigenvectors * eigenvalues) @ eigenvectors.T


def svd_reconstruct(u, singular_values, vt) -> np.ndarray:
    """``U @ diag(s) @ Vt`` from a thin SVD."""
    return (u * singular_values) @ vt


def brute_force_matching_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Best accuracy over all injections of predicted labels onto true labels."""
    true_vals = np.unique(y_true)
    pred_vals = np.unique(y_pred)
    k = max(true_vals.size, pred_vals.size)
    best = 0
    for perm in itertools.permutations(range(k), pred_vals.size):
        matched = 0
        for p_idx, t_idx in enumerate(perm):
            if t_idx < true_vals.size:
                matched += int(
                    np.sum((y_pred == pred_vals[p_idx]) & (y_true == true_vals[t_idx]))
                )
        best = max(best, matched)
    return best / y_true.size


def direct_nmi(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """NMI with arithmetic-mean normalization, from the definition."""
    n = len(y_true)
    tv, pv = np.unique(y_true), np.unique(y_pred)

    def h(labels, vals):
        total = 0.0
        for v in vals:
            p = np.mean(labels == v)
            if p > 0:
                total -= p * math.log(p)
        return total

    h_u, h_v = h(y_true, tv), h(y_pred, pv)
    if h_u == 0.0 and h_v == 0.0:
        return 1.0
    mi = 0.0
    for t in tv:
        for p in pv:
            joint = np.mean((y_true == t) & (y_pred == p))
            if joint > 0:
                mi += joint * math.log(joint / (np.mean(y_true == t) * np.mean(y_pred == p)))
    return mi / (0.5 * (h_u + h_v))


def direct_ari(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """ARI by direct pair counting over all sample pairs."""
    n = len(y_true)
    same_true = same_pred = same_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            st = y_true[i] == y_true[j]
            sp = y_pred[i] == y_pred[j]
            same_true += st
            same_pred += sp
            same_both += st and sp
    total = n * (n - 1) / 2
    expected = same_true * same_pred / total
    maximum = 0.5 * (same_true + same_pred)
    if maximum == expected:
        return 1.0
    return (same_both - expected) / (maximum - expected)


def _underflow(axis_name: str, index, eta: float) -> NumericalError:
    return NumericalError(
        f"{axis_name} {int(index)} sum underflowed to 0 during Sinkhorn scaling (eta={eta})"
    )


def _check_positive(w: np.ndarray, axis_name: str, axis: int, eta: float) -> np.ndarray:
    sums = w.sum(axis=axis)
    bad = np.flatnonzero(sums <= 0.0)
    if bad.size:
        raise _underflow(axis_name, bad[0], eta)
    return sums


def reference_algorithm1(logits, eta: float, iterations: int) -> np.ndarray:
    """Fixed-count Sinkhorn plan by rescaling the whole matrix each half-sweep."""
    logits = np.asarray(logits, dtype=np.float64)
    scaled = logits / eta
    w = np.exp(scaled - scaled.max())
    for _ in range(iterations):
        w = w / _check_positive(w, "column", 0, eta)[None, :]
        w = w / _check_positive(w, "row", 1, eta)[:, None]
    return w


def reference_sinkhorn_kernel(cost, r, c, eta, tol, max_iter):
    """Kernel-domain tolerance loop; returns (plan, log u, log v, sweeps)."""
    kernel = np.exp(-cost / eta)
    u = np.ones_like(r)
    v = np.ones_like(c)
    used = 0
    for sweep in range(1, max_iter + 1):
        kv = kernel @ v
        if (kv <= 0).any():
            raise _underflow("row", np.flatnonzero(kv <= 0)[0], eta)
        u = r / kv
        ku = kernel.T @ u
        if (ku <= 0).any():
            raise _underflow("column", np.flatnonzero(ku <= 0)[0], eta)
        v = c / ku
        used = sweep
        plan = u[:, None] * kernel * v[None, :]
        if (
            np.abs(plan.sum(axis=1) - r).max() <= tol
            and np.abs(plan.sum(axis=0) - c).max() <= tol
        ):
            break
    plan = u[:, None] * kernel * v[None, :]
    return plan, np.log(u), np.log(v), used


def reference_sinkhorn_log(cost, r, c, eta, tol, max_iter):
    """Log-domain tolerance loop; returns (plan, f, g, sweeps)."""
    log_kernel = -cost / eta
    log_r, log_c = np.log(r), np.log(c)
    f = np.zeros_like(r)
    g = np.zeros_like(c)
    used = 0
    for sweep in range(1, max_iter + 1):
        f = log_r - logsumexp(log_kernel + g[None, :], axis=1)
        g = log_c - logsumexp(log_kernel + f[:, None], axis=0)
        used = sweep
        plan = np.exp(f[:, None] + log_kernel + g[None, :])
        if (
            np.abs(plan.sum(axis=1) - r).max() <= tol
            and np.abs(plan.sum(axis=0) - c).max() <= tol
        ):
            break
    plan = np.exp(f[:, None] + log_kernel + g[None, :])
    return plan, f, g, used


def _checked_fit(target, sums, axis: str, eta: float):
    scaling = target / sums
    if not scaling.max() < np.inf:  # also catches NaN
        raise _underflow(axis, np.argmin(scaling < np.inf), eta)
    return scaling


def checked_scale(values, r, c, eta, max_iter, tol=None, rows_first=False):
    """The package's scaling core as it was with a check on every half-sweep:
    each scaling is refused, naming its first non-finite entry, as soon as
    it is formed, and every product is a fresh ``@``. Same signature and
    return as ``transport._scale`` (without ``out``)."""
    first, second = ("row", "column") if rows_first else ("column", "row")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernel = np.asarray(values, dtype=np.float64) / eta
        top = kernel.max()
        if top == np.inf:
            i, j = np.unravel_index(np.argmax(kernel), kernel.shape)
            raise NumericalError(f"entry [{i}, {j}] overflowed dividing by eta (eta={eta})")
        kernel -= top
        np.exp(kernel, out=kernel)
        k, r, c = (kernel.T, c, r) if rows_first else (kernel, r, c)
        u, v = np.ones(k.shape[0]), np.ones(k.shape[1])
        sweep = 0
        sums = u @ k
        while sweep < max_iter:
            if sweep and tol is not None and np.abs(v * sums - c).max() <= tol:
                break
            sweep += 1
            v = _checked_fit(c, sums, first, eta)
            u = _checked_fit(r, k @ v, second, eta)
            if sweep < max_iter:
                sums = u @ k
        k *= u[:, None]
        k *= v
    return (k.T, v, u, top, sweep) if rows_first else (k, u, v, top, sweep)


def two_exp_cross_entropy(target, logits, tau: float) -> tuple[float, np.ndarray]:
    """Row-softmax cross entropy and its logit gradient through log-probs."""
    scaled = logits / tau
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-(target * log_probs).sum())
    grad = (np.exp(log_probs) - target) / tau
    return loss, grad


def mask_off_diagonal(square: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of a square matrix by boolean-mask gather."""
    b = square.shape[0]
    return square[~np.eye(b, dtype=bool)].reshape(b, b - 1)


def mask_scatter_off_diagonal(values: np.ndarray) -> np.ndarray:
    """B x (B-1) values placed off the diagonal by boolean-mask scatter."""
    b = values.shape[0]
    full = np.zeros((b, b))
    full[~np.eye(b, dtype=bool)] = values.ravel()
    return full


def two_product_affinity_grad(grad_logits, z) -> np.ndarray:
    """Embedding gradient of the B x B logits z @ z.T as the two plain
    products A @ z + A.T @ z."""
    return grad_logits @ z + grad_logits.T @ z


def masked_softmax_cross_entropy(target, logits, tau: float):
    """Row-softmax cross entropy of ``logits/tau`` against ``target`` and its
    B x B logit gradient (softmax - target) / tau, as the package once
    computed the affinity loss: one exp, and the -inf diagonal of square
    ``logits`` (zero in ``target``) set to 0 before the target product and
    its exp set to 0 after it."""
    shifted = logits / tau
    shifted -= shifted.max(axis=1, keepdims=True)
    np.fill_diagonal(shifted, 0.0)  # its targets are 0, and 0 * -inf would be NaN
    cross = np.vdot(target, shifted)
    grad = np.exp(shifted)
    np.fill_diagonal(grad, 0.0)
    sums = grad.sum(axis=1)
    grad /= sums[:, None]
    return float(np.log(sums).sum() - cross), (grad - target) / tau


def two_step_affinity_cross_entropy(target, logits, z, tau: float):
    """Affinity loss of the masked logits z @ z.T and its embedding gradient
    in two steps: the B x B logit gradient A of
    `masked_softmax_cross_entropy`, then A @ z + A.T @ z."""
    loss, grad_logits = masked_softmax_cross_entropy(target, logits, tau)
    return loss, two_product_affinity_grad(grad_logits, z)


def logit_form_tau_grad(views_z, targets, tau: float) -> float:
    """Derivative of the swapped affinity loss in its temperature, read off
    the logit planes: the sum over views of -vdot(grad_w, w_logits) / tau,
    view v's logits scored against view 1 - v's B x B target, both packed
    off the diagonal by boolean mask."""
    total = 0.0
    for v, z in enumerate(views_z):
        logits = mask_off_diagonal(z @ z.T)
        target = mask_off_diagonal(targets[1 - v])
        _, grad = two_exp_cross_entropy(target, logits, tau)
        total -= float(np.vdot(grad, logits)) / tau
    return total


def held_embeddings(model, x1, x2, held) -> list[np.ndarray]:
    """Each view's straight-through value with its residual held at the
    step's: row_normalize(forward(x_v)) + resid_v, each view encoded on its
    own. ``held`` is the step's (st_residuals, affinity_targets,
    assignment_targets)."""
    st_residuals, _, _ = held
    return [
        row_normalize(net.forward(model, x)[0]) + resid
        for x, resid in zip((x1, x2), st_residuals)
    ]


def held_step_loss(model, x1, x2, cfg, held) -> float:
    """Swapped-prediction total loss with the stop-gradient quantities (the
    straight-through residuals and both views' targets) held at ``held``:
    the smooth function of the parameters whose gradient the training step
    reports. View v's logits are scored against view 1 - v's targets; the
    B x B affinity targets and logits are packed off the diagonal by boolean
    mask."""
    _, affinity_targets, assignment_targets = held
    tau_a, tau_c = net.effective_tau(model.log_tau)
    protos = row_normalize(model.prototypes)
    total = 0.0
    for v, z in enumerate(held_embeddings(model, x1, x2, held)):
        sims = mask_off_diagonal(z @ z.T)
        target = mask_off_diagonal(affinity_targets[1 - v])
        total += two_exp_cross_entropy(target, sims, tau_a)[0]
        total += cfg.lam * two_exp_cross_entropy(
            assignment_targets[1 - v], z @ protos.T, tau_c
        )[0]
        if cfg.orth_mode == "penalty":
            total += orthogonal_penalty(z)[0]
    return total


def full_spectrum_spectral(x, cfg, seed: int = 0) -> np.ndarray:
    """Spectral-baseline labels from the full eigendecomposition.

    The self-tuning Gaussian affinity, its symmetric conjugate
    D^-1/2 S D^-1/2, all n eigenpairs, the K leading ones mapped back and
    column-normalized, then the package's k-means on the normalized rows.
    """
    from otsc.baselines import kmeans_lloyd

    x = np.asarray(x, dtype=np.float64)
    sq = np.sum(x**2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    local = np.sort(np.sqrt(d2), axis=1)[:, cfg.k_neighbor]
    s = np.exp(-d2 / (local[:, None] * local[None, :]))
    np.fill_diagonal(s, 0.0)
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
    conjugate = s * inv_sqrt[:, None] * inv_sqrt[None, :]
    evals, evecs = np.linalg.eigh(0.5 * (conjugate + conjugate.T))
    top = evecs[:, np.argsort(evals)[::-1][: cfg.num_clusters]]
    embeddings = inv_sqrt[:, None] * top
    embeddings /= np.linalg.norm(embeddings, axis=0, keepdims=True)
    rows = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    labels, _, _ = kmeans_lloyd(rows, cfg.num_clusters, restarts=10, seed=seed)
    return labels


def whole_plane_gaussian_affinity(x, cfg) -> np.ndarray:
    """The spectral baseline's clamped affinity over the whole n x n plane at
    once: the distances fl(fl(sq_i + sq_j) - 2 g_ij) in their own buffer,
    each row's k-th neighbor distance read from a partitioned copy of the
    plane, and the self-tuning width its n x n outer product."""
    from otsc.baselines import AFFINITY_CUT, AFFINITY_FLOOR, _squared_distances

    d2 = _squared_distances(x, x)
    local = np.sqrt(np.partition(d2, cfg.k_neighbor, axis=1)[:, cfg.k_neighbor])
    d2 /= np.outer(-local, local)
    np.maximum(d2, -AFFINITY_CUT, out=d2)
    np.exp(d2, out=d2)
    np.copyto(d2, 0.0, where=d2 < AFFINITY_FLOOR)
    np.fill_diagonal(d2, 0.0)
    return d2


def unclamped_gaussian_affinity(d2, width, floor: float) -> np.ndarray:
    """exp(-d2 / width) with no clamp on the quotient, entries below ``floor``
    and the diagonal set to 0; ``width`` is the n x n outer product of the
    bandwidths."""
    s = np.exp(-(d2 / width))
    s[s < floor] = 0.0
    np.fill_diagonal(s, 0.0)
    return s


def unit_rows(rng, n: int, d: int) -> np.ndarray:
    """n random rows of unit Euclidean norm in d dimensions."""
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_stochastic(rng, shape) -> np.ndarray:
    """A random row-stochastic matrix with every entry positive."""
    p = rng.random(shape) + 0.05
    return p / p.sum(axis=1, keepdims=True)


def clone(m: net.ModelState) -> net.ModelState:
    """A copy of a model that shares no array with it."""
    return net.ModelState(
        layers=[(w.copy(), b.copy()) for w, b in m.layers],
        prototypes=m.prototypes.copy(),
        log_tau=m.log_tau.copy(),
        version=m.version,
    )
