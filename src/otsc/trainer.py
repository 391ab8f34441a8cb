"""Joint mini-batch training loop: two views, transport targets, swapped loss.

Each step augments the batch twice, encodes both views, orthogonalizes and
row-normalizes the embeddings, and builds affinity and assignment targets
by fixed-count Sinkhorn scaling on the detached similarity matrices. The
total loss pairs each view's targets with the other view's predictions
(swapped prediction) and is optimized by heavy-ball SGD under a cosine
restart schedule. Targets and the orthogonalization residual are
stop-gradient quantities: the backward treats them as constants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import network as net
from .errors import NumericalError, TrainingAbortError
from .linalg import as_matrix
from .spectral import (
    affinity_grad_to_embeddings,
    off_diagonal,
    orthogonal_penalty,
    orthogonalize,
    row_normalize,
    row_normalize_vjp,
    softmax_cross_entropy,
)
from .transport import sinkhorn_algorithm1

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainHistory",
    "StepLosses",
    "augment",
    "train_step",
    "fit",
    "predict",
]

TRAINER_ORTH_MODES = ("procrustes", "qr", "none", "penalty")


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of one training run.

    ``base_lr`` of None resolves to ``0.04 * batch_size / 256``. ``lam``
    weighs the clustering loss against the affinity loss. ``orth_mode``
    selects the orthogonalization strategy (``penalty`` replaces the map
    with a soft penalty of weight ``penalty_rho``); ``keep_diagonal`` keeps
    self-similarities in the affinity objective (degenerate-solution
    ablation).
    """

    num_clusters: int
    embed_dim: int = 16
    batch_size: int = 256
    epochs: int = 200
    eta: float = 0.05
    sinkhorn_iters: int = 5
    lam: float = 1.0
    base_lr: float | None = None
    momentum: float = 0.9
    weight_decay: float = 0.0005
    restart_period: int = 200
    noise_sigma: float = 0.1
    feature_dropout_prob: float = 0.1
    scale_jitter: float = 0.1
    seed: int = 0
    orth_mode: str = "procrustes"
    penalty_rho: float = 1.0
    keep_diagonal: bool = False
    tau_a_init: float = 0.05
    tau_c_init: float = 0.05

    def __post_init__(self):
        if self.num_clusters < 2:
            raise ValueError("num_clusters must be >= 2")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be positive")
        if self.embed_dim > self.batch_size // 2:
            raise ValueError("embed_dim must not exceed batch_size / 2")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        for name in ("eta", "lam", "weight_decay", "noise_sigma", "scale_jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.eta == 0:
            raise ValueError("eta must be positive")
        if self.sinkhorn_iters < 1:
            raise ValueError("sinkhorn_iters must be >= 1")
        if not 0.0 <= self.feature_dropout_prob < 1.0:
            raise ValueError("feature_dropout_prob must lie in [0, 1)")
        if self.orth_mode not in TRAINER_ORTH_MODES:
            raise ValueError(
                f"orth_mode must be one of {TRAINER_ORTH_MODES}, got {self.orth_mode!r}"
            )
        if self.penalty_rho < 0:
            raise ValueError("penalty_rho must be nonnegative")
        for name in ("tau_a_init", "tau_c_init"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")

    @property
    def lr(self) -> float:
        return self.base_lr if self.base_lr is not None else 0.04 * self.batch_size / 256.0


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    affinity_loss: float
    clustering_loss: float
    total_loss: float
    tau_a: float
    tau_c: float
    mean_inconsistency: float
    cross_affinity_intensity: float
    lr: float


@dataclass(frozen=True)
class TrainHistory:
    records: tuple[EpochRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class StepLosses:
    affinity_loss: float
    clustering_loss: float
    total: float
    mean_inconsistency: float
    cross_affinity_intensity: float


@dataclass(frozen=True)
class FrozenStopGradients:
    """Stop-gradient quantities of one step, captured at a base point.

    Finite-difference checks re-evaluate the step loss with these held
    fixed, which is exactly the function the backward differentiates.
    """

    st_residuals: tuple[np.ndarray, np.ndarray]
    affinity_targets: tuple[np.ndarray, np.ndarray]
    assignment_targets: tuple[np.ndarray, np.ndarray]
    inconsistencies: tuple[float, float]


def augment(x, cfg: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    """Stochastic view of vector data.

    Applies feature dropout (plain masking), additive Gaussian noise scaled
    by ``noise_sigma`` times the per-feature std of the incoming batch, and
    a per-sample scale jitter. Draw order is fixed: mask, noise, jitter.
    """
    x = np.asarray(x, dtype=np.float64)
    std = x.std(axis=0)
    keep = rng.random(x.shape) >= cfg.feature_dropout_prob
    noise = rng.standard_normal(x.shape) * (cfg.noise_sigma * std)
    jitter = rng.uniform(-cfg.scale_jitter, cfg.scale_jitter, size=(x.shape[0], 1))
    return (x * keep + noise) * (1.0 + jitter)


def _encode(model, x):
    """Encoder forward that refuses non-finite embeddings: the training
    step's one guard against a diverged model."""
    z_raw, cache = net.forward(model, x)
    if not np.isfinite(z_raw).all():
        raise NumericalError("non-finite encoder output: the model has diverged")
    return z_raw, cache


def _encode_view(model, x, cfg, frozen_resid=None):
    # The straight-through wraps the whole orthogonalize-and-normalize map:
    # the forward value is the row-normalized orthogonalized embedding, and
    # the gradient reaches the raw embeddings through the normalization
    # Jacobian evaluated at them (placing the stop-gradient inside the
    # normalization instead is scale-unstable at this model size).
    z_raw, cache = _encode(model, x)
    z_base = row_normalize(z_raw)
    if frozen_resid is not None:
        resid = frozen_resid
        inconsistency = 0.0
    elif cfg.orth_mode in ("procrustes", "qr"):
        orth = orthogonalize(z_raw, cfg.orth_mode)
        resid = row_normalize(orth.z_new) - z_base
        inconsistency = orth.inconsistency
    else:
        resid = np.zeros_like(z_raw)
        inconsistency = 0.0
    z = z_base + resid  # straight-through value: normalized orthogonalized rows
    return z_raw, cache, resid, z, inconsistency


def _affinity_logits(z, keep_diagonal):
    # a copied transpose keeps numpy off its much slower z @ z.T (syrk) path
    sims = z @ z.T.copy()
    return sims if keep_diagonal else off_diagonal(sims)


def _target_intensity(plan, keep_diagonal):
    if keep_diagonal:
        return float(plan.sum() - np.trace(plan))
    return float(plan.sum())


def _compute_step(model, x1, x2, cfg, frozen: FrozenStopGradients | None):
    """Forward + loss + gradients for one swapped-prediction step.

    Returns (losses, grads, frozen_pack). With ``frozen`` supplied, the
    stop-gradient quantities are taken from it instead of recomputed, so the
    loss becomes a smooth function of the parameters (the function the
    reported gradients differentiate).
    """
    tau_a = net.effective_tau(model.log_tau_a, model.tau_cap)
    tau_c = net.effective_tau(model.log_tau_c, model.tau_cap)

    views = []
    for v, x in enumerate((x1, x2)):
        fr = frozen.st_residuals[v] if frozen is not None else None
        views.append(_encode_view(model, x, cfg, fr))

    protos_raw = model.prototypes
    protos = row_normalize(protos_raw)

    w_logits = [_affinity_logits(view[3], cfg.keep_diagonal) for view in views]
    h_logits = [view[3] @ protos.T for view in views]

    if frozen is not None:
        w_targets = frozen.affinity_targets
        p_targets = frozen.assignment_targets
        inconsistencies = frozen.inconsistencies
    else:
        w_targets = tuple(
            sinkhorn_algorithm1(w, cfg.eta, cfg.sinkhorn_iters).plan for w in w_logits
        )
        p_targets = tuple(
            sinkhorn_algorithm1(h, cfg.eta, cfg.sinkhorn_iters).plan for h in h_logits
        )
        inconsistencies = (views[0][4], views[1][4])

    # swapped prediction: view u's target supervises view v's logits
    la = 0.0
    lc = 0.0
    grad_w = [None, None]
    grad_h = [None, None]
    for v in (0, 1):
        u = 1 - v
        loss_a, g_a = softmax_cross_entropy(w_targets[u], w_logits[v], tau_a)
        loss_c, g_c = softmax_cross_entropy(p_targets[u], h_logits[v], tau_c)
        la += loss_a
        lc += loss_c
        grad_w[v] = g_a
        grad_h[v] = g_c

    penalty = 0.0
    pen_grads = [None, None]
    if cfg.orth_mode == "penalty":
        for v in (0, 1):
            pen, g_pen = orthogonal_penalty(views[v][3], cfg.penalty_rho)
            penalty += pen
            pen_grads[v] = g_pen

    total = la + cfg.lam * lc + penalty

    # backward: chain each view's embedding gradient through the
    # straight-through (identity) and the row normalization of the raw
    # embeddings, then the encoder; targets and residuals are constants
    grads: dict[str, np.ndarray | float] = {
        name: np.zeros_like(p) for name, p in model.named_arrays()
    }
    grad_protos_norm = np.zeros_like(protos)
    grad_tau_a = 0.0
    grad_tau_c = 0.0
    for v in (0, 1):
        z_raw, cache, _, z, _ = views[v]
        if cfg.keep_diagonal:
            a = grad_w[v]
            grad_z = a @ z + a.T @ z
        else:
            grad_z = affinity_grad_to_embeddings(grad_w[v], z)
        grad_z = grad_z + cfg.lam * (grad_h[v] @ protos)
        if pen_grads[v] is not None:
            grad_z = grad_z + pen_grads[v]
        grad_protos_norm += cfg.lam * (grad_h[v].T @ z)
        grad_tau_a += -float(np.vdot(grad_w[v], w_logits[v])) / tau_a
        grad_tau_c += -cfg.lam * float(np.vdot(grad_h[v], h_logits[v])) / tau_c

        grad_raw = row_normalize_vjp(z_raw, grad_z)
        layer_grads = net.backward(model, cache, grad_raw)
        for i, (gw, gb) in enumerate(layer_grads):
            grads[f"layer{i}.weight"] += gw
            grads[f"layer{i}.bias"] += gb

    grads["prototypes"] += row_normalize_vjp(protos_raw, grad_protos_norm)
    grads["log_tau_a"] = grad_tau_a * net.tau_grad_scale(model.log_tau_a, model.tau_cap)
    grads["log_tau_c"] = grad_tau_c * net.tau_grad_scale(model.log_tau_c, model.tau_cap)

    losses = StepLosses(
        affinity_loss=la,
        clustering_loss=lc,
        total=total,
        mean_inconsistency=0.5 * (inconsistencies[0] + inconsistencies[1]),
        cross_affinity_intensity=0.5
        * (
            _target_intensity(w_targets[0], cfg.keep_diagonal)
            + _target_intensity(w_targets[1], cfg.keep_diagonal)
        ),
    )
    frozen_pack = FrozenStopGradients(
        st_residuals=(views[0][2], views[1][2]),
        affinity_targets=tuple(w_targets),
        assignment_targets=tuple(p_targets),
        inconsistencies=tuple(inconsistencies),
    )
    return losses, grads, frozen_pack


def train_step(
    x,
    model: net.ModelState,
    opt: net.OptimizerState,
    cfg: TrainConfig,
    rng: np.random.Generator,
    lr: float | None = None,
) -> tuple[StepLosses, net.ModelState]:
    """One full training step on a batch: augment, losses, SGD update.

    ``x``, at least 2 finite float64 rows, is trusted: `fit` checks the data."""
    x1 = augment(x, cfg, rng)
    x2 = augment(x, cfg, rng)
    if np.ptp(x1, axis=0).max() == 0.0:
        warnings.warn("degenerate batch: all augmented rows identical", RuntimeWarning)
    losses, grads, _ = _compute_step(model, x1, x2, cfg, None)
    if not np.isfinite(losses.total):
        raise TrainingAbortError(f"non-finite total loss {losses.total!r}")
    model = net.sgd_step(model, opt, grads, opt.base_lr if lr is None else lr)
    return losses, model


def fit(features, cfg: TrainConfig) -> tuple[net.ModelState, TrainHistory]:
    """Train on shuffled mini-batches; deterministic given ``cfg.seed``.

    The last incomplete batch of each epoch is dropped. Returns the trained
    model and one history record per completed epoch (means over the
    epoch's steps).
    """
    x = as_matrix(features, "features")
    n, d_in = x.shape
    if n < cfg.batch_size:
        raise ValueError(
            f"dataset has {n} samples but batch_size is {cfg.batch_size}"
        )
    rng = np.random.default_rng(cfg.seed)
    model = net.init_model(d_in, cfg.embed_dim, cfg.num_clusters, rng)
    model.log_tau_a = float(np.log(cfg.tau_a_init))
    model.log_tau_c = float(np.log(cfg.tau_c_init))
    opt = net.OptimizerState(
        base_lr=cfg.lr,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        restart_period=cfg.restart_period,
    )
    records = []
    steps_per_epoch = n // cfg.batch_size
    for epoch in range(cfg.epochs):
        lr = net.cosine_lr(epoch, opt)
        perm = rng.permutation(n)
        sums = np.zeros(5)
        for step in range(steps_per_epoch):
            idx = perm[step * cfg.batch_size : (step + 1) * cfg.batch_size]
            try:
                losses, model = train_step(x[idx], model, opt, cfg, rng, lr)
            except (NumericalError, ValueError, FloatingPointError) as err:
                # inputs were validated up front, so an in-loop failure is a
                # numerical event (overflow, dead rows, poisoned gradients)
                raise TrainingAbortError(
                    f"aborted at epoch {epoch}, step {step}: {err}"
                ) from err
            sums += (
                losses.affinity_loss,
                losses.clustering_loss,
                losses.total,
                losses.mean_inconsistency,
                losses.cross_affinity_intensity,
            )
        # Python floats, so the history prints the same under every numpy
        means = [float(v) for v in sums / steps_per_epoch]
        record = EpochRecord(
            epoch=epoch,
            affinity_loss=means[0],
            clustering_loss=means[1],
            total_loss=means[2],
            tau_a=net.effective_tau(model.log_tau_a, model.tau_cap),
            tau_c=net.effective_tau(model.log_tau_c, model.tau_cap),
            mean_inconsistency=means[3],
            cross_affinity_intensity=means[4],
            lr=lr,
        )
        if not all(np.isfinite(v) for v in vars(record).values()):
            raise TrainingAbortError(f"non-finite history record at epoch {epoch}")
        records.append(record)
    return model, TrainHistory(records=tuple(records))


def predict(model: net.ModelState, x) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels and row-normalized embeddings; no orthogonalization.

    Labels are the row argmax of the assignment logits, so they do not
    depend on the temperature.
    """
    z_raw, _ = _encode(model, as_matrix(x, "x"))
    z = row_normalize(z_raw)
    protos = row_normalize(model.prototypes)
    labels = np.argmax(z @ protos.T, axis=1)
    return labels, z
