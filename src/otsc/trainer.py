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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import network as net
from .errors import NumericalError, TrainingAbortError
from .linalg import as_matrix, check_finite_fields
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
    ablation). A NaN or infinite float field is refused, by name, and so
    are optimizer settings that `optimizer` would refuse.
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
        for name in ("eta", "lam", "noise_sigma", "scale_jitter", "seed"):
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
        check_finite_fields(self)
        self.optimizer()  # refuses optimizer settings out of range

    @property
    def lr(self) -> float:
        return self.base_lr if self.base_lr is not None else 0.04 * self.batch_size / 256.0

    def optimizer(self) -> net.OptimizerState:
        """A fresh optimizer state for this run's settings."""
        return net.OptimizerState(self.lr, self.momentum, self.weight_decay, self.restart_period)


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


class StepLosses(NamedTuple):
    """The step quantities `fit` averages into an `EpochRecord`, named as there."""

    affinity_loss: float
    clustering_loss: float
    total_loss: float
    mean_inconsistency: float
    cross_affinity_intensity: float


@dataclass(frozen=True)
class FrozenStopGradients:
    """Stop-gradient quantities of one step, captured at a base point.

    Finite-difference checks re-evaluate the step loss with these held
    fixed, which is exactly the function the backward differentiates (such
    a step does not orthogonalize, so its mean inconsistency is 0.0).
    ``affinity_targets`` alias the ``target0/1`` buffers of the capturing
    step's store: a later step on the same store overwrites them, so a
    caller that keeps them gives each step its own store (the default).
    """

    st_residuals: tuple[np.ndarray, np.ndarray]
    affinity_targets: tuple[np.ndarray, np.ndarray]
    assignment_targets: tuple[np.ndarray, np.ndarray]


def augment(x, cfg: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    """Stochastic view of vector data.

    Applies feature dropout (plain masking), additive Gaussian noise scaled
    by ``noise_sigma`` times the per-feature std of the incoming batch, and
    a per-sample scale jitter. Draw order is fixed: mask, noise, jitter.
    """
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


def _buffer(store: dict, key: str, shape: tuple[int, int]) -> np.ndarray:
    """A float64 array of ``shape`` kept in ``store`` under ``key``: made on
    first use, reused while the shape matches. Its contents are whatever the
    last user left."""
    buf = store.get(key)
    if buf is None or buf.shape != shape:
        buf = store[key] = np.empty(shape)
    return buf


def _compute_step(model, x1, x2, cfg, frozen: FrozenStopGradients | None, buffers=None):
    """Forward + loss + gradients for one swapped-prediction step.

    Returns (losses, grads, frozen_pack). With ``frozen`` supplied, the
    stop-gradient quantities are taken from it instead of recomputed, so the
    loss becomes a smooth function of the parameters (the function the
    reported gradients differentiate).

    The step's B x B arrays live in ``buffers``, a dict that `fit` keeps for
    the whole run so a step allocates none of them; None gives the call a
    store of its own. The store holds each view's affinity logits and
    targets (``logits0/1``, ``target0/1``; B x (B-1), or B x B under
    ``keep_diagonal``) and, in the packed layout only, the B x B
    similarities (``square``), whose buffer the backward reuses for the
    scattered gradient. After the call the logits buffers hold the affinity
    cross-entropy gradients. The affinity targets in ``frozen_pack`` alias
    the store: the next step on the same store overwrites them.
    """
    buffers = {} if buffers is None else buffers
    tau_a, tau_c = net.effective_tau(model.log_tau).tolist()
    protos = row_normalize(model.prototypes)
    b = x1.shape[0]
    layout = (b, b) if cfg.keep_diagonal else (b, b - 1)
    square = None if cfg.keep_diagonal else _buffer(buffers, "square", (b, b))

    # one forward pass per view: encode, affinity and assignment logits, and
    # (unless frozen) both transport targets
    views, w_logits, h_logits, w_targets, p_targets = [], [], [], [], []
    for v, x in enumerate((x1, x2)):
        view = _encode_view(model, x, cfg, None if frozen is None else frozen.st_residuals[v])
        z = view[3]
        logits = _buffer(buffers, f"logits{v}", layout)
        # a copied transpose keeps numpy off its much slower z @ z.T (syrk)
        # path; with the diagonal kept the similarities are the logits
        np.matmul(z, z.T.copy(), out=logits if square is None else square)
        if square is not None:
            off_diagonal(square, out=logits)
        h = z @ protos.T
        if frozen is None:
            target = _buffer(buffers, f"target{v}", layout)
            w_targets.append(
                sinkhorn_algorithm1(logits, cfg.eta, cfg.sinkhorn_iters, out=target).plan
            )
            p_targets.append(sinkhorn_algorithm1(h, cfg.eta, cfg.sinkhorn_iters).plan)
        views.append(view)
        w_logits.append(logits)
        h_logits.append(h)
    if frozen is not None:
        w_targets, p_targets = frozen.affinity_targets, frozen.assignment_targets

    # swapped prediction: view u's target supervises view v's logits. One
    # pass per view: its losses, its temperature-gradient terms, and its
    # backward through the straight-through (identity), the row
    # normalization of the raw embeddings and the encoder; targets and
    # residuals are constants
    la = lc = penalty = 0.0
    grads = {name: np.zeros_like(p) for name, p in model.named_arrays()}
    grad_protos_norm = np.zeros_like(protos)
    grad_tau = np.zeros(2)  # d total / d (tau_a, tau_c)
    for v in (0, 1):
        u = 1 - v
        z_raw, cache, _, z, _ = views[v]
        # the gradient overwrites the logits, which nothing reads again
        loss_a, g_a = softmax_cross_entropy(w_targets[u], w_logits[v], tau_a, out=w_logits[v])
        loss_c, g_c = softmax_cross_entropy(p_targets[u], h_logits[v], tau_c)
        la += loss_a
        lc += loss_c
        # the similarities are spent, so the scatter reuses their buffer
        grad_z = affinity_grad_to_embeddings(g_a, z, out=square)
        # the affinity logits are z @ z.T (off the diagonal unless
        # keep_diagonal), so <A, z z.T> = <A z + A.T z, z> / 2: one B x D
        # product instead of reading the two B x B logit and gradient planes
        grad_tau[0] += -0.5 * float(np.vdot(grad_z, z)) / tau_a
        grad_z = grad_z + cfg.lam * (g_c @ protos)
        if cfg.orth_mode == "penalty":
            pen, grad_pen = orthogonal_penalty(z, cfg.penalty_rho)
            penalty += pen
            grad_z = grad_z + grad_pen
        grad_protos_norm += cfg.lam * (g_c.T @ z)
        grad_tau[1] += -cfg.lam * float(np.vdot(g_c, h_logits[v])) / tau_c

        grad_raw = row_normalize_vjp(z_raw, grad_z)
        layer_grads = net.backward(model, cache, grad_raw)
        for i, (gw, gb) in enumerate(layer_grads):
            grads[f"layer{i}.weight"] += gw
            grads[f"layer{i}.bias"] += gb

    grads["prototypes"] += row_normalize_vjp(model.prototypes, grad_protos_norm)
    grads["log_tau"] = grad_tau * net.tau_grad_scale(model.log_tau)

    losses = StepLosses(
        affinity_loss=la,
        clustering_loss=lc,
        total_loss=la + cfg.lam * lc + penalty,
        mean_inconsistency=0.5 * (views[0][4] + views[1][4]),
        cross_affinity_intensity=0.5 * sum(
            float(w.sum() - np.trace(w)) if cfg.keep_diagonal else float(w.sum())
            for w in w_targets
        ),
    )
    frozen_pack = FrozenStopGradients(
        st_residuals=(views[0][2], views[1][2]),
        affinity_targets=tuple(w_targets),
        assignment_targets=tuple(p_targets),
    )
    return losses, grads, frozen_pack


def train_step(
    x,
    model: net.ModelState,
    opt: net.OptimizerState,
    cfg: TrainConfig,
    rng: np.random.Generator,
    lr: float,
    buffers: dict | None = None,
) -> tuple[StepLosses, net.ModelState]:
    """One full training step on a batch: augment, losses, SGD update.

    ``x``, at least 2 finite float64 rows, is trusted: `fit` checks the data.
    ``buffers`` is the store of B x B arrays `_compute_step` writes into;
    None gives the step a store of its own."""
    x1 = augment(x, cfg, rng)
    x2 = augment(x, cfg, rng)
    if np.ptp(x1, axis=0).max() == 0.0:
        warnings.warn("degenerate batch: all augmented rows identical", RuntimeWarning)
    losses, grads, _ = _compute_step(model, x1, x2, cfg, None, buffers)
    if not np.isfinite(losses.total_loss):
        raise TrainingAbortError(f"non-finite total loss {losses.total_loss!r}")
    model = net.sgd_step(model, opt, grads, lr)
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
    model.log_tau[:] = np.log([cfg.tau_a_init, cfg.tau_c_init])
    opt = cfg.optimizer()
    records = []
    buffers = {}  # the steps' B x B arrays, reused for the whole run
    steps_per_epoch = n // cfg.batch_size
    for epoch in range(cfg.epochs):
        lr = net.cosine_lr(epoch, opt)
        perm = rng.permutation(n)
        sums = np.zeros(len(StepLosses._fields))
        for step in range(steps_per_epoch):
            idx = perm[step * cfg.batch_size : (step + 1) * cfg.batch_size]
            try:
                losses, model = train_step(x[idx], model, opt, cfg, rng, lr, buffers=buffers)
            except (NumericalError, ValueError, FloatingPointError) as err:
                # inputs were validated up front, so an in-loop failure is a
                # numerical event (overflow, dead rows, poisoned gradients)
                raise TrainingAbortError(
                    f"aborted at epoch {epoch}, step {step}: {err}"
                ) from err
            sums += losses
        # Python floats, so the history prints the same under every numpy
        means = dict(zip(StepLosses._fields, (sums / steps_per_epoch).tolist()))
        tau_a, tau_c = net.effective_tau(model.log_tau).tolist()
        record = EpochRecord(epoch=epoch, tau_a=tau_a, tau_c=tau_c, lr=lr, **means)
        if not all(np.isfinite(v) for v in vars(record).values()):
            raise TrainingAbortError(f"non-finite history record at epoch {epoch}")
        records.append(record)
    return model, TrainHistory(records=tuple(records))


def predict(model: net.ModelState, x) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels and row-normalized embeddings; no orthogonalization.

    Labels are the row argmax of the assignment logits, so they do not
    depend on the temperature.
    """
    x = as_matrix(x, "x")
    if x.shape[1] != model.input_dim:
        raise ValueError(f"input dim {x.shape[1]} does not match first layer {model.input_dim}")
    z_raw, _ = _encode(model, x)
    z = row_normalize(z_raw)
    protos = row_normalize(model.prototypes)
    labels = np.argmax(z @ protos.T, axis=1)
    return labels, z
