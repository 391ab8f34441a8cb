"""Joint mini-batch training loop: two views, transport targets, swapped loss.

Each step augments the batch twice, encodes both views in one encoder pass,
orthogonalizes and row-normalizes each view's embeddings, and builds
affinity and assignment targets by fixed-count Sinkhorn scaling on the
detached similarity matrices. The total loss pairs each view's targets
with the other view's predictions (swapped prediction) and is optimized by
heavy-ball SGD under a cosine restart schedule. Targets and the
orthogonalization residual are stop-gradient quantities: the backward
treats them as constants.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from concurrent import futures
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import network as net
from .errors import NumericalError, TrainingAbortError, as_matrix, check_finite_fields
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

# `fit` runs view 1 on a worker thread from this batch size on. Median ms per
# step, serial / worker, 2 cores, 1 BLAS thread: B=100 1.64 / 2.10, B=192
# 2.92 / 2.96, B=256 3.80 / 3.41, B=512 11.6 / 7.7, B=1024 41.9 / 25.1
PARALLEL_MIN_BATCH = 256


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
    """Stop-gradient quantities of one step: per view, the straight-through
    residual and the affinity and assignment targets.

    The step's gradients differentiate its loss with these held fixed.
    ``affinity_targets`` alias the ``target0/1`` buffers of the step's
    store: a later step on the same store overwrites them, so a caller that
    keeps them gives each step its own store (the default).
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


def _straight_through(z_raw, cfg):
    """(residual, value) of the straight-through orthogonalize-and-normalize
    map on one view's raw embeddings: the value is the row-normalized
    orthogonalized embedding, and the gradient reaches the raw embeddings
    through the normalization Jacobian at them (a stop-gradient inside the
    normalization instead is scale-unstable at this model size)."""
    z_base = row_normalize(z_raw)
    if cfg.orth_mode in ("procrustes", "qr"):
        resid = row_normalize(orthogonalize(z_raw, cfg.orth_mode).z_new) - z_base
    else:
        resid = np.zeros_like(z_raw)
    return resid, z_base + resid  # normalized orthogonalized rows


def _buffer(store: dict, key: str, shape: tuple[int, int]) -> np.ndarray:
    """A float64 array of ``shape`` kept in ``store`` under ``key``: made on
    first use, reused while the shape matches. Its contents are whatever the
    last user left."""
    buf = store.get(key)
    if buf is None or buf.shape != shape:
        buf = store[key] = np.empty(shape)
    return buf


def _both_views(fn, worker):
    """``[fn(0), fn(1)]``. A worker (an executor with one thread) runs fn(1)
    meanwhile; it is joined before an error is raised, view 0's if both fail."""
    if worker is None:
        return [fn(0), fn(1)]
    second = worker.submit(fn, 1)
    try:
        return [fn(0), second.result()]
    finally:
        futures.wait([second])


def _compute_step(model, x1, x2, cfg, buffers=None, worker=None):
    """Forward + loss + gradients for one swapped-prediction step.

    Returns (losses, grads, held): ``held`` holds the step's stop-gradient
    quantities, the straight-through residuals and both views' transport
    targets, which the backward treats as constants.

    The step's B x B arrays live in ``buffers``, a dict that `fit` keeps for
    the whole run so a step allocates none of them; None gives the call a
    store of its own. The store holds each view's affinity logits and
    targets (``logits0/1``, ``target0/1``), all B x B: the logits are
    z @ z.T with the diagonal masked to -inf (`off_diagonal`) unless
    ``keep_diagonal``, so each target column is one sample and a masked
    target holds no self-affinity. After the call the logits buffers hold
    the affinity cross-entropy gradients. The affinity targets in ``held``
    alias the store: the next step on the same store overwrites them.

    A ``worker`` runs view 1's targets, then its losses and backward, while
    this thread runs view 0's. Buffers are made on this thread and the terms
    summed in view order after the join: the worker changes no bit.
    """
    buffers = {} if buffers is None else buffers
    tau_a, tau_c = net.effective_tau(model.log_tau).tolist()
    protos = row_normalize(model.prototypes)
    b = x1.shape[0]

    def forward(v):
        # view v's straight-through (its own polar factor), logits and targets
        resid, z = _straight_through(z_raw[v * b : (v + 1) * b], cfg)
        # z.T copied keeps numpy off its much slower z @ z.T (syrk) path
        np.matmul(z, z.T.copy(), out=logits[v])
        if not cfg.keep_diagonal:
            off_diagonal(logits[v])
        h = z @ protos.T
        w = sinkhorn_algorithm1(logits[v], cfg.eta, cfg.sinkhorn_iters, out=targets[v]).plan
        return resid, z, h, w, sinkhorn_algorithm1(h, cfg.eta, cfg.sinkhorn_iters).plan

    def backward(v):
        # swapped prediction: view 1 - v's targets supervise view v's logits.
        # View v's loss and gradient terms, and its rows of grad_z
        _, z, h, _, _ = views[v]
        # the gradient overwrites the logits, which nothing reads again
        loss_a, g_a = softmax_cross_entropy(views[1 - v][3], logits[v], tau_a, out=logits[v],
                                            masked_diagonal=not cfg.keep_diagonal)
        loss_c, g_c = softmax_cross_entropy(views[1 - v][4], h, tau_c)
        g = affinity_grad_to_embeddings(g_a, z)
        # the affinity logits are z @ z.T (off the diagonal, where A is 0,
        # unless keep_diagonal), so <A, z z.T> = <A z + A.T z, z> / 2: one B x D
        # product instead of reading the two B x B logit and gradient planes
        grad_tau = [-0.5 * float(np.vdot(g, z)) / tau_a, -cfg.lam * float(np.vdot(g_c, h)) / tau_c]
        g = g + cfg.lam * (g_c @ protos)
        pen = 0.0
        if cfg.orth_mode == "penalty":
            pen, grad_pen = orthogonal_penalty(z, cfg.penalty_rho)
            g = g + grad_pen
        grad_z[v * b : (v + 1) * b] = g
        return loss_a, loss_c, pen, np.array(grad_tau), cfg.lam * (g_c.T @ z)

    # one encoder pass over both views: view v is rows [v*b, (v+1)*b). Then
    # per view its targets, and per view its losses and backward; then one
    # backward for both views through the straight-through (identity), the
    # row normalization of the raw embeddings and the encoder. Targets and
    # residuals are constants
    z_raw, cache = _encode(model, np.concatenate((x1, x2)))
    # made after the encoder's activations, which then do not sit at the heap
    # top that glibc trims (before, they cost a B=100 step 130 page faults)
    logits = [_buffer(buffers, f"logits{v}", (b, b)) for v in (0, 1)]
    targets = [_buffer(buffers, f"target{v}", (b, b)) for v in (0, 1)]
    grad_z = np.empty_like(z_raw)
    views = _both_views(forward, worker)
    # summed in view order; d total / d (tau_a, tau_c), d the unit prototypes
    la, lc, penalty, grad_tau, grad_protos_norm = map(sum, zip(*_both_views(backward, worker)))

    grads = {}
    for i, (gw, gb) in enumerate(net.backward(model, cache, row_normalize_vjp(z_raw, grad_z))):
        grads[f"layer{i}.weight"] = gw
        grads[f"layer{i}.bias"] = gb
    grads["prototypes"] = row_normalize_vjp(model.prototypes, grad_protos_norm)
    grads["log_tau"] = grad_tau * net.tau_grad_scale(model.log_tau)

    # the residuals are the moves the straight-through applies to unit rows;
    # a target's rows sum to 1, and a masked diagonal holds none of it
    resids, _, _, w_targets, p_targets = zip(*views)
    resid_norm = float(np.linalg.norm(resids[0]) + np.linalg.norm(resids[1]))
    self_mass = float(sum(np.trace(w) for w in w_targets))
    losses = StepLosses(
        affinity_loss=la,
        clustering_loss=lc,
        total_loss=la + cfg.lam * lc + penalty,
        mean_inconsistency=resid_norm / (2.0 * b**0.5),
        cross_affinity_intensity=1.0 - self_mass / (2.0 * b),
    )
    return losses, grads, FrozenStopGradients(resids, w_targets, p_targets)


def train_step(
    x,
    model: net.ModelState,
    opt: net.OptimizerState,
    cfg: TrainConfig,
    rng: np.random.Generator,
    lr: float,
    buffers: dict | None = None,
    worker: futures.Executor | None = None,
) -> tuple[StepLosses, net.ModelState]:
    """One full training step on a batch: augment, losses, SGD update.

    ``x``, at least 2 finite float64 rows, is trusted: `fit` checks the data.
    ``buffers`` is the store of B x B arrays `_compute_step` writes into;
    None gives the step a store of its own. ``worker`` runs view 1's half of
    the step (see `_compute_step`); None runs all of it on this thread."""
    x1 = augment(x, cfg, rng)
    x2 = augment(x, cfg, rng)
    if np.ptp(x1, axis=0).max() == 0.0:
        warnings.warn("degenerate batch: all augmented rows identical", RuntimeWarning)
    losses, grads, _ = _compute_step(model, x1, x2, cfg, buffers, worker)
    if not np.isfinite(losses.total_loss):
        raise TrainingAbortError(f"non-finite total loss {losses.total_loss!r}")
    model = net.sgd_step(model, opt, grads, lr)
    return losses, model


def fit(features, cfg: TrainConfig) -> tuple[net.ModelState, TrainHistory]:
    """Train on shuffled mini-batches; deterministic given ``cfg.seed``.

    The last incomplete batch of each epoch is dropped. Returns the trained
    model and one history record per completed epoch (means over the
    epoch's steps). From ``batch_size`` `PARALLEL_MIN_BATCH` on, on 2 CPUs,
    a worker thread runs view 1 of each step, with bitwise the same result.
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
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parallel = cfg.batch_size >= PARALLEL_MIN_BATCH and (cpus or 1) >= 2
    with futures.ThreadPoolExecutor(1) if parallel else contextlib.nullcontext() as worker:
        for epoch in range(cfg.epochs):
            lr = net.cosine_lr(epoch, opt)
            perm = rng.permutation(n)
            sums = np.zeros(len(StepLosses._fields))
            for step in range(steps_per_epoch):
                idx = perm[step * cfg.batch_size : (step + 1) * cfg.batch_size]
                try:
                    losses, model = train_step(
                        x[idx], model, opt, cfg, rng, lr, buffers=buffers, worker=worker
                    )
                except (NumericalError, ValueError, FloatingPointError) as err:
                    # inputs were validated up front, so an in-loop failure is
                    # a numerical event (overflow, dead rows, poisoned gradients)
                    msg = f"aborted at epoch {epoch}, step {step}: {err}"
                    raise TrainingAbortError(msg) from err
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
