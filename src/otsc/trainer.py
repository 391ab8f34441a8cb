"""Joint mini-batch training loop: two views, transport targets, swapped loss.

Each step augments the batch twice, encodes each view in its own encoder pass,
orthogonalizes and row-normalizes each view's embeddings, and builds
affinity and assignment targets by fixed-count Sinkhorn scaling on the
detached similarity matrices. The total loss pairs each view's targets
with the other view's predictions (swapped prediction) and is optimized by
heavy-ball SGD under a cosine restart schedule. Targets and the
orthogonalization residual are stop-gradient quantities: the backward
treats them as constants.
"""

from __future__ import annotations

import warnings
from concurrent import futures
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import network as net
from .errors import NumericalError, as_matrix, check_fields
from .spectral import (
    both_halves,
    off_diagonal,
    orthogonal_penalty,
    orthogonalize,
    row_normalize,
    row_normalize_vjp,
    softmax_cross_entropy,
    worker_thread,
)
from .transport import sinkhorn_algorithm1

# perfbench/tracing.py's LAYER_CALLS wraps this name; nothing calls it, as both
# losses run through softmax_cross_entropy
affinity_grad_to_embeddings = None

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

TRAINER_ORTH_MODES = ("procrustes", "none", "penalty")

# `fit` runs view 1 on a worker thread from this batch size on. Median ms per
# step, serial / worker, 2 cores, 1 BLAS thread (README config on moons, 4
# alternating runs of 200-400 steps each): B=100 2.16 / 2.33, B=192 3.20 /
# 3.59, B=256 4.39 / 5.18, B=384 8.40 / 8.74, B=512 13.2 / 10.2, B=1024
# 50.7 / 28.5. Since each view runs its own encoder pass, the worker slows a
# step below B=512
PARALLEL_MIN_BATCH = 512


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of one training run.

    ``base_lr`` of None resolves to ``0.04 * batch_size / 256``. ``lam``
    weighs the clustering loss against the affinity loss. ``orth_mode``
    selects the orthogonalization strategy: the polar factor, none, or
    ``penalty``, a soft penalty of weight 1 in place of the map. The
    affinity objective always masks self-similarities (`off_diagonal`). A
    field its annotation does not take, or a NaN or infinite float, is
    refused by name (`check_fields`), and so are optimizer settings that
    `optimizer` would refuse.
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
    tau_a_init: float = 0.05
    tau_c_init: float = 0.05

    def __post_init__(self):
        check_fields(self, self._check_bounds)
        self.optimizer()  # refuses optimizer settings out of range

    def _check_bounds(self):
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
        for name in ("eta", "lam", "noise_sigma", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.eta == 0:
            raise ValueError("eta must be positive")
        if self.sinkhorn_iters < 1:
            raise ValueError("sinkhorn_iters must be >= 1")
        if not 0.0 <= self.feature_dropout_prob < 1.0:
            raise ValueError("feature_dropout_prob must lie in [0, 1)")
        if self.scale_jitter < 0.0 or self.scale_jitter >= 1.0:  # NaN: refused as not finite
            raise ValueError("scale_jitter must lie in [0, 1)")
        if self.orth_mode not in TRAINER_ORTH_MODES:
            raise ValueError(
                f"orth_mode must be one of {TRAINER_ORTH_MODES}, got {self.orth_mode!r}"
            )
        for name in ("tau_a_init", "tau_c_init"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")

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
    step's one guard against a diverged model, which reports an overflow
    in the forward instead of numpy's warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        z_raw, inputs = net.forward(model, x)
    if not np.isfinite(z_raw).all():
        raise NumericalError("non-finite encoder output: the model has diverged")
    return z_raw, inputs


def _straight_through(z_raw, cfg):
    """(residual, value) of the straight-through orthogonalize-and-normalize
    map on one view's raw embeddings: the value is the row-normalized
    orthogonalized embedding, and the gradient reaches the raw embeddings
    through the normalization Jacobian at them (a stop-gradient inside the
    normalization instead is scale-unstable at this model size)."""
    z_base = row_normalize(z_raw)
    if cfg.orth_mode == "procrustes":
        resid = row_normalize(orthogonalize(z_raw).z_new) - z_base
    else:
        resid = np.zeros_like(z_raw)
    return resid, z_base + resid  # normalized orthogonalized rows


def _compute_step(model, x1, x2, cfg, planes=None, worker=None):
    """Forward + loss + gradients for one swapped-prediction step.

    Returns (losses, grads, held). ``held`` is the tuple (st_residuals,
    affinity_targets, assignment_targets), each a pair with one entry per
    view, the targets as Sinkhorn factors ``(kernel, u, v)``
    (`SinkhornTarget.factors`), never formed as plans: the step's
    stop-gradient quantities, which the backward treats as constants, so the
    gradients differentiate the loss with them held fixed.

    The step's B x B planes live in ``planes``, a float64 (2, 2, B, B)
    array that `fit` keeps for the whole run; None gives the call its own.
    ``planes[0, v]`` holds view v's affinity logits, z @ z.T with the
    diagonal masked to -inf (`off_diagonal`), so each target column is one
    sample and the target holds no self-affinity; ``planes[1, v]`` holds the
    kernel of its Sinkhorn target, 0 on the diagonal. After the call the
    logits planes, and each view's B x K assignment logits ``h``, hold
    `softmax_cross_entropy`'s E = exp(logits/tau - m), not the logits. The
    affinity kernels in ``held`` are ``planes[1]``, which the next step on
    the same array overwrites.

    Each view runs its own encoder pass and backward. A ``worker`` runs
    view 1's forward (encoder, targets), then its losses and backward
    (through the encoder), while this thread runs view 0's. The views' terms
    and parameter gradients are summed in view order after the join: the
    worker changes no bit.
    """
    tau_a, tau_c = net.effective_tau(model.log_tau).tolist()
    protos = row_normalize(model.prototypes)
    b = x1.shape[0]
    logits, kernels = np.empty((2, 2, b, b)) if planes is None else planes

    def forward(v):
        # view v's encoder pass, straight-through (its own polar factor),
        # logits and targets
        z_raw, inputs = _encode(model, (x1, x2)[v])
        resid, z = _straight_through(z_raw, cfg)
        # z.T copied keeps numpy off its much slower z @ z.T (syrk) path
        off_diagonal(np.matmul(z, z.T.copy(), out=logits[v]))
        h = z @ protos.T
        w = sinkhorn_algorithm1(logits[v], cfg.eta, cfg.sinkhorn_iters, out=kernels[v]).factors
        p = sinkhorn_algorithm1(h, cfg.eta, cfg.sinkhorn_iters).factors
        return z_raw, inputs, resid, z, h, w, p

    def backward(v):
        # swapped prediction: view 1 - v's targets supervise view v's logits.
        # View v's loss terms, then its gradients through the straight-through
        # (identity), the row normalization of its raw embeddings and the
        # encoder; targets and residuals are constants
        z_raw, inputs, _, z, h, _, _ = views[v]
        *_, w, p = views[1 - v]
        loss_a, g, g_y = softmax_cross_entropy(w, logits[v], z, z, tau_a)
        loss_c, g_c, grad_protos = softmax_cross_entropy(p, h, z, protos, tau_c)
        # d loss / d tau = -<A, z y.T> / tau^2 = -<grad_z, z> / tau, A the
        # logit gradient times tau, which is 0 on a masked diagonal
        grad_tau = [-float(np.vdot(g, z)) / tau_a, -cfg.lam * float(np.vdot(g_c, z)) / tau_c]
        g = g + g_y + cfg.lam * g_c
        pen = 0.0
        if cfg.orth_mode == "penalty":
            pen, grad_pen = orthogonal_penalty(z)
            g = g + grad_pen
        layers = net.backward(model, inputs, row_normalize_vjp(z_raw, g))
        return (loss_a, loss_c, pen, np.array(grad_tau), cfg.lam * grad_protos,
                *(grad for layer in layers for grad in layer))

    views = both_halves(forward, worker)
    # summed in view order: the loss terms, d total / d (tau_a, tau_c), d the
    # unit prototypes, then each layer's weight and bias gradients
    la, lc, penalty, grad_tau, grad_protos_norm, *layer_grads = (
        view0 + view1 for view0, view1 in zip(*both_halves(backward, worker))
    )
    # named_arrays lists each layer's weight and bias first, in layer order
    grads = dict(zip((name for name, _ in model.named_arrays()), layer_grads))
    grads["prototypes"] = row_normalize_vjp(model.prototypes, grad_protos_norm)
    grads["log_tau"] = grad_tau * net.tau_grad_scale(model.log_tau)

    # the residuals are the moves the straight-through applies to unit rows
    _, _, resids, _, _, w_targets, p_targets = zip(*views)
    resid_norm = float(np.linalg.norm(resids[0]) + np.linalg.norm(resids[1]))
    losses = StepLosses(
        affinity_loss=la,
        clustering_loss=lc,
        total_loss=la + cfg.lam * lc + penalty,
        mean_inconsistency=resid_norm / (2.0 * b**0.5),
    )
    return losses, grads, (resids, w_targets, p_targets)


def train_step(
    x,
    model: net.ModelState,
    opt: net.OptimizerState,
    cfg: TrainConfig,
    rng: np.random.Generator,
    lr: float,
    planes: np.ndarray | None = None,
    worker: futures.Executor | None = None,
) -> tuple[StepLosses, net.ModelState]:
    """One full training step on a batch: augment, losses, SGD update.

    ``x``, at least 2 finite float64 rows, is trusted: `fit` checks the data.
    ``planes`` holds the step's B x B planes and ``worker`` runs view 1's
    half of the step (see `_compute_step`); None gives the step its own
    planes, or runs all of it on this thread."""
    x1 = augment(x, cfg, rng)
    x2 = augment(x, cfg, rng)
    if np.ptp(x1, axis=0).max() == 0.0:
        warnings.warn("degenerate batch: all augmented rows identical", RuntimeWarning)
    losses, grads, _ = _compute_step(model, x1, x2, cfg, planes, worker)
    if not np.isfinite(losses.total_loss):
        raise NumericalError(f"non-finite total loss {losses.total_loss!r}")
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
    b = cfg.batch_size
    if n < b:
        raise ValueError(f"dataset has {n} samples but batch_size is {b}")
    rng = np.random.default_rng(cfg.seed)
    model = net.init_model(d_in, cfg.embed_dim, cfg.num_clusters, rng)
    model.log_tau[:] = np.log([cfg.tau_a_init, cfg.tau_c_init])
    opt = cfg.optimizer()
    records = []
    planes = np.empty((2, 2, b, b))  # the steps' B x B planes, reused for the whole run
    steps_per_epoch = n // b
    with worker_thread(b >= PARALLEL_MIN_BATCH) as worker:
        for epoch in range(cfg.epochs):
            lr = net.cosine_lr(epoch, opt)
            perm = rng.permutation(n)
            sums = np.zeros(len(StepLosses._fields))
            for step in range(steps_per_epoch):
                idx = perm[step * b : (step + 1) * b]
                try:
                    losses, model = train_step(
                        x[idx], model, opt, cfg, rng, lr, planes=planes, worker=worker
                    )
                except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as err:
                    # numerical events only (overflow, dead rows, an SVD that
                    # does not converge, poisoned gradients); any other error
                    # is a bug and leaves fit as itself
                    msg = f"aborted at epoch {epoch}, step {step}: {err}"
                    raise NumericalError(msg) from err
                sums += losses
            # Python floats, so the history prints the same under every numpy
            means = dict(zip(StepLosses._fields, (sums / steps_per_epoch).tolist()))
            tau_a, tau_c = net.effective_tau(model.log_tau).tolist()
            record = EpochRecord(epoch=epoch, tau_a=tau_a, tau_c=tau_c, lr=lr, **means)
            if not all(np.isfinite(v) for v in vars(record).values()):
                raise NumericalError(f"non-finite history record at epoch {epoch}")
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
