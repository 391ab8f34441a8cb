"""Fully-connected encoder with hand-derived backward, SGD, and checkpoints.

The encoder is a small MLP (rectifier between layers, none after the last)
whose reverse-mode gradients are written out explicitly so every parameter
can be finite-difference checked. Cluster prototypes live here as raw,
unconstrained rows; they are unit-normalized in the forward pass with the
normalization Jacobian applied in the backward. Two learnable log
temperatures are clamped from above at log 1 inside the forward (min, not
projection), so the effective temperature never exceeds 1.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import PoisonedUpdateError

__all__ = [
    "ModelState",
    "OptimizerState",
    "init_model",
    "forward",
    "backward",
    "effective_tau",
    "tau_grad_scale",
    "sgd_step",
    "cosine_lr",
    "save_checkpoint",
    "load_checkpoint",
]

TAU_CAP = 0.0  # log 1
INIT_LOG_TAU = float(np.log(0.05))

# parameters never subject to weight decay
_NO_DECAY = {"log_tau_a", "log_tau_c"}


@dataclass
class ModelState:
    """All trainable state: encoder layers, prototypes, log temperatures.

    ``layers[i] = (weight, bias)`` with weight shaped out x in. ``version``
    increments on every optimizer step and guards stale forward caches.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    prototypes: np.ndarray  # K x D, raw (normalized in the forward pass)
    log_tau_a: float
    log_tau_c: float
    tau_cap: float = TAU_CAP
    version: int = 0

    @property
    def num_clusters(self) -> int:
        return self.prototypes.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.prototypes.shape[1]

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        items = []
        for i, (w, b) in enumerate(self.layers):
            items.append((f"layer{i}.weight", w))
            items.append((f"layer{i}.bias", b))
        items.append(("prototypes", self.prototypes))
        return items


@dataclass
class OptimizerState:
    """Heavy-ball SGD state: one momentum buffer per parameter."""

    base_lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0005
    restart_period: int = 200
    momentum_buffers: dict[str, np.ndarray] = field(default_factory=dict)
    scalar_buffers: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.restart_period < 1:
            raise ValueError("restart_period must be positive")


def _xavier_uniform(fan_out: int, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_model(
    d_in: int,
    embed_dim: int,
    num_clusters: int,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = (64, 64),
) -> ModelState:
    """Xavier-uniform weights, zero biases, prototypes drawn like a K x D layer."""
    dims = (d_in, *hidden, embed_dim)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        layers.append((_xavier_uniform(fan_out, fan_in, rng), np.zeros(fan_out)))
    prototypes = _xavier_uniform(num_clusters, embed_dim, rng)
    return ModelState(
        layers=layers,
        prototypes=prototypes,
        log_tau_a=INIT_LOG_TAU,
        log_tau_c=INIT_LOG_TAU,
    )


@dataclass
class ForwardCache:
    """Intermediates of one encoder forward, tied to a model version."""

    inputs: list[np.ndarray]  # input to each layer
    pre_activations: list[np.ndarray]
    model_id: int
    model_version: int


def forward(state: ModelState, x) -> tuple[np.ndarray, ForwardCache]:
    """Encoder forward pass; returns raw embeddings and the backward cache."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be a B x d_in matrix")
    if x.shape[1] != state.input_dim:
        raise ValueError(
            f"input dim {x.shape[1]} does not match first layer {state.input_dim}"
        )
    inputs, pres = [], []
    h = x
    last = len(state.layers) - 1
    for i, (w, b) in enumerate(state.layers):
        inputs.append(h)
        pre = h @ w.T + b
        pres.append(pre)
        h = pre if i == last else np.maximum(pre, 0.0)
    cache = ForwardCache(
        inputs=inputs,
        pre_activations=pres,
        model_id=id(state),
        model_version=state.version,
    )
    return h, cache


def backward(
    state: ModelState, cache: ForwardCache, grad_z: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact reverse-mode pass through the encoder.

    Returns per-layer (grad_weight, grad_bias). The rectifier uses the
    0-subgradient at 0. Raises on a cache from a different model version.
    """
    if cache.model_id != id(state) or cache.model_version != state.version:
        raise ValueError("stale forward cache: model was updated since forward")
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(state.layers)
    g_pre = np.asarray(grad_z, dtype=np.float64)
    if g_pre.shape != cache.pre_activations[-1].shape:
        raise ValueError("grad_z shape does not match the forward output")
    for i in range(len(state.layers) - 1, -1, -1):
        w, _ = state.layers[i]
        grads[i] = (g_pre.T @ cache.inputs[i], g_pre.sum(axis=0))
        if i > 0:
            g_h = g_pre @ w
            g_pre = g_h * (cache.pre_activations[i - 1] > 0)
    return grads


def effective_tau(log_tau: float, cap: float = TAU_CAP) -> float:
    """Clamped temperature exp(min(log_tau, cap))."""
    return float(np.exp(min(log_tau, cap)))


def tau_grad_scale(log_tau: float, cap: float = TAU_CAP) -> float:
    """d tau / d log_tau: tau when unclamped, 0 at or above the cap."""
    return 0.0 if log_tau >= cap else float(np.exp(log_tau))


def sgd_step(
    state: ModelState,
    opt: OptimizerState,
    grads: dict[str, np.ndarray | float],
    lr: float,
) -> ModelState:
    """One heavy-ball step: g' = g + wd*p; buf = m*buf + g'; p -= lr*buf.

    Log temperatures are excluded from weight decay. Refuses the whole step
    if any gradient is non-finite, leaving the state untouched.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise PoisonedUpdateError(f"non-finite gradient for {name!r}; step refused")

    for name, param in state.named_arrays():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        if opt.weight_decay and name not in _NO_DECAY:
            g = g + opt.weight_decay * param
        buf = opt.momentum_buffers.get(name)
        buf = g if buf is None else opt.momentum * buf + g
        opt.momentum_buffers[name] = buf
        param -= lr * buf

    for name in ("log_tau_a", "log_tau_c"):
        g = float(grads[name])
        buf = opt.scalar_buffers.get(name, 0.0)
        buf = opt.momentum * buf + g
        opt.scalar_buffers[name] = buf
        setattr(state, name, getattr(state, name) - lr * buf)

    state.version += 1
    return state


def cosine_lr(epoch: int, opt: OptimizerState) -> float:
    """Cosine decay restarting every ``opt.restart_period`` epochs."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    t = epoch % opt.restart_period
    return float(opt.base_lr * 0.5 * (1.0 + np.cos(np.pi * t / opt.restart_period)))


# -- checkpoint I/O ----------------------------------------------------------
#
# A checkpoint is a single .npz container. Every parameter tensor is stored
# under its parameter name (shape and dtype live in the npy headers), the
# momentum buffers under "momentum:<name>", and a JSON "meta" entry carries
# scalar state: log temperatures, scalar momentum, optimizer hyperparameters,
# epoch counter, and the RNG state. Layout is documented in the README and
# versioned via meta["format"].

_CKPT_FORMAT = 1


def save_checkpoint(
    path,
    state: ModelState,
    opt: OptimizerState,
    epoch: int,
    rng_state: dict | None = None,
) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, param in state.named_arrays():
        arrays[name] = param
    for name, buf in opt.momentum_buffers.items():
        arrays[f"momentum:{name}"] = buf
    meta = {
        "format": _CKPT_FORMAT,
        "num_layers": len(state.layers),
        "log_tau_a": state.log_tau_a,
        "log_tau_c": state.log_tau_c,
        "tau_cap": state.tau_cap,
        "version": state.version,
        "epoch": epoch,
        "optimizer": {
            "base_lr": opt.base_lr,
            "momentum": opt.momentum,
            "weight_decay": opt.weight_decay,
            "restart_period": opt.restart_period,
            "scalar_buffers": opt.scalar_buffers,
        },
        "rng_state": rng_state,
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


_INT, _COUNT, _NUMBER = "an integer", "a positive integer", "a number"
_META_KINDS = {
    "num_layers": _COUNT, "log_tau_a": _NUMBER, "log_tau_c": _NUMBER,
    "tau_cap": _NUMBER, "version": _INT, "epoch": _INT,
}
_OPT_META_KINDS = {
    "base_lr": _NUMBER, "momentum": _NUMBER, "weight_decay": _NUMBER,
    "restart_period": _INT,
}


def _check_kinds(path, section: dict, kinds: dict[str, str]) -> None:
    for key, kind in kinds.items():
        value = section[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        whole = number and isinstance(value, int)
        ok = number if kind == _NUMBER else whole and (kind == _INT or value >= 1)
        if not ok:
            raise ValueError(f"checkpoint {path} entry {key!r} must be {kind}, got {value!r}")


def _check_layout(path, layers, prototypes) -> None:
    """Refuse widths that do not chain from layer to layer and into the prototypes."""

    def refuse(key, arr, expected):
        raise ValueError(
            f"checkpoint {path} entry {key!r} has shape {arr.shape}, expected {expected}"
        )

    width = None  # output width of the previous layer
    for i, (w, b) in enumerate(layers):
        if w.ndim != 2 or width not in (None, w.shape[1]):
            refuse(f"layer{i}.weight", w, f"out x {width or 'in'} to match the previous layer")
        width = w.shape[0]
        if b.shape != (width,):
            refuse(f"layer{i}.bias", b, f"({width},) to match its weight")
    if prototypes.ndim != 2 or prototypes.shape[1] != width:
        refuse("prototypes", prototypes, f"K x {width} to match the last layer's output")


def load_checkpoint(path) -> tuple[ModelState, OptimizerState, int, dict | None]:
    """Read a checkpoint written by `save_checkpoint`.

    This is where a model enters from outside, so it is validated here and
    not again on use. A file that is not a readable .npz archive, lacks an
    array or a meta field, holds a meta that is not a JSON object or a meta
    field of the wrong type, holds a non-finite array, or holds layers and
    prototypes whose widths do not chain raises ``ValueError`` naming the
    file and the entry.
    """
    try:
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as err:
        raise ValueError(f"checkpoint {path} is unreadable: {err}") from None
    for key, value in arrays.items():
        if key != "meta" and not (value.dtype.kind == "f" and np.isfinite(value).all()):
            raise ValueError(f"checkpoint {path} entry {key!r} must hold finite floats")
    try:
        meta = json.loads(bytes(arrays["meta"]))
        if not isinstance(meta, dict):
            raise ValueError(f"checkpoint {path} entry 'meta' is not a JSON object: {meta!r}")
        if meta["format"] != _CKPT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {meta['format']}")
        _check_kinds(path, meta, _META_KINDS)
        opt_meta = meta["optimizer"]
        if not isinstance(opt_meta, dict) or not isinstance(opt_meta["scalar_buffers"], dict):
            raise ValueError(f"checkpoint {path} entry 'optimizer' is malformed")
        _check_kinds(path, opt_meta, _OPT_META_KINDS)
        layers = [
            (arrays[f"layer{i}.weight"], arrays[f"layer{i}.bias"])
            for i in range(meta["num_layers"])
        ]
        prototypes = arrays["prototypes"]
        _check_layout(path, layers, prototypes)
        state = ModelState(
            layers=layers,
            prototypes=prototypes,
            log_tau_a=meta["log_tau_a"],
            log_tau_c=meta["log_tau_c"],
            tau_cap=meta["tau_cap"],
            version=meta["version"],
        )
        opt = OptimizerState(
            base_lr=opt_meta["base_lr"],
            momentum=opt_meta["momentum"],
            weight_decay=opt_meta["weight_decay"],
            restart_period=opt_meta["restart_period"],
            scalar_buffers=dict(opt_meta["scalar_buffers"]),
        )
        for key, value in arrays.items():
            if key.startswith("momentum:"):
                opt.momentum_buffers[key.split(":", 1)[1]] = value
        return state, opt, meta["epoch"], meta["rng_state"]
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"checkpoint {path} entry 'meta' is not JSON: {err}") from None
    except KeyError as err:
        raise ValueError(f"checkpoint {path} has no entry {err.args[0]!r}") from None
