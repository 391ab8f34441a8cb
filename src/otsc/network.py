"""Fully-connected encoder with hand-derived backward, SGD, and checkpoints.

The encoder is a small MLP (rectifier between layers, none after the last)
whose reverse-mode gradients are written out explicitly so every parameter
can be finite-difference checked. Cluster prototypes live here as raw,
unconstrained rows; they are unit-normalized in the forward pass with the
normalization Jacobian applied in the backward. The affinity and clustering
log temperatures are one learnable parameter array, ``log_tau``, so gradients,
SGD and checkpoints handle them like every other parameter. They are clamped
from above at log 1 inside the forward (min, not projection), so the effective
temperatures never exceed 1.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, check_fields, check_number

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


class ModelState:
    """All trainable state in one float64 vector, ``params``, packed from
    copies of the arrays given; ``layers[i] = (weight, bias)`` (weight out x
    in), ``prototypes`` (K x D, raw) and ``log_tau`` ((2,): affinity, then
    clustering log temperature) are its views in `named_arrays` order,
    written in place, never rebound. ``version`` counts optimizer steps."""

    def __init__(self, layers, prototypes, log_tau, version: int = 0):
        arrays = [*(a for layer in layers for a in layer), prototypes, log_tau]
        names = [f"layer{i}.{part}" for i in range(len(layers)) for part in ("weight", "bias")]
        self._names = names + ["prototypes", "log_tau"]
        ends = np.cumsum([0, *map(np.size, arrays)]).tolist()
        self._slots = list(zip(ends, ends[1:], map(np.shape, arrays)))
        self.params = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        *encoder, self.prototypes, self.log_tau = self.split(self.params)
        self.layers = tuple(zip(encoder[::2], encoder[1::2]))
        self.version = version

    def __setattr__(self, name, value):
        if name in ("params", "layers", "prototypes", "log_tau") and name in vars(self):
            raise AttributeError(f"{name} views the parameter vector: write into it in place")
        super().__setattr__(name, value)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like ``params``, in `named_arrays` order."""
        return [vector[start:end].reshape(shape) for start, end, shape in self._slots]

    def named_arrays(self, vector: np.ndarray | None = None) -> list[tuple[str, np.ndarray]]:
        """(name, view) pairs of `split`: of ``vector``, or of ``params``."""
        return list(zip(self._names, self.split(self.params if vector is None else vector)))


@dataclass
class OptimizerState:
    """Heavy-ball SGD state. The momentum is one vector, ``velocity``, laid out
    like the model's ``params``; None before the first step."""

    base_lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0005
    restart_period: int = 200
    velocity: np.ndarray | None = field(default=None, init=False, repr=False)

    # the range of each field, read by `check_fields`
    _BOUNDS = {"base_lr": "> 0", "momentum": "[0, 1)", "weight_decay": ">= 0",
               "restart_period": ">= 1"}

    def __post_init__(self):
        check_fields(self, self._BOUNDS)


def _xavier_uniform(fan_out: int, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_model(
    d_in: int,
    embed_dim: int,
    num_clusters: int,
    rng: np.random.Generator,
    tau_init: tuple[float, float],
    hidden: tuple[int, ...] = (64, 64),
) -> ModelState:
    """Xavier-uniform weights, zero biases, prototypes drawn like a K x D layer,
    and ``log_tau`` the log of ``tau_init`` (affinity, clustering)."""
    dims = (d_in, *hidden, embed_dim)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        layers.append((_xavier_uniform(fan_out, fan_in, rng), np.zeros(fan_out)))
    prototypes = _xavier_uniform(num_clusters, embed_dim, rng)
    return ModelState(layers=layers, prototypes=prototypes, log_tau=np.log(tau_init))


def forward(state: ModelState, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Encoder forward pass; returns raw embeddings and the input to each
    layer, which `backward` takes.

    ``x`` is a float64 B x d_in matrix, as `fit` and `predict` hand it."""
    inputs = []
    h = x
    last = len(state.layers) - 1
    for i, (w, b) in enumerate(state.layers):
        inputs.append(h)
        h = h @ w.T  # a new array: the in-place ops leave the stored input alone
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
    return h, inputs


def backward(
    state: ModelState, inputs: list[np.ndarray], grad_z: np.ndarray, out: list | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact reverse-mode pass through the encoder.

    ``inputs`` are the layer inputs `forward` returned for this ``state``,
    before any optimizer step. Writes per-layer (grad_weight, grad_bias) into
    ``out``, views of a gradient vector (`ModelState.split`; else a new one),
    and returns them. The rectifier uses the 0-subgradient at 0: it masks by
    the next layer's input > 0, as max(p, 0) > 0 exactly when p > 0.
    """
    views = state.split(np.empty(state.params.size)) if out is None else out
    grads = list(zip(views[0:-2:2], views[1:-2:2]))
    g_pre = grad_z
    for i in range(len(state.layers) - 1, -1, -1):
        np.matmul(g_pre.T, inputs[i], out=grads[i][0])
        g_pre.sum(axis=0, out=grads[i][1])
        if i > 0:
            g_h = g_pre @ state.layers[i][0]
            g_pre = g_h * (inputs[i] > 0)
    return grads


def effective_tau(log_tau: np.ndarray) -> np.ndarray:
    """Clamped temperatures exp(min(log_tau, TAU_CAP)), entrywise."""
    return np.exp(np.minimum(log_tau, TAU_CAP))


def tau_grad_scale(log_tau: np.ndarray) -> np.ndarray:
    """d tau / d log_tau, entrywise: tau when unclamped, 0 at or above the cap.

    The exp is taken of the clamped values, so a ``log_tau`` far above the
    cap does not overflow."""
    return np.where(log_tau >= TAU_CAP, 0.0, effective_tau(log_tau))


def sgd_step(
    state: ModelState,
    opt: OptimizerState,
    grads: np.ndarray,
    lr: float,
) -> ModelState:
    """One heavy-ball step: g' = g + wd*p; buf = m*buf + g' (g' at first); p -= lr*buf.

    ``grads``, a float64 vector laid out like ``state.params``, and ``lr``
    (positive) are trusted. The log temperatures, the vector's tail, are
    excluded from weight decay. Refuses the whole step if any gradient is
    non-finite, naming its parameter, and leaves the state untouched.
    """
    if not np.isfinite(grads).all():
        name = next(name for name, g in state.named_arrays(grads) if not np.isfinite(g).all())
        raise NumericalError(f"non-finite gradient for {name!r}; step refused")
    g, head = grads.copy(), state.params.size - state.log_tau.size
    if opt.weight_decay:
        g[:head] += opt.weight_decay * state.params[:head]
    if opt.velocity is None:
        opt.velocity = g
    else:
        opt.velocity *= opt.momentum
        opt.velocity += g
    np.subtract(state.params, lr * opt.velocity, out=state.params)
    state.version += 1
    return state


def cosine_lr(epoch: int, opt: OptimizerState) -> float:
    """Cosine decay restarting every ``opt.restart_period`` epochs."""
    t = epoch % opt.restart_period
    return float(opt.base_lr * 0.5 * (1.0 + np.cos(np.pi * t / opt.restart_period)))


# -- checkpoint I/O ----------------------------------------------------------
#
# A checkpoint is a single .npz container. Every parameter array, the log
# temperatures included, is stored under its parameter name (shape and dtype
# live in the npy headers), the momentum buffers under "momentum:<name>", and
# a JSON "meta" entry carries the rest: layer count, model version, epoch
# counter, optimizer hyperparameters and the RNG state. Layout is documented
# in the README and versioned via meta["format"].

_CKPT_FORMAT = 2
# the meta's counts and their ranges: `save_checkpoint` refuses what
# `load_checkpoint` would
_META_BOUNDS = {"num_layers": ">= 1", "version": ">= 0", "epoch": ">= 0"}
# the optimizer settings in meta["optimizer"], in the order they are written;
# `OptimizerState` checks them on load
_OPT_KEYS = ("base_lr", "momentum", "weight_decay", "restart_period")


def save_checkpoint(
    path,
    state: ModelState,
    opt: OptimizerState,
    epoch: int,
    rng_state: dict | None = None,
) -> None:
    arrays = dict(state.named_arrays())
    if opt.velocity is not None:
        arrays.update((f"momentum:{name}", buf) for name, buf in state.named_arrays(opt.velocity))
    meta = {
        "format": _CKPT_FORMAT,
        "num_layers": len(state.layers),
        "version": state.version,
        "epoch": epoch,
        "optimizer": {key: getattr(opt, key) for key in _OPT_KEYS},
        "rng_state": rng_state,
    }
    for key, bound in _META_BOUNDS.items():
        check_number(key, meta[key], bound=bound)
    # numpy's integers, which the checks take, are written as JSON's
    arrays["meta"] = np.frombuffer(json.dumps(meta, default=int).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _refuse_shape(path, key, arr, expected):
    raise ValueError(f"checkpoint {path} entry {key!r} has shape {arr.shape}, expected {expected}")


def _check_layout(path, state: ModelState) -> None:
    """Refuse widths that do not chain from layer to layer and into the
    prototypes, and log temperatures that are not a pair."""
    width = None  # output width of the previous layer
    for i, (w, b) in enumerate(state.layers):
        if w.ndim != 2 or width not in (None, w.shape[1]):
            expected = f"out x {width or 'in'} to match the previous layer"
            _refuse_shape(path, f"layer{i}.weight", w, expected)
        width = w.shape[0]
        if b.shape != (width,):
            _refuse_shape(path, f"layer{i}.bias", b, f"({width},) to match its weight")
    protos = state.prototypes
    if protos.ndim != 2 or protos.shape[1] != width:
        _refuse_shape(path, "prototypes", protos, f"K x {width} to match the last layer's output")
    if state.log_tau.shape != (2,):
        _refuse_shape(path, "log_tau", state.log_tau, "(2,)")


def load_checkpoint(path) -> tuple[ModelState, OptimizerState, int, dict | None]:
    """Read a checkpoint written by `save_checkpoint`.

    This is where a model enters from outside, so it is validated here and
    not again on use. A file that is not a readable .npz archive, is of
    another format, lacks an array or a meta field (or a momentum buffer
    while it holds another: the momentum is one vector), holds a meta that
    is not a JSON object or a meta field of the wrong type or range, holds
    an array that is not finite float64, holds parameters of the wrong
    shape (layer widths that do not chain, log temperatures that are not a
    pair), holds optimizer settings `OptimizerState` refuses, or holds an
    array that is neither a parameter of the meta's layers nor the momentum
    buffer of one raises ``ValueError`` naming the file and the entry.
    """
    try:
        # opened here so that a file np.load rejects is closed all the same
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            arrays = {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as err:
        raise ValueError(f"checkpoint {path} is unreadable: {err}") from None
    for key, value in arrays.items():
        if key != "meta" and not (value.dtype == np.float64 and np.isfinite(value).all()):
            raise ValueError(f"checkpoint {path} entry {key!r} must hold finite floats (float64)")
    try:
        meta = json.loads(bytes(arrays["meta"]))
        if not isinstance(meta, dict):
            raise ValueError(f"checkpoint {path} entry 'meta' is not a JSON object: {meta!r}")
        if meta["format"] != _CKPT_FORMAT:
            raise ValueError(
                f"checkpoint {path} entry 'format' is {meta['format']!r}, expected {_CKPT_FORMAT}"
            )
        for key, bound in _META_BOUNDS.items():
            check_number(f"checkpoint {path} entry {key!r}", meta[key], bound=bound)
        opt_meta = meta["optimizer"]
        if not isinstance(opt_meta, dict):
            raise ValueError(f"checkpoint {path} entry 'optimizer' is malformed")
        state = ModelState(
            layers=[
                (arrays[f"layer{i}.weight"], arrays[f"layer{i}.bias"])
                for i in range(meta["num_layers"])
            ],
            prototypes=arrays["prototypes"],
            log_tau=arrays["log_tau"],
            version=meta["version"],
        )
        _check_layout(path, state)
        try:
            opt = OptimizerState(**{key: opt_meta[key] for key in _OPT_KEYS})
        except ValueError as err:
            raise ValueError(f"checkpoint {path} entry 'optimizer': {err}") from None
        params = dict(state.named_arrays())
        for key, value in arrays.items():
            if key.startswith("momentum:"):
                name = key.split(":", 1)[1]
                if name not in params:
                    raise ValueError(f"checkpoint {path} entry {key!r} names no parameter")
                if value.shape != params[name].shape:
                    _refuse_shape(path, key, value, f"{params[name].shape} like {name!r}")
            elif key not in params and key != "meta":
                raise ValueError(
                    f"checkpoint {path} entry {key!r} is no parameter of the"
                    f" {len(state.layers)}-layer model and no momentum buffer"
                )
        if any(key.startswith("momentum:") for key in arrays):
            opt.velocity = np.concatenate([arrays[f"momentum:{n}"].ravel() for n in params])
        return state, opt, meta["epoch"], meta["rng_state"]
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"checkpoint {path} entry 'meta' is not JSON: {err}") from None
    except KeyError as err:
        raise ValueError(f"checkpoint {path} has no entry {err.args[0]!r}") from None
