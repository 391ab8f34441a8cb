"""Spans and counts recorded at the otsc layer boundaries.

The benchmark never edits the package: it replaces a public function in the
namespace of the module that calls it (``otsc.trainer.sinkhorn_algorithm1``
is the name ``_compute_step`` looks up at call time) with a wrapper that
records one span per call. A span is the tuple

    (span_id, name, start_s, end_s, parent_id, run)

with ``parent_id = -1`` for a root span and ``run`` the measurement round
(``-1`` during set-up). Spans stay in memory until the run ends. A layer's
self time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module that makes the call, attribute looked up there, span name)
LAYER_CALLS = (
    ("otsc.trainer", "train_step", "trainer.train_step"),
    ("otsc.trainer", "augment", "trainer.augment"),
    ("otsc.network", "forward", "network.forward"),
    ("otsc.network", "backward", "network.backward"),
    ("otsc.network", "sgd_step", "network.sgd_step"),
    ("otsc.trainer", "orthogonalize", "spectral.orthogonalize"),
    ("otsc.spectral", "thin_svd", "linalg.thin_svd"),
    ("otsc.trainer", "row_normalize", "spectral.row_normalize"),
    ("otsc.trainer", "sinkhorn_algorithm1", "transport.sinkhorn_algorithm1"),
    ("otsc.trainer", "softmax_cross_entropy", "spectral.softmax_cross_entropy"),
    ("otsc.trainer", "off_diagonal", "spectral.off_diagonal"),
    ("otsc.trainer", "affinity_grad_to_embeddings", "spectral.affinity_grad_to_embeddings"),
    ("otsc.transport", "sinkhorn_marginal", "transport.sinkhorn_marginal"),
    ("otsc.baselines", "classical_spectral", "baselines.classical_spectral"),
    ("otsc.baselines", "kmeans_lloyd", "baselines.kmeans_lloyd"),
    ("otsc.baselines", "sym_eig", "linalg.sym_eig"),
    ("otsc.cli", "main", "cli.main"),
    ("otsc.cli", "load_dataset", "data.load_dataset"),
    ("otsc.cli", "load_checkpoint", "network.load_checkpoint"),
    ("otsc.cli", "predict", "trainer.predict"),
    ("otsc.cli", "evaluate", "metrics.evaluate"),
    ("otsc.data", "gen_dataset", "data.gen_dataset"),
    ("otsc.data", "save_dataset", "data.save_dataset"),
    ("otsc.data", "load_dataset", "data.load_dataset"),
)

# Per-layer metric -> unit. Times and counts are per operation of the
# workload (a training step, a transport solve, an eval round), except the
# data generator and writer, which run only in set-up and are per call. A
# layer the workload never calls reads 0.
PER_LAYER = {
    "transport.sinkhorn_algorithm1.ms": "ms",
    "transport.sinkhorn_algorithm1.calls": "count/op",
    "transport.sinkhorn_algorithm1.mb_computed": "MB_computed",
    "transport.sinkhorn_algorithm1.row_residual_max": "mass",
    "transport.sinkhorn_algorithm1.col_residual_max": "mass",
    "spectral.softmax_cross_entropy.ms": "ms",
    "spectral.off_diagonal.ms": "ms",
    "spectral.affinity_grad_to_embeddings.ms": "ms",
    "spectral.orthogonalize.ms": "ms",
    "spectral.orthogonalize.ill_conditioned": "count/op",
    "spectral.row_normalize.ms": "ms",
    "linalg.thin_svd.ms": "ms",
    "trainer.train_step.self_ms": "ms",
    "trainer.augment.ms": "ms",
    "network.forward.ms": "ms",
    "network.backward.ms": "ms",
    "network.sgd_step.ms": "ms",
    "network.forward.gflop": "GFLOP_computed",
    "transport.sinkhorn_marginal.ms": "ms",
    "transport.sinkhorn_marginal.sweeps": "count/op",
    "transport.sinkhorn_marginal.converged_ratio": "ratio",
    "linalg.sym_eig.ms": "ms",
    "baselines.classical_spectral.self_ms": "ms",
    "baselines.kmeans_lloyd.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "data.load_dataset.ms": "ms",
    "network.load_checkpoint.ms": "ms",
    "trainer.predict.ms": "ms",
    "metrics.evaluate.ms": "ms",
    "data.gen_dataset.ms": "ms",
    "data.save_dataset.ms": "ms",
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.self_sum_ms": "ms",
    "trace.overhead_s": "s",
}

_SETUP_ONLY = ("data.gen_dataset", "data.save_dataset")


def sinkhorn_mb_computed(shape, iterations: int) -> float:
    """Megabytes of plan-sized arrays read or written by one fixed-count call.

    Derived from the shape alone: one float64 plan is ``8*m*n`` bytes. Before
    the loop the solver checks finiteness (1 read), divides by eta (1 read,
    1 write), takes the max (1 read) and exponentiates the shifted logits
    (1 read, 2 writes). Each iteration takes column sums (1 read), divides
    (1 read, 1 write), takes row sums (1 read) and divides (1 read, 1 write).
    The two residual sums read the plan twice more.
    """
    m, n = shape
    passes = 6 + 6 * iterations + 2
    return 8.0 * m * n * passes / 1e6


def forward_gflop(layer_shapes, rows: int) -> float:
    """Multiply-add work of one encoder forward: 2*rows*in*out per layer."""
    return sum(2.0 * rows * w_out * w_in for w_out, w_in in layer_shapes) / 1e9


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.run)
            if counter is not None and self.run >= 0:
                counter(self.counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer values from the spans of the measured rounds."""
        incl: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        setup_incl: dict[str, float] = defaultdict(float)
        setup_calls: dict[str, int] = defaultdict(int)
        for _, name, start, end, parent, run in self.spans:
            dur = end - start
            if run < 0:
                setup_incl[name] += dur
                setup_calls[name] += 1
                continue
            incl[name] += dur
            self_t[name] += dur
            if parent >= 0:
                self_t[self.spans[parent][1]] -= dur
        ops = max(ops, 1)
        per_op = 1000.0 / ops
        out = {}
        for metric in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if layer in _SETUP_ONLY:
                calls = setup_calls[layer]
                out[metric] = 1000.0 * setup_incl[layer] / calls if calls else 0.0
            elif kind == "ms":
                out[metric] = incl[layer] * per_op
            elif kind == "self_ms":
                out[metric] = self_t[layer] * per_op
        c = self.counts
        solves = c["marginal.solves"]
        out.update(
            {
                "transport.sinkhorn_algorithm1.calls": c["algorithm1.calls"] / ops,
                "transport.sinkhorn_algorithm1.mb_computed": c["algorithm1.mb"] / ops,
                "transport.sinkhorn_algorithm1.row_residual_max": c["algorithm1.row_max"],
                "transport.sinkhorn_algorithm1.col_residual_max": c["algorithm1.col_max"],
                "spectral.orthogonalize.ill_conditioned": c["orth.ill"] / ops,
                "network.forward.gflop": c["forward.gflop"] / ops,
                "transport.sinkhorn_marginal.sweeps": c["marginal.sweeps"] / ops,
                "transport.sinkhorn_marginal.converged_ratio": (
                    c["marginal.converged"] / solves if solves else 0.0
                ),
                "trace.self_sum_ms": sum(self_t.values()) * per_op,
            }
        )
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        keys = ("id", "name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _count_algorithm1(counts, args, kwargs, out):
    counts["algorithm1.calls"] += 1
    counts["algorithm1.mb"] += sinkhorn_mb_computed(args[0].shape, args[2])
    counts["algorithm1.row_max"] = max(counts["algorithm1.row_max"], out.row_marginal_residual)
    counts["algorithm1.col_max"] = max(counts["algorithm1.col_max"], out.col_marginal_residual)


def _count_orthogonalize(counts, args, kwargs, out):
    counts["orth.ill"] += out.warning is not None


def _count_forward(counts, args, kwargs, out):
    state, x = args[0], args[1]
    shapes = [w.shape for w, _ in state.layers]
    counts["forward.gflop"] += forward_gflop(shapes, len(x))


def _count_marginal(counts, args, kwargs, out):
    # the benchmark always passes tol by keyword
    plan, _ = out
    tol = kwargs["tol"]
    counts["marginal.solves"] += 1
    counts["marginal.sweeps"] += plan.iterations_used
    counts["marginal.converged"] += (
        max(plan.row_marginal_residual, plan.col_marginal_residual) <= tol
    )


_COUNTERS = {
    "transport.sinkhorn_algorithm1": _count_algorithm1,
    "spectral.orthogonalize": _count_orthogonalize,
    "network.forward": _count_forward,
    "transport.sinkhorn_marginal": _count_marginal,
}
