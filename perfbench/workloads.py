"""The four workloads: inputs made from a seed, fixed rounds of work, checks.

Every workload runs as a closed loop with one caller: the next operation
starts when the previous one has returned. A round is a fixed amount of work
(one ``fit`` call, one pass over the transport instances, one eval-and-
baselines pass); the runner repeats rounds until its time is up. Each
operation is timed and checked, and a failed check or an exception counts
the operation as failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

import otsc.baselines
import otsc.cli
import otsc.data
import otsc.metrics
import otsc.network
import otsc.trainer
import otsc.transport

# README training config; only batch_size, epochs and seed change per workload.
TRAIN_CONFIG = otsc.trainer.TrainConfig(
    num_clusters=2,
    embed_dim=2,
    batch_size=100,
    epochs=1,
    eta=0.05,
    sinkhorn_iters=5,
    lam=1.0,
    base_lr=5e-6,
    momentum=0.9,
    weight_decay=0.05,
    restart_period=600,
    noise_sigma=0.04,
    feature_dropout_prob=0.0,
    scale_jitter=0.02,
    tau_a_init=0.15,
    tau_c_init=0.12,
    orth_mode="procrustes",
)
MOONS_NOISE = 0.04
PLAN_ROW_TOL = 1e-12


class Recorder:
    """Latencies and outcomes of the operations of one run."""

    def __init__(self):
        self.op_s: list[float] = []
        self.kind_s: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, seconds: float, ok: bool, kind: str | None = None, error: str = ""):
        self.op_s.append(seconds)
        if kind is not None:
            self.kind_s[kind].append(seconds)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error or "check failed")


def _round_trip(workdir: Path, ds: otsc.data.Dataset) -> otsc.data.Dataset:
    """Save the dataset as CSV, load it back, and insist on an exact copy."""
    path = workdir / f"{ds.name}.csv"
    otsc.data.save_dataset(ds, path)
    back = otsc.data.load_dataset(path)
    if not (np.array_equal(back.features, ds.features) and np.array_equal(back.labels, ds.labels)):
        raise RuntimeError(f"CSV round trip of {path.name} changed the data")
    return back


class FitWorkload:
    """``trainer.fit`` on moons; the operation is one training step."""

    op_name = "step"

    def __init__(self, name: str, n: int, batch_size: int, epochs: int, reference: str):
        self.name, self.reference = name, reference
        self.n, self.batch_size, self.epochs = n, batch_size, epochs
        self.rec = Recorder()
        self._step_ok = True
        self._step_error = ""
        self._install_probes()

    def _install_probes(self):
        # Step timer and plan check, installed in the trainer's namespace for
        # the whole run; a traced round wraps them, so traced step times
        # include the tracing of everything inside the step.
        step, algorithm1 = otsc.trainer.train_step, otsc.trainer.sinkhorn_algorithm1

        def timed_step(*args, **kwargs):
            self._step_ok = True
            start = time.perf_counter()
            try:
                out = step(*args, **kwargs)
            except Exception as err:
                self.rec.op(time.perf_counter() - start, False, error=f"step raised {err!r}")
                raise
            self.rec.op(time.perf_counter() - start, self._step_ok, error=self._step_error)
            return out

        def checked_algorithm1(*args, **kwargs):
            out = algorithm1(*args, **kwargs)
            if not out.row_marginal_residual <= PLAN_ROW_TOL:
                self._step_ok = False
                self._step_error = f"plan row residual {out.row_marginal_residual!r}"
            return out

        otsc.trainer.train_step = timed_step
        otsc.trainer.sinkhorn_algorithm1 = checked_algorithm1

    def prepare(self, seed: int, workdir: Path) -> None:
        ds = otsc.data.gen_dataset("moons", self.n, MOONS_NOISE, seed)
        self.features = _round_trip(workdir, ds).features
        self.seed = seed
        otsc.trainer.fit(self.features, replace(self._config(0), epochs=1))  # warm-up

    def _config(self, index: int):
        return replace(
            TRAIN_CONFIG,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=self.seed * 1000 + index,
        )

    def run_round(self, index: int) -> None:
        cfg = self._config(index)
        attempted, failed = self.rec.attempted, self.rec.failed
        try:
            model, history = otsc.trainer.fit(self.features, cfg)
        except Exception:
            return  # the failing step is already counted by the probe
        finite = len(history) == cfg.epochs and all(
            math.isfinite(v) for rec in history.records for v in vars(rec).values()
        )
        if not (finite and all(np.isfinite(p).all() for _, p in model.named_arrays())):
            # every step of a round with a non-finite history or model fails
            self.rec.failed = failed + self.rec.attempted - attempted
            self.rec.errors.append(f"round {index}: non-finite history or model")

    def summary(self) -> dict:
        steps = np.array(self.rec.op_s) * 1000.0
        samples_per_s = self.batch_size * len(steps) / (steps.sum() / 1000.0)
        return {
            "train_samples_per_s": (samples_per_s, "samples/s"),
            "step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
            "step_ms_p90": (float(np.percentile(steps, 90)), "ms"),
        }


def _line_cost(rng, n: int, scale: float) -> np.ndarray:
    """Squared distances between two jittered, interleaved point rows on [0, 1].

    The matching is monotone and its difficulty for tiny eta depends on the
    spacing, not on the draw, so the sweep count moves little with the seed.
    """
    x = (np.arange(n) + 0.05 * rng.standard_normal(n)) / n
    y = (np.arange(n) + 0.5 + 0.05 * rng.standard_normal(n)) / n
    return scale * (x[:, None] - y[None, :]) ** 2


def _cloud_cost(rng, n: int) -> np.ndarray:
    """Squared distances between two uniform point clouds in the unit square."""
    x, y = rng.random((n, 2)), rng.random((n, 2))
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)


class OtSolveWorkload:
    """``transport.sinkhorn_marginal`` to a tolerance; the operation is one solve.

    Log-domain instances (8x8, eta=1e-3, about 400 sweeps) and kernel-domain
    instances (256x256 point clouds, eta=0.02, about 200 sweeps) are
    interleaved. Random 8x8 costs at eta=1e-3 often do not reach 1e-9 in
    10,000 sweeps, and their sweep counts spread over two decades; the
    jittered-line costs converge in a sweep count that moves a few percent
    with the seed. One log instance in three keeps the median inside the
    kernel-domain solves and the 90th percentile inside the log-domain ones.
    """

    op_name = "solve"
    reference = "mixed"
    TOL = 1e-9
    MAX_ITER = 10_000

    def __init__(self, name: str, log_count: int, log_n: int, kernel_count: int, kernel_n: int):
        self.name = name
        self.log_count, self.log_n = log_count, log_n
        self.kernel_count, self.kernel_n = kernel_count, kernel_n
        self.rec = Recorder()

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        logs = [("log", _line_cost(rng, self.log_n, 0.1), 1e-3) for _ in range(self.log_count)]
        kernels = [("kernel", _cloud_cost(rng, self.kernel_n), 0.02)
                   for _ in range(self.kernel_count)]
        per_log = max(1, len(kernels) // max(1, len(logs)))
        self.instances = []
        while logs or kernels:
            if logs:
                self.instances.append(logs.pop(0))
            for _ in range(per_log):
                if kernels:
                    self.instances.append(kernels.pop(0))
        for kind in ("log", "kernel"):  # warm-up: one solve of each kind
            _, cost, eta = next(inst for inst in self.instances if inst[0] == kind)
            self._solve(cost, eta)

    def _solve(self, cost, eta):
        m, n = cost.shape
        r, c = np.ones(m), np.full(n, m / n)
        plan, _ = otsc.transport.sinkhorn_marginal(
            cost, r, c, eta, tol=self.TOL, max_iter=self.MAX_ITER
        )
        return plan, r, c

    def run_round(self, index: int) -> None:
        for kind, cost, eta in self.instances:
            start = time.perf_counter()
            try:
                plan, r, c = self._solve(cost, eta)
            except Exception as err:
                self.rec.op(time.perf_counter() - start, False, kind, f"solve raised {err!r}")
                continue
            elapsed = time.perf_counter() - start
            p = plan.plan
            row = float(np.abs(p.sum(axis=1) - r).max())
            col = float(np.abs(p.sum(axis=0) - c).max())
            ok = bool(np.isfinite(p).all() and (p >= 0).all()) and max(row, col) <= self.TOL
            self.rec.op(elapsed, ok, kind, f"{kind} solve unconverged: residuals {row!r}, {col!r}")

    def summary(self) -> dict:
        solves = np.array(self.rec.op_s) * 1000.0
        out = {
            "solve_ms_p50": (float(np.percentile(solves, 50)), "ms"),
            "solve_ms_p90": (float(np.percentile(solves, 90)), "ms"),
        }
        for kind, values in self.rec.kind_s.items():
            out[f"{kind}_solve_ms_p50"] = (1000.0 * float(np.median(values)), "ms")
        return out


class EvalBaselinesWorkload:
    """``otsc eval`` of a checkpoint trained in set-up, then k-means and spectral.

    The operation is one round of all three calls on the same moons dataset.
    """

    op_name = "round"
    reference = "mixed"

    def __init__(self, name: str, n: int, ckpt_epochs: int):
        self.name = name
        self.n, self.ckpt_epochs = n, ckpt_epochs
        self.rec = Recorder()

    def prepare(self, seed: int, workdir: Path) -> None:
        ds = _round_trip(workdir, otsc.data.gen_dataset("moons", self.n, MOONS_NOISE, seed))
        self.ds, self.seed = ds, seed
        self.k = int(ds.labels.max()) + 1
        self.csv = str(workdir / f"{ds.name}.csv")
        cfg = replace(TRAIN_CONFIG, epochs=self.ckpt_epochs, seed=seed)
        model, _ = otsc.trainer.fit(ds.features, cfg)
        self.checkpoint = str(workdir / "checkpoint.npz")
        otsc.network.save_checkpoint(
            self.checkpoint, model, otsc.network.OptimizerState(base_lr=cfg.lr), cfg.epochs
        )
        model, _, _, _ = otsc.network.load_checkpoint(self.checkpoint)
        labels, _ = otsc.trainer.predict(model, ds.features)
        report = otsc.metrics.evaluate(ds.labels, labels)
        self.expected = {
            "n": str(ds.n),
            "nmi": repr(report.nmi),
            "acc": repr(report.acc),
            "ari": repr(report.ari),
        }
        # warm-up: every call once, spectral on a subset
        self._eval()
        otsc.baselines.kmeans_lloyd(ds.features, self.k, restarts=10, seed=seed)
        otsc.baselines.classical_spectral(
            ds.features[: max(50, self.n // 5)], otsc.baselines.SpectralConfig(num_clusters=self.k)
        )

    def _eval(self) -> str:
        status, text = _cli(["eval", "--checkpoint", self.checkpoint, "--dataset", self.csv])
        if status != 0:
            return f"otsc eval exited {status}"
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        wrong = [k for k, v in self.expected.items() if fields.get(k) != v]
        return f"eval report differs from direct evaluate in {wrong}" if wrong else ""

    def _labels_error(self, labels, method) -> str:
        labels = np.asarray(labels)
        if labels.shape != (self.n,) or labels.min() < 0 or labels.max() > self.k - 1:
            return f"{method} labels outside 0..{self.k - 1} or wrong shape"
        return ""

    def run_round(self, index: int) -> None:
        errors = []
        kinds = {}
        start = time.perf_counter()
        try:
            errors.append(self._eval())
            t1 = time.perf_counter()
            labels, _, _ = otsc.baselines.kmeans_lloyd(
                self.ds.features, self.k, restarts=10, seed=self.seed + index
            )
            errors.append(self._labels_error(labels, "kmeans"))
            t2 = time.perf_counter()
            labels, _ = otsc.baselines.classical_spectral(
                self.ds.features, otsc.baselines.SpectralConfig(num_clusters=self.k),
                seed=self.seed + index,
            )
            errors.append(self._labels_error(labels, "spectral"))
            t3 = time.perf_counter()
            kinds = {"eval": t1 - start, "kmeans": t2 - t1, "spectral": t3 - t2}
        except Exception as err:
            errors.append(f"round raised {err!r}")
        elapsed = time.perf_counter() - start
        for kind, seconds in kinds.items():
            self.rec.kind_s[kind].append(seconds)
        error = "; ".join(e for e in errors if e)
        self.rec.op(elapsed, not error, None, error)

    def summary(self) -> dict:
        return {
            f"{kind}_ms_p50": (1000.0 * float(np.median(values)), "ms")
            for kind, values in self.rec.kind_s.items()
        }


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = otsc.cli.main(argv)
    return status, buf.getvalue()


# name -> (class, arguments at benchmark size, arguments at smoke-test size)
_SIZES = {
    "fit-small": (FitWorkload, (1000, 100, 20, "mixed"), (200, 100, 1, "mixed")),
    # a B=1024 step is memory-bound B x B work, timed against the large loop
    "fit-large": (FitWorkload, (2048, 1024, 5, "large"), (512, 256, 1, "large")),
    "ot-solve": (OtSolveWorkload, (8, 8, 16, 256), (1, 8, 2, 32)),
    "eval-baselines": (EvalBaselinesWorkload, (2000, 2), (200, 1)),
}


def make(name: str, tiny: bool = False):
    """The workload called ``name``, at benchmark size or at smoke-test size."""
    cls, full, small = _SIZES[name]
    return cls(name, *(small if tiny else full))
