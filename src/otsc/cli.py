"""Command-line surface: dataset generation, training, evaluation, baselines
and transport debugging.

Config files are flat ``key = value`` text; unknown keys are errors. All
numeric artifacts are plain text (CSV / line-delimited key=value records)
except the checkpoint. Exit status: 0 success, 1 usage error, 2 numerical
abort.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .baselines import SpectralConfig, classical_spectral, kmeans_lloyd
from .data import Dataset, gen_dataset, load_dataset, read_csv, read_text, save_dataset
from .errors import NumericalError
from .metrics import ClusteringReport, evaluate
from .network import load_checkpoint, save_checkpoint
from .trainer import TRAINER_ORTH_MODES, EpochRecord, TrainConfig, TrainHistory, fit, predict
from .transport import sinkhorn_algorithm1

__all__ = ["main"]

class _Parser(argparse.ArgumentParser):
    # argparse calls error() outside any `except ValueError`, so this
    # reaches main as a usage error instead of a SystemExit
    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage()}")


# config keys accepted in key=value files, one per TrainConfig field (whose
# annotations are strings here); the key for TrainConfig.lam is "lambda"
_CASTERS = {"int": int, "float": float, "float | None": float, "str": str}
_CONFIG_KEYS = {
    "lambda" if f.name == "lam" else f.name: (f.name, _CASTERS[f.type])
    for f in fields(TrainConfig)
}


def parse_config(path) -> dict:
    """Parse a flat key = value config file into TrainConfig kwargs.

    A non-UTF-8 file, a malformed line, an unknown key or a badly typed value
    raises ``ValueError`` as ``<path>[:<line>]: ...``, naming a value's key.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    kwargs = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        field_name, caster = _CONFIG_KEYS[key]
        try:
            kwargs[field_name] = caster(value)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {key}: {err}") from None
    return kwargs


def load_train_config(path, overrides: dict | None = None) -> TrainConfig:
    kwargs = parse_config(path)
    if overrides:
        kwargs.update(overrides)
    if "num_clusters" not in kwargs:
        raise ValueError("config must set num_clusters")
    try:
        return TrainConfig(**kwargs)
    except ValueError as err:
        # a refusal names the field; the file and the flag call lam "lambda"
        if str(err).startswith("lam "):
            raise ValueError(f"lambda{str(err)[3:]}") from None
        raise


# -- artifact serialization ---------------------------------------------------

_REPORT_KEYS = ("dataset", "n", "nmi", "acc", "ari", "matching", "contingency")


def format_report(report: ClusteringReport, dataset_name: str, n: int) -> str:
    matching = ",".join(f"{p}:{t}" for p, t in sorted(report.matching.items()))
    contingency = ";".join(
        ",".join(str(v) for v in row) for row in report.contingency.tolist()
    )
    values = {
        "dataset": dataset_name,
        "n": n,
        "nmi": repr(report.nmi),
        "acc": repr(report.acc),
        "ari": repr(report.ari),
        "matching": matching,
        "contingency": contingency,
    }
    return "".join(f"{k}={values[k]}\n" for k in _REPORT_KEYS)


_HISTORY_KEYS = tuple(f.name for f in fields(EpochRecord))


def format_history(history: TrainHistory) -> str:
    return "".join(
        " ".join(f"{name}={getattr(rec, name)!r}" for name in _HISTORY_KEYS) + "\n"
        for rec in history.records
    )


def _fingerprint(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, cfg: TrainConfig, dataset_path, started, outputs):
    manifest = {
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "dataset": str(dataset_path),
        "dataset_fingerprint": _fingerprint(dataset_path),
        "code_version": __version__,
        "started_at": started,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {k: str(v) for k, v in outputs.items()},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _emit_report(text: str, out_dir) -> None:
    """Print a report, and write it to ``<out_dir>/report.txt`` if ``out_dir`` is set.

    The file is UTF-8; the printed copy escapes what the stdout encoding
    cannot hold (``dataset=na\\xefve`` under an ASCII locale).
    """
    if out_dir:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(text, encoding="utf-8")
    encoding = sys.stdout.encoding  # None on an io.StringIO, which holds any text
    print(text.encode(encoding, "backslashreplace").decode(encoding) if encoding else text, end="")


def _evaluate_model(model, ds: Dataset) -> str:
    if ds.labels is None:
        raise ValueError("dataset has no labels to evaluate against")
    labels, _ = predict(model, ds.features)
    return format_report(evaluate(ds.labels, labels), ds.name, ds.n)


# -- subcommands --------------------------------------------------------------


def _cmd_gen_dataset(args) -> None:
    ds = gen_dataset(args.kind, args.n, args.noise, args.seed, args.k, args.separation, args.dim)
    save_dataset(ds, args.out)
    print(f"wrote {args.out} ({ds.n} rows, dim {ds.dim})")


def _given(args, names) -> dict:
    """The options among ``names`` set on the command line, by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_train(args) -> None:
    overrides = _given(args, ("seed", "eta", "lam", "sinkhorn_iters", "orth_mode"))
    cfg = load_train_config(args.config, overrides)
    ds = load_dataset(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    model, history = fit(ds.features, cfg)
    outputs = {"checkpoint": out_dir / "checkpoint.npz", "history": out_dir / "history.txt"}
    save_checkpoint(outputs["checkpoint"], model, cfg.optimizer(), cfg.epochs, None)
    outputs["history"].write_text(format_history(history), encoding="utf-8")
    if ds.labels is not None:
        _emit_report(_evaluate_model(model, ds), out_dir)
        outputs["report"] = out_dir / "report.txt"
    _write_manifest(out_dir, cfg, args.dataset, started, outputs)


def _cmd_eval(args) -> None:
    model, _, _, _ = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    _emit_report(_evaluate_model(model, ds), args.out)


def _refuse_given(args, names, reader: str) -> None:
    """Refuse an option among ``names`` set on the command line; only ``reader`` reads it."""
    for name in _given(args, names):
        raise ValueError(f"--{name.replace('_', '-')} applies to {reader} only")


def _cmd_baseline(args) -> None:
    if args.method == "kmeans":
        _refuse_given(args, ("k_neighbor",), "--method spectral")
    else:
        _refuse_given(args, ("restarts",), "--method kmeans")
    ds = load_dataset(args.dataset)
    if ds.labels is None:
        raise ValueError("baseline evaluation needs a labeled dataset")
    k = args.k if args.k is not None else int(ds.labels.max()) + 1
    if k < 2:
        source = "--k" if args.k is not None else "the dataset's labels"
        raise ValueError(f"baseline needs k >= 2 clusters, got k={k} from {source}")
    if args.method == "kmeans":
        labels, _, _ = kmeans_lloyd(ds.features, k, seed=args.seed, **_given(args, ("restarts",)))
    else:
        cfg = SpectralConfig(num_clusters=k, **_given(args, ("k_neighbor",)))
        labels, _ = classical_spectral(ds.features, cfg, seed=args.seed)
    _emit_report(format_report(evaluate(ds.labels, labels), ds.name, ds.n), args.out)


def _cmd_ot_debug(args) -> None:
    # sinkhorn_algorithm1 trusts its arguments, so they are checked here
    if args.eta <= 0:
        raise ValueError(f"eta must be positive, got {args.eta}")
    if not args.eta < float("inf"):  # also catches NaN
        raise ValueError(f"eta must be finite, got {args.eta}")
    if args.iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {args.iterations}")
    _, cost = read_csv(args.cost, header=False)
    # the fixed-iteration solver takes similarities; a cost is its negation
    target = sinkhorn_algorithm1(-cost, args.eta, args.iterations)
    for row in target.plan:
        print(",".join(f"{v:.12g}" for v in row))
    print(f"row_residual={target.row_marginal_residual!r}", file=sys.stderr)
    print(f"col_residual={target.col_marginal_residual!r}", file=sys.stderr)
    print(f"iterations_used={target.iterations_used}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", required=True, choices=("moons", "rings", "blobs"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, help="blob count (blobs only; default 4)")
    p.add_argument("--separation", type=float, help="blobs only; default 10")
    p.add_argument("--dim", type=int, help="feature dim (blobs only; default 2)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("train", help="train on a dataset CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--sinkhorn-iters", type=int, default=None)
    p.add_argument("--orth-mode", choices=TRAINER_ORTH_MODES, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baseline", help="run a classical baseline")
    p.add_argument("--method", required=True, choices=("kmeans", "spectral"))
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--restarts", type=int, help="kmeans only; default 10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-neighbor", type=int, help="spectral only; default 7")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("ot-debug", help="solve a transport instance from a cost CSV")
    p.add_argument("--cost", required=True)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--iterations", type=int, default=5)
    p.set_defaults(func=_cmd_ot_debug)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except NumericalError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
