"""otsc quality table: how well the README config clusters, beside k-means
and the spectral baseline.

    python3 quality/run.py --label NAME --out QUALITY.json [--tiny] [--sweep AXIS]

The driver imports the ``otsc`` sources in ``src/`` next to this directory.
For each dataset kind (moons, rings and blobs) it generates one set of
n = 2000 with generator seed 7 and splits it once, by
``np.random.default_rng(7).permutation(n)``: the first half is the training
half, the second half is held out. It trains the README config with seeds
1-10 on the training half and labels each half under two rules:

- ``predict``, as the package ships it: the prototype argmax of the
  row-normalized raw embeddings;
- ``polar``: the prototype argmax of the row-normalized polar factor of
  that half's raw embeddings, the map the training step applies per batch.

Each run records, per half, ACC, NMI, ARI and the number of clusters used
under both rules and the median raw row norm ‖z_raw‖, and the temperatures
after the last epoch. Each kind adds one k-means and one spectral-baseline
run on each half.

The run is stored as ``runs[NAME]`` in the JSON file ``--out``; other runs
already in the file are kept, so one file can compare several commits. A
table of the run is printed. ``--tiny`` trains a few epochs on small sets,
as a smoke test; its scores mean nothing.

``--sweep AXIS`` runs the whole protocol once per point of one axis of
`SWEEPS`, each point's settings overriding the README config, and stores
each point as its own run, ``runs[NAME/POINT]``, whose ``config`` holds the
overridden settings. Every point's config is built, and so checked, before
the first fit: a refused setting ends the sweep with exit status 1 before
any training.

After each point but the first, a sweep reports that point against the
axis's first point: the mean difference in held-out ``predict`` ACC over
the seeds both share, and a 95% paired bootstrap interval of it
(`paired_interval`). It prints the report and stores it as the point's
``paired``. The rule, fixed before any run: a value other than the first
point's keeps its setting only if its interval lies wholly above 0 on at
least one kind (the point's ``kept``).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SEEDS = tuple(range(1, 11))
GENERATOR_SEED = 7
# `paired_interval`'s bootstrap: resamples and the seed of their draws
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0
# the README's config file; blobs changes num_clusters and embed_dim to 4
README_CONFIG = dict(
    num_clusters=2, embed_dim=2, batch_size=100, epochs=600, eta=0.05, sinkhorn_iters=5,
    lam=1.0, base_lr=5e-6, momentum=0.9, weight_decay=0.05, restart_period=600,
    noise_sigma=0.04, feature_dropout_prob=0.0, scale_jitter=0.02, tau_a_init=0.15,
    tau_c_init=0.12, orth_mode="procrustes",
)
# kind -> (gen_dataset keywords, config changes)
DATASETS = {
    "moons": (dict(n=2000, noise=0.04), {}),
    "rings": (dict(n=2000, noise=0.04), {}),
    "blobs": (dict(n=2000, noise=1.0, k=4), dict(num_clusters=4, embed_dim=4)),
}
SPLIT_SEED = 7
HALVES = ("train", "held_out")
TINY = dict(n=200, epochs=2)
# --sweep axes: each point's name and its changes to the README config
SWEEPS = {
    "eta": [("eta-%.2f" % v, {"eta": v}) for v in (round(0.01 * i, 2) for i in range(1, 11))],
    "sinkhorn-iters": [(f"isk-{v}", {"sinkhorn_iters": v}) for v in (1, 3, 5, 10)],
    "lambda": [("lambda-%.1f" % v, {"lam": v}) for v in (0.5, 1.0, 1.5, 2.0)],
    "orth": [(f"orth-{m}", {"orth_mode": m}) for m in ("procrustes", "none", "penalty")],
    # each orth_mode at its own learning rate
    "orth-lr": [(f"{m}-lr-{lr:g}", {"orth_mode": m, "base_lr": lr})
                for m in ("procrustes", "none", "penalty")
                for lr in (1.25e-6, 2.5e-6, 5e-6, 1e-5, 2e-5)],
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", required=True, help="JSON file to add the run to")
    parser.add_argument("--tiny", action="store_true", help="a few epochs on small sets")
    parser.add_argument("--sweep", choices=tuple(SWEEPS),
                        help="one run per point of this axis, stored as NAME/POINT")
    return parser.parse_args(argv)


def _scores(y_true, labels) -> dict:
    import numpy as np
    from otsc.metrics import evaluate

    report = evaluate(y_true, labels)
    return {"acc": report.acc, "nmi": report.nmi, "ari": report.ari,
            "clusters": int(np.unique(labels).size)}


def _split(ds) -> dict:
    """``{half: (features, labels)}``: the first half of the fixed permutation
    trains, the second half is held out."""
    import numpy as np

    order = np.random.default_rng(SPLIT_SEED).permutation(ds.n)
    parts = (order[: ds.n // 2], order[ds.n // 2 :])
    return {half: (ds.features[idx], ds.labels[idx]) for half, idx in zip(HALVES, parts)}


def _otsc_run(halves, cfg) -> dict:
    import numpy as np
    from otsc import network as net
    from otsc.spectral import orthogonalize, row_normalize
    from otsc.trainer import fit, predict

    model, _ = fit(halves["train"][0], cfg)
    tau_a, tau_c = net.effective_tau(model.log_tau).tolist()
    run = {"seed": cfg.seed, "tau_a": tau_a, "tau_c": tau_c}
    for half, (x, y) in halves.items():
        labels, _ = predict(model, x)
        z_raw, _ = net.forward(model, x)
        polar = row_normalize(orthogonalize(z_raw).z_new)
        polar_labels = np.argmax(polar @ row_normalize(model.prototypes).T, axis=1)
        run[half] = {
            "predict": _scores(y, labels),
            "polar": _scores(y, polar_labels),
            "median_z_raw_norm": float(np.median(np.linalg.norm(z_raw, axis=1))),
        }
    return run


def _configs(tiny: bool, overrides: dict) -> dict:
    """``{kind: (config settings, one TrainConfig per seed)}`` of one run."""
    from otsc.trainer import TrainConfig

    configs = {}
    for kind, (_, changes) in DATASETS.items():
        base = {**README_CONFIG, **changes, **({"epochs": TINY["epochs"]} if tiny else {}),
                **overrides}
        configs[kind] = base, [TrainConfig(seed=seed, **base) for seed in SEEDS]
    return configs


def _kind(kind: str, tiny: bool, base: dict, cfgs) -> dict:
    from otsc.baselines import SpectralConfig, classical_spectral, kmeans_lloyd
    from otsc.data import gen_dataset

    gen, _ = DATASETS[kind]
    gen = {**gen, "n": TINY["n"]} if tiny else gen
    halves = _split(gen_dataset(kind, seed=GENERATOR_SEED, **gen))
    runs = [_otsc_run(halves, cfg) for cfg in cfgs]
    k = base["num_clusters"]
    result = {
        "dataset": {"kind": kind, "seed": GENERATOR_SEED, **gen, "split_seed": SPLIT_SEED},
        "config": base,
        "otsc": runs,
    }
    for half, (x, y) in halves.items():
        kmeans, _, _ = kmeans_lloyd(x, k, restarts=10, seed=0)
        spectral, _ = classical_spectral(x, SpectralConfig(num_clusters=k), seed=0)
        result[half] = {
            "n": len(y),
            "mean_predict_acc": statistics.fmean(r[half]["predict"]["acc"] for r in runs),
            "mean_polar_acc": statistics.fmean(r[half]["polar"]["acc"] for r in runs),
            "kmeans": _scores(y, kmeans),
            "spectral": _scores(y, spectral),
        }
    return result


def paired_interval(diffs, seed=BOOTSTRAP_SEED):
    """``(mean, low, high)``: the mean of paired differences and the 2.5 and
    97.5 percentiles of its bootstrap, `BOOTSTRAP_RESAMPLES` means of the
    differences drawn with replacement by ``np.random.default_rng(seed)``."""
    import numpy as np

    diffs = np.asarray(diffs, dtype=np.float64)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, diffs.size, size=(BOOTSTRAP_RESAMPLES, diffs.size))
    means = diffs[draws].mean(axis=1)
    low, high = np.percentile(means, [2.5, 97.5])
    return float(diffs.mean()), float(low), float(high)


def _paired(results: dict, reference: dict) -> dict:
    """Per kind, held-out `predict` ACC of ``results`` minus that of
    ``reference`` over the seeds both hold, as `paired_interval`."""
    report = {}
    for kind, res in results.items():
        acc = [{r["seed"]: r["held_out"]["predict"]["acc"] for r in run["otsc"]}
               for run in (res, reference[kind])]
        seeds = [seed for seed in acc[0] if seed in acc[1]]
        mean, low, high = paired_interval([acc[0][seed] - acc[1][seed] for seed in seeds])
        report[kind] = {"seeds": seeds, "mean": mean, "low": low, "high": high}
    return report


def _paired_lines(run: dict) -> str:
    lines = [f"held-out predict ACC against {run['against']}, mean [95% paired bootstrap interval]:"]
    for kind, r in run["paired"].items():
        lines.append(f"  {kind:5} {r['mean']:+.3f} [{r['low']:+.3f}, {r['high']:+.3f}]"
                     f" over {len(r['seeds'])} seeds")
    lines.append("  kept: an interval lies wholly above 0" if run["kept"]
                 else "  rejected: no interval lies wholly above 0")
    return "\n".join(lines)


def _table(results: dict) -> str:
    def cell(s):
        return f"{s['acc']:.3f} / {s['nmi']:.3f} / {s['ari']:.3f} ({s['clusters']})"

    lines = ["kind  | half     | method      | ACC / NMI / ARI (clusters used) | tau_a, tau_c "
             "| med |z_raw|"]
    for kind, res in results.items():
        for half in HALVES:
            for r in res["otsc"]:
                s = r[half]
                lines.append(f"{kind:5} | {half:8} | seed {r['seed']} pred | {cell(s['predict'])} "
                             f"| {r['tau_a']:.3f}, {r['tau_c']:.3f} | {s['median_z_raw_norm']:.3g}")
                lines.append(f"{kind:5} | {half:8} | seed {r['seed']} polar| {cell(s['polar'])} |")
            lines.append(f"{kind:5} | {half:8} | k-means     | {cell(res[half]['kmeans'])} |")
            lines.append(f"{kind:5} | {half:8} | spectral    | {cell(res[half]['spectral'])} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import otsc  # noqa: F401
    except ImportError as err:
        print(f"error: cannot import the otsc sources under {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    points = SWEEPS[args.sweep] if args.sweep else [(None, {})]
    try:
        plans = [(name, _configs(args.tiny, overrides)) for name, overrides in points]
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = Path(args.out)
    first = None  # (name, results) of the sweep's first point
    for name, configs in plans:
        label = args.label if name is None else f"{args.label}/{name}"
        start = time.perf_counter()
        results = {kind: _kind(kind, args.tiny, *configs[kind]) for kind in DATASETS}
        run = {
            "tiny": args.tiny,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "wall_s": time.perf_counter() - start,
            "results": results,
        }
        if first is not None:
            run["against"] = first[0]
            run["paired"] = _paired(results, first[1])
            run["kept"] = any(r["low"] > 0.0 for r in run["paired"].values())
        elif name is not None:
            first = name, results
        table = json.loads(out.read_text()) if out.exists() else {"runs": {}}
        table["runs"][label] = run
        out.write_text(json.dumps(table, indent=1) + "\n")
        if name is not None:
            print(f"== {label}")
        print(_table(results))
        if "paired" in run:
            print(_paired_lines(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
