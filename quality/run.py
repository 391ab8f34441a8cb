"""otsc quality table: how well the README config clusters, beside k-means
and the spectral baseline.

    python3 quality/run.py --label NAME --out QUALITY.json [--tiny]

The driver imports the ``otsc`` sources in ``src/`` next to this directory.
For each dataset kind (moons, rings and blobs, generator seed 7) it trains
the README config with seeds 1-3 and labels the whole training set under
two rules:

- ``predict``, as the package ships it: the prototype argmax of the
  row-normalized raw embeddings;
- ``polar``: the prototype argmax of the row-normalized polar factor of the
  set's raw embeddings, the map the training step applies per batch.

Each run records ACC, NMI, ARI and the number of clusters used under both
rules, the temperatures after the last epoch and the median raw row norm
‖z_raw‖. Each kind adds one k-means and one spectral-baseline run. Nothing
is held out yet: the scores are on the training set.

The run is stored as ``runs[NAME]`` in the JSON file ``--out``; other runs
already in the file are kept, so one file can compare several commits. A
table of the run is printed. ``--tiny`` trains a few epochs on small sets,
as a smoke test; its scores mean nothing.
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

SEEDS = (1, 2, 3)
GENERATOR_SEED = 7
# the README's config file; blobs changes num_clusters and embed_dim to 4
README_CONFIG = dict(
    num_clusters=2, embed_dim=2, batch_size=100, epochs=600, eta=0.05, sinkhorn_iters=5,
    lam=1.0, base_lr=5e-6, momentum=0.9, weight_decay=0.05, restart_period=600,
    noise_sigma=0.04, feature_dropout_prob=0.0, scale_jitter=0.02, tau_a_init=0.15,
    tau_c_init=0.12, orth_mode="procrustes", keep_diagonal=False,
)
# kind -> (gen_dataset keywords, config changes)
DATASETS = {
    "moons": (dict(n=1000, noise=0.04), {}),
    "rings": (dict(n=1000, noise=0.04), {}),
    "blobs": (dict(n=1000, noise=1.0, k=4), dict(num_clusters=4, embed_dim=4)),
}
TINY = dict(n=200, epochs=2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", required=True, help="JSON file to add the run to")
    parser.add_argument("--tiny", action="store_true", help="a few epochs on small sets")
    return parser.parse_args(argv)


def _scores(y_true, labels) -> dict:
    import numpy as np
    from otsc.metrics import evaluate

    report = evaluate(y_true, labels)
    return {"acc": report.acc, "nmi": report.nmi, "ari": report.ari,
            "clusters": int(np.unique(labels).size)}


def _otsc_run(ds, cfg) -> dict:
    import numpy as np
    from otsc import network as net
    from otsc.spectral import orthogonalize, row_normalize
    from otsc.trainer import fit, predict

    model, _ = fit(ds.features, cfg)
    labels, _ = predict(model, ds.features)
    z_raw, _ = net.forward(model, ds.features)
    polar = row_normalize(orthogonalize(z_raw, "procrustes").z_new)
    polar_labels = np.argmax(polar @ row_normalize(model.prototypes).T, axis=1)
    tau_a, tau_c = net.effective_tau(model.log_tau).tolist()
    return {
        "seed": cfg.seed,
        "predict": _scores(ds.labels, labels),
        "polar": _scores(ds.labels, polar_labels),
        "tau_a": tau_a,
        "tau_c": tau_c,
        "median_z_raw_norm": float(np.median(np.linalg.norm(z_raw, axis=1))),
    }


def _kind(kind: str, tiny: bool) -> dict:
    from otsc.baselines import SpectralConfig, classical_spectral, kmeans_lloyd
    from otsc.data import gen_dataset
    from otsc.trainer import TrainConfig

    gen, changes = DATASETS[kind]
    gen = {**gen, "n": TINY["n"]} if tiny else gen
    ds = gen_dataset(kind, seed=GENERATOR_SEED, **gen)
    base = {**README_CONFIG, **changes, **({"epochs": TINY["epochs"]} if tiny else {})}
    runs = [_otsc_run(ds, TrainConfig(seed=seed, **base)) for seed in SEEDS]
    k = base["num_clusters"]
    kmeans, _, _ = kmeans_lloyd(ds.features, k, restarts=10, seed=0)
    spectral, _ = classical_spectral(ds.features, SpectralConfig(num_clusters=k), seed=0)
    return {
        "dataset": {"kind": kind, "seed": GENERATOR_SEED, **gen},
        "config": base,
        "otsc": runs,
        "mean_predict_acc": statistics.fmean(r["predict"]["acc"] for r in runs),
        "mean_polar_acc": statistics.fmean(r["polar"]["acc"] for r in runs),
        "kmeans": _scores(ds.labels, kmeans),
        "spectral": _scores(ds.labels, spectral),
    }


def _table(results: dict) -> str:
    def cell(s):
        return f"{s['acc']:.3f} / {s['nmi']:.3f} / {s['ari']:.3f} ({s['clusters']})"

    lines = ["kind  | method      | ACC / NMI / ARI (clusters used) | tau_a, tau_c | med |z_raw|"]
    for kind, res in results.items():
        for r in res["otsc"]:
            lines.append(f"{kind:5} | seed {r['seed']} pred | {cell(r['predict'])} | "
                         f"{r['tau_a']:.3f}, {r['tau_c']:.3f} | {r['median_z_raw_norm']:.3g}")
            lines.append(f"{kind:5} | seed {r['seed']} polar| {cell(r['polar'])} |")
        lines.append(f"{kind:5} | k-means     | {cell(res['kmeans'])} |")
        lines.append(f"{kind:5} | spectral    | {cell(res['spectral'])} |")
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
    start = time.perf_counter()
    results = {kind: _kind(kind, args.tiny) for kind in DATASETS}
    run = {
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_s": time.perf_counter() - start,
        "results": results,
    }
    out = Path(args.out)
    table = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    table["runs"][args.label] = run
    out.write_text(json.dumps(table, indent=1) + "\n")
    print(_table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
