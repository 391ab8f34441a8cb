"""Tests of the quality driver, and a clustering floor on its split.

A tiny run must score every dataset kind with all three training seeds and
both baselines on both halves of its split, the training half and the
held-out half, and a second run must join the first in the same file. A
tiny sweep stores one such run per point. The floor trains the README
config for real, on a small moons set.
"""

import importlib.util
import json
import statistics
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from otsc.data import gen_dataset
from otsc.metrics import evaluate
from otsc.trainer import TrainConfig, fit, predict

ROOT = Path(__file__).resolve().parents[2]
KINDS = {"moons": 2, "rings": 2, "blobs": 4}
HALVES = ("train", "held_out")

_spec = importlib.util.spec_from_file_location("quality_run", ROOT / "quality" / "run.py")
driver = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(driver)


def _run(out, label, *flags):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "quality" / "run.py"), "--tiny", "--label", label,
         "--out", str(out), *flags],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _check_scores(scores, k):
    assert 0.0 <= scores["acc"] <= 1.0
    assert 0.0 <= scores["nmi"] <= 1.0 + 1e-12
    assert -1.0 <= scores["ari"] <= 1.0 + 1e-12
    assert 1 <= scores["clusters"] <= k


def test_tiny_run_scores_every_kind_and_keeps_earlier_runs(tmp_path):
    out = tmp_path / "quality.json"
    proc = _run(out, "first")
    assert "k-means" in proc.stdout and "spectral" in proc.stdout
    assert all(half in proc.stdout for half in HALVES)
    _run(out, "second")
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"first", "second"}
    # training is deterministic per seed, so both runs score alike
    assert runs["first"]["results"] == runs["second"]["results"]
    _check_run(runs["first"])


def _check_run(run):
    results = run["results"]
    assert run["tiny"] is True
    assert set(results) == set(KINDS)
    for kind, k in KINDS.items():
        res = results[kind]
        assert res["config"]["num_clusters"] == k
        # one generated set of 200, split in two halves
        assert res["dataset"]["n"] == 200
        assert [res[half]["n"] for half in HALVES] == [100, 100]
        assert [r["seed"] for r in res["otsc"]] == [1, 2, 3]
        for r in res["otsc"]:
            assert 0.0 < r["tau_a"] <= 1.0 and 0.0 < r["tau_c"] <= 1.0
            for half in HALVES:
                _check_scores(r[half]["predict"], k)
                _check_scores(r[half]["polar"], k)
                assert r[half]["median_z_raw_norm"] > 0.0
        for half in HALVES:
            _check_scores(res[half]["kmeans"], k)
            _check_scores(res[half]["spectral"], k)


def test_tiny_sweep_stores_one_run_per_point(tmp_path):
    out = tmp_path / "quality.json"
    proc = _run(out, "sweep", "--sweep", "keep-diagonal")
    points = ["sweep/keep-diagonal-false", "sweep/keep-diagonal-true"]
    assert [line for line in proc.stdout.splitlines() if line.startswith("==")] == [
        f"== {label}" for label in points]
    runs = json.loads(out.read_text())["runs"]
    assert list(runs) == points
    for label, keep in zip(points, (False, True)):
        _check_run(runs[label])
        for res in runs[label]["results"].values():
            assert res["config"]["keep_diagonal"] is keep


# every point's name and README config overrides, written out
@pytest.mark.parametrize("axis, points", [
    ("eta", [("eta-%.2f" % v, {"eta": v}) for v in
             (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1)]),
    ("sinkhorn-iters", [("isk-1", {"sinkhorn_iters": 1}), ("isk-3", {"sinkhorn_iters": 3}),
                        ("isk-5", {"sinkhorn_iters": 5}), ("isk-10", {"sinkhorn_iters": 10})]),
    ("lambda", [("lambda-0.5", {"lam": 0.5}), ("lambda-1.0", {"lam": 1.0}),
                ("lambda-1.5", {"lam": 1.5}), ("lambda-2.0", {"lam": 2.0})]),
    ("orth", [("orth-procrustes", {"orth_mode": "procrustes"}),
              ("orth-none", {"orth_mode": "none"}),
              ("orth-penalty-0.5", {"orth_mode": "penalty", "penalty_rho": 0.5}),
              ("orth-penalty-1.0", {"orth_mode": "penalty", "penalty_rho": 1.0}),
              ("orth-penalty-2.0", {"orth_mode": "penalty", "penalty_rho": 2.0})]),
    ("keep-diagonal", [("keep-diagonal-false", {"keep_diagonal": False}),
                       ("keep-diagonal-true", {"keep_diagonal": True})]),
    ("orth-lr", [(f"{mode}-lr-{name}", {"orth_mode": mode, "base_lr": lr})
                 for mode in ("procrustes", "none", "penalty")
                 for name, lr in (("1.25e-06", 1.25e-6), ("2.5e-06", 2.5e-6), ("5e-06", 5e-6),
                                  ("1e-05", 1e-5), ("2e-05", 2e-5))]),
])
def test_sweep_points(axis, points):
    assert driver.SWEEPS[axis] == points
    for _, overrides in points:
        assert set(overrides) <= {f.name for f in fields(TrainConfig)}
    assert list(driver.SWEEPS) == ["eta", "sinkhorn-iters", "lambda", "orth", "keep-diagonal",
                                   "orth-lr"]


def test_isk_sweep_points(tmp_path, monkeypatch):
    # one stored run per sinkhorn-iters point, in order, each trained with its count
    monkeypatch.setattr(driver, "_kind", lambda kind, tiny, base, cfgs: {
        "config": base, "sinkhorn_iters": [cfg.sinkhorn_iters for cfg in cfgs]})
    monkeypatch.setattr(driver, "_table", lambda results: "")
    out = tmp_path / "quality.json"
    assert driver.main(["--tiny", "--label", "isk", "--out", str(out),
                        "--sweep", "sinkhorn-iters"]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert list(runs) == ["isk/isk-1", "isk/isk-3", "isk/isk-5", "isk/isk-10"]
    for label, iters in zip(runs, (1, 3, 5, 10)):
        assert set(runs[label]["results"]) == set(KINDS)
        for res in runs[label]["results"].values():
            assert res["config"]["sinkhorn_iters"] == iters
            assert res["sinkhorn_iters"] == [iters] * 3


def test_orth_lr_sweep_points(tmp_path, monkeypatch):
    # one stored run per orth-lr point, in order, each trained with its mode and rate
    monkeypatch.setattr(driver, "_kind", lambda kind, tiny, base, cfgs: {
        "config": base, "trained": [(cfg.orth_mode, cfg.base_lr) for cfg in cfgs]})
    monkeypatch.setattr(driver, "_table", lambda results: "")
    out = tmp_path / "quality.json"
    assert driver.main(["--tiny", "--label", "lr", "--out", str(out),
                        "--sweep", "orth-lr"]) == 0
    runs = json.loads(out.read_text())["runs"]
    points = [(mode, lr) for mode in ("procrustes", "none", "penalty")
              for lr in (1.25e-6, 2.5e-6, 5e-6, 1e-5, 2e-5)]
    assert list(runs) == [f"lr/{mode}-lr-{lr:g}" for mode, lr in points]
    for label, (mode, lr) in zip(runs, points):
        assert set(runs[label]["results"]) == set(KINDS)
        for res in runs[label]["results"].values():
            assert (res["config"]["orth_mode"], res["config"]["base_lr"]) == (mode, lr)
            assert res["trained"] == [[mode, lr]] * 3


def test_sweep_refuses_a_setting_before_any_point(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a point trained before every config was checked")

    points = [*driver.SWEEPS["lambda"], ("momentum-1.5", {"momentum": 1.5})]
    monkeypatch.setitem(driver.SWEEPS, "lambda", points)
    monkeypatch.setattr("otsc.trainer.fit", refuse)
    out = tmp_path / "quality.json"
    assert driver.main(["--tiny", "--label", "x", "--out", str(out), "--sweep", "lambda"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: momentum must lie in [0, 1)\n")
    assert not out.exists()


# A floor on held-out clustering: the README config, 300 epochs, on a moons
# set of 400 split as the driver splits. Seeds and floor were fixed before
# the test first ran. The floor lies below the lowest 3-seed mean of the
# disjoint seeds 101-112, whose held-out ACCs read 0.530, 0.780, 0.835,
# 0.675, 0.810, 0.790, 0.610, 0.770, 0.835, 0.750, 0.800 and 0.680 (the
# three lowest average 0.605); chance is 0.5.
FLOOR_SEEDS = (11, 12, 13)
FLOOR_EPOCHS = 300
FLOOR_ACC = 0.58


def test_readme_config_clusters_moons_above_a_floor():
    ds = gen_dataset("moons", 400, driver.DATASETS["moons"][0]["noise"], driver.GENERATOR_SEED)
    halves = driver._split(ds)
    x, y = halves["held_out"]
    accs = []
    for seed in FLOOR_SEEDS:
        cfg = TrainConfig(**{**driver.README_CONFIG, "epochs": FLOOR_EPOCHS, "seed": seed})
        model, _ = fit(halves["train"][0], cfg)
        accs.append(evaluate(y, predict(model, x)[0]).acc)
    assert statistics.fmean(accs) > FLOOR_ACC, accs
