"""Smoke test of the quality driver at its tiny size.

A tiny run must score every dataset kind with all three training seeds and
both baselines on both halves of its split, the training half and the
held-out half, and a second run must join the first in the same file.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
KINDS = {"moons": 2, "rings": 2, "blobs": 4}
HALVES = ("train", "held_out")


def _run(out, label):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "quality" / "run.py"), "--tiny", "--label", label,
         "--out", str(out)],
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
    results = runs["first"]["results"]
    assert runs["first"]["tiny"] is True
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
