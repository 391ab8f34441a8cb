"""Smoke test of the benchmark at its tiny size.

Every workload, untraced and traced, must emit exactly the metrics that
BENCHMARK.json names, with their units, and pass its own output checks. The
same seed must give the same counts, and a copy without the otsc sources must
fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIME_UNITS = {"ms", "s"}


def _run(workload, trace, seed=3, root=ROOT, extra=()):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, timeout=120, cwd=root,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", ["fit-small", "ot-solve"])
def test_same_seed_same_counts(workload):
    a, b = (_result(_run(workload, 1, seed=11)) for _ in range(2))
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units.items() if unit not in TIME_UNITS]
    assert counts
    for name in counts:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def test_spans_nest_inside_their_parents(tmp_path):
    path = tmp_path / "spans.jsonl"
    _result(_run("fit-small", 1, extra=("--spans", str(path))))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert {s["name"] for s in spans} >= {"trainer.train_step", "network.forward"}
    for s in spans:
        assert set(s) == {"id", "name", "start", "end", "parent", "run"}
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["id"] < s["id"] and parent["run"] == s["run"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fit-small", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
