"""The README's quality tables, rebuilt from the JSON runs they cite.

Each table is copied into README.md by hand from a ``QUALITY_*.json`` file;
these tests format every cell again from the file, to 3 decimals as the
README prints them, and compare the rows, so a number that no run holds
fails here by table and row.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("quality_run", ROOT / "quality" / "run.py")
driver = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(driver)

KINDS = ("moons", "rings", "blobs")
HALF_NAMES = {"train": "training", "held_out": "held out"}


def _readme_rows(header: str) -> list[list[str]]:
    """The cells of each body row of the README table under ``header``."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    assert lines.count(header) == 1, header
    rows = []
    for line in lines[lines.index(header) + 2 :]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _runs(name: str) -> dict:
    return json.loads((ROOT / name).read_text(encoding="utf-8"))["runs"]


def _held_out_cell(result: dict) -> str:
    """``mean: acc / acc / acc (clusters, ...)`` of held-out `predict` over the seeds."""
    scores = [run["held_out"]["predict"] for run in result["otsc"]]
    accs = " / ".join(f"{s['acc']:.3f}" for s in scores)
    clusters = ", ".join(str(s["clusters"]) for s in scores)
    return f"{result['held_out']['mean_predict_acc']:.3f}: {accs} ({clusters})"


def test_seed_table_matches_quality_20():
    header = ("| data | half | otsc `predict` ACC, seeds 1 / 2 / 3 (clusters used)"
              " | otsc polar ACC | k-means ACC | spectral ACC |")
    results = _runs("QUALITY_20.json")["change: one factored softmax_cross_entropy"]["results"]
    want = []
    for kind in KINDS:
        res = results[kind]
        for half, name in HALF_NAMES.items():
            runs = [run[half] for run in res["otsc"]]
            want.append([
                kind,
                name,
                " / ".join(f"{r['predict']['acc']:.3f} ({r['predict']['clusters']})" for r in runs),
                " / ".join(f"{r['polar']['acc']:.3f}" for r in runs),
                f"{res[half]['kmeans']['acc']:.3f}",
                f"{res[half]['spectral']['acc']:.3f}",
            ])
    assert _readme_rows(header) == want


def test_sweep_table_matches_quality_26():
    runs = _runs("QUALITY_26.json")
    rows = _readme_rows("| point | moons | rings | blobs |")
    # a row names its point in backticks, with a note after it for a deleted mode
    assert [row[0].split("`")[1] for row in rows] == [name.split("/")[1] for name in runs]
    for row, run in zip(rows, runs.values()):
        assert row[1:] == [_held_out_cell(run["results"][kind]) for kind in KINDS], row[0]


@pytest.mark.parametrize("kind", KINDS)
def test_tuned_rate_table_matches_quality_34(kind):
    # each mode at the rate with the best training-half mean `predict` ACC
    runs = _runs("QUALITY_34.json")
    modes = {}
    for name, run in runs.items():
        mode, rate = name.split("/")[1].split("-lr-")
        modes.setdefault(mode, []).append((rate, run["results"][kind]))
    column = 1 + KINDS.index(kind)
    rows = _readme_rows("| mode | moons | rings | blobs |")
    assert [row[0] for row in rows] == [f"`{mode}`" for mode in modes]
    for row, (mode, points) in zip(rows, modes.items()):
        rate, result = max(points, key=lambda point: point[1]["train"]["mean_predict_acc"])
        mean, rest = _held_out_cell(result).split(": ", 1)
        assert row[column] == f"{mean} at {rate}: {rest}", mode


def test_paired_table_matches_quality_37():
    # each point's held-out mean `predict` ACC and, after an axis's first
    # point, the paired difference from it with its interval, drawn again
    # from the per-seed scores
    runs = _runs("QUALITY_37.json")
    rows = _readme_rows("| point | moons | rings | blobs | rule |")
    want = []
    for name, run in runs.items():
        cells = []
        for kind in KINDS:
            result = run["results"][kind]
            cell = f"{result['held_out']['mean_predict_acc']:.3f}"
            if "paired" in run:
                report = run["paired"][kind]
                assert report["seeds"] == [r["seed"] for r in result["otsc"]]
                reference = runs[f"{name.split('/')[0]}/{run['against']}"]["results"][kind]
                accs = [[r["held_out"]["predict"]["acc"] for r in res["otsc"]]
                        for res in (result, reference)]
                diffs = [new - old for new, old in zip(*accs)]
                mean, low, high = driver.paired_interval(diffs)
                stored = (report["mean"], report["low"], report["high"])
                assert stored == pytest.approx((mean, low, high), abs=1e-12)
                cell += f": {mean:+.3f} [{low:+.3f}, {high:+.3f}]"
            cells.append(cell)
        rule = ("kept" if run["kept"] else "rejected") if "paired" in run else "reference"
        want.append([f"`{name.split('/')[1]}`", *cells, rule])
    assert rows == want


def test_rounding_table_matches_quality_38():
    # the factored-target run against the same config on the code before,
    # paired by seed, the interval drawn again from the per-seed scores
    reference = _runs("QUALITY_37.json")["paired/keep-diagonal-false"]["results"]
    results = _runs("QUALITY_38.json")["factored"]["results"]
    before = [f"{reference[kind]['held_out']['mean_predict_acc']:.3f}" for kind in KINDS]
    after = []
    for kind in KINDS:
        accs = [{r["seed"]: r["held_out"]["predict"]["acc"] for r in res[kind]["otsc"]}
                for res in (results, reference)]
        assert list(accs[0]) == list(accs[1])
        mean, low, high = driver.paired_interval([accs[0][s] - accs[1][s] for s in accs[0]])
        after.append(f"{results[kind]['held_out']['mean_predict_acc']:.3f}:"
                     f" {mean:+.3f} [{low:+.3f}, {high:+.3f}]")
    assert _readme_rows("| run | moons | rings | blobs |") == [
        ["`paired/keep-diagonal-false`", *before], ["`factored`", *after]]
