import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import otsc
from otsc.cli import format_report, load_train_config, main, parse_config
from otsc.data import load_dataset
from otsc.metrics import evaluate
from otsc.network import load_checkpoint
from otsc.trainer import TRAINER_ORTH_MODES, TrainConfig


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "blobs.csv"
    rc = main([
        "gen-dataset", "--kind", "blobs", "--n", "60", "--noise", "0.5",
        "--seed", "3", "--k", "3", "--dim", "2", "--out", str(path),
    ])
    assert rc == 0
    return path


TRAIN_CONFIG = "\n".join([
    "num_clusters = 3",
    "embed_dim = 3",
    "batch_size = 20",
    "epochs = 3",
    "base_lr = 0.00001",
    "seed = 5",
    "noise_sigma = 0.05",
    "feature_dropout_prob = 0.0",
    "# comment line",
    "tau_a_init = 0.2",
    "tau_c_init = 0.15",
]) + "\n"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(TRAIN_CONFIG)
    return path


class TestConfigParsing:
    def test_parses_values_and_comments(self, config_path):
        cfg = load_train_config(config_path)
        assert cfg.num_clusters == 3
        assert cfg.batch_size == 20
        assert cfg.tau_a_init == 0.2

    def test_unknown_key_is_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("num_clusters = 2\nlerning_rate = 0.1\n")
        with pytest.raises(ValueError, match="lerning_rate"):
            parse_config(p)

    def test_lambda_key_maps_to_tradeoff(self, tmp_path):
        p = tmp_path / "l.cfg"
        p.write_text("num_clusters = 2\nlambda = 1.5\n")
        assert load_train_config(p).lam == 1.5

    def test_missing_num_clusters(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("epochs = 1\n")
        with pytest.raises(ValueError, match="num_clusters"):
            load_train_config(p)

    def test_every_field_settable(self, tmp_path):
        # one non-default value per TrainConfig field, written as text
        values = {
            "num_clusters": 3, "embed_dim": 4, "batch_size": 32, "epochs": 7,
            "eta": 0.07, "sinkhorn_iters": 4, "lam": 1.25, "base_lr": 0.003,
            "momentum": 0.8, "weight_decay": 0.001, "restart_period": 50,
            "noise_sigma": 0.2, "feature_dropout_prob": 0.2, "scale_jitter": 0.05,
            "seed": 11, "orth_mode": "penalty",
            "tau_a_init": 0.1, "tau_c_init": 0.2,
        }
        assert set(values) == {f.name for f in fields(TrainConfig)}
        p = tmp_path / "all.cfg"
        p.write_text("".join(
            f"{'lambda' if name == 'lam' else name} = {value}\n"
            for name, value in values.items()
        ))
        cfg = load_train_config(p)
        for f in fields(TrainConfig):
            assert getattr(cfg, f.name) == values[f.name] != f.default, f.name


class TestGenDataset:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            assert main(["gen-dataset", "--kind", "moons", "--n", "50",
                         "--noise", "0.1", "--seed", "9", "--out", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kind", ["moons", "rings", "blobs"])
    def test_every_kind_writes_its_rows(self, kind, tmp_path):
        path = tmp_path / "g.csv"
        assert main(["gen-dataset", "--kind", kind, "--n", "40", "--out", str(path)]) == 0
        assert load_dataset(path).n == 40


class TestTrainEvalBaseline:
    def test_train_then_eval_bitwise(self, tmp_path, dataset_path, config_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path),
                     "--dataset", str(dataset_path), "--out", str(out)]) == 0
        assert (out / "checkpoint.npz").exists()
        assert (out / "history.txt").exists()
        assert (out / "manifest.json").exists()
        train_report = (out / "report.txt").read_bytes()

        out2 = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                     "--dataset", str(dataset_path), "--out", str(out2)]) == 0
        assert (out2 / "report.txt").read_bytes() == train_report

    def test_history_values_parse_as_floats(self, tmp_path, dataset_path, config_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path),
                     "--dataset", str(dataset_path), "--out", str(out)]) == 0
        lines = (out / "history.txt").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            for pair in line.split(" "):
                float(pair.split("=", 1)[1])

    def test_rerun_reproduces_report(self, tmp_path, dataset_path, config_path):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for out in (r1, r2):
            assert main(["train", "--config", str(config_path),
                         "--dataset", str(dataset_path), "--out", str(out)]) == 0
        assert (r1 / "report.txt").read_bytes() == (r2 / "report.txt").read_bytes()
        assert (r1 / "history.txt").read_bytes() == (r2 / "history.txt").read_bytes()

    def test_baseline_report_same_key_set(self, tmp_path, dataset_path, config_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path),
              "--dataset", str(dataset_path), "--out", str(out)])
        train_keys = [line.split("=")[0] for line in
                      (out / "report.txt").read_text().splitlines()]
        bout = tmp_path / "base"
        assert main(["baseline", "--method", "kmeans", "--dataset", str(dataset_path),
                     "--out", str(bout)]) == 0
        base_keys = [line.split("=")[0] for line in
                     (bout / "report.txt").read_text().splitlines()]
        assert base_keys == train_keys

    def test_checkpoint_records_configured_optimizer(self, tmp_path, dataset_path, config_path):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(
            config_path.read_text()
            + "momentum = 0.5\nweight_decay = 0.05\nrestart_period = 600\n"
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg),
                     "--dataset", str(dataset_path), "--out", str(out)]) == 0
        _, opt, epoch, _ = load_checkpoint(out / "checkpoint.npz")
        assert (opt.base_lr, opt.momentum, opt.weight_decay, opt.restart_period) == (
            0.00001, 0.5, 0.05, 600
        )
        assert epoch == 3

    @pytest.mark.parametrize("flags, name, value", [
        (("--orth-mode", mode), "orth_mode", mode) for mode in TRAINER_ORTH_MODES
    ], ids=TRAINER_ORTH_MODES)
    def test_train_flag_reaches_the_manifest(self, flags, name, value, tmp_path, trained_run):
        out = tmp_path / "run"
        assert main(["train", "--config", str(trained_run["config"]), "--dataset",
                     str(trained_run["dataset"]), "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"][name] == value

    def test_spectral_baseline_runs(self, tmp_path, dataset_path):
        assert main(["baseline", "--method", "spectral", "--dataset", str(dataset_path),
                     "--out", str(tmp_path / "sp")]) == 0

    def test_text_artifacts_are_utf8_under_the_running_locale(self, tmp_path, capsys):
        # in-process, so the suite run under the C locale runs it under C
        def run(argv):
            assert (main(argv), capsys.readouterr().err) == (0, ""), argv[0]

        _naive_config_round_trip(tmp_path, run)

    # the id names what the subprocess's interpreter turns on
    @pytest.mark.parametrize("options", [
        ("-X", "warn_default_encoding", "-W", "error::EncodingWarning"),
    ], ids=["EncodingWarning as error"])
    def test_text_artifacts_are_utf8_under_any_locale(self, options, tmp_path):
        # a fresh interpreter, so that an open() without an encoding warns
        # under any locale, the suite's own included
        def run(argv):
            done = _console(argv, *options)
            assert (done.returncode, done.stderr) == (0, ""), argv[0]

        _naive_config_round_trip(tmp_path, run)

    def test_a_name_the_locale_cannot_print_is_escaped(self, tmp_path, config_path):
        # report.txt keeps the UTF-8 name; the printed report escapes it
        data = tmp_path / "m.csv"
        assert main(["gen-dataset", "--kind", "moons", "--n", "40", "--out", str(data)]) == 0
        (tmp_path / "m.csv.meta.json").write_text('{"name": "na\u00efve"}', encoding="utf-8")
        runs = {"baseline": _baseline("kmeans", str(data)),
                "train": ["train", "--config", str(config_path), "--dataset", str(data)]}
        for command, argv in runs.items():
            out = tmp_path / command
            done = _console([*argv, "--out", str(out)],
                            LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
            assert (done.returncode, done.stderr) == (0, ""), command
            assert done.stdout.startswith("dataset=na\\xefve\n"), command
            report = (out / "report.txt").read_text(encoding="utf-8")
            assert report.startswith("dataset=na\u00efve\n"), command
        assert (tmp_path / "train" / "manifest.json").exists()

    def test_missing_dataset_exit_one(self, tmp_path, config_path):
        rc = main(["train", "--config", str(config_path),
                   "--dataset", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        rc = main(["train", "--frobnicate"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["transmogrify"]) == 1


class TestOtDebug:
    def test_prints_plan(self, tmp_path, capsys):
        cost = tmp_path / "cost.csv"
        cost.write_text("0.0,1.0\n1.0,0.0\n")
        rc = main(["ot-debug", "--cost", str(cost), "--eta", "0.05",
                   "--iterations", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()]
        plan = np.array(rows)
        assert plan.shape == (2, 2)
        assert np.abs(plan.sum(axis=1) - 1.0).max() <= 1e-9
        # low cost on the diagonal wins
        assert plan[0, 0] > 0.99 and plan[1, 1] > 0.99

    @pytest.mark.parametrize(
        "cost, text",
        [
            ("0.0,1.0\n1.0,0.0\n",
             "0.999999997939,2.06115361819e-09\n2.06115361819e-09,0.999999997939\n"),
            ("0.3,1.2,0.7,2.0\n1.1,0.1,0.9,0.4\n0.5,0.8,0.05,1.6\n",
             "0.999997362249,4.85799670071e-09,2.63289302458e-06,2.20555451934e-13\n"
             "3.23086363654e-09,0.499996888551,1.38448026874e-09,0.500003106834\n"
             "0.0154802679438,1.22396956095e-05,0.984507491805,5.55688231795e-10\n"),
        ],
        ids=["2x2", "3x4"],
    )
    def test_plan_text_is_that_of_the_plan_scaled_in_place(self, cost, text, tmp_path, capsys):
        # the text the command printed when the solver scaled its kernel in
        # place into the plan, rows then columns: the plan formed from the
        # factors in that order prints the same bytes
        assert main(_cost(tmp_path, cost)) == 0
        assert capsys.readouterr().out == text

    def test_five_iterations_by_default(self, tmp_path, capsys):
        assert main(_ot_debug(tmp_path)) == 0
        assert capsys.readouterr().err.endswith("iterations_used=5\n")


class TestReportFormat:
    def test_round_numbers_serialized_fully(self):
        rep = evaluate([0, 0, 1, 1], [0, 1, 1, 1])
        text = format_report(rep, "demo", 4)
        lines = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert lines["acc"] == "0.75"
        assert lines["dataset"] == "demo"
        assert lines["contingency"] == "1,1;0,2"
        assert lines["matching"] == "0:0,1:1"


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A 2-feature blobs dataset, its training config, and a trained checkpoint."""
    root = tmp_path_factory.mktemp("trained")
    dataset, config = root / "blobs.csv", root / "train.cfg"
    config.write_text(TRAIN_CONFIG)
    assert main(["gen-dataset", "--kind", "blobs", "--n", "60", "--noise", "0.5",
                 "--seed", "3", "--k", "3", "--dim", "2", "--out", str(dataset)]) == 0
    assert main(["train", "--config", str(config), "--dataset", str(dataset),
                 "--out", str(root / "run")]) == 0
    return {"dataset": dataset, "config": config, "checkpoint": root / "run" / "checkpoint.npz"}


def _csv(tmp_path, header, rows):
    path = tmp_path / "input.csv"
    path.write_text(header + "\n" + "".join(row + "\n" for row in rows))
    return str(path)


def _baseline(method, path, *extra):
    return ["baseline", "--method", method, "--dataset", path, *extra]


def _broken_checkpoint(tmp_path, run, drop=None):
    """The trained checkpoint without entry ``drop``, or cut in half if None."""
    path = tmp_path / "broken.npz"
    if drop is None:
        data = run["checkpoint"].read_bytes()
        path.write_bytes(data[: len(data) // 2])
    else:
        with np.load(run["checkpoint"]) as data:
            np.savez(path, **{k: data[k] for k in data.files if k != drop})
    return ["eval", "--checkpoint", str(path), "--dataset", str(run["dataset"])]


def _edited_checkpoint(tmp_path, run, meta=None, arrays=None, raw_meta=None):
    """The trained checkpoint with some meta fields and arrays replaced, or
    with the meta entry replaced by the bytes ``raw_meta``."""
    path = tmp_path / "edited.npz"
    with np.load(run["checkpoint"]) as data:
        entries = {k: data[k] for k in data.files}
    if raw_meta is None:
        meta_fields = {**json.loads(bytes(entries["meta"])), **(meta or {})}
        raw_meta = json.dumps(meta_fields).encode()
    entries["meta"] = np.frombuffer(raw_meta, dtype=np.uint8)
    np.savez(path, **{**entries, **(arrays or {})})
    return ["eval", "--checkpoint", str(path), "--dataset", str(run["dataset"])]


def _edited_optimizer(tmp_path, run, **fields):
    """The trained checkpoint with some ``meta.optimizer`` fields replaced."""
    with np.load(run["checkpoint"]) as data:
        optimizer = json.loads(bytes(data["meta"]))["optimizer"]
    return _edited_checkpoint(tmp_path, run, meta={"optimizer": {**optimizer, **fields}})


def _four_blobs_k3(tmp_path, run):
    """Well-separated blobs: four affinity components, one more than K."""
    path = tmp_path / "b.csv"
    assert main(["gen-dataset", "--kind", "blobs", "--n", "900", "--noise", "0.05",
                 "--seed", "1", "--out", str(path)]) == 0
    return _baseline("spectral", str(path), "--k", "3")


def _far_groups(tmp_path, run):
    """25 groups of 8 points, 1000 apart, labeled by group mod 4: 25 affinity
    components, so eigenvalue K+1 = 5 is 1 within rounding, and more
    eigenvalues lie at 1 than the eigensolver's first block holds."""
    rng = np.random.default_rng(2)
    path = tmp_path / "groups.csv"
    rows = [f"{1000.0 * g + a:.17g},{b:.17g},{g % 4}" for g in range(25)
            for a, b in rng.standard_normal((8, 2))]
    path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return _baseline("spectral", str(path))


def _moons_4097(tmp_path, run):
    """A spectral baseline on one sample more than its affinity bound."""
    path = tmp_path / "m4097.csv"
    assert main(["gen-dataset", "--kind", "moons", "--n", "4097", "--out", str(path)]) == 0
    return _baseline("spectral", str(path))


def _nan_feature_csv(tmp_path):
    return _csv(tmp_path, "f0,f1,label", ["0,0,0", "1,nan,1", "2,2,1"])


def _cost(tmp_path, text):
    """ot-debug on a cost file that holds ``text``."""
    path = tmp_path / "cost.csv"
    path.write_text(text)
    return ["ot-debug", "--cost", str(path)]


def _naive_config_round_trip(tmp_path, run):
    """gen-dataset, train on a config whose comment is not ASCII, then eval,
    each argv passed to ``run``; the eval report must equal the train one."""
    config = tmp_path / "naive.cfg"
    config.write_text("# naïve\n" + TRAIN_CONFIG, encoding="utf-8")
    data, out = tmp_path / "m.csv", tmp_path / "run"
    for argv in (
        ["gen-dataset", "--kind", "moons", "--n", "40", "--out", str(data)],
        ["train", "--config", str(config), "--dataset", str(data), "--out", str(out)],
        ["eval", "--checkpoint", str(out / "checkpoint.npz"), "--dataset", str(data),
         "--out", str(tmp_path / "eval")],
    ):
        run(argv)
    assert (tmp_path / "eval" / "report.txt").read_bytes() == (out / "report.txt").read_bytes()


def _console(argv, *options, **env) -> subprocess.CompletedProcess:
    """``otsc`` run in its own interpreter, as the console script runs it,
    with the interpreter ``options`` and the environment entries ``env``:
    the locale and encoding tests, which need a fresh interpreter's streams.
    Every other exit path runs in-process, where the suite's warning filter
    turns a numpy warning into a failure."""
    src = str(Path(otsc.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, *options, "-m", "otsc.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)


def _binary(tmp_path, name, data: bytes) -> str:
    """The path of file ``name`` holding the bytes ``data``."""
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _train_with(tmp_path, run, line, *flags):
    """A train run whose config is the trained run's plus ``line``. The
    trained run's line of the key ``line`` sets is commented out, as a key
    set twice is refused, so every line keeps its number."""
    key = line.split("=", 1)[0].strip()
    rows = run["config"].read_text().splitlines()
    rows = [f"# {row}" if row.split("=", 1)[0].strip() == key else row for row in rows]
    config = tmp_path / "edited.cfg"
    config.write_text("".join(row + "\n" for row in rows) + line + "\n")
    return ["train", "--config", str(config), "--dataset", str(run["dataset"]),
            "--out", str(tmp_path / "o"), *flags]


def _ot_debug(tmp_path, *flags):
    return [*_cost(tmp_path, "0.0,1.0\n1.0,0.0\n"), *flags]


def _sidecar(tmp_path, data: bytes):
    """k-means on a labeled CSV whose sidecar holds the bytes ``data``."""
    path = _csv(tmp_path, "f0,f1,label", TWELVE_ROWS)
    _binary(tmp_path, "input.csv.meta.json", data)
    return _baseline("kmeans", path)


def _gen(tmp_path, *flags, kind="blobs"):
    return ["gen-dataset", "--kind", kind, "--n", "40", "--out", str(tmp_path / "g.csv"), *flags]


def _npy_checkpoint(tmp_path, run):
    """An eval of a plain .npy array saved under a checkpoint's name."""
    path = tmp_path / "checkpoint.npz"
    with path.open("wb") as fh:
        np.save(fh, np.zeros(3))
    return ["eval", "--checkpoint", str(path), "--dataset", str(run["dataset"])]


def _nan_layer(run):
    with np.load(run["checkpoint"]) as data:
        weight = data["layer0.weight"].copy()
    weight[5, 1] = np.nan
    return {"layer0.weight": weight}


def _scaled_prototypes(run, factor):
    with np.load(run["checkpoint"]) as data:
        return {"prototypes": data["prototypes"] * factor}


def _zero_last_layer(run):
    with np.load(run["checkpoint"]) as data:
        return {k: np.zeros_like(data[k]) for k in ("layer2.weight", "layer2.bias")}


TWELVE_ROWS = [f"{i % 4}.5,{i // 4}.25,{i % 2}" for i in range(12)]
# the line `_train_with` appends to the trained run's config
APPENDED = len(TRAIN_CONFIG.splitlines()) + 1
NAN_FEATURE = "input.csv: data row 2 has non-finite entry nan in column f1\n"

# case -> (argv builder, exit status, what stderr must contain)
BAD_INPUTS = {
    # data rows count from 1 after the header, skipping blank and comment lines
    "ragged csv row": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1,label", ["0,0,0", "1,1", "2,2,1"])),
        1, "/input.csv: data row 2 has 2 columns, expected 3\n"),
    "non-numeric entry": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1,label", ["0,0,0", "1,x,1"])),
        1, "/input.csv: data row 2 has non-numeric entry 'x' in column f1\n"),
    "header wider than its rows": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1,label", ["0.5,0", "1.5,1"])),
        1, "/input.csv: data row 1 has 2 columns, expected 3\n"),
    "label gap": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1,label", ["0,0,0", "1,1,2", "2,2,2"])),
        1, "/input.csv: labels must be 0..K-1 with every class nonempty\n"),
    "kmeans k of 1": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1,label", TWELVE_ROWS), "--k", "1"),
        1, "error: k from --k must be >= 2, got 1\n"),
    "single-class dataset on kmeans": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1,label", ["0,0,0", "1,1,0", "2,2,0"])),
        1, "error: k from the dataset's labels must be >= 2, got 1\n"),
    "single-class dataset on spectral": (
        lambda tmp, run: _baseline("spectral", _csv(tmp, "f0,f1,label", ["0,0,0", "1,1,0", "2,2,0"])),
        1, "error: k from the dataset's labels must be >= 2, got 1\n"),
    "header-only csv": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1,label", [])),
        1, "input.csv: no data rows"),
    "non-integer labels": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1,label", ["0,0,0.7", "1,1,1.2", "2,2,0"])),
        1, "data row 1 has non-integer label 0.7"),
    "baseline on an unlabeled dataset": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1", ["0,0", "1,1", "2,2"])),
        1, "error: baseline evaluation needs a labeled dataset\n"),
    "kmeans k > n": (
        lambda tmp, run: _baseline("kmeans", _csv(tmp, "f0,f1,label", TWELVE_ROWS), "--k", "13"),
        1, "error: k=13 exceeds the number of samples 12\n"),
    "spectral k > n": (
        lambda tmp, run: _baseline("spectral", _csv(tmp, "f0,f1,label", TWELVE_ROWS), "--k", "13"),
        1, "error: more clusters than samples\n"),
    "eval feature-dim mismatch": (
        lambda tmp, run: ["eval", "--checkpoint", str(run["checkpoint"]), "--dataset",
                          _csv(tmp, "f0,f1,f2,label", ["0,0,0,0", "1,1,1,1", "2,2,2,1"])],
        1, "error: input dim 3 does not match first layer 2\n"),
    "eta far below 0.01": (
        lambda tmp, run: ["train", "--config", str(run["config"]), "--dataset",
                          str(run["dataset"]), "--out", str(tmp / "o"), "--eta", "0.0005"],
        2, "underflowed to 0 during Sinkhorn scaling (eta=0.0005)"),
    "checkpoint without meta": (
        lambda tmp, run: _broken_checkpoint(tmp, run, "meta"), 1, "has no entry 'meta'"),
    "checkpoint without layer0.weight": (
        lambda tmp, run: _broken_checkpoint(tmp, run, "layer0.weight"),
        1, "has no entry 'layer0.weight'"),
    "truncated checkpoint": (
        lambda tmp, run: _broken_checkpoint(tmp, run), 1, "broken.npz is unreadable"),
    "checkpoint meta field of the wrong type": (
        lambda tmp, run: _edited_checkpoint(tmp, run, meta={"num_layers": "3"}),
        1, "edited.npz entry 'num_layers' must be an integer, got '3'"),
    "checkpoint prototypes wider than the last layer": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"prototypes": np.ones((3, 4))}),
        1, "edited.npz entry 'prototypes' has shape (3, 4), expected K x 3"),
    "spectral K below the affinity components": (
        _four_blobs_k3, 1, "the affinity graph has more connected components than K=3"),
    "spectral on more samples than the affinity bound": (
        _moons_4097, 1,
        "error: the spectral baseline builds an n x n affinity; n = 4097 exceeds 4096\n"),
    "spectral on far groups, more than the first eigensolver block": (
        _far_groups, 1, "the affinity graph has more connected components than K=4"),
    "NaN feature on train": (
        lambda tmp, run: ["train", "--config", str(run["config"]), "--dataset",
                          _nan_feature_csv(tmp), "--out", str(tmp / "o")],
        1, NAN_FEATURE),
    "NaN feature on eval": (
        lambda tmp, run: ["eval", "--checkpoint", str(run["checkpoint"]),
                          "--dataset", _nan_feature_csv(tmp)],
        1, NAN_FEATURE),
    "NaN feature on baseline": (
        lambda tmp, run: _baseline("kmeans", _nan_feature_csv(tmp)), 1, NAN_FEATURE),
    "NaN cost on ot-debug": (
        lambda tmp, run: _cost(tmp, "0.0,1.0\n1.0,nan\n"),
        1, "/cost.csv: data row 2 has non-finite entry nan in column 2\n"),
    "ragged cost file on ot-debug": (
        lambda tmp, run: _cost(tmp, "0.0,1.0\n\n# note\n1.0\n"),
        1, "/cost.csv: data row 2 has 1 columns, expected 2\n"),
    "non-numeric cost on ot-debug": (
        lambda tmp, run: _cost(tmp, "0.0,1.0\n1.0, x\n"),
        1, "/cost.csv: data row 2 has non-numeric entry 'x' in column 2\n"),
    "row underflow on ot-debug": (
        lambda tmp, run: [*_cost(tmp, "0,0\n2000,2000\n"), "--eta", "0.05"],
        2, "numerical abort: row 1 sum underflowed to 0 during Sinkhorn scaling (eta=0.05)\n"),
    "empty cost file on ot-debug": (
        lambda tmp, run: _cost(tmp, ""), 1, "/cost.csv: no data rows\n"),
    # -cost/eta overflows to -inf in one cell of rows 0 and 1 and in both
    # cells of row 2, which is left with no finite entry
    "cost over eta beyond the doubles on ot-debug": (
        lambda tmp, run: [*_cost(tmp, "0,5\n3,0\n2,2\n"), "--eta", "1e-320"],
        2, "numerical abort: row 2 sum underflowed to 0 during Sinkhorn scaling (eta=1e-320)\n"),
    "cost over eta overflowing on ot-debug": (
        lambda tmp, run: [*_cost(tmp, "0,-1e306\n1,0\n"), "--eta", "1e-3"],
        2, "numerical abort: entry [0, 1] overflowed dividing by eta (eta=0.001)\n"),
    # sums that underflow only after some sweeps: the sweeps check their
    # scalings once per solve, and the checked replay names the line that failed first
    "column underflow at sweep 3 on ot-debug": (
        lambda tmp, run: [*_cost(tmp, "1120,860,1060\n1120,410,1460\n"), "--eta", "1"],
        2, "numerical abort: column 0 sum underflowed to 0 during Sinkhorn scaling (eta=1.0)\n"),
    "non-UTF-8 cost file on ot-debug": (
        lambda tmp, run: ["ot-debug", "--cost", _binary(tmp, "cost.csv", b"0.0,1.0\n\xff,0\n")],
        1, "/cost.csv: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 8"),
    "non-UTF-8 dataset": (
        lambda tmp, run: _baseline("kmeans", _binary(tmp, "input.csv", b"f0,label\n\xff,0\n")),
        1, "/input.csv: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 9"),
    "non-UTF-8 config": (
        lambda tmp, run: ["train", "--config", _binary(tmp, "bad.cfg", b"epochs = 2\n\xff\n"),
                          "--dataset", str(run["dataset"]), "--out", str(tmp / "o")],
        1, "/bad.cfg: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 11"),
    "NaN checkpoint entry": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays=_nan_layer(run)),
        1, "edited.npz entry 'layer0.weight' must hold finite floats"),
    "checkpoint that embeds every row at 0": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays=_zero_last_layer(run)),
        2, "numerical abort: row_normalize received row 0 of norm 0.0\n"),
    # an overflowed prototype norm would scale every prototype to 0 and put
    # every sample in cluster 0
    "checkpoint prototypes whose norms overflow": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays=_scaled_prototypes(run, 1e200)),
        2, "numerical abort: row_normalize received row 0 of norm inf\n"),
    "checkpoint meta not an object": (
        lambda tmp, run: _edited_checkpoint(tmp, run, raw_meta=b"[1, 2]"),
        1, "edited.npz entry 'meta' is not a JSON object: [1, 2]"),
    "checkpoint optimizer meta not an object": (
        lambda tmp, run: _edited_checkpoint(tmp, run, meta={"optimizer": [0.1, 0.9]}),
        1, "edited.npz entry 'optimizer' is malformed\n"),
    "checkpoint meta not JSON": (
        lambda tmp, run: _edited_checkpoint(tmp, run, raw_meta=b"not json"),
        1, "edited.npz entry 'meta' is not JSON: Expecting value"),
    "checkpoint layer narrower than the previous output": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"layer1.weight": np.ones((64, 5))}),
        1, "edited.npz entry 'layer1.weight' has shape (64, 5), expected out x 64"),
    "checkpoint bias of the wrong length": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"layer0.bias": np.zeros(5)}),
        1, "edited.npz entry 'layer0.bias' has shape (5,), expected (64,)"),
    "checkpoint momentum for no parameter": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"momentum:nonexistent": np.zeros(3)}),
        1, "edited.npz entry 'momentum:nonexistent' names no parameter"),
    "checkpoint momentum of the wrong shape": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"momentum:log_tau": np.zeros(3)}),
        1, "edited.npz entry 'momentum:log_tau' has shape (3,), expected (2,) like 'log_tau'"),
    "checkpoint log_tau of shape (3,)": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"log_tau": np.zeros(3)}),
        1, "edited.npz entry 'log_tau' has shape (3,), expected (2,)"),
    "NaN checkpoint log_tau": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"log_tau": np.array([np.nan, 0.0])}),
        1, "edited.npz entry 'log_tau' must hold finite floats"),
    "float16 checkpoint entry": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"log_tau": np.zeros(2, np.float16)}),
        1, "edited.npz entry 'log_tau' must hold finite floats (float64)"),
    "format-1 checkpoint": (
        lambda tmp, run: _edited_checkpoint(tmp, run, meta={"format": 1}),
        1, "edited.npz entry 'format' is 1, expected 2"),
    "checkpoint entry it does not read": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"junk": np.zeros(3)}),
        1, "edited.npz entry 'junk' is no parameter of the 3-layer model"
           " and no momentum buffer\n"),
    "checkpoint layer beyond num_layers": (
        lambda tmp, run: _edited_checkpoint(tmp, run, arrays={"layer7.weight": np.ones((3, 3))}),
        1, "edited.npz entry 'layer7.weight' is no parameter of the 3-layer model"
           " and no momentum buffer\n"),
    "checkpoint negative base_lr": (
        lambda tmp, run: _edited_optimizer(tmp, run, base_lr=-1.0),
        1, "edited.npz entry 'optimizer': base_lr must be positive, got -1.0\n"),
    "checkpoint momentum of 1": (
        lambda tmp, run: _edited_optimizer(tmp, run, momentum=1.0),
        1, "edited.npz entry 'optimizer': momentum must lie in [0, 1), got 1.0\n"),
    "checkpoint NaN weight_decay": (
        lambda tmp, run: _edited_optimizer(tmp, run, weight_decay=float("nan")),
        1, "edited.npz entry 'optimizer': weight_decay must be finite, got nan\n"),
    "checkpoint fractional restart_period": (
        lambda tmp, run: _edited_optimizer(tmp, run, restart_period=2.5),
        1, "edited.npz entry 'optimizer': restart_period must be an integer, got 2.5\n"),
    "checkpoint momentum as text": (
        lambda tmp, run: _edited_optimizer(tmp, run, momentum="0.9"),
        1, "edited.npz entry 'optimizer': momentum must be a real number, got '0.9'\n"),
    # the message ends with the path as given, here under the test's tmp dir
    "missing config file": (
        lambda tmp, run: ["train", "--config", str(tmp / "absent.cfg"), "--dataset",
                          str(run["dataset"]), "--out", str(tmp / "o")],
        1, "config file not found: "),
    "config line without =": (
        lambda tmp, run: _train_with(tmp, run, "epochs 2"),
        1, f"edited.cfg:{APPENDED}: expected 'key = value', got 'epochs 2'\n"),
    "repeated key in the config": (
        lambda tmp, run: _train_with(tmp, run, "lambda = 1.0\nlambda=2.0"),
        1, f"edited.cfg:{APPENDED + 1}: key 'lambda' repeats line {APPENDED}\n"),
    "NaN scale_jitter in the config": (
        lambda tmp, run: _train_with(tmp, run, "scale_jitter = nan"),
        1, "error: scale_jitter must be finite, got nan\n"),
    "scale_jitter of 1 in the config": (
        lambda tmp, run: _train_with(tmp, run, "scale_jitter = 1"),
        1, "error: scale_jitter must lie in [0, 1), got 1.0\n"),
    "NaN eta in the config": (
        lambda tmp, run: _train_with(tmp, run, "eta = nan"),
        1, "error: eta must be finite, got nan\n"),
    "diverging base_lr in the config": (
        lambda tmp, run: _train_with(tmp, run, "base_lr = 1e200"),
        2, "numerical abort: aborted at epoch 0, step 1:"
           " row_normalize received row 0 of norm inf\n"),
    # TrainConfig's field is lam; the file's key and the flag are lambda
    "negative lambda in the config": (
        lambda tmp, run: _train_with(tmp, run, "lambda = -1"),
        1, "error: lambda must be nonnegative, got -1.0\n"),
    "NaN lambda in the config": (
        lambda tmp, run: _train_with(tmp, run, "lambda = nan"),
        1, "error: lambda must be finite, got nan\n"),
    "negative lambda on train": (
        lambda tmp, run: _train_with(tmp, run, "", "--lambda", "-1"),
        1, "error: lambda must be nonnegative, got -1.0\n"),
    "NaN base_lr in the config": (
        lambda tmp, run: _train_with(tmp, run, "base_lr = nan"),
        1, "error: base_lr must be finite, got nan\n"),
    # the penalty's weight is fixed at 1 and the affinity diagonal always
    # masked: neither is a setting
    "penalty_rho in the config": (
        lambda tmp, run: _train_with(tmp, run, "penalty_rho = 2", "--orth-mode", "penalty"),
        1, f"edited.cfg:{APPENDED}: unknown config key 'penalty_rho'\n"),
    "keep_diagonal in the config": (
        lambda tmp, run: _train_with(tmp, run, "keep_diagonal = true"),
        1, f"edited.cfg:{APPENDED}: unknown config key 'keep_diagonal'\n"),
    "--keep-diagonal on train": (
        lambda tmp, run: _train_with(tmp, run, "", "--keep-diagonal"),
        1, "unrecognized arguments: --keep-diagonal\nusage: otsc [-h]"),
    "infinite eta on train": (
        lambda tmp, run: _train_with(tmp, run, "", "--eta", "inf"),
        1, "error: eta must be finite, got inf\n"),
    "NaN eta on ot-debug": (
        lambda tmp, run: _ot_debug(tmp, "--eta", "nan"),
        1, "error: eta must be finite, got nan\n"),
    "infinite eta on ot-debug": (
        lambda tmp, run: _ot_debug(tmp, "--eta", "inf"),
        1, "error: eta must be finite, got inf\n"),
    "eta of 0 on ot-debug": (
        lambda tmp, run: _ot_debug(tmp, "--eta", "0"), 1, "error: eta must be positive, got 0.0\n"),
    "negative eta on ot-debug": (
        lambda tmp, run: _ot_debug(tmp, "--eta", "-1"),
        1, "error: eta must be positive, got -1.0\n"),
    "iterations of 0 on ot-debug": (
        lambda tmp, run: _ot_debug(tmp, "--iterations", "0"),
        1, "error: iterations must be >= 1, got 0\n"),
    "sidecar not an object": (
        lambda tmp, run: _sidecar(tmp, b"[1, 2]"),
        1, "input.csv.meta.json: not a JSON object: [1, 2]\n"),
    "sidecar not JSON": (
        lambda tmp, run: _sidecar(tmp, b"name: x"),
        1, "input.csv.meta.json: not JSON: Expecting value: line 1 column 1 (char 0)\n"),
    "non-UTF-8 sidecar": (
        lambda tmp, run: _sidecar(tmp, b'{"name": "\xff"}'),
        1, "input.csv.meta.json: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
        " in position 10"),
    "sidecar name not a string": (
        lambda tmp, run: _sidecar(tmp, b'{"name": 5}'),
        1, "input.csv.meta.json: entry 'name' must be a string, got 5\n"),
    "fractional epochs in the config": (
        lambda tmp, run: _train_with(tmp, run, "epochs = 1.5"),
        1, f"edited.cfg:{APPENDED}: epochs: invalid literal for int() with base 10: '1.5'\n"),
    # the bounds that `off_diagonal`, `thin_svd` and `orthogonalize` trust
    "batch_size of 1 in the config": (
        lambda tmp, run: _train_with(tmp, run, "batch_size = 1"),
        1, "error: batch_size must be >= 2, got 1\n"),
    "embed_dim over half the batch in the config": (
        lambda tmp, run: _train_with(tmp, run, "embed_dim = 11"),
        1, "error: embed_dim must not exceed batch_size / 2\n"),
    "unknown orth_mode in the config": (
        lambda tmp, run: _train_with(tmp, run, "orth_mode = cayley"),
        1, f"error: orth_mode must be one of {TRAINER_ORTH_MODES}, got 'cayley'\n"),
    # qr, the QR orthonormalization, is no mode: each refusal lists the modes left
    "qr orth_mode in the config": (
        lambda tmp, run: _train_with(tmp, run, "orth_mode = qr"),
        1, "error: orth_mode must be one of ('procrustes', 'none', 'penalty'), got 'qr'\n"),
    "qr orth-mode on train": (
        lambda tmp, run: _train_with(tmp, run, "", "--orth-mode", "qr"),
        1, "argument --orth-mode: invalid choice: 'qr'"
           " (choose from 'procrustes', 'none', 'penalty')\nusage: otsc train [-h]"),
    "negative seed in the config": (
        lambda tmp, run: _train_with(tmp, run, "seed = -1"),
        1, "error: seed must be >= 0, got -1\n"),
    "negative seed on gen-dataset": (
        lambda tmp, run: _gen(tmp, "--seed", "-1"), 1, "error: seed must be >= 0, got -1\n"),
    "negative seed on baseline": (
        lambda tmp, run: _baseline("kmeans", str(run["dataset"]), "--seed", "-1"),
        1, "error: seed must be >= 0, got -1\n"),
    "NaN noise on gen-dataset": (
        lambda tmp, run: _gen(tmp, "--noise", "nan"), 1, "error: noise must be finite, got nan\n"),
    "infinite separation on gen-dataset": (
        lambda tmp, run: _gen(tmp, "--separation", "inf"),
        1, "error: separation must be finite, got inf\n"),
    "momentum of 1.5 in the config": (
        lambda tmp, run: _train_with(tmp, run, "momentum = 1.5"),
        1, "error: momentum must lie in [0, 1), got 1.5\n"),
    # the rest of TrainConfig's bounds, each read from a config line
    "num_clusters of 1 in the config": (
        lambda tmp, run: _train_with(tmp, run, "num_clusters = 1"),
        1, "error: num_clusters must be >= 2, got 1\n"),
    "zero embed_dim in the config": (
        lambda tmp, run: _train_with(tmp, run, "embed_dim = 0"),
        1, "error: embed_dim must be >= 1, got 0\n"),
    "negative epochs in the config": (
        lambda tmp, run: _train_with(tmp, run, "epochs = -1"),
        1, "error: epochs must be >= 0, got -1\n"),
    "zero eta in the config": (
        lambda tmp, run: _train_with(tmp, run, "eta = 0"),
        1, "error: eta must be positive, got 0.0\n"),
    "zero sinkhorn_iters in the config": (
        lambda tmp, run: _train_with(tmp, run, "sinkhorn_iters = 0"),
        1, "error: sinkhorn_iters must be >= 1, got 0\n"),
    "negative noise_sigma in the config": (
        lambda tmp, run: _train_with(tmp, run, "noise_sigma = -0.1"),
        1, "error: noise_sigma must be nonnegative, got -0.1\n"),
    "feature_dropout_prob of 1 in the config": (
        lambda tmp, run: _train_with(tmp, run, "feature_dropout_prob = 1"),
        1, "error: feature_dropout_prob must lie in [0, 1), got 1.0\n"),
    "zero tau_a_init in the config": (
        lambda tmp, run: _train_with(tmp, run, "tau_a_init = 0"),
        1, "error: tau_a_init must lie in (0, 1], got 0.0\n"),
    "tau_c_init above 1 in the config": (
        lambda tmp, run: _train_with(tmp, run, "tau_c_init = 1.5"),
        1, "error: tau_c_init must lie in (0, 1], got 1.5\n"),
    "negative weight_decay in the config": (
        lambda tmp, run: _train_with(tmp, run, "weight_decay = -0.1"),
        1, "error: weight_decay must be nonnegative, got -0.1\n"),
    "zero restart_period in the config": (
        lambda tmp, run: _train_with(tmp, run, "restart_period = 0"),
        1, "error: restart_period must be >= 1, got 0\n"),
    "checkpoint negative epoch": (
        lambda tmp, run: _edited_checkpoint(tmp, run, meta={"epoch": -3}),
        1, "edited.npz entry 'epoch' must be >= 0, got -3\n"),
    "checkpoint negative version": (
        lambda tmp, run: _edited_checkpoint(tmp, run, meta={"version": -5}),
        1, "edited.npz entry 'version' must be >= 0, got -5\n"),
    "plain .npy array as checkpoint": (
        _npy_checkpoint, 1, "checkpoint.npz is unreadable: not an .npz archive\n"),
    "ablate, which is no command": (
        lambda tmp, run: ["ablate", "--config", str(run["config"]), "--dataset",
                          str(run["dataset"]), "--out", str(tmp / "sweep"), "--sweep", "orth"],
        1, "argument command: invalid choice: 'ablate'"),
    "zero blob separation on gen-dataset": (
        lambda tmp, run: _gen(tmp, "--separation", "0"),
        1, "error: separation must be positive, got 0.0\n"),
    "zero blob dim on gen-dataset": (
        lambda tmp, run: _gen(tmp, "--dim", "0"), 1, "error: dim must be >= 1, got 0\n"),
    # sizes whose allocation fails outright: 3.55 PiB and 28.4 PiB exceed any address space
    "moons of 10^15 rows on gen-dataset": (
        lambda tmp, run: _gen(tmp, "--n", "1000000000000000", kind="moons"), 1,
        "error: Unable to allocate 3.55 PiB for an array with shape (500000000000000,)"
        " and data type float64\n"),
    "blobs of 10^15 features on gen-dataset": (
        lambda tmp, run: _gen(tmp, "--dim", "1000000000000000"), 1,
        "error: Unable to allocate 28.4 PiB for an array with shape (4, 1000000000000000)"
        " and data type float64\n"),
    "dim on moons": (
        lambda tmp, run: _gen(tmp, "--dim", "5", kind="moons"),
        1, "error: dim applies to blobs only\n"),
    "k on rings": (
        lambda tmp, run: _gen(tmp, "--k", "9", kind="rings"), 1, "error: k applies to blobs only\n"),
    "separation on moons": (
        lambda tmp, run: _gen(tmp, "--separation", "-3", kind="moons"),
        1, "error: separation applies to blobs only\n"),
    # the spectral baseline has one bandwidth rule, the self-tuning one
    "bandwidth-mode, which baseline does not take": (
        lambda tmp, run: _baseline("spectral", str(run["dataset"]), "--bandwidth-mode", "fixed"),
        1, "unrecognized arguments: --bandwidth-mode fixed\nusage: otsc [-h]"),
    "sigma, which baseline does not take": (
        lambda tmp, run: _baseline("spectral", str(run["dataset"]), "--sigma", "0.3"),
        1, "unrecognized arguments: --sigma 0.3\nusage: otsc [-h]"),
    "k-neighbor of 0 on spectral": (
        lambda tmp, run: _baseline("spectral", str(run["dataset"]), "--k-neighbor", "0"),
        1, "error: k_neighbor must be >= 1, got 0\n"),
    "k-neighbor of 2.5 on spectral": (
        lambda tmp, run: _baseline("spectral", str(run["dataset"]), "--k-neighbor", "2.5"),
        1, "argument --k-neighbor: invalid int value: '2.5'\nusage: otsc baseline [-h]"),
    # the trained run's dataset has 60 rows
    "k-neighbor of n on spectral": (
        lambda tmp, run: _baseline("spectral", str(run["dataset"]), "--k-neighbor", "60"),
        1, "error: k_neighbor must be smaller than the number of samples\n"),
    "k-neighbor on kmeans": (
        lambda tmp, run: _baseline("kmeans", str(run["dataset"]), "--k-neighbor", "0"),
        1, "error: --k-neighbor applies to --method spectral only\n"),
    "restarts on spectral": (
        lambda tmp, run: _baseline("spectral", str(run["dataset"]), "--restarts", "3"),
        1, "error: --restarts applies to --method kmeans only\n"),
    # ot-debug runs the fixed-count solver that training runs, and nothing else
    "variant, which ot-debug does not take": (
        lambda tmp, run: _ot_debug(tmp, "--variant", "marginal"),
        1, "unrecognized arguments: --variant marginal\nusage: otsc [-h]"),
    "tol, which ot-debug does not take": (
        lambda tmp, run: _ot_debug(tmp, "--tol", "1e-9"),
        1, "unrecognized arguments: --tol 1e-9\nusage: otsc [-h]"),
    "max-iter, which ot-debug does not take": (
        lambda tmp, run: _ot_debug(tmp, "--max-iter", "100"),
        1, "unrecognized arguments: --max-iter 100\nusage: otsc [-h]"),
}


class TestBadInputs:
    """Every bad input ends with exit status 1 or 2 and a message, never a
    traceback or a numpy warning: `main` returns instead of raising, and the
    suite turns any warning into an error. A needle that starts with the
    prefix is the whole of stderr."""

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_exit_status_and_message(self, case, tmp_path, trained_run, capsys):
        build, status, needle = BAD_INPUTS[case]
        argv = build(tmp_path, trained_run)
        capsys.readouterr()
        assert main(argv) == status
        err = capsys.readouterr().err
        prefix = "numerical abort: " if status == 2 else "error: "
        assert err.startswith(prefix) and needle in err
        assert err == needle or not needle.startswith(prefix)
        assert not (tmp_path / "g.csv").exists()  # a refused gen-dataset writes nothing

    def test_every_row_under_the_c_locale(self):
        # the rows again in a fresh pytest whose interpreter runs under the C
        # locale, with ASCII streams, as the CI step does for the whole file
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{Path(__file__).resolve()}::TestBadInputs::test_exit_status_and_message"],
            env={**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
            cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        assert f"{len(BAD_INPUTS)} passed" in done.stdout

    def test_eval_checks_labels_before_predict(self, tmp_path, trained_run, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("predict ran on a dataset without labels")

        monkeypatch.setattr("otsc.cli.predict", refuse)
        argv = ["eval", "--checkpoint", str(trained_run["checkpoint"]),
                "--dataset", _csv(tmp_path, "f0,f1", ["0,0", "1,1"])]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: dataset has no labels to evaluate against\n"
