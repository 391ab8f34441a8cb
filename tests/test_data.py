import re
import warnings

import numpy as np
import pytest

from otsc.data import Dataset, gen_dataset, load_dataset, save_dataset


class TestGenerators:
    def test_moons_balanced(self):
        ds = gen_dataset("moons", 1000, noise=0.05, seed=0)
        assert ds.n == 1000
        assert ds.dim == 2
        counts = np.bincount(ds.labels)
        assert list(counts) == [500, 500]

    def test_rings_radii(self):
        ds = gen_dataset("rings", 600, noise=0.0, seed=1)
        radii = np.linalg.norm(ds.features, axis=1)
        assert np.allclose(np.unique(np.round(radii, 6)), [1.0, 3.0])

    def test_blobs_separation(self):
        ds = gen_dataset("blobs", 400, noise=1.0, seed=2, k=4, separation=10.0, dim=8)
        assert ds.dim == 8
        assert len(np.unique(ds.labels)) == 4
        centers = np.array([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        dists = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        assert dists[~np.eye(4, dtype=bool)].min() >= 8.0

    def test_deterministic_per_seed(self):
        a = gen_dataset("moons", 100, noise=0.1, seed=5)
        b = gen_dataset("moons", 100, noise=0.1, seed=5)
        assert (a.features == b.features).all()
        assert (a.labels == b.labels).all()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            gen_dataset("spirals", 100, 0.1, 0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_dataset("moons", 5, 0.1, 0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, "seed must be nonnegative"),
        ({"noise": float("nan")}, "noise must be finite, got nan"),
        ({"noise": float("inf")}, "noise must be finite, got inf"),
        ({"separation": float("inf")}, "separation must be finite, got inf"),
        ({"separation": float("nan")}, "separation must be finite, got nan"),
    ])
    def test_refuses_bad_settings_by_name(self, kwargs, message):
        settings = {"noise": 0.1, "seed": 0, **kwargs}
        with pytest.raises(ValueError) as info:
            gen_dataset("blobs", 100, **settings)
        assert str(info.value) == message


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = gen_dataset("blobs", 50, noise=0.7, seed=3, k=3, dim=3)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert (back.features == ds.features).all()
        assert (back.labels == ds.labels).all()
        assert back.generator_seed == 3

    def test_byte_identical_across_writes(self, tmp_path):
        ds = gen_dataset("rings", 40, noise=0.02, seed=4)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, tmp_path):
        ds = gen_dataset("moons", 20, noise=0.0, seed=0)
        path = tmp_path / "m.csv"
        save_dataset(ds, path)
        assert path.read_text().splitlines()[0] == "f0,f1,label"

    def test_unlabeled_round_trip(self, tmp_path):
        ds = Dataset(name="x", features=np.random.default_rng(0).normal(size=(7, 3)),
                     labels=None, generator_seed=-1)
        path = tmp_path / "u.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.labels is None
        assert (back.features == ds.features).all()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv")


class TestDatasetValidation:
    def test_labels_must_cover_range(self):
        with pytest.raises(ValueError):
            Dataset(name="bad", features=np.zeros((3, 2)),
                    labels=np.array([0, 2, 2]), generator_seed=0)

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            Dataset(name="bad", features=np.zeros((3, 2)),
                    labels=np.array([0, 1]), generator_seed=0)

    @pytest.mark.parametrize("body", ["", "\n", "\n# no rows\n"])
    def test_header_only_rejected_without_warning(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data rows$"):
                load_dataset(path)

    # the CLI's bad-input table covers the other sidecar refusals
    @pytest.mark.parametrize("sidecar, message", [
        ('{"generator_seed": 1.5}', "entry 'generator_seed' must be an integer, got 1.5"),
        ('{"generator_seed": true}', "entry 'generator_seed' must be an integer, got True"),
    ])
    def test_bad_sidecar_names_file_and_entry(self, tmp_path, sidecar, message):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n0,0,0\n1,1,1\n")
        (tmp_path / "d.csv.meta.json").write_text(sidecar)
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{tmp_path / 'd.csv.meta.json'}: {message}"

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        # 1e+20 is integer-valued but beyond int64: no cast warning either
        for bad in ("0.7", "nan", "inf", "1e+20"):
            path.write_text(f"f0,f1,label\n0,0,0\n1,1,{bad}\n2,2,1\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"data row 2 has non-integer label {re.escape(bad)}"):
                    load_dataset(path)
