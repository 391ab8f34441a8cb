import re
from numbers import Integral, Real

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otsc.data import Dataset, gen_dataset, load_dataset, read_csv, save_dataset
from otsc.errors import check_number

# every finite double: -0.0, subnormals and the largest magnitudes included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


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
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"noise": float("nan")}, "noise must be finite, got nan"),
        ({"noise": float("inf")}, "noise must be finite, got inf"),
        ({"separation": float("inf")}, "separation must be finite, got inf"),
        ({"separation": float("nan")}, "separation must be finite, got nan"),
        ({"noise": -0.1}, "noise must be nonnegative, got -0.1"),
        ({"k": 101}, "blobs need 2 <= k <= n"),
        ({"noise": True}, "noise must be a real number, got True"),
        ({"noise": "0.1"}, "noise must be a real number, got '0.1'"),
        ({"separation": "3"}, "separation must be a real number, got '3'"),
        ({"separation": False}, "separation must be a real number, got False"),
        ({"noise": 1}, None),
        ({"noise": np.float64(0.1), "separation": np.float32(3.0)}, None),
    ])
    def test_refuses_bad_settings_by_name(self, kwargs, message):
        settings = {"noise": 0.1, "seed": 0, **kwargs}
        if message is None:  # plain integers and numpy's reals are taken
            ds = gen_dataset("blobs", 100, **settings)
            floats = {key: float(value) for key, value in kwargs.items()}
            want = gen_dataset("blobs", 100, **{**settings, **floats})
            assert ds.name == want.name == "blobs-n100-s0"
            assert ds.features.tobytes() == want.features.tobytes()
            return
        with pytest.raises(ValueError) as info:
            gen_dataset("blobs", 100, **settings)
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"n": 100.0}, "n must be an integer, got 100.0"),
        ({"k": 2.0}, "k must be an integer, got 2.0"),
        ({"dim": 2.0}, "dim must be an integer, got 2.0"),
        ({"n": np.int64(100), "seed": np.int64(3), "k": np.int64(2), "dim": np.int64(3)}, None),
    ], ids=["float seed", "bool seed", "float n", "float k", "float dim", "numpy integers"])
    def test_refuses_a_non_integer_count_or_seed_by_name(self, kwargs, message):
        settings = {"n": 100, "seed": 3, "k": 2, "dim": 3, **kwargs}
        if message is None:
            ds = gen_dataset("blobs", noise=0.1, **settings)
            want = gen_dataset("blobs", 100, 0.1, 3, k=2, dim=3)
            assert ds.name == want.name == "blobs-n100-s3"
            assert ds.features.tobytes() == want.features.tobytes()
            return
        with pytest.raises(ValueError) as info:
            gen_dataset("blobs", noise=0.1, **settings)
        assert str(info.value) == message


    @pytest.mark.parametrize("kind", ["moons", "rings"])
    @pytest.mark.parametrize("name, value", [("k", 4), ("separation", 10.0), ("dim", 2)])
    def test_blob_settings_refused_for_other_kinds(self, kind, name, value):
        # even at the blobs default: the setting would be ignored
        with pytest.raises(ValueError) as info:
            gen_dataset(kind, 100, 0.1, 0, **{name: value})
        assert str(info.value) == f"{name} applies to blobs only"

    def test_blob_defaults(self):
        ds = gen_dataset("blobs", 100, 0.1, 0)
        assert ds.dim == 2 and ds.labels.max() == 3
        assert ds.features.tobytes() == gen_dataset(
            "blobs", 100, 0.1, 0, k=4, separation=10.0, dim=2
        ).features.tobytes()


class TestCheckNumber:
    # the one refusal of a bad scalar, which `gen_dataset` runs on each of
    # its arguments: the kind, then finiteness, then the range, by name

    @pytest.mark.parametrize("value, kind, bound, message", [
        (0, Integral, ">= 1", "x must be >= 1, got 0"),
        (0.0, Real, "> 0", "x must be positive, got 0.0"),
        (-0.5, Real, ">= 0", "x must be nonnegative, got -0.5"),
        (1.0, Real, "[0, 1)", "x must lie in [0, 1), got 1.0"),
        (0.0, Real, "(0, 1]", "x must lie in (0, 1], got 0.0"),
        (True, Integral, ">= 0", "x must be an integer, got True"),
        (False, Real, ">= 0", "x must be a real number, got False"),
        ("2", Real, "> 0", "x must be a real number, got '2'"),
        (float("nan"), Real, "[0, 1)", "x must be finite, got nan"),
        (float("-inf"), Real, None, "x must be finite, got -inf"),
    ])
    def test_refuses_in_order_with_one_vocabulary(self, value, kind, bound, message):
        with pytest.raises(ValueError) as info:
            check_number("x", value, kind, bound)
        assert str(info.value) == message

    @pytest.mark.parametrize("value, kind, bound", [
        (np.int64(1), Integral, ">= 1"), (np.float64(0.0), Real, "[0, 1)"),
        (1, Real, "(0, 1]"), (np.float64(1e300), Real, "> 0"), (10**400, Integral, ">= 10"),
    ])
    def test_takes_numpy_scalars_and_the_closed_ends(self, value, kind, bound):
        check_number("x", value, kind, bound)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = gen_dataset("blobs", 50, noise=0.7, seed=3, k=3, dim=3)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert (back.features == ds.features).all()
        assert (back.labels == ds.labels).all()
        assert back.name == "blobs-n50-s3"

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
                     labels=None)
        path = tmp_path / "u.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.labels is None
        assert (back.features == ds.features).all()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(features=arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
                           elements=FINITE),
           labeled=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(features=np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308],
                                [-1.7976931348623157e308, 4.9e-322]]), labeled=True, seed=0)
    @example(features=np.array([[-0.0], [5e-324], [-1.7976931348623157e308]]),
             labeled=False, seed=0)
    def test_round_trip_is_bitwise(self, tmp_path, features, labeled, seed):
        labels = None
        if labeled:
            draws = np.random.default_rng(seed).integers(0, 3, size=features.shape[0])
            labels = np.unique(draws, return_inverse=True)[1].reshape(-1)
        ds = Dataset(name="round-trip", features=features, labels=labels)
        path = tmp_path / "r.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.name == "round-trip"
        assert back.features.tobytes() == ds.features.tobytes()
        if labeled:
            assert back.labels.tobytes() == ds.labels.tobytes()
        else:
            assert back.labels is None

    def test_sidecar_holds_only_the_name(self, tmp_path):
        path = tmp_path / "m.csv"
        save_dataset(gen_dataset("moons", 20, noise=0.1, seed=7), path)
        assert (tmp_path / "m.csv.meta.json").read_text() == '{\n  "name": "moons-n20-s7"\n}\n'

    def test_header_names_are_stripped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("f0, label\n0.5, 0\n1.5 ,1\n", encoding="utf-8")
        back = load_dataset(path)
        assert back.features.tolist() == [[0.5], [1.5]]
        assert back.labels.tolist() == [0, 1]

    def test_read_csv_without_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# cost\n0.5,1 # inline\n\n2,-0.0\n", encoding="utf-8")
        names, values = read_csv(path, header=False)
        assert names is None
        assert values.tolist() == [[0.5, 1.0], [2.0, -0.0]]
        assert values.dtype == np.float64

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv")


class TestDatasetValidation:
    def test_labels_must_cover_range(self):
        with pytest.raises(ValueError):
            Dataset(name="bad", features=np.zeros((3, 2)),
                    labels=np.array([0, 2, 2]))

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            Dataset(name="bad", features=np.zeros((3, 2)),
                    labels=np.array([0, 1]))

    @pytest.mark.parametrize("body", ["", "\n", "\n# no rows\n"])
    def test_header_only_rejected_without_warning(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data rows$"):
            load_dataset(path)

    # blank and comment lines are no data rows; data rows count from 1 after
    # the header, and a column is named by its header name
    @pytest.mark.parametrize("rows, message", [
        ("0,0,0\n\n# note\n1,x,1\n2,2,1\n", "data row 2 has non-numeric entry 'x' in column f1"),
        ("0,0,0\n1,1,1\n2,2,y\n", "data row 3 has non-numeric entry 'y' in column label"),
        ("0,0,0\n\n1,1\n2,2,1\n", "data row 2 has 2 columns, expected 3"),
        ("0,0,0\n1,1,1\n2,2,1,5\n", "data row 3 has 4 columns, expected 3"),
        ("0,0\n1,1\n", "data row 1 has 2 columns, expected 3"),
        ("0,0,0\n1,inf,1\n", "data row 2 has non-finite entry inf in column f1"),
        ("0,0,0\n1,1,1\n-1e999,2,1\n", "data row 3 has non-finite entry -inf in column f0"),
        ("0,0,0\n1_0,1,1\n", "data row 2 has non-numeric entry '1_0' in column f0"),
        ("0,0,0\n1,\u0661,1\n", "data row 2 has non-numeric entry '\u0661' in column f1"),
    ])
    def test_unparsable_row_named_from_one_after_the_header(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: {message}"

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        # 1e+20 is integer-valued but beyond int64: no cast warning either;
        # a NaN or infinite label is refused as a non-finite entry
        for bad, message in [
            ("0.7", "non-integer label 0.7"), ("1e+20", "non-integer label 1e+20"),
            ("nan", "non-finite entry nan in column label"),
            ("inf", "non-finite entry inf in column label"),
        ]:
            path.write_text(f"f0,f1,label\n0,0,0\n1,1,{bad}\n2,2,1\n", encoding="utf-8")
            with pytest.raises(ValueError) as info:
                load_dataset(path)
            assert str(info.value) == f"{path}: data row 2 has {message}"
