import numpy as np
import pytest

from oracles import full_spectrum_spectral
from otsc.baselines import SpectralConfig, _squared_distances, classical_spectral, kmeans_lloyd
from otsc.data import gen_dataset
from otsc.metrics import evaluate


def three_blobs(rng, n_per=60, sep=12.0, sigma=1.0):
    centers = np.array([[0.0, 0.0], [sep, 0.0], [0.0, sep]])
    xs, ys = [], []
    for c, center in enumerate(centers):
        xs.append(center + sigma * rng.standard_normal((n_per, 2)))
        ys.append(np.full(n_per, c))
    return np.concatenate(xs), np.concatenate(ys)


class TestKmeans:
    def test_single_cluster_is_mean_and_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        labels, centers, inertia = kmeans_lloyd(x, 1, restarts=3, seed=0)
        assert (labels == 0).all()
        assert np.allclose(centers[0], x.mean(axis=0))
        assert inertia == pytest.approx(((x - x.mean(0)) ** 2).sum(), rel=1e-12)

    def test_separated_blobs_exact(self):
        rng = np.random.default_rng(1)
        x, y = three_blobs(rng)  # separation 12 sigma
        labels, _, _ = kmeans_lloyd(x, 3, restarts=10, seed=0)
        assert evaluate(y, labels).acc == 1.0

    def test_inertia_nonincreasing_within_restart(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 2))
        # run Lloyd manually with the same update rule and track inertia
        centers = x[rng.choice(80, 4, replace=False)].copy()
        prev = np.inf
        for _ in range(20):
            d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            inertia = d2[np.arange(80), labels].sum()
            assert inertia <= prev + 1e-9
            prev = inertia
            for j in range(4):
                if (labels == j).any():
                    centers[j] = x[labels == j].mean(axis=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 2))
        a = kmeans_lloyd(x, 3, restarts=5, seed=11)
        b = kmeans_lloyd(x, 3, restarts=5, seed=11)
        assert (a[0] == b[0]).all()
        assert (a[1] == b[1]).all()
        assert a[2] == b[2]

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans_lloyd(np.zeros((3, 2)), 4)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            kmeans_lloyd(np.zeros((3, 2)), 2, seed=-1)

    def test_squared_distances_match_differences_and_stay_nonnegative(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
        d2 = _squared_distances(x, y)
        want = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        assert np.abs(d2 - want).max() <= 1e-12
        # a point and itself: rounding may go below 0, the clamp may not
        assert _squared_distances(x * 1e3, x * 1e3).min() >= 0.0


class TestClassicalSpectral:
    def test_two_far_blocks_recovered(self):
        # two groups so far apart the affinity is numerically block-diagonal
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 2))
        b = rng.normal(size=(30, 2)) + 500.0
        x = np.concatenate([a, b])
        y = np.concatenate([np.zeros(30, dtype=int), np.ones(30, dtype=int)])
        cfg = SpectralConfig(num_clusters=2, bandwidth_mode="fixed", sigma=1.0)
        labels, _ = classical_spectral(x, cfg, seed=0)
        assert evaluate(y, labels).acc == 1.0

    def test_rings_beat_kmeans(self):
        ds = gen_dataset("rings", 1000, noise=0.05, seed=5)
        cfg = SpectralConfig(num_clusters=2, bandwidth_mode="self_tuning", k_neighbor=7)
        labels, _ = classical_spectral(ds.features, cfg, seed=0)
        spectral_acc = evaluate(ds.labels, labels).acc
        km_labels, _, _ = kmeans_lloyd(ds.features, 2, restarts=10, seed=0)
        km_acc = evaluate(ds.labels, km_labels).acc
        assert spectral_acc >= 0.99
        assert km_acc <= 0.75

    def test_eigen_residuals(self):
        rng = np.random.default_rng(6)
        x, _ = three_blobs(rng, n_per=40, sep=8.0)
        cfg = SpectralConfig(num_clusters=3, bandwidth_mode="self_tuning", k_neighbor=7)
        _, embeddings = classical_spectral(x, cfg, seed=0)
        # rebuild the row-normalized affinity and check W v = lambda v
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        dist = np.sqrt(d2)
        local = np.sort(dist, axis=1)[:, 7]
        s = np.exp(-d2 / (local[:, None] * local[None, :]))
        np.fill_diagonal(s, 0.0)
        w = s / s.sum(axis=1, keepdims=True)
        for col in range(3):
            v = embeddings[:, col]
            wv = w @ v
            lam = float(v @ wv / (v @ v))
            assert np.abs(wv - lam * v).max() <= 1e-6

    def test_fixed_bandwidth_formula(self):
        # fixed-sigma mode must use exp(-d^2 / (2 sigma^2)) off-diagonal
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        cfg = SpectralConfig(num_clusters=2, bandwidth_mode="fixed", sigma=0.7)
        labels, _ = classical_spectral(x, cfg, seed=0)
        assert len(labels) == 3  # formula exercised without error

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_refused_by_name(self, sigma):
        with pytest.raises(ValueError, match=f"^sigma must be finite, got {sigma}$"):
            SpectralConfig(num_clusters=2, bandwidth_mode="fixed", sigma=sigma)

    def test_isolated_point_error(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [0.05, 0.1], [1e6, 1e6]])
        cfg = SpectralConfig(num_clusters=2, bandwidth_mode="fixed", sigma=0.1)
        with pytest.raises(ValueError, match="isolated"):
            classical_spectral(x, cfg, seed=0)

    @pytest.mark.parametrize("kind, n, k, seed", [
        # the benchmark's size once (two full 2000 x 2000 solves), the rest per seed
        ("moons", 2000, 2, 1),
        *[("rings", 1000, 2, seed) for seed in (1, 2, 3)],
        *[("blobs", 900, 4, seed) for seed in (1, 2, 3)],
    ])
    def test_labels_match_full_spectrum_reference(self, kind, n, k, seed):
        ds = gen_dataset(kind, n, noise=0.05, seed=seed)
        cfg = SpectralConfig(num_clusters=k)
        labels, _ = classical_spectral(ds.features, cfg, seed=0)
        assert np.array_equal(labels, full_spectrum_spectral(ds.features, cfg, seed=0))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x, _ = three_blobs(rng, n_per=30)
        cfg = SpectralConfig(num_clusters=3)
        a, ea = classical_spectral(x, cfg, seed=3)
        b, eb = classical_spectral(x, cfg, seed=3)
        assert (a == b).all()
        assert (ea == eb).all()

    def test_size_bound(self):
        cfg = SpectralConfig(num_clusters=2)
        with pytest.raises(ValueError, match="bound"):
            classical_spectral(np.zeros((5000, 2)), cfg)
