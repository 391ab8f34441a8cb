import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import otsc.baselines
from oracles import (
    full_spectrum_spectral,
    unclamped_gaussian_affinity,
    whole_plane_gaussian_affinity,
)
from otsc.baselines import (
    AFFINITY_CUT,
    AFFINITY_FLOOR,
    AFFINITY_MAX_N,
    TILE,
    SpectralConfig,
    _gaussian_affinity,
    _squared_distances,
    classical_spectral,
    kmeans_lloyd,
    sym_eig,
)
from otsc.data import gen_dataset
from otsc.errors import NumericalError
from otsc.metrics import evaluate

COMPONENTS_ABOVE_K = "the affinity graph has more connected components than K="


def three_blobs(rng, n_per=60, sep=12.0, sigma=1.0):
    centers = np.array([[0.0, 0.0], [sep, 0.0], [0.0, sep]])
    xs, ys = [], []
    for c, center in enumerate(centers):
        xs.append(center + sigma * rng.standard_normal((n_per, 2)))
        ys.append(np.full(n_per, c))
    return np.concatenate(xs), np.concatenate(ys)


def on_cpus(monkeypatch, cpus):
    """Let the process see ``cpus`` CPUs and return the set of threads that
    run `_gaussian_affinity`'s row panels: two when a worker takes half."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    threads, both_halves = set(), otsc.baselines.both_halves

    def recorded(fn, worker):
        def half(h):
            threads.add(threading.get_ident())
            return fn(h)

        return both_halves(half, worker)

    monkeypatch.setattr("otsc.baselines.both_halves", recorded)
    return threads


def normalized_conjugate(x, cfg):
    """D^-1/2 S D^-1/2 of the spectral baseline's Gaussian affinity S."""
    s = _gaussian_affinity(x, cfg)
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
    conjugate = s * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (conjugate + conjugate.T)


class TestSymEigOnAffinities:
    """`sym_eig` on the matrices the spectral baseline hands it, against the
    full spectrum from `np.linalg.eigh`."""

    @pytest.mark.parametrize("kind, n, k, sigma", [
        ("moons", 1000, 3, None), ("rings", 1000, 3, None), ("blobs", 900, 5, None),
        # four components, then lambda_5 = 0.06 over a flat rest near 0.002,
        # which the shifted inverse alone separates by 6% a sweep
        ("blobs", 900, 5, 0.2),
    ])
    def test_matches_full_eigh(self, kind, n, k, sigma):
        ds = gen_dataset(kind, n, noise=0.05, seed=1)
        mode = "self_tuning" if sigma is None else "fixed"
        a = normalized_conjugate(ds.features, SpectralConfig(k - 1, mode, sigma))
        full_vals = np.linalg.eigvalsh(a)[::-1]
        evals, evecs = sym_eig(a.copy(), k=k)
        assert np.abs(evals - full_vals[:k]).max() <= 1e-12
        assert np.linalg.norm(a @ evecs - evecs * evals, axis=0).max() <= 1e-12
        assert np.abs(evecs.T @ evecs - np.eye(k)).max() <= 1e-12

    def test_near_degenerate_pair_of_moons(self):
        # lambda_1 - lambda_2 = 2.6e-8, lambda_2 - lambda_3 = 5.0e-4
        ds = gen_dataset("moons", 1000, noise=0.04, seed=2)
        a = normalized_conjugate(ds.features, SpectralConfig(num_clusters=2))
        full_vals, full_vecs = np.linalg.eigh(a)
        assert full_vals[-1] - full_vals[-2] <= 3e-8
        evals, evecs = sym_eig(a.copy(), k=3)
        assert np.abs(evals - full_vals[::-1][:3]).max() <= 1e-12
        assert np.linalg.norm(a @ evecs - evecs * evals, axis=0).max() <= 1e-12
        # the pair is resolved only as a subspace: compare its projectors
        got, want = evecs[:, :2], full_vecs[:, -2:]
        assert np.linalg.norm(got @ got.T - want @ want.T, 2) <= 1e-10

    def test_eigenvalue_above_one_refused(self):
        with pytest.raises(ValueError, match="^sym_eig input has an eigenvalue above 1"):
            sym_eig(np.diag([1.5, 0.5, 0.2]), k=1)

    def test_sweep_cap_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr("otsc.baselines.EIG_MAX_SWEEPS", 1)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(40, 40))
        a = 0.5 * (a + a.T)
        with pytest.raises(NumericalError, match="^sym_eig did not converge in 1 sweeps"):
            sym_eig(a / np.linalg.norm(a, 2), k=2)


class TestTiles:
    """The tile pairs through which `classical_spectral` symmetrizes, on an
    n that is not a multiple of TILE and on n at each tile edge. `sym_eig`
    trusts what it is handed, so its input is checked here: finite, exactly
    symmetric, and k = min(K + 1, n)."""

    N = 300  # two full tile rows, then a partial one

    @pytest.fixture(scope="class")
    def moons(self):
        return gen_dataset("moons", self.N, noise=0.05, seed=1).features

    def test_classical_spectral_hands_sym_eig_the_full_plane_form(self, moons, monkeypatch):
        assert self.N % TILE and self.N > 2 * TILE
        handed = []

        def capture(a, k):
            handed.append((a.copy(), k))
            return sym_eig(a, k)

        monkeypatch.setattr("otsc.baselines.sym_eig", capture)
        cfg = SpectralConfig(num_clusters=2)
        classical_spectral(moons, cfg, seed=0)
        ((a, k),) = handed
        assert k == 3  # K + 1, to test eigenvalue K + 1 for extra components
        assert a.shape == (self.N, self.N) and np.isfinite(a).all()
        assert np.array_equal(a, a.T)
        # 0.5 * (c + c.T) of c = D^-1/2 S D^-1/2, over the whole plane at once
        assert np.array_equal(a, normalized_conjugate(moons, cfg))

    @pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE])
    def test_the_plane_is_exactly_symmetric_at_each_tile_edge(self, n, monkeypatch):
        x = gen_dataset("moons", n, noise=0.05, seed=1).features
        handed = []

        def capture(a, k):
            handed.append(a.copy())
            return sym_eig(a, k)

        monkeypatch.setattr("otsc.baselines.sym_eig", capture)
        cfg = SpectralConfig(num_clusters=2)
        classical_spectral(x, cfg, seed=0)
        (a,) = handed
        assert np.array_equal(a, a.T)
        assert np.array_equal(a, normalized_conjugate(x, cfg))

    @pytest.mark.parametrize("clusters, n", [(2, 40), (4, 5), (3, 3)])
    def test_sym_eig_is_asked_for_k_plus_one_pairs_at_most_n(self, clusters, n, monkeypatch):
        # eigenvalue K + 1 tells of extra components; at n = K there is none
        x = np.random.default_rng(2).normal(size=(n, 2))
        asked = []

        def capture(a, k):
            asked.append(k)
            return sym_eig(a, k)

        monkeypatch.setattr("otsc.baselines.sym_eig", capture)
        cfg = SpectralConfig(num_clusters=clusters, bandwidth_mode="fixed", sigma=1.0)
        labels, _ = classical_spectral(x, cfg, seed=0)
        assert asked == [min(clusters + 1, n)]
        assert labels.shape == (n,)


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

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_sigma_whose_width_is_not_a_normal_double_refused_by_name(self, sigma):
        # 2 sigma^2 overflows to inf at 1e200 and underflows to 0 at 1e-200
        message = f"sigma must make 2 sigma^2 a finite positive normal double, got {sigma!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpectralConfig(num_clusters=2, bandwidth_mode="fixed", sigma=sigma)

    @pytest.mark.parametrize("sigma", [1e150, 1e-150])
    def test_sigma_with_a_normal_width_accepted(self, sigma):
        assert SpectralConfig(num_clusters=2, bandwidth_mode="fixed", sigma=sigma).sigma == sigma

    def test_sigma_refused_under_self_tuning(self):
        with pytest.raises(ValueError, match="^sigma applies to bandwidth_mode 'fixed' only$"):
            SpectralConfig(num_clusters=2, sigma=0.5)

    def test_k_neighbor_refused_under_a_fixed_bandwidth(self):
        message = "^k_neighbor applies to bandwidth_mode 'self_tuning' only$"
        with pytest.raises(ValueError, match=message):
            SpectralConfig(num_clusters=2, bandwidth_mode="fixed", sigma=0.3, k_neighbor=7)

    def test_k_neighbor_resolves_to_7_under_self_tuning_only(self):
        assert SpectralConfig(num_clusters=2).k_neighbor == 7
        assert SpectralConfig(num_clusters=2, k_neighbor=3).k_neighbor == 3
        assert SpectralConfig(num_clusters=2, bandwidth_mode="fixed", sigma=0.3).k_neighbor is None

    def test_negative_seed_refused_before_the_affinity(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the affinity was built for a refused seed")

        monkeypatch.setattr("otsc.baselines._gaussian_affinity", refuse)
        x, _ = three_blobs(np.random.default_rng(7), n_per=10)
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            classical_spectral(x, SpectralConfig(num_clusters=3), seed=-1)

    def test_affinity_sets_entries_below_the_floor_to_zero(self):
        # exp(-300) stays; exp(-400) < 2^-511, and exp(-720) is subnormal
        x = np.array([[0.0, 0.0], [np.sqrt(600.0), 0.0], [0.0, np.sqrt(800.0)],
                      [0.0, -np.sqrt(1440.0)]])
        s = _gaussian_affinity(x, SpectralConfig(num_clusters=2, bandwidth_mode="fixed",
                                                 sigma=1.0))
        assert s[0, 1] == pytest.approx(np.exp(-300.0), rel=1e-12)
        assert s[0, 2] == 0.0 and s[0, 3] == 0.0
        assert not ((s > 0) & (s < AFFINITY_FLOOR)).any()

    def test_cut_lies_between_the_floor_and_the_subnormals(self):
        # a clamped entry is still set to 0, and its exp stays off the slow path
        assert np.finfo(np.float64).tiny <= np.exp(-AFFINITY_CUT) < AFFINITY_FLOOR

    @pytest.mark.parametrize("kind, sigma", [
        ("moons", None), ("rings", None), ("blobs", None),
        ("moons", 0.05), ("rings", 0.05), ("blobs", 0.5),
    ])
    def test_affinity_matches_the_unclamped_oracle(self, kind, sigma):
        x = gen_dataset(kind, 500, noise=0.05, seed=1).features
        d2 = _squared_distances(x, x)
        if sigma is None:
            cfg = SpectralConfig(num_clusters=2)
            local = np.sqrt(np.sort(d2, axis=1)[:, cfg.k_neighbor])
            width = np.outer(local, local)
        else:
            cfg = SpectralConfig(num_clusters=2, bandwidth_mode="fixed", sigma=sigma)
            width = 2.0 * sigma**2
        # 34-85% of the quotients are clamped in these cases
        assert (d2 / width > AFFINITY_CUT).mean() > 0.3
        want = unclamped_gaussian_affinity(d2, width, AFFINITY_FLOOR)
        assert np.array_equal(_gaussian_affinity(x, cfg), want)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kind, n, sigma", [
        ("moons", 2000, None), ("rings", 777, None), ("blobs", 1500, None), ("moons", 2000, 0.05),
        ("rings", 256, None),
    ])
    def test_affinity_bitwise_equal_to_the_whole_plane_formula(self, kind, n, sigma, cpus,
                                                               monkeypatch):
        # n = 777 ends on a partial row panel; n = 256 is one panel, which
        # no worker shares
        threads = on_cpus(monkeypatch, cpus)
        x = gen_dataset(kind, n, noise=0.05, seed=1).features
        mode = "self_tuning" if sigma is None else "fixed"
        cfg = SpectralConfig(num_clusters=2, bandwidth_mode=mode, sigma=sigma)
        want = whole_plane_gaussian_affinity(x, cfg)
        assert _gaussian_affinity(x, cfg).tobytes() == want.tobytes()
        assert len(threads) == (1 if n <= 256 else cpus)

    def test_worker_bitwise_equals_serial_under_frequent_switches(self, monkeypatch):
        # labels and embeddings on 1 CPU, on 2, and on 2 with a 1 us switch
        # interval, which interleaves the two threads as often as Python allows
        x = gen_dataset("rings", 777, noise=0.05, seed=1).features
        cfg = SpectralConfig(num_clusters=2)
        runs, before = [], sys.getswitchinterval()
        for cpus, interval in ((1, before), (2, before), (2, 1e-6)):
            with monkeypatch.context() as m:
                threads = on_cpus(m, cpus)
                sys.setswitchinterval(interval)
                try:
                    labels, embeddings = classical_spectral(x, cfg, seed=0)
                finally:
                    sys.setswitchinterval(before)
            assert len(threads) == cpus
            runs.append((labels.tobytes(), embeddings.tobytes()))
        assert runs[0] == runs[1] == runs[2]

    def test_duplicate_points_refused_after_the_worker_is_joined(self, monkeypatch):
        # eight copies of one point in the worker's panel (rows 163-325 of
        # three): its 7th neighbor is itself
        threads = on_cpus(monkeypatch, 2)
        x = gen_dataset("moons", 400, noise=0.05, seed=1).features
        x[200:208] = x[200]
        before = threading.active_count()
        with pytest.raises(ValueError, match="^duplicate points collapse the self-tuning bandwidth$"):
            classical_spectral(x, SpectralConfig(num_clusters=2), seed=0)
        assert len(threads) == 2
        assert threading.active_count() == before

    def test_affinity_at_the_floor_and_the_cut_matches_the_unclamped_oracle(self):
        # quotients d2 / 2 from the origin at sigma = 1: exp(-354) stays above
        # the floor, exp(-354.5) and exp(-359.9) fall below it unclamped, 360
        # sits at the cut, 361 and 720 are clamped
        x = np.array([[0.0, 0.0, 0.0], [26.0, 4.0, 4.0], [22.0, 15.0, 0.0],
                      [np.sqrt(719.8), 0.0, 0.0], [24.0, 12.0, 0.0], [19.0, 19.0, 0.0],
                      [36.0, 12.0, 0.0]])
        d2 = _squared_distances(x, x)
        q = d2[0, 1:] / 2.0
        np.testing.assert_allclose(q, [354.0, 354.5, 359.9, 360.0, 361.0, 720.0], rtol=1e-15)
        assert q[3] == 360.0
        s = _gaussian_affinity(x, SpectralConfig(num_clusters=2, bandwidth_mode="fixed",
                                                 sigma=1.0))
        assert np.array_equal(s, unclamped_gaussian_affinity(d2, 2.0, AFFINITY_FLOOR))
        assert s[0, 1] == np.exp(-354.0) and not s[0, 2:].any()

    def test_components_above_k_refused(self):
        # four separated blobs: eigenvalue 1 has multiplicity 4 > K = 3
        ds = gen_dataset("blobs", 900, noise=0.05, seed=1)
        with pytest.raises(ValueError, match=f"^{COMPONENTS_ABOVE_K}3$"):
            classical_spectral(ds.features, SpectralConfig(num_clusters=3), seed=0)

    @pytest.mark.parametrize("n, seed", [(1000, 1), (1000, 2), (1000, 3), (200, 2)])
    def test_components_above_k_refused_whatever_the_basis(self, n, seed):
        # a narrow fixed bandwidth on overlapping blobs: lambda_5 is 1 within
        # rounding, and no row of the embedding need be exactly 0; at n = 200,
        # 30 eigenvalues lie within 1e-8 of 1, more than the first block holds
        ds = gen_dataset("blobs", n, noise=3.0, seed=seed)
        cfg = SpectralConfig(num_clusters=4, bandwidth_mode="fixed", sigma=0.2)
        with pytest.raises(ValueError, match=f"^{COMPONENTS_ABOVE_K}4$"):
            classical_spectral(ds.features, cfg, seed=0)

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

    def test_second_run_allocates_one_square_plane(self):
        n = 1000
        x = gen_dataset("moons", n, noise=0.05, seed=1).features
        cfg = SpectralConfig(num_clusters=2)
        classical_spectral(x, cfg, seed=0)  # scipy loaded before the trace
        tracemalloc.start()
        try:
            classical_spectral(x, cfg, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the affinity is factored in place: an eigensolve that copies it
        # for the Cholesky factor peaks above two n x n planes
        assert peak < 1.5 * n * n * 8

    def test_size_bound(self, monkeypatch):
        # refused before the n x n affinity is built; n = 4096 gets as far as it
        def affinity_reached(*args):
            raise LookupError("affinity reached")

        monkeypatch.setattr("otsc.baselines._gaussian_affinity", affinity_reached)
        x = np.random.default_rng(7).normal(size=(AFFINITY_MAX_N + 1, 2))
        cfg = SpectralConfig(num_clusters=2)
        message = "the spectral baseline builds an n x n affinity; n = 4097 exceeds 4096"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classical_spectral(x, cfg)
        with pytest.raises(LookupError, match="^affinity reached$"):
            classical_spectral(x[:-1], cfg)
