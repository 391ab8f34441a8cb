import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

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
    COMPONENT_TOL,
    EIG_TOL,
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


def far_groups(groups: int, size: int, seed: int) -> np.ndarray:
    """``groups`` clusters of ``size`` standard normal points in the plane,
    their centers 1000 apart on a line: every affinity across groups falls
    below the floor."""
    rng = np.random.default_rng(seed)
    centers = np.stack([1000.0 * np.arange(groups), np.zeros(groups)], axis=1)
    return (centers[:, None, :] + rng.standard_normal((groups, size, 2))).reshape(-1, 2)


def paired_points(points) -> np.ndarray:
    """The origin and integer ``points``, each given a partner along one
    extra axis: 1 from the origin, 2 from each point. Under ``k_neighbor =
    1`` the origin's bandwidth is 1 and each point's 2, so the origin's
    quotient with point i, in column 2 + 2 i, is |p_i|^2 / 2 exactly."""
    centers = np.vstack([np.zeros(len(points[0])), points])
    rows = []
    for c, lift in zip(centers, [1.0] + [2.0] * len(points)):
        rows += [np.append(c, 0.0), np.append(c, lift)]
    return np.array(rows)


def normalized_conjugate(x, cfg):
    """D^-1/2 S D^-1/2 of the spectral baseline's Gaussian affinity S."""
    s = _gaussian_affinity(x, cfg)
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
    conjugate = s * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (conjugate + conjugate.T)


def spectrum_around(rest) -> np.ndarray:
    """Q diag(1, 1, rest) Q^T, exactly symmetric, for a fixed-seed orthogonal Q."""
    n = 2 + len(rest)
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(n, n)))
    a = (q * np.concatenate([[1.0, 1.0], rest])) @ q.T
    return 0.5 * (a + a.T)


def reaches_the_cut(a, k) -> bool:
    """Whether eigenvalue k + 1 of ``a``, by `np.linalg.eigvalsh`, lies at
    or above 1 - COMPONENT_TOL: the ``extra`` that `sym_eig` must return."""
    return bool(np.linalg.eigvalsh(a)[::-1][k] >= 1.0 - COMPONENT_TOL)


class TestSymEigOnAffinities:
    """`sym_eig` on the matrices the spectral baseline hands it, asked for
    K pairs, against the full spectrum from `np.linalg.eigh`."""

    @pytest.mark.parametrize("kind, n, k, k_neighbor", [
        ("moons", 1000, 2, 7), ("rings", 1000, 2, 7), ("blobs", 900, 4, 7),
        # each point's bandwidth spans its whole blob (224 of the other
        # points): four components, then lambda_5 = 0.096 over a rest near
        # 0.02, which the shifted inverse alone separates by 8% a sweep
        ("blobs", 900, 4, 224),
        # wider bandwidths: lambda_2 of moons is 1 - 9.4e-6, and rings put
        # two eigenvalues at 1 above a pair 3.3e-4 apart
        ("moons", 1000, 2, 15), ("rings", 1000, 2, 15),
    ])
    def test_matches_full_eigh(self, kind, n, k, k_neighbor):
        ds = gen_dataset(kind, n, noise=0.05, seed=1)
        a = normalized_conjugate(ds.features, SpectralConfig(k, k_neighbor))
        full_vals = np.linalg.eigvalsh(a)[::-1]
        evals, evecs, extra = sym_eig(a.copy(), k=k)
        assert np.abs(evals - full_vals[:k]).max() <= 1e-12
        assert np.linalg.norm(a @ evecs - evecs * evals, axis=0).max() <= 1e-12
        assert np.abs(evecs.T @ evecs - np.eye(k)).max() <= 1e-12
        assert extra is reaches_the_cut(a, k) is False

    def test_near_degenerate_pair_of_moons(self):
        # lambda_1 - lambda_2 = 2.6e-8, lambda_2 - lambda_3 = 5.0e-4
        ds = gen_dataset("moons", 1000, noise=0.04, seed=2)
        a = normalized_conjugate(ds.features, SpectralConfig(num_clusters=2))
        full_vals, full_vecs = np.linalg.eigh(a)
        assert full_vals[-1] - full_vals[-2] <= 3e-8
        evals, evecs, extra = sym_eig(a.copy(), k=2)
        assert np.abs(evals - full_vals[::-1][:2]).max() <= 1e-12
        assert np.linalg.norm(a @ evecs - evecs * evals, axis=0).max() <= 1e-12
        assert extra is reaches_the_cut(a, 2) is False
        # the pair is resolved only as a subspace: compare its projectors
        got, want = evecs, full_vecs[:, -2:]
        assert np.linalg.norm(got @ got.T - want @ want.T, 2) <= 1e-10

    @pytest.mark.parametrize("kind, n, k, noise", [
        ("blobs", 900, 4, 0.05), ("moons", 1000, 2, 0.04),
    ])
    def test_two_sweeps_suffice_when_pair_k_plus_one_is_decided(self, kind, n, k, noise,
                                                                monkeypatch):
        # blobs take 8 sweeps and moons 3 to converge pair K + 1 too, but
        # its Ritz bracket lies below the cut after the first
        monkeypatch.setattr("otsc.baselines.EIG_MAX_SWEEPS", 2)
        ds = gen_dataset(kind, n, noise=noise, seed=1)
        a = normalized_conjugate(ds.features, SpectralConfig(k))
        full_vals, full_vecs = np.linalg.eigh(a)
        evals, evecs, extra = sym_eig(a.copy(), k=k)
        assert np.abs(evals - full_vals[::-1][:k]).max() <= 1e-12
        assert np.linalg.norm(a @ evecs - evecs * evals, axis=0).max() <= 1e-12
        assert extra is reaches_the_cut(a, k) is False
        want = full_vecs[:, -k:]
        assert np.linalg.norm(evecs @ evecs.T - want @ want.T, 2) <= 1e-10

    def test_eigenvalue_above_one_refused(self):
        with pytest.raises(ValueError, match="^sym_eig input has an eigenvalue above 1"):
            sym_eig(np.diag([1.5, 0.5, 0.2]), k=1)

    def test_sweep_cap_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr("otsc.baselines.EIG_MAX_SWEEPS", 1)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(40, 40))
        a = 0.5 * (a + a.T)
        # the message names the worst residual of the k pairs
        message = r"^sym_eig did not converge in 1 sweeps: residual \S+ > 1e-13$"
        with pytest.raises(NumericalError, match=message):
            sym_eig(a / np.linalg.norm(a, 2), k=2)

    def test_sweep_cap_names_an_undecided_pair_k_plus_one(self, monkeypatch):
        # with the cut moved to 0.5, inside a cluster of 62 eigenvalues in
        # [0.49, 0.5005]: pairs 1 and 2, at 1, converge in one sweep, and
        # pair 3's Ritz value lies below the cut within its residual
        monkeypatch.setattr("otsc.baselines.EIG_MAX_SWEEPS", 1)
        monkeypatch.setattr("otsc.baselines.COMPONENT_TOL", 0.5)
        a = spectrum_around(np.linspace(0.5005, 0.49, 62))
        message = (r"^sym_eig did not converge in 1 sweeps: pair 3 has Ritz value 0\.49\d+ "
                   r"and residual \S+, which straddle 1 - 0\.5$")
        with pytest.raises(NumericalError, match=message):
            sym_eig(a, k=2)


class TestSymEigDecision:
    """Eigenvalue K + 1 on either side of the cut 1 - COMPONENT_TOL, with
    K = 2 eigenvalues at 1 and the rest spread over [-0.5, 0.3]."""

    N, K = 64, 2

    @pytest.mark.parametrize("third, extra", [
        (1.0, True), (1.0 - 1e-11, True), (1.0 - 1e-9, False), (0.9999, False), (0.5, False),
    ])
    def test_eigenvalue_k_plus_one_either_side_of_the_cut(self, third, extra):
        a = spectrum_around(np.concatenate([[third], np.linspace(0.3, -0.5, self.N - 3)]))
        assert reaches_the_cut(a, self.K) is extra
        evals, evecs, got = sym_eig(a.copy(), k=self.K)
        assert got is extra
        assert np.abs(evals - 1.0).max() <= 1e-12
        assert np.linalg.norm(a @ evecs - evecs * evals, axis=0).max() <= 1e-12

    def test_block_doubles_while_its_last_ritz_value_lies_within_the_band(self, monkeypatch):
        # 15 eigenvalues at 1 - j * 1e-8 below the K at 1: the block of
        # K + 1 + EIG_PAD = 11 columns holds only Ritz values within
        # EIG_BAND of 1, so it doubles once, to 22
        rest = np.concatenate([1.0 - 1e-8 * np.arange(1, 16), np.linspace(0.3, -0.5, 183)])
        a = spectrum_around(rest)
        widths, cho_solve = [], scipy.linalg.cho_solve

        def spy(factor, block, **kwargs):
            widths.append(block.shape[1])
            return cho_solve(factor, block, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_solve", spy)
        evals, evecs, extra = sym_eig(a.copy(), k=self.K)
        assert widths == [11, 11, 22, 22] and extra is False
        assert np.abs(evals - np.linalg.eigvalsh(a)[::-1][: self.K]).max() <= 1e-14
        assert np.linalg.norm(a @ evecs - evecs * evals, axis=0).max() <= EIG_TOL

    def test_k_of_n_has_no_pair_k_plus_one(self):
        a = spectrum_around(np.concatenate([[1.0], np.linspace(0.3, -0.5, self.N - 3)]))
        evals, evecs, extra = sym_eig(a.copy(), k=self.N)
        assert extra is False
        assert np.abs(evals - np.linalg.eigvalsh(a)[::-1]).max() <= 1e-12
        assert np.linalg.norm(a @ evecs - evecs * evals, axis=0).max() <= EIG_TOL


class TestTiles:
    """The tile pairs through which `classical_spectral` symmetrizes, on an
    n that is not a multiple of TILE and on n at each tile edge. `sym_eig`
    trusts what it is handed, so its input is checked here: finite, exactly
    symmetric, and k = K."""

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
        assert k == 2  # K: sym_eig itself tells whether eigenvalue K + 1 reaches the cut
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
    def test_sym_eig_is_asked_for_k_pairs(self, clusters, n, monkeypatch):
        # eigenvalue K + 1 tells of extra components; at n = K there is none
        x = np.random.default_rng(2).normal(size=(n, 2))
        asked = []

        def capture(a, k):
            asked.append(k)
            return sym_eig(a, k)

        monkeypatch.setattr("otsc.baselines.sym_eig", capture)
        cfg = SpectralConfig(num_clusters=clusters, k_neighbor=min(7, n - 1))
        labels, _ = classical_spectral(x, cfg, seed=0)
        assert asked == [clusters]
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
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            kmeans_lloyd(np.zeros((3, 2)), 2, seed=-1)

    @pytest.mark.parametrize("settings, message", [
        ({"k": 2.0}, "k must be an integer, got 2.0"),
        ({"k": True}, "k must be an integer, got True"),
        ({"restarts": 1.5}, "restarts must be an integer, got 1.5"),
        ({"restarts": True}, "restarts must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
    ])
    def test_non_integer_argument_refused_by_name(self, settings, message):
        x = np.random.default_rng(3).normal(size=(20, 2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kmeans_lloyd(x, **{"k": 2, **settings})

    @pytest.mark.parametrize("x, settings, message", [
        (np.zeros(4), {}, "x must be a 2-D matrix, got shape (4,)"),
        (np.zeros((0, 2)), {}, "x must be non-empty"),
        ([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]], {},
         "x contains non-finite entries, first at [1, 0]"),
        (np.zeros((3, 2)), {"k": 0}, "k must be >= 1, got 0"),
        (np.zeros((3, 2)), {"restarts": 0}, "restarts must be >= 1, got 0"),
    ], ids=["1-D", "empty", "NaN", "k of 0", "no restart"])
    def test_bad_input_refused_by_name(self, x, settings, message):
        with pytest.raises(ValueError) as info:
            kmeans_lloyd(x, **{"k": 2, **settings})
        assert str(info.value) == message

    def test_equal_rows_seed_without_distance_weights(self):
        # every D^2 weight is 0, so k-means++ draws its later centers
        # uniformly, and Lloyd re-seeds the clusters left empty
        labels, centers, inertia = kmeans_lloyd(np.full((6, 2), 3.0), 3, restarts=2, seed=0)
        assert (centers == 3.0).all() and inertia == 0.0
        assert labels.shape == (6,) and set(labels) <= {0, 1, 2}

    def test_emptied_cluster_is_reseeded_at_the_farthest_point(self, monkeypatch):
        # a seed center far from every point takes no member; it moves to
        # [3, 0], the point farthest from its assigned center [0, 0]
        monkeypatch.setattr(otsc.baselines, "_kmeans_plusplus_seed",
                            lambda x, k, rng: np.array([[0.0, 0.0], [100.0, 100.0]]))
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        labels, centers, inertia = kmeans_lloyd(x, 2, restarts=1)
        assert labels.tolist() == [0, 0, 0, 1]
        assert centers.tolist() == [[1.0, 0.0], [3.0, 0.0]] and inertia == 2.0

    def test_numpy_integers_accepted(self):
        x = np.random.default_rng(3).normal(size=(60, 2))
        got = kmeans_lloyd(x, np.int64(3), restarts=np.int32(5), seed=np.int64(11))
        want = kmeans_lloyd(x, 3, restarts=5, seed=11)
        assert np.array_equal(got[0], want[0]) and got[2] == want[2]

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
        labels, _ = classical_spectral(x, SpectralConfig(num_clusters=2), seed=0)
        assert evaluate(y, labels).acc == 1.0

    def test_rings_beat_kmeans(self):
        ds = gen_dataset("rings", 1000, noise=0.05, seed=5)
        cfg = SpectralConfig(num_clusters=2, k_neighbor=7)
        labels, _ = classical_spectral(ds.features, cfg, seed=0)
        spectral_acc = evaluate(ds.labels, labels).acc
        km_labels, _, _ = kmeans_lloyd(ds.features, 2, restarts=10, seed=0)
        km_acc = evaluate(ds.labels, km_labels).acc
        assert spectral_acc >= 0.99
        assert km_acc <= 0.75

    def test_eigen_residuals(self):
        rng = np.random.default_rng(6)
        x, _ = three_blobs(rng, n_per=40, sep=8.0)
        cfg = SpectralConfig(num_clusters=3, k_neighbor=7)
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

    def test_k_neighbor_defaults_to_7(self):
        assert SpectralConfig(num_clusters=2).k_neighbor == 7
        assert SpectralConfig(num_clusters=2, k_neighbor=3).k_neighbor == 3

    @pytest.mark.parametrize("num_clusters, k_neighbor, message", [
        (1, 7, "num_clusters must be >= 2, got 1"), (2, 0, "k_neighbor must be >= 1, got 0"),
    ])
    def test_config_bounds_refused(self, num_clusters, k_neighbor, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SpectralConfig(num_clusters, k_neighbor)

    @pytest.mark.parametrize("settings, message", [
        ({"k_neighbor": 2.5}, "k_neighbor must be an integer, got 2.5"),
        ({"k_neighbor": "7"}, "k_neighbor must be an integer, got '7'"),
        ({"k_neighbor": True}, "k_neighbor must be an integer, got True"),
        ({"num_clusters": 3.0}, "num_clusters must be an integer, got 3.0"),
    ])
    def test_non_integer_setting_refused_by_name(self, settings, message):
        # refused by the config, before np.partition can raise a TypeError
        # that names no field
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpectralConfig(**{"num_clusters": 2, **settings})

    def test_numpy_integers_accepted(self):
        x, _ = three_blobs(np.random.default_rng(7), n_per=20)
        cfg = SpectralConfig(num_clusters=np.int64(3), k_neighbor=np.int32(5))
        labels, _ = classical_spectral(x, cfg, seed=0)
        want, _ = classical_spectral(x, SpectralConfig(num_clusters=3, k_neighbor=5), seed=0)
        assert np.array_equal(labels, want)

    @pytest.mark.parametrize("setting", [{"bandwidth_mode": "fixed"}, {"sigma": 0.3}])
    def test_fixed_bandwidth_settings_are_no_fields(self, setting):
        # the self-tuning affinity is the one rule: nothing selects another
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            SpectralConfig(num_clusters=2, **setting)

    def test_k_neighbor_of_n_refused_before_the_affinity(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the affinity was built for a refused k_neighbor")

        monkeypatch.setattr("otsc.baselines._gaussian_affinity", refuse)
        x = np.random.default_rng(7).normal(size=(7, 2))
        message = "^k_neighbor must be smaller than the number of samples$"
        with pytest.raises(ValueError, match=message):
            classical_spectral(x, SpectralConfig(num_clusters=2), seed=0)

    def test_negative_seed_refused_before_the_affinity(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the affinity was built for a refused seed")

        monkeypatch.setattr("otsc.baselines._gaussian_affinity", refuse)
        x, _ = three_blobs(np.random.default_rng(7), n_per=10)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            classical_spectral(x, SpectralConfig(num_clusters=3), seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_refused_by_name_before_the_affinity(self, seed, monkeypatch):
        def refuse(*args):
            raise AssertionError("the affinity was built for a refused seed")

        monkeypatch.setattr("otsc.baselines._gaussian_affinity", refuse)
        x, _ = three_blobs(np.random.default_rng(7), n_per=10)
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
            classical_spectral(x, SpectralConfig(num_clusters=3), seed=seed)

    def test_affinity_sets_entries_below_the_floor_to_zero(self):
        # quotients 300, 400 and 720 from the origin: exp(-300) stays;
        # exp(-400) < 2^-511, and exp(-720) is subnormal
        x = paired_points([[20, 14, 2], [20, 20, 0], [36, 12, 0]])
        s = _gaussian_affinity(x, SpectralConfig(num_clusters=2, k_neighbor=1))
        assert s[0, 2] == np.exp(-300.0)
        assert s[0, 4] == 0.0 and s[0, 6] == 0.0
        assert not ((s > 0) & (s < AFFINITY_FLOOR)).any()

    def test_cut_lies_between_the_floor_and_the_subnormals(self):
        # a clamped entry is still set to 0, and its exp stays off the slow path
        assert np.finfo(np.float64).tiny <= np.exp(-AFFINITY_CUT) < AFFINITY_FLOOR

    @pytest.mark.parametrize("kind, k_neighbor", [
        ("moons", 7), ("rings", 7), ("blobs", 7), ("moons", 1), ("rings", 1), ("blobs", 1),
    ])
    def test_affinity_matches_the_unclamped_oracle(self, kind, k_neighbor):
        x = gen_dataset(kind, 500, noise=0.05, seed=1).features
        d2 = _squared_distances(x, x)
        cfg = SpectralConfig(num_clusters=2, k_neighbor=k_neighbor)
        local = np.sqrt(np.sort(d2, axis=1)[:, cfg.k_neighbor])
        width = np.outer(local, local)
        # more than 30% of the quotients are clamped in these cases
        assert (d2 / width > AFFINITY_CUT).mean() > 0.3
        want = unclamped_gaussian_affinity(d2, width, AFFINITY_FLOOR)
        assert np.array_equal(_gaussian_affinity(x, cfg), want)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kind, n, k_neighbor", [
        ("moons", 2000, 7), ("rings", 777, 7), ("blobs", 1500, 7), ("moons", 2000, 1),
        ("rings", 256, 7),
    ])
    def test_affinity_bitwise_equal_to_the_whole_plane_formula(self, kind, n, k_neighbor, cpus,
                                                               monkeypatch):
        # n = 777 ends on a partial row panel; n = 256 is one panel, which
        # no worker shares
        threads = on_cpus(monkeypatch, cpus)
        x = gen_dataset(kind, n, noise=0.05, seed=1).features
        cfg = SpectralConfig(num_clusters=2, k_neighbor=k_neighbor)
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
        # quotients from the origin: exp(-354) stays above the floor,
        # exp(-354.5) and exp(-359.5) fall below it unclamped, 360 sits at
        # the cut, 361 and 720 are clamped
        x = paired_points([[26, 4, 4, 0], [22, 15, 0, 0], [26, 5, 3, 3], [24, 12, 0, 0],
                           [19, 19, 0, 0], [36, 12, 0, 0]])
        d2 = _squared_distances(x, x)
        local = np.sqrt(np.sort(d2, axis=1)[:, 1])
        assert np.array_equal(local, [1.0] * 2 + [2.0] * 12)
        width = np.outer(local, local)
        assert np.array_equal(d2[0, 2::2] / width[0, 2::2], [354, 354.5, 359.5, 360, 361, 720])
        s = _gaussian_affinity(x, SpectralConfig(num_clusters=2, k_neighbor=1))
        assert np.array_equal(s, unclamped_gaussian_affinity(d2, width, AFFINITY_FLOOR))
        assert s[0, 2] == np.exp(-354.0) and not s[0, 4::2].any()

    def test_components_above_k_refused(self):
        # four separated blobs: eigenvalue 1 has multiplicity 4 > K = 3
        ds = gen_dataset("blobs", 900, noise=0.05, seed=1)
        with pytest.raises(ValueError, match=f"^{COMPONENTS_ABOVE_K}3$"):
            classical_spectral(ds.features, SpectralConfig(num_clusters=3), seed=0)

    @pytest.mark.parametrize("groups, size, seed", [(5, 200, 1), (5, 200, 2), (5, 200, 3),
                                                    (25, 8, 2)])
    def test_components_above_k_refused_whatever_the_basis(self, groups, size, seed):
        # groups far apart against their points' 7th-neighbor distances:
        # lambda_5 is 1 within rounding, and no row of the embedding need be
        # exactly 0; 25 groups put 25 eigenvalues at 1, more than the first
        # block holds
        x = far_groups(groups, size, seed)
        with pytest.raises(ValueError, match=f"^{COMPONENTS_ABOVE_K}4$"):
            classical_spectral(x, SpectralConfig(num_clusters=4), seed=0)

    def test_isolated_point_error(self):
        # an outlier: its bandwidth is wide, but each other point's is
        # narrow, so its quotients d^2 / (local_i local_j) are about d / local_j
        x = np.vstack([np.random.default_rng(8).normal(size=(20, 2)) * 0.1, [[1e3, 1e3]]])
        with pytest.raises(ValueError, match=r"^point 20 is isolated \(zero affinity row\)$"):
            classical_spectral(x, SpectralConfig(num_clusters=2), seed=0)

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
