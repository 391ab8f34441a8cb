"""The factorizations: `sym_eig` (the spectral baseline's eigensolve, for
symmetric matrices with eigenvalues at most 1), `thin_svd` and the QR route
of `orthogonalize` (the training step's). Each trusts its caller for the
shape of its input (square for `sym_eig`, tall for the others) and for
``1 <= k <= n``, so only the refusals of what the numbers themselves can
break are tested here: an eigenvalue above 1, a rank-deficient QR input."""

import numpy as np
import pytest

from oracles import eig_reconstruct, svd_reconstruct
from otsc.baselines import sym_eig
from otsc.errors import NumericalError
from otsc.spectral import orthogonalize, thin_svd


def qr_q(a):
    return orthogonalize(a, "qr").z_new


def random_symmetric(n, rng):
    """A random symmetric matrix scaled so its eigenvalues lie in [-1, 1],
    as `sym_eig` requires."""
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    return a / np.linalg.norm(a, 2)


class TestSymEig:
    def test_diagonal_input(self):
        evals, evecs = sym_eig(np.diag([1.0, 0.2]), k=2)
        assert np.allclose(evals, [1.0, 0.2])
        assert np.allclose(np.abs(evecs), np.eye(2))

    def test_closed_form_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]]/3: (2/3-l)^2 - 1/9 = 0
        evals, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, k=2)
        assert np.allclose(evals, [1.0, 1.0 / 3.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(8, rng)
        evals, evecs = sym_eig(a.copy(), k=8)
        assert np.abs(eig_reconstruct(evals, evecs) - a).max() <= 1e-8

    def test_sorted_nonincreasing_and_orthonormal(self):
        rng = np.random.default_rng(1)
        for n in (3, 8, 16, 64):
            evals, evecs = sym_eig(random_symmetric(n, rng), k=n)
            assert (np.diff(evals) <= 1e-12).all()
            assert np.abs(evecs.T @ evecs - np.eye(n)).max() <= 1e-10

    def test_psd_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(10, 6))
        evals, _ = sym_eig(b.T @ b / np.linalg.norm(b, 2) ** 2, k=6)
        assert evals.min() >= -1e-10


class TestSymEigLeading:
    @pytest.mark.parametrize("k", [1, 2, 12])
    def test_matches_full_eigh(self, k):
        a = random_symmetric(12, np.random.default_rng(10))
        full_vals, full_vecs = np.linalg.eigh(a)  # ascending
        evals, evecs = sym_eig(a, k=k)
        assert evals.shape == (k,) and evecs.shape == (12, k)
        assert np.abs(evals - full_vals[::-1][:k]).max() <= 1e-12
        got, want = evecs, full_vecs[:, ::-1][:, :k]
        assert np.linalg.norm(got @ got.T - want @ want.T, 2) <= 1e-10
        # distinct eigenvalues: each column matches its own up to sign
        assert np.abs(np.abs(np.sum(got * want, axis=0)) - 1.0).max() <= 1e-10

    def test_leading_pairs_descending(self):
        a = random_symmetric(40, np.random.default_rng(11))
        for k in (1, 3, 17, 40):
            evals, evecs = sym_eig(a.copy(), k=k)
            assert len(evals) == k
            assert (np.diff(evals) <= 0).all()
            assert np.abs(a @ evecs - evecs * evals).max() <= 1e-10


class TestThinSvd:
    def test_identity(self):
        u, s, vt = thin_svd(np.eye(3))
        assert np.allclose(s, 1.0)
        assert np.abs(u @ vt - np.eye(3)).max() <= 1e-12

    def test_diagonal(self):
        _, s, _ = thin_svd(np.diag([3.0, 2.0]))
        assert np.allclose(s, [3.0, 2.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 3))
        u, s, vt = thin_svd(a)
        rebuilt = svd_reconstruct(u, s, vt)
        assert np.abs(rebuilt - a).max() <= 1e-8 * np.abs(a).max()

    def test_factor_invariants(self):
        rng = np.random.default_rng(4)
        for m, n in ((5, 5), (12, 4), (64, 64)):
            a = rng.normal(size=(m, n))
            u, s, vt = thin_svd(a)
            assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-10
            assert np.abs(vt @ vt.T - np.eye(n)).max() <= 1e-10
            assert (np.diff(s) <= 1e-12).all()
            assert s.min() >= 0.0
            rebuilt = svd_reconstruct(u, s, vt)
            assert np.abs(rebuilt - a).max() <= 1e-8 * max(np.abs(a).max(), 1.0)


class TestQr:
    """The QR route of `orthogonalize`: the reduced Q factor, column signs
    fixed so that diag(q) >= 0."""

    def test_identity(self):
        assert np.allclose(qr_q(np.eye(3)), np.eye(3))

    def test_reference_2x2_up_to_column_sign(self):
        z = np.array([[-0.94, 0.34], [0.87, 0.50]])
        q = qr_q(z)
        want = np.array([[0.74, 0.68], [-0.68, 0.74]])
        for col in range(2):
            delta = min(
                np.abs(q[:, col] - want[:, col]).max(),
                np.abs(q[:, col] + want[:, col]).max(),
            )
            assert delta <= 0.02
        assert (np.diag(q) >= 0).all()

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 3))
        q = qr_q(a)
        assert np.abs(q @ (q.T @ a) - a).max() <= 1e-8
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-10
        assert (np.diag(q) >= 0).all()

    def test_reconstruction_up_to_64(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(64, 64))
        q = qr_q(a)
        assert np.abs(q @ (q.T @ a) - a).max() <= 1e-8 * max(np.abs(a).max(), 1.0)
        assert np.abs(q.T @ q - np.eye(64)).max() <= 1e-10
        assert (np.diag(q) >= 0).all()

    def test_rank_deficient_raises(self):
        a = np.ones((4, 2))  # second column dependent on first
        with pytest.raises(NumericalError) as info:
            qr_q(a)
        # a numerical event: fit aborts on it and the CLI exits 2
        assert str(info.value) == "qr input is numerically rank-deficient"
