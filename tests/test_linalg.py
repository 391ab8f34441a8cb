import numpy as np
import pytest

from oracles import eig_reconstruct, svd_reconstruct
from otsc.errors import RankError
from otsc.linalg import qr_decompose, sym_eig, thin_svd


def random_symmetric(n, rng):
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


class TestSymEig:
    def test_diagonal_input(self):
        res = sym_eig(np.diag([5.0, 1.0]))
        assert np.allclose(res.eigenvalues, [5.0, 1.0])
        assert np.allclose(np.abs(res.eigenvectors), np.eye(2))

    def test_closed_form_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0
        res = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(res.eigenvalues, [3.0, 1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(8, rng)
        res = sym_eig(a)
        assert np.abs(eig_reconstruct(res.eigenvalues, res.eigenvectors) - a).max() <= 1e-8

    def test_sorted_nonincreasing_and_orthonormal(self):
        rng = np.random.default_rng(1)
        for n in (3, 8, 16, 64):
            res = sym_eig(random_symmetric(n, rng))
            assert (np.diff(res.eigenvalues) <= 1e-12).all()
            q = res.eigenvectors
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-10

    def test_psd_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(10, 6))
        res = sym_eig(b.T @ b)
        assert res.eigenvalues.min() >= -1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSymEigLeading:
    @pytest.mark.parametrize("k", [1, 2, 12])
    def test_matches_full_eigh(self, k):
        a = random_symmetric(12, np.random.default_rng(10))
        evals, evecs = np.linalg.eigh(a)  # ascending
        res = sym_eig(a, k=k)
        assert res.eigenvalues.shape == (k,) and res.eigenvectors.shape == (12, k)
        assert np.abs(res.eigenvalues - evals[::-1][:k]).max() <= 1e-12
        got, want = res.eigenvectors, evecs[:, ::-1][:, :k]
        assert np.linalg.norm(got @ got.T - want @ want.T, 2) <= 1e-10
        # distinct eigenvalues: each column matches its own up to sign
        assert np.abs(np.abs(np.sum(got * want, axis=0)) - 1.0).max() <= 1e-10

    def test_leading_pairs_descending(self):
        a = random_symmetric(40, np.random.default_rng(11))
        for k in (1, 3, 17, 40, None):
            res = sym_eig(a, k=k)
            assert len(res.eigenvalues) == (40 if k is None else k)
            assert (np.diff(res.eigenvalues) <= 0).all()
            assert np.abs(a @ res.eigenvectors - res.eigenvectors * res.eigenvalues).max() <= 1e-10

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_rejects_k_outside_1_to_n(self, k):
        with pytest.raises(ValueError, match="1 <= k <= 5"):
            sym_eig(np.eye(5), k=k)


class TestThinSvd:
    def test_identity(self):
        res = thin_svd(np.eye(3))
        assert np.allclose(res.singular_values, 1.0)
        assert np.abs(res.u @ res.v.T - np.eye(3)).max() <= 1e-12

    def test_diagonal(self):
        res = thin_svd(np.diag([3.0, 2.0]))
        assert np.allclose(res.singular_values, [3.0, 2.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 3))
        res = thin_svd(a)
        rebuilt = svd_reconstruct(res.u, res.singular_values, res.v)
        assert np.abs(rebuilt - a).max() <= 1e-8 * np.abs(a).max()

    def test_factor_invariants(self):
        rng = np.random.default_rng(4)
        for m, n in ((5, 5), (12, 4), (64, 64)):
            a = rng.normal(size=(m, n))
            res = thin_svd(a)
            assert np.abs(res.u.T @ res.u - np.eye(n)).max() <= 1e-10
            assert np.abs(res.v.T @ res.v - np.eye(n)).max() <= 1e-10
            assert (np.diff(res.singular_values) <= 1e-12).all()
            assert res.singular_values.min() >= 0.0
            rebuilt = svd_reconstruct(res.u, res.singular_values, res.v)
            assert np.abs(rebuilt - a).max() <= 1e-8 * max(np.abs(a).max(), 1.0)

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match="transpose"):
            thin_svd(np.ones((2, 5)))


class TestQr:
    def test_identity(self):
        q, r = qr_decompose(np.eye(3))
        assert np.allclose(q, np.eye(3))
        assert np.allclose(r, np.eye(3))

    def test_reference_2x2_up_to_column_sign(self):
        z = np.array([[-0.94, 0.34], [0.87, 0.50]])
        q, r = qr_decompose(z)
        want = np.array([[0.74, 0.68], [-0.68, 0.74]])
        for col in range(2):
            delta = min(
                np.abs(q[:, col] - want[:, col]).max(),
                np.abs(q[:, col] + want[:, col]).max(),
            )
            assert delta <= 0.02
        assert (np.diag(r) >= 0).all()

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 3))
        q, r = qr_decompose(a)
        assert np.abs(q @ r - a).max() <= 1e-8
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-10
        assert np.abs(np.tril(r, -1)).max() == 0.0

    def test_reconstruction_up_to_64(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(64, 64))
        q, r = qr_decompose(a)
        assert np.abs(q @ r - a).max() <= 1e-8 * max(np.abs(a).max(), 1.0)

    def test_rank_deficient_raises(self):
        a = np.ones((4, 2))  # second column dependent on first
        with pytest.raises(RankError):
            qr_decompose(a)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            qr_decompose(np.ones((2, 4)))
