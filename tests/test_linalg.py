"""The factorizations: `sym_eig` (the spectral baseline's eigensolve, for
symmetric matrices with eigenvalues at most 1), `thin_svd` and the polar
factor `orthogonalize` builds from it (the training step's). Each trusts its
caller for the shape of its input (square for `sym_eig`, tall for the
others) and for ``1 <= k <= n``; the refusal of what the numbers themselves
can break, an eigenvalue above 1, is tested with the spectral baseline."""

import numpy as np
import pytest

from oracles import eig_reconstruct, svd_reconstruct
from otsc.baselines import sym_eig
from otsc.spectral import orthogonalize, thin_svd


def polar(a):
    return orthogonalize(a).z_new


def random_symmetric(n, rng):
    """A random symmetric matrix scaled so its eigenvalues lie in [-1, 1],
    as `sym_eig` requires."""
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    return a / np.linalg.norm(a, 2)


class TestSymEig:
    def test_diagonal_input(self):
        evals, evecs, _ = sym_eig(np.diag([1.0, 0.2]), k=2)
        assert np.allclose(evals, [1.0, 0.2])
        assert np.allclose(np.abs(evecs), np.eye(2))

    def test_closed_form_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]]/3: (2/3-l)^2 - 1/9 = 0
        evals, _, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, k=2)
        assert np.allclose(evals, [1.0, 1.0 / 3.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(8, rng)
        evals, evecs, _ = sym_eig(a.copy(), k=8)
        assert np.abs(eig_reconstruct(evals, evecs) - a).max() <= 1e-8

    def test_sorted_nonincreasing_and_orthonormal(self):
        rng = np.random.default_rng(1)
        for n in (3, 8, 16, 64):
            evals, evecs, _ = sym_eig(random_symmetric(n, rng), k=n)
            assert (np.diff(evals) <= 1e-12).all()
            assert np.abs(evecs.T @ evecs - np.eye(n)).max() <= 1e-10

    def test_psd_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(10, 6))
        evals, _, _ = sym_eig(b.T @ b / np.linalg.norm(b, 2) ** 2, k=6)
        assert evals.min() >= -1e-10


class TestSymEigLeading:
    @pytest.mark.parametrize("k", [1, 2, 12])
    def test_matches_full_eigh(self, k):
        a = random_symmetric(12, np.random.default_rng(10))
        full_vals, full_vecs = np.linalg.eigh(a)  # ascending
        evals, evecs, _ = sym_eig(a, k=k)
        assert evals.shape == (k,) and evecs.shape == (12, k)
        assert np.abs(evals - full_vals[::-1][:k]).max() <= 1e-12
        got, want = evecs, full_vecs[:, ::-1][:, :k]
        assert np.linalg.norm(got @ got.T - want @ want.T, 2) <= 1e-10
        # distinct eigenvalues: each column matches its own up to sign
        assert np.abs(np.abs(np.sum(got * want, axis=0)) - 1.0).max() <= 1e-10

    def test_leading_pairs_descending(self):
        a = random_symmetric(40, np.random.default_rng(11))
        for k in (1, 3, 17, 40):
            evals, evecs, _ = sym_eig(a.copy(), k=k)
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



class TestPolarFactor:
    """`orthogonalize`: the polar factor q of z = q @ p, q column-orthonormal
    and p = q.T @ z symmetric positive semidefinite."""

    def test_identity(self):
        assert np.abs(polar(np.eye(3)) - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize(
        "z", [[[-0.94, 0.34], [0.87, 0.50]], [[2.0, -1.0], [0.5, 3.0]]], ids=["det<0", "det>0"]
    )
    def test_closed_form_2x2(self, z):
        # [[a, b], [c, d]] has the polar factor [[a+d, b-c], [c-b, a+d]] / r
        # (a rotation) if its determinant is positive, else the reflection
        # [[a-d, b+c], [b+c, d-a]] / r, r the norm of the first column
        (a, b), (c, d) = z
        if a * d - b * c > 0:
            want = np.array([[a + d, b - c], [c - b, a + d]])
        else:
            want = np.array([[a - d, b + c], [b + c, d - a]])
        want /= np.linalg.norm(want[:, 0])
        assert np.abs(polar(np.array(z)) - want).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(5, 3), (12, 4), (64, 64)])
    def test_reconstruction_with_a_psd_factor(self, shape):
        a = np.random.default_rng(5).normal(size=shape)
        q = polar(a)
        p = q.T @ a
        assert np.abs(q @ p - a).max() <= 1e-8 * max(np.abs(a).max(), 1.0)
        assert np.abs(q.T @ q - np.eye(shape[1])).max() <= 1e-10
        assert np.abs(p - p.T).max() <= 1e-10 * np.abs(p).max()
        assert np.linalg.eigvalsh(0.5 * (p + p.T)).min() >= -1e-10

    def test_square_input_gives_an_orthogonal_matrix(self):
        # B == D, the tightest shape training accepts: rows orthonormal too
        q = polar(np.random.default_rng(7).normal(size=(6, 6)))
        assert np.abs(q @ q.T - np.eye(6)).max() <= 1e-10

    def test_matches_inverse_square_root_form(self):
        # full column rank: q = z (z.T z)^(-1/2), the root from eigh
        z = np.random.default_rng(8).normal(size=(16, 4))
        evals, evecs = np.linalg.eigh(z.T @ z)
        want = z @ eig_reconstruct(evals**-0.5, evecs)
        assert np.abs(polar(z) - want).max() <= 1e-10

    def test_equivariant_under_orthogonal_maps(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(10, 3))
        u, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert np.abs(polar(u @ z @ v) - u @ polar(z) @ v).max() <= 1e-10

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_invariant_under_positive_scale(self, scale):
        z = np.random.default_rng(10).normal(size=(8, 2))
        assert np.abs(polar(scale * z) - polar(z)).max() <= 1e-10

    def test_rank_deficient_input_stays_column_orthonormal(self):
        # a rank-deficient z has a polar factor too, if not a unique one:
        # it warns, and training goes on
        a = np.ones((4, 2))  # second column dependent on first
        with pytest.warns(RuntimeWarning, match="ill-conditioned polar factor"):
            q = polar(a)
        assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-10
        assert np.abs(q @ (q.T @ a) - a).max() <= 1e-10
