import warnings

import numpy as np
import pytest

from oracles import (
    TAU_INIT,
    as_factors,
    central_difference,
    mask_off_diagonal,
    mask_scatter_off_diagonal,
    masked_softmax_cross_entropy,
    plan_of,
    plan_softmax_cross_entropy,
    random_stochastic,
    rel_error,
    two_exp_cross_entropy,
    two_product_affinity_grad,
    two_step_affinity_cross_entropy,
    unit_rows,
)
from otsc import network as net
from otsc.errors import NumericalError
from otsc.spectral import (
    off_diagonal,
    orthogonal_penalty,
    orthogonalize,
    row_normalize,
    row_normalize_vjp,
    softmax_cross_entropy,
)
from otsc.trainer import TRAINER_ORTH_MODES, TrainConfig, _compute_step, _straight_through
from otsc.transport import sinkhorn_algorithm1

FIG_Z = np.array([[-0.94, 0.34], [0.87, 0.50]])


def masked_target(rng, b):
    """A random row-stochastic B x B target with a zero diagonal."""
    return mask_scatter_off_diagonal(random_stochastic(rng, (b, b - 1)))


def plane_cross_entropy(target, logits, tau):
    """`softmax_cross_entropy` of a finite plane of logits L as the bilinear
    L @ I.T: (loss, d/dL), the z gradient being then the logit gradient
    (softmax - target) / tau."""
    eye = np.eye(logits.shape[1])
    loss, grad, _ = softmax_cross_entropy(as_factors(target), logits.copy(), logits, eye, tau)
    return loss, grad


def affinity_loss(target, logits, z, tau):
    """The trainer's affinity loss call, y = z: (loss, grad_z + grad_y)."""
    loss, grad_z, grad_y = softmax_cross_entropy(as_factors(target), logits, z, z, tau)
    return loss, grad_z + grad_y


def assert_chains_logit_gradient(target, logits, z, tau):
    """grad_z + grad_y at y = z equals A @ z + A.T @ z, the two plain
    products, of the B x B logit gradient A of the masked cross entropy."""
    _, want = masked_softmax_cross_entropy(target, logits.copy(), tau)
    _, grad = affinity_loss(target, logits, z, tau)
    assert rel_error(grad, two_product_affinity_grad(want, z)) <= 1e-15


def assert_close_to_two_step(got, want, z, tau):
    """The loss within 1e-13 relative (of at least 1: a masked B = 2 loss is
    0 up to rounding) and the gradient within 1e-14 relative to the larger
    of its own size and max|z| / tau, the size of the two terms it is the
    difference of (they cancel where the softmax nears the target)."""
    (loss, grad), (want_loss, want_grad) = got, want
    assert abs(loss - want_loss) <= 1e-13 * max(abs(want_loss), 1.0)
    scale = max(np.abs(want_grad).max(), np.abs(z).max() / tau)
    assert np.abs(grad - want_grad).max() <= 1e-14 * scale


def affinity_case(rng, b, d):
    """Unit rows ``z``, their logits z @ z.T with the diagonal masked, and a
    random target of that layout."""
    z = unit_rows(rng, b, d)
    return z, off_diagonal(z @ z.T), masked_target(rng, b)


def encoder_view(seed, orth_mode="procrustes"):
    """A small model, a batch, and its config, for the trainer's view encoding."""
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(num_clusters=2, embed_dim=3, batch_size=8, orth_mode=orth_mode)
    return net.init_model(4, 3, 2, rng, TAU_INIT, hidden=(6,)), rng.normal(size=(8, 4)), cfg


def straight_through_view(model, x, cfg):
    """One view as the trainer encodes it: (z_raw, straight-through
    residual, straight-through value)."""
    z_raw, _ = net.forward(model, x)
    _, resid, z = _straight_through(z_raw, cfg)
    return z_raw, resid, z


def step_affinity_targets(seed=11):
    """``(orth_mode, target)`` for both affinity targets that one training
    step holds, in every orth mode, each formed as a plan from its factors."""
    for mode in TRAINER_ORTH_MODES:
        model, x1, cfg = encoder_view(seed, mode)
        x2 = x1 + 0.1 * np.random.default_rng(seed + 1).normal(size=x1.shape)
        _, _, (_, affinity_targets, _) = _compute_step(model, x1, x2, cfg)
        for target in affinity_targets:
            yield mode, plan_of(target)


class TestCrossAffinity:
    """Cross affinity as the trainer builds it: ``off_diagonal(z @ z.T)``,
    the similarities with the diagonal masked to -inf in place."""

    def test_two_samples(self):
        rng = np.random.default_rng(0)
        z = unit_rows(rng, 2, 3)
        w = off_diagonal(z @ z.T)
        dot = float(z[0] @ z[1])
        assert w.shape == (2, 2)
        assert (np.diag(w) == -np.inf).all()
        assert np.allclose(mask_off_diagonal(w), [[dot], [dot]])

    def test_identical_rows_give_ones(self):
        z = np.tile(np.array([[0.6, 0.8]]), (4, 1))
        assert np.abs(mask_off_diagonal(off_diagonal(z @ z.T)) - 1.0).max() <= 1e-12

    def test_orthogonal_rows_give_zeros(self):
        z = np.eye(3)
        assert np.abs(mask_off_diagonal(off_diagonal(z @ z.T))).max() == 0.0

    def test_preserves_column_order(self):
        # masking moves nothing: column j of every row is sample j
        rng = np.random.default_rng(1)
        z = unit_rows(rng, 5, 4)
        w = off_diagonal(z @ z.T)
        sims = z @ z.T
        for i in range(5):
            cols = [j for j in range(5) if j != i]
            assert np.allclose(w[i, cols], sims[i, cols])

    @pytest.mark.parametrize("b", [2, 3, 17, 100])
    def test_strided_view_bitwise_equals_mask_form(self, b):
        rng = np.random.default_rng(b)
        square = rng.normal(size=(b, b))
        want = np.where(np.eye(b, dtype=bool), -np.inf, square)
        assert off_diagonal(square.copy()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [2, 17])
    def test_out_forms_bitwise_equal_and_return_out(self, b):
        # the matrix is its own out: masked in place and returned
        rng = np.random.default_rng(b)
        square = rng.normal(size=(b, b))
        before = square.copy()
        assert off_diagonal(square) is square
        assert mask_off_diagonal(square).tobytes() == mask_off_diagonal(before).tobytes()
        assert (np.diag(square) == -np.inf).all()

    def test_requires_unit_rows(self):
        # the logits are cosine similarities only if the trainer hands the
        # affinity unit-norm rows, whatever the orthogonalization mode
        for mode in TRAINER_ORTH_MODES:
            model, x, cfg = encoder_view(0, mode)
            z = straight_through_view(model, x, cfg)[2]
            assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() <= 1e-14, mode
            assert np.abs(mask_off_diagonal(z @ z.T)).max() <= 1.0 + 1e-14, mode


class TestAffinityLoss:
    """The affinity loss is `softmax_cross_entropy` on the masked logits
    z @ z.T, with y = z: the row-softmax cross entropy chained to both
    factors, whose gradients add into the embedding gradient."""

    def test_minimum_at_target_with_entropy_value(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 4))
        tau = 0.3
        scaled = logits / tau
        p = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        loss, grad = plane_cross_entropy(p, logits, tau)
        assert np.abs(grad).max() <= 1e-12
        entropy = float(-(p * np.log(p)).sum())
        assert abs(loss - entropy) <= 1e-10

    def test_single_column_degenerate(self):
        # B = 2 leaves one unmasked entry per row; softmax of one entry is 1,
        # so loss and gradient are 0 up to the rounding of the two z0 . z1
        tau = 0.05
        z = unit_rows(np.random.default_rng(2), 2, 3)
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss, grad = affinity_loss(target, off_diagonal(z @ z.T), z, tau)
        assert abs(loss) <= 1e-15 / tau
        assert np.abs(grad).max() <= 1e-15 / tau

    @pytest.mark.parametrize("b", [2, 17, 100])
    def test_masked_diagonal_matches_packed_form(self, b):
        # the masked B x B form against the B x (B-1) off-diagonal form of
        # the same logits and targets, its logit gradient scattered back and
        # chained to z: same loss and gradient, no NaN from 0 * -inf
        rng = np.random.default_rng(b)
        z = unit_rows(rng, b, 3)
        packed_target = random_stochastic(rng, (b, b - 1))
        want_loss, packed_grad = two_exp_cross_entropy(
            packed_target, mask_off_diagonal(z @ z.T), 0.1
        )
        want_grad = two_product_affinity_grad(mask_scatter_off_diagonal(packed_grad), z)
        got = affinity_loss(
            mask_scatter_off_diagonal(packed_target), off_diagonal(z @ z.T), z, 0.1
        )
        assert_close_to_two_step(got, (want_loss, want_grad), z, 0.1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(8, 7))
        target = random_stochastic(rng, (8, 7))
        tau = 0.4
        loss, grad = plane_cross_entropy(target, logits, tau)
        fd = central_difference(lambda l: plane_cross_entropy(target, l, tau)[0], logits)
        assert np.abs(grad - fd).max() <= 1e-6

    def test_two_term_decomposition(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 5))
        target = random_stochastic(rng, (6, 5))
        tau = 0.25
        loss, _ = plane_cross_entropy(target, logits, tau)
        scaled = logits / tau
        shift = scaled.max(axis=1, keepdims=True)
        logsumexp = (shift + np.log(np.exp(scaled - shift).sum(axis=1, keepdims=True))).sum()
        direct = -(target * scaled).sum() + logsumexp
        assert abs(loss - direct) <= 1e-10

    # the loss no longer checks its targets: these check that no
    # non-stochastic or negative target reaches it from the training step
    def test_rejects_non_stochastic_target(self):
        for mode, target in step_affinity_targets():
            assert np.abs(target.sum(axis=1) - 1.0).max() <= 1e-12, mode

    def test_rejects_negative_target(self):
        for mode, target in step_affinity_targets():
            assert (target >= 0).all(), mode

    @pytest.mark.parametrize("with_zeros", [False, True])
    def test_single_exp_matches_two_exp_formula(self, with_zeros):
        rng = np.random.default_rng(8)
        logits = 3.0 * rng.normal(size=(40, 39))
        target = random_stochastic(rng, (40, 39))
        if with_zeros:
            target[rng.random(target.shape) < 0.4] = 0.0
            target[0] = 0.0
            target[0, 5] = 1.0
            target /= target.sum(axis=1, keepdims=True)
        for tau in (0.05, 0.3, 1.0):
            loss, grad = plane_cross_entropy(target, logits, tau)
            want_loss, want_grad = two_exp_cross_entropy(target, logits, tau)
            assert abs(loss - want_loss) <= 1e-14 * abs(want_loss)
            assert rel_error(grad, want_grad) <= 1e-14

    def test_grad_to_embeddings_matches_finite_differences(self, monkeypatch):
        # grad_z + grad_y at y = z, in panels of 4 and 2 rows
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * 6 * 4)
        rng = np.random.default_rng(6)
        z0 = unit_rows(rng, 6, 3)
        target = random_stochastic(rng, (6, 5))
        tau = 0.5

        def loss_of_z(z):
            # raw similarity logits (no re-normalization inside)
            sims = z @ z.T
            w = sims[~np.eye(6, dtype=bool)].reshape(6, 5)
            return two_exp_cross_entropy(target, w, tau)[0]

        _, grad_z = affinity_loss(
            mask_scatter_off_diagonal(target), off_diagonal(z0 @ z0.T), z0, tau
        )
        fd = central_difference(loss_of_z, z0)
        assert rel_error(grad_z, fd) <= 1e-7

    def test_factored_loss_matches_finite_differences(self):
        # the logits are rebuilt from z at every point, so this differences
        # the loss as the function of the embeddings that it is
        rng = np.random.default_rng(16)
        z0, logits, target = affinity_case(rng, 7, 3)
        tau = 0.5

        def loss_of_z(z):
            logits = off_diagonal(z @ z.T)
            return affinity_loss(target, logits, z, tau)[0]

        _, grad = affinity_loss(target, logits, z0, tau)
        assert rel_error(grad, central_difference(loss_of_z, z0)) <= 1e-7

    @pytest.mark.parametrize("tau", [0.01, 1.0])
    @pytest.mark.parametrize("b", [2, 3, 17, 100, 1024])
    def test_factored_loss_matches_two_step_form(self, b, tau):
        # the loss and the embedding gradient, against the B x B logit
        # gradient of the masked cross entropy chained as A @ z + A.T @ z
        rng = np.random.default_rng(b)
        z, logits, target = affinity_case(rng, b, 2)
        want = two_step_affinity_cross_entropy(target, logits.copy(), z, tau)
        assert_close_to_two_step(affinity_loss(target, logits, z, tau), want, z, tau)

    @pytest.mark.parametrize("rows", [1, 5, 16, 17])
    def test_factored_loss_in_uneven_row_panels(self, rows, monkeypatch):
        # panels of 5 and 16 rows split B = 17 unevenly; 17 is one panel
        b = 17
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * b * rows)
        rng = np.random.default_rng(rows)
        z, logits, target = affinity_case(rng, b, 3)
        want = two_step_affinity_cross_entropy(target, logits.copy(), z, 0.1)
        assert_close_to_two_step(affinity_loss(target, logits, z, 0.1), want, z, 0.1)

    @pytest.mark.parametrize("b", [2, 3, 17, 100, 1024])
    def test_grad_to_embeddings_matches_two_product_form(self, b):
        rng = np.random.default_rng(b)
        z, logits, target = affinity_case(rng, b, 2)
        assert_chains_logit_gradient(target, logits, z, 0.1)

    @pytest.mark.parametrize("rows", [1, 5, 16, 17])
    def test_grad_to_embeddings_in_row_panels(self, rows, monkeypatch):
        # the panels only split A @ z by rows and z.T @ A into a sum
        b = 17
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * b * rows)
        rng = np.random.default_rng(rows)
        z, logits, target = affinity_case(rng, b, 2)
        assert_chains_logit_gradient(target, logits, z, 0.1)

    def test_gradient_vanishes_when_model_matches_target(self):
        # fixed-point form of the convergence condition: when the modeled
        # affinities equal the target, the full gradient into z is zero
        rng = np.random.default_rng(7)
        z = unit_rows(rng, 7, 4)
        tau = 0.2
        logits = off_diagonal(z @ z.T)
        scaled = logits / tau
        p = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        _, grad_z = affinity_loss(p, logits, z, tau)
        assert np.abs(grad_z).max() <= 1e-8

    def test_leaves_exp_in_logits(self):
        # the trainer's logits planes hold E = exp(L/tau - m) after the
        # step, 0 on the masked diagonal
        rng = np.random.default_rng(12)
        z, logits, target = affinity_case(rng, 9, 3)
        scaled = logits / 0.2
        want = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        affinity_loss(target, logits, z, 0.2)
        assert rel_error(logits, want) <= 1e-15
        assert (np.diag(logits) == 0.0).all()


class TestBilinearLogits:
    """The clustering loss's B x K plane z @ y.T, y the unit prototypes,
    through the same `softmax_cross_entropy` as the affinity loss; a panel
    holds PANEL_BYTES // (8 K) of its rows."""

    @staticmethod
    def assert_matches_two_step_form(rng, b, k, tau):
        # the loss and both factor gradients, against the B x K logit
        # gradient of the two-exp cross entropy chained as A @ y and A.T @ z
        z, y = unit_rows(rng, b, 4), unit_rows(rng, k, 4)
        target = random_stochastic(rng, (b, k))
        want_loss, grad_logits = two_exp_cross_entropy(target, z @ y.T, tau)
        loss, grad_z, grad_y = softmax_cross_entropy(as_factors(target), z @ y.T, z, y, tau)
        assert_close_to_two_step((loss, grad_z), (want_loss, grad_logits @ y), y, tau)
        assert_close_to_two_step((loss, grad_y), (want_loss, grad_logits.T @ z), z, tau)

    @pytest.mark.parametrize("tau", [0.01, 1.0])
    @pytest.mark.parametrize("b", [2, 3, 17, 100, 1024])
    def test_matches_two_step_form(self, b, tau):
        self.assert_matches_two_step_form(np.random.default_rng(b), b, 3, tau)

    @pytest.mark.parametrize("rows", [1, 5, 16, 17])
    def test_non_square_plane_in_uneven_row_panels(self, rows, monkeypatch):
        # panels of 5 and 16 rows split B = 17 unevenly; 17 is one panel
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * 3 * rows)
        self.assert_matches_two_step_form(np.random.default_rng(rows), 17, 3, 0.1)

    def test_embedding_gradient_matches_finite_differences(self, monkeypatch):
        # the logits are rebuilt from z at every point, in panels of 5 rows
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * 3 * 5)
        rng = np.random.default_rng(19)
        z0, y = unit_rows(rng, 17, 4), unit_rows(rng, 3, 4)
        target = random_stochastic(rng, (17, 3))

        def loss_of_z(z):
            return softmax_cross_entropy(as_factors(target), z @ y.T, z, y, 0.3)[0]

        _, grad_z, _ = softmax_cross_entropy(as_factors(target), z0 @ y.T, z0, y, 0.3)
        assert rel_error(grad_z, central_difference(loss_of_z, z0)) <= 1e-7

    def test_leaves_exp_in_logits(self):
        # the trainer's assignment logits h hold E = exp(h/tau - m) after
        # the call, as the affinity planes do
        rng = np.random.default_rng(13)
        z, y = unit_rows(rng, 9, 3), unit_rows(rng, 4, 3)
        target = random_stochastic(rng, (9, 4))
        logits = z @ y.T
        scaled = logits / 0.2
        want = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        softmax_cross_entropy(as_factors(target), logits, z, y, 0.2)
        assert rel_error(logits, want) <= 1e-15

    def test_prototype_gradient_matches_finite_differences(self, monkeypatch):
        # the logits are rebuilt from y at every point, in panels of 5 rows
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * 3 * 5)
        rng = np.random.default_rng(18)
        z, y0 = unit_rows(rng, 17, 4), unit_rows(rng, 3, 4)
        target = random_stochastic(rng, (17, 3))

        def loss_of_y(y):
            return softmax_cross_entropy(as_factors(target), z @ y.T, z, y, 0.3)[0]

        _, _, grad_y = softmax_cross_entropy(as_factors(target), z @ y0.T, z, y0, 0.3)
        assert rel_error(grad_y, central_difference(loss_of_y, y0)) <= 1e-7


class TestFactoredTarget:
    """`softmax_cross_entropy` reads a Sinkhorn target through its factors
    (kernel, u, v) and never forms W = diag(u) @ kernel @ diag(v): the loss
    and both gradients must be those of the dense-plan cross entropy
    (`oracles.plan_softmax_cross_entropy`) against the plan formed from the
    same factors, in row panels of 7 rows that split B unevenly."""

    @staticmethod
    def assert_matches_dense_plan(target, logits, z, y, tau):
        # each gradient relative to the larger of its own size and
        # max|factor| / tau, the size of the two terms it is the difference
        # of (at B = 2 a masked row's softmax equals its target, so they
        # cancel); the loss relative to the larger of itself and 1
        want_loss, want_z, want_y = plan_softmax_cross_entropy(plan_of(target), logits, z, y, tau)
        loss, grad_z, grad_y = softmax_cross_entropy(target, logits, z, y, tau)
        assert abs(loss - want_loss) <= 1e-12 * max(abs(want_loss), 1.0)
        for got, want, factor in ((grad_z, want_z, y), (grad_y, want_y, z)):
            scale = max(np.abs(want).max(), np.abs(factor).max() / tau)
            assert np.abs(got - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("tau", [0.01, 1.0])
    @pytest.mark.parametrize("b", [2, 3, 17, 100, 1024])
    def test_affinity_loss_matches_dense_plan(self, b, tau, monkeypatch):
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * b * 7)
        rng = np.random.default_rng(b)
        z = unit_rows(rng, b, 3)
        logits = off_diagonal(z @ z.T)
        target = sinkhorn_algorithm1(logits, 0.05, 5).factors
        self.assert_matches_dense_plan(target, logits, z, z, tau)

    @pytest.mark.parametrize("tau", [0.01, 1.0])
    @pytest.mark.parametrize("b", [2, 3, 17, 100, 1024])
    def test_clustering_loss_matches_dense_plan(self, b, tau, monkeypatch):
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * 3 * 7)
        rng = np.random.default_rng(b)
        z, y = unit_rows(rng, b, 3), unit_rows(rng, 3, 3)
        logits = z @ y.T
        target = sinkhorn_algorithm1(logits, 0.05, 5).factors
        self.assert_matches_dense_plan(target, logits, z, y, tau)


class TestOrthogonalize:
    def test_reference_procrustes_values(self):
        res = orthogonalize(FIG_Z)
        want = np.array([[-0.77, 0.64], [0.64, 0.77]])
        assert np.abs(res.z_new - want).max() <= 0.02
        assert abs(np.linalg.norm(FIG_Z - res.z_new) - 0.49) <= 0.02

    def test_orthonormal_input_is_fixed_point(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(8, 4)))
        res = orthogonalize(q)
        assert np.abs(res.z_new - q).max() <= 1e-10
        assert np.linalg.norm(q - res.z_new) <= 1e-8

    def test_output_is_column_orthonormal(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(10, 4))
        res = orthogonalize(z)
        gram = res.z_new.T @ res.z_new
        assert np.abs(gram - np.eye(4)).max() <= 1e-8

    def test_conditioning_warning_attached(self):
        z = np.zeros((4, 2))
        z[:, 0] = [1.0, 2.0, 3.0, 4.0]  # rank one
        with pytest.warns(RuntimeWarning):
            res = orthogonalize(z)
        assert res.warning is not None
        assert np.isfinite(res.z_new).all()

    def test_conditioning_warning_prints_once_per_call_site(self):
        # the message is fixed, so the default filter merges the repeats of
        # one line; each result keeps its own sigmas
        results = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for scale in (1.0, 3.0):
                z = np.zeros((4, 2))
                z[:, 0] = scale * np.arange(1.0, 5.0)  # rank one
                results.append(orthogonalize(z))
        assert len(caught) == 1
        assert results[0].warning != results[1].warning


class TestProcrustesMinimality:
    def test_no_orthonormal_candidate_beats_polar_factor(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = rng.normal(size=(16, 4))
            best = np.linalg.norm(z - orthogonalize(z).z_new)
            # the Q factor of z itself, SpectralNet's orthonormalization
            assert best <= np.linalg.norm(z - np.linalg.qr(z)[0]) + 1e-9
            for _ in range(100):
                q, _ = np.linalg.qr(rng.normal(size=(16, 4)))
                assert best <= np.linalg.norm(z - q) + 1e-9


class TestStraightThrough:
    """The trainer's straight-through orthogonalize-and-normalize map."""

    def test_forward_equals_new_value(self):
        model, x, cfg = encoder_view(7)
        z_raw, _, z = straight_through_view(model, x, cfg)
        z_new = row_normalize(orthogonalize(z_raw).z_new)
        assert np.abs(z - z_new).max() <= 1e-15

    def test_backward_contract_on_quadratic(self):
        # loss(y) = 0.5 ||y - t||^2 at the straight-through output: the
        # upstream gradient is (z_new - t), the quadratic's gradient at
        # z_new, and it reaches the raw embeddings through the normalization
        # Jacobian alone because the residual z_new - z is a constant
        model, x, cfg = encoder_view(8)
        z_raw, resid, z = straight_through_view(model, x, cfg)
        t = np.random.default_rng(9).normal(size=z.shape)
        upstream = z - t
        z_new = row_normalize(orthogonalize(z_raw).z_new)
        assert np.allclose(upstream, z_new - t)
        fd = central_difference(
            lambda v: 0.5 * float(np.sum((row_normalize(v) + resid - t) ** 2)), z_raw
        )
        norms = np.linalg.norm(z_raw, axis=1, keepdims=True)
        assert rel_error(row_normalize_vjp(z_raw / norms, upstream, norms), fd) <= 1e-7

    def test_none_mode_passthrough(self):
        # orth_mode "none" skips orthogonalize: the view is the normalized
        # raw embedding, with a zero residual
        model, x, cfg = encoder_view(5, orth_mode="none")
        z_raw, resid, z = straight_through_view(model, x, cfg)
        assert (resid == 0.0).all()
        assert (z == row_normalize(z_raw)).all()


class TestOrthogonalPenalty:
    def test_orthonormal_input_gives_zero(self):
        q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(6, 3)))
        penalty, grad = orthogonal_penalty(q)
        assert penalty <= 1e-20
        assert np.abs(grad).max() <= 1e-9

    def test_value_is_the_squared_gram_defect_at_weight_one(self):
        # z.T z = 4 I: each of the D = 2 diagonal entries of the defect is 3
        z = np.vstack([2.0 * np.eye(2), np.zeros((3, 2))])
        penalty, grad = orthogonal_penalty(z)
        assert penalty == 18.0
        assert (grad == 4.0 * z @ (3.0 * np.eye(2))).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(6, 3))
        _, grad = orthogonal_penalty(z)
        fd = central_difference(lambda v: orthogonal_penalty(v)[0], z)
        assert np.abs(grad - fd).max() <= 1e-6


class TestRowNormalize:
    def test_unit_norm_output(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(7, 4)) * 3.0
        out = row_normalize(z)
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12

    def test_writes_the_row_norms_of_linalg_norm_bit_for_bit(self):
        # the training step hands them to row_normalize_vjp, which took
        # np.linalg.norm of the same rows before
        z = np.random.default_rng(14).normal(size=(100, 2)) * 3.0
        norms, want = np.empty((100, 1)), np.linalg.norm(z, axis=1, keepdims=True)
        assert row_normalize(z, norms).tobytes() == (z / want).tobytes()
        assert norms.tobytes() == want.tobytes()

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(5, 3)) + 0.5
        upstream = rng.normal(size=(5, 3))

        def f(v):
            return float((row_normalize(v) * upstream).sum())

        norms = np.linalg.norm(z, axis=1, keepdims=True)
        grad = row_normalize_vjp(z / norms, upstream, norms)
        fd = central_difference(f, z)
        assert rel_error(grad, fd) <= 1e-7

    def test_zero_row_rejected(self):
        z = np.zeros((2, 2))
        z[0] = [1.0, 0.0]
        with pytest.raises(NumericalError) as info:
            row_normalize(z)
        assert str(info.value) == "row_normalize received row 1 of norm 0.0"

    @pytest.mark.parametrize("row, norm", [([1e200, 1e200], "inf"), ([np.nan, 0.0], "nan")])
    def test_row_without_a_finite_norm_rejected(self, row, norm):
        # an overflowed norm would scale the row to 0, silently
        z = np.ones((3, 2))
        z[2] = row
        with pytest.raises(NumericalError) as info:
            row_normalize(z)
        assert str(info.value) == f"row_normalize received row 2 of norm {norm}"
