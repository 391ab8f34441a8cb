from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    central_difference,
    mask_off_diagonal,
    mask_scatter_off_diagonal,
    rel_error,
    two_exp_cross_entropy,
    two_product_affinity_grad,
)
from otsc import network as net
from otsc.spectral import (
    affinity_grad_to_embeddings,
    off_diagonal,
    orthogonal_penalty,
    orthogonalize,
    row_normalize,
    row_normalize_vjp,
    scatter_off_diagonal,
    softmax_cross_entropy,
)
from otsc.trainer import TRAINER_ORTH_MODES, TrainConfig, _compute_step, _straight_through
from otsc.transport import TransportPlan

FIG_Z = np.array([[-0.94, 0.34], [0.87, 0.50]])


def unit_rows(rng, b, d):
    z = rng.normal(size=(b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_target(rng, shape):
    t = rng.random(shape) + 0.05
    return t / t.sum(axis=1, keepdims=True)


def encoder_view(seed, orth_mode="procrustes"):
    """A small model, a batch, and its config, for the trainer's view encoding."""
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(num_clusters=2, embed_dim=3, batch_size=8, orth_mode=orth_mode)
    return net.init_model(4, 3, 2, rng, hidden=(6,)), rng.normal(size=(8, 4)), cfg


def straight_through_view(model, x, cfg):
    """One view as the trainer encodes it: (z_raw, straight-through
    residual, straight-through value)."""
    z_raw, _ = net.forward(model, x)
    return (z_raw, *_straight_through(z_raw, cfg))


def step_targets(kind, seed=11):
    """``(orth_mode, keep_diagonal, target)`` for every target of ``kind``
    (``"affinity_targets"`` or ``"assignment_targets"``) that one training
    step holds, in every orth mode with ``keep_diagonal`` off and on."""
    for mode in TRAINER_ORTH_MODES:
        for keep_diagonal in (False, True):
            model, x1, cfg = encoder_view(seed, mode)
            cfg = replace(cfg, keep_diagonal=keep_diagonal)
            x2 = x1 + 0.1 * np.random.default_rng(seed + 1).normal(size=x1.shape)
            _, _, held = _compute_step(model, x1, x2, cfg)
            for target in getattr(held, kind):
                yield mode, keep_diagonal, target


class TestCrossAffinity:
    """Cross affinity as the trainer builds it: ``off_diagonal(z @ z.T)``."""

    def test_two_samples(self):
        rng = np.random.default_rng(0)
        z = unit_rows(rng, 2, 3)
        w = off_diagonal(z @ z.T)
        dot = float(z[0] @ z[1])
        assert w.shape == (2, 1)
        assert np.allclose(w, [[dot], [dot]])

    def test_identical_rows_give_ones(self):
        z = np.tile(np.array([[0.6, 0.8]]), (4, 1))
        assert np.abs(off_diagonal(z @ z.T) - 1.0).max() <= 1e-12

    def test_orthogonal_rows_give_zeros(self):
        z = np.eye(3)
        assert np.abs(off_diagonal(z @ z.T)).max() == 0.0

    def test_preserves_column_order(self):
        rng = np.random.default_rng(1)
        z = unit_rows(rng, 5, 4)
        w = off_diagonal(z @ z.T)
        sims = z @ z.T
        for i in range(5):
            cols = [j for j in range(5) if j != i]
            assert np.allclose(w[i], sims[i, cols])

    def test_scatter_round_trip(self):
        rng = np.random.default_rng(2)
        z = unit_rows(rng, 6, 3)
        w = off_diagonal(z @ z.T)
        full = scatter_off_diagonal(w)
        assert np.abs(np.diag(full)).max() == 0.0
        assert np.allclose(full[~np.eye(6, dtype=bool)].reshape(6, 5), w)

    @pytest.mark.parametrize("b", [2, 3, 17, 100])
    def test_strided_view_bitwise_equals_mask_form(self, b):
        rng = np.random.default_rng(b)
        square = rng.normal(size=(b, b))
        assert off_diagonal(square).tobytes() == mask_off_diagonal(square).tobytes()
        values = rng.normal(size=(b, b - 1))
        got = scatter_off_diagonal(values)
        assert got.tobytes() == mask_scatter_off_diagonal(values).tobytes()

    @pytest.mark.parametrize("b", [2, 17])
    def test_out_forms_bitwise_equal_and_return_out(self, b):
        # a NaN-filled out shows that every entry is written
        rng = np.random.default_rng(b)
        square, values = rng.normal(size=(b, b)), rng.normal(size=(b, b - 1))
        out = np.full((b, b - 1), np.nan)
        assert off_diagonal(square, out=out) is out
        assert out.tobytes() == off_diagonal(square).tobytes()
        out = np.full((b, b), np.nan)
        assert scatter_off_diagonal(values, out=out) is out
        assert out.tobytes() == scatter_off_diagonal(values).tobytes()

    @pytest.mark.parametrize("rows", [1, 5, 16])
    def test_row_panels_bitwise_equal_mask_rows(self, rows):
        # B = 17 is divided by none of these heights, so the last panel is
        # short; every panel starts on a boundary the whole-matrix form has
        # no counterpart for
        b = 17
        rng = np.random.default_rng(rows)
        square, values = rng.normal(size=(b, b)), rng.normal(size=(b, b - 1))
        packed, scattered = mask_off_diagonal(square), mask_scatter_off_diagonal(values)
        for s in range(0, b, rows):
            e = min(s + rows, b)
            out = np.full((e - s, b - 1), np.nan)
            assert off_diagonal(square[s:e], row0=s, out=out) is out
            assert out.tobytes() == packed[s:e].tobytes(), s
            out = np.full((e - s, b), np.nan)
            assert scatter_off_diagonal(values[s:e], row0=s, out=out) is out
            assert out.tobytes() == scattered[s:e].tobytes(), s

    @pytest.mark.parametrize("row0, rows", [(-1, 2), (16, 2), (0, 18)])
    def test_panel_outside_the_matrix_refused(self, row0, rows):
        b = 17
        with pytest.raises(ValueError):
            off_diagonal(np.zeros((rows, b)), row0=row0)
        with pytest.raises(ValueError):
            scatter_off_diagonal(np.zeros((rows, b - 1)), row0=row0)

    def test_batch_too_small(self):
        z = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            off_diagonal(z @ z.T)

    def test_requires_unit_rows(self):
        # the logits are cosine similarities only if the trainer hands the
        # affinity unit-norm rows, whatever the orthogonalization mode
        for mode in TRAINER_ORTH_MODES:
            model, x, cfg = encoder_view(0, mode)
            z = straight_through_view(model, x, cfg)[2]
            assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() <= 1e-14, mode
            assert np.abs(off_diagonal(z @ z.T)).max() <= 1.0 + 1e-14, mode


class TestAffinityLoss:
    """The affinity loss is `softmax_cross_entropy` on the off-diagonal logits."""

    def test_minimum_at_target_with_entropy_value(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 4))
        tau = 0.3
        scaled = logits / tau
        p = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        loss, grad = softmax_cross_entropy(p, logits, tau)
        assert np.abs(grad).max() <= 1e-12
        entropy = float(-(p * np.log(p)).sum())
        assert abs(loss - entropy) <= 1e-10

    def test_single_column_degenerate(self):
        # B = 2 leaves one off-diagonal column; softmax of one entry is 1
        target = np.ones((2, 1))
        loss, grad = softmax_cross_entropy(target, np.array([[0.37], [-2.2]]), tau=0.05)
        assert loss == 0.0
        assert np.abs(grad).max() == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(8, 7))
        target = random_target(rng, (8, 7))
        tau = 0.4
        loss, grad = softmax_cross_entropy(target, logits, tau)
        fd = central_difference(lambda l: softmax_cross_entropy(target, l, tau)[0], logits)
        assert np.abs(grad - fd).max() <= 1e-6

    def test_two_term_decomposition(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 5))
        target = random_target(rng, (6, 5))
        tau = 0.25
        loss, _ = softmax_cross_entropy(target, logits, tau)
        scaled = logits / tau
        shift = scaled.max(axis=1, keepdims=True)
        logsumexp = (shift + np.log(np.exp(scaled - shift).sum(axis=1, keepdims=True))).sum()
        direct = -(target * scaled).sum() + logsumexp
        assert abs(loss - direct) <= 1e-10

    # the loss no longer checks its targets: these check that no
    # non-stochastic or negative target reaches it from the training step
    def test_rejects_non_stochastic_target(self):
        for mode, keep_diagonal, target in step_targets("affinity_targets"):
            assert np.abs(target.sum(axis=1) - 1.0).max() <= 1e-12, (mode, keep_diagonal)

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TransportPlan(np.array([[1.5, -0.5], [0.5, 0.5]]), 0.0, 0.0, 1)
        for mode, keep_diagonal, target in step_targets("affinity_targets"):
            assert (target >= 0).all(), (mode, keep_diagonal)

    @pytest.mark.parametrize("with_zeros", [False, True])
    def test_single_exp_matches_two_exp_formula(self, with_zeros):
        rng = np.random.default_rng(8)
        logits = 3.0 * rng.normal(size=(40, 39))
        target = random_target(rng, (40, 39))
        if with_zeros:
            target[rng.random(target.shape) < 0.4] = 0.0
            target[0] = 0.0
            target[0, 5] = 1.0
            target /= target.sum(axis=1, keepdims=True)
        for tau in (0.05, 0.3, 1.0):
            loss, grad = softmax_cross_entropy(target, logits, tau)
            want_loss, want_grad = two_exp_cross_entropy(target, logits, tau)
            assert abs(loss - want_loss) <= 1e-14 * abs(want_loss)
            assert rel_error(grad, want_grad) <= 1e-14

    def test_grad_to_embeddings_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        z0 = unit_rows(rng, 6, 3)
        target = random_target(rng, (6, 5))
        tau = 0.5

        def loss_of_z(z):
            # raw similarity logits (no re-normalization inside)
            sims = z @ z.T
            w = sims[~np.eye(6, dtype=bool)].reshape(6, 5)
            return softmax_cross_entropy(target, w, tau)[0]

        _, grad_logits = softmax_cross_entropy(target, off_diagonal(z0 @ z0.T), tau)
        grad_z = affinity_grad_to_embeddings(grad_logits, z0)
        fd = central_difference(loss_of_z, z0)
        assert rel_error(grad_z, fd) <= 1e-7

    @pytest.mark.parametrize("b", [2, 3, 17, 100, 1024])
    def test_grad_to_embeddings_matches_two_product_form(self, b):
        # both logit layouts: off-diagonal B x (B-1), and the full B x B of
        # keep_diagonal, whose gradient is used as it is
        rng = np.random.default_rng(b)
        z = unit_rows(rng, b, 2)
        _, grad_logits = softmax_cross_entropy(
            random_target(rng, (b, b - 1)), off_diagonal(z @ z.T), 0.1
        )
        got = affinity_grad_to_embeddings(grad_logits, z)
        assert rel_error(got, two_product_affinity_grad(grad_logits, z)) <= 1e-15
        _, grad_square = softmax_cross_entropy(random_target(rng, (b, b)), z @ z.T, 0.1)
        got = affinity_grad_to_embeddings(grad_square, z)
        assert rel_error(got, two_product_affinity_grad(grad_square, z)) <= 1e-15

    @pytest.mark.parametrize("rows", [1, 5, 16, 17])
    def test_grad_to_embeddings_in_row_panels(self, rows):
        # the panels only split A @ z by rows and z.T @ A into a sum; the
        # panel buffer holds the last scattered panel afterwards
        b = 17
        rng = np.random.default_rng(rows)
        z = unit_rows(rng, b, 2)
        _, grad_logits = softmax_cross_entropy(
            random_target(rng, (b, b - 1)), off_diagonal(z @ z.T), 0.1
        )
        panel = np.full((rows, b), np.nan)
        got = affinity_grad_to_embeddings(grad_logits, z, out=panel)
        assert rel_error(got, two_product_affinity_grad(grad_logits, z)) <= 1e-15
        last = (b - 1) // rows * rows
        want = mask_scatter_off_diagonal(grad_logits)[last:]
        assert panel[: b - last].tobytes() == want.tobytes()

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
        _, grad_logits = softmax_cross_entropy(p, logits, tau)
        grad_z = affinity_grad_to_embeddings(grad_logits, z)
        assert np.abs(grad_z).max() <= 1e-8


    @pytest.mark.parametrize("square", [False, True])
    def test_out_forms_bitwise_equal_and_return_out(self, square):
        rng = np.random.default_rng(12)
        b = 9
        z = unit_rows(rng, b, 3)
        logits = z @ z.T if square else off_diagonal(z @ z.T)
        target = random_target(rng, logits.shape)
        want_loss, want_grad = softmax_cross_entropy(target, logits, 0.2)
        out = np.full(logits.shape, np.nan)
        loss, grad = softmax_cross_entropy(target, logits, 0.2, out=out)
        assert grad is out
        assert (loss, grad.tobytes()) == (want_loss, want_grad.tobytes())
        scattered = np.full((b, b), np.nan)
        got = affinity_grad_to_embeddings(grad, z, out=scattered)
        assert got.tobytes() == affinity_grad_to_embeddings(want_grad, z).tobytes()
        if not square:  # the scatter's result, which a B x B gradient skips
            assert scattered.tobytes() == scatter_off_diagonal(grad).tobytes()


class TestOrthogonalize:
    def test_reference_procrustes_values(self):
        res = orthogonalize(FIG_Z, "procrustes")
        want = np.array([[-0.77, 0.64], [0.64, 0.77]])
        assert np.abs(res.z_new - want).max() <= 0.02
        assert abs(np.linalg.norm(FIG_Z - res.z_new) - 0.49) <= 0.02

    def test_reference_qr_values(self):
        res = orthogonalize(FIG_Z, "qr")
        want = np.array([[0.74, 0.68], [-0.68, 0.74]])
        assert np.abs(res.z_new - want).max() <= 0.02
        assert abs(np.linalg.norm(FIG_Z - res.z_new) - 2.31) <= 0.05

    def test_orthonormal_input_is_fixed_point(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(8, 4)))
        res = orthogonalize(q, "procrustes")
        assert np.abs(res.z_new - q).max() <= 1e-10
        assert np.linalg.norm(q - res.z_new) <= 1e-8

    def test_output_is_column_orthonormal(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(10, 4))
        for mode in ("procrustes", "qr"):
            res = orthogonalize(z, mode)
            gram = res.z_new.T @ res.z_new
            assert np.abs(gram - np.eye(4)).max() <= 1e-8

    def test_conditioning_warning_attached(self):
        z = np.zeros((4, 2))
        z[:, 0] = [1.0, 2.0, 3.0, 4.0]  # rank one
        with pytest.warns(RuntimeWarning):
            res = orthogonalize(z, "procrustes")
        assert res.warning is not None
        assert np.isfinite(res.z_new).all()

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            orthogonalize(np.eye(2), "cayley")


class TestProcrustesMinimality:
    def test_no_orthonormal_candidate_beats_polar_factor(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = rng.normal(size=(16, 4))
            best = np.linalg.norm(z - orthogonalize(z, "procrustes").z_new)
            qr_dist = np.linalg.norm(z - orthogonalize(z, "qr").z_new)
            assert best <= qr_dist + 1e-9
            for _ in range(100):
                q, _ = np.linalg.qr(rng.normal(size=(16, 4)))
                assert best <= np.linalg.norm(z - q) + 1e-9


class TestStraightThrough:
    """The trainer's straight-through orthogonalize-and-normalize map."""

    def test_forward_equals_new_value(self):
        model, x, cfg = encoder_view(7)
        z_raw, _, z = straight_through_view(model, x, cfg)
        z_new = row_normalize(orthogonalize(z_raw, "procrustes").z_new)
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
        z_new = row_normalize(orthogonalize(z_raw, "procrustes").z_new)
        assert np.allclose(upstream, z_new - t)
        fd = central_difference(
            lambda v: 0.5 * float(np.sum((row_normalize(v) + resid - t) ** 2)), z_raw
        )
        assert rel_error(row_normalize_vjp(z_raw, upstream), fd) <= 1e-7

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
        penalty, grad = orthogonal_penalty(q, rho=2.0)
        assert penalty <= 1e-20
        assert np.abs(grad).max() <= 1e-9

    def test_linear_in_rho(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(5, 3))
        p1, _ = orthogonal_penalty(z, 0.7)
        p2, _ = orthogonal_penalty(z, 1.4)
        assert abs(p2 - 2.0 * p1) <= 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(6, 3))
        _, grad = orthogonal_penalty(z, 0.8)
        fd = central_difference(lambda v: orthogonal_penalty(v, 0.8)[0], z)
        assert np.abs(grad - fd).max() <= 1e-6


class TestRowNormalize:
    def test_unit_norm_output(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(7, 4)) * 3.0
        out = row_normalize(z)
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(5, 3)) + 0.5
        upstream = rng.normal(size=(5, 3))

        def f(v):
            return float((row_normalize(v) * upstream).sum())

        grad = row_normalize_vjp(z, upstream)
        fd = central_difference(f, z)
        assert rel_error(grad, fd) <= 1e-7

    def test_zero_row_rejected(self):
        z = np.zeros((2, 2))
        z[0] = [1.0, 0.0]
        with pytest.raises(ValueError):
            row_normalize(z)
