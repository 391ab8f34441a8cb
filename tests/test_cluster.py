"""The prototype clustering head as the trainer computes it.

Assignment logits are ``z @ row_normalize(prototypes).T``, the clustering
loss is `softmax_cross_entropy` against a transport target, and hard labels
come from `trainer.predict`.
"""

import numpy as np
import pytest

from oracles import (
    TAU_INIT, as_factors, central_difference, plan_of, random_stochastic, rel_error, unit_rows
)
from otsc import network as net
from otsc.spectral import row_normalize, row_normalize_vjp, softmax_cross_entropy
from otsc.trainer import TRAINER_ORTH_MODES, TrainConfig, _compute_step, predict
from otsc.transport import sinkhorn_algorithm1


def prototype_logits(z, raw_prototypes):
    """The trainer's assignment logits against unit-normalized prototypes."""
    return z @ row_normalize(raw_prototypes).T


def clustering_loss(target, z, raw_prototypes, tau):
    """The trainer's clustering loss call on the assignment logits: (loss,
    d/dz, d/d unit prototypes, the logits buffer it leaves behind)."""
    protos = row_normalize(raw_prototypes)
    logits = z @ protos.T
    return (*softmax_cross_entropy(as_factors(target), logits, z, protos, tau), logits)


def softmax_probabilities(z, raw_prototypes, tau):
    """``softmax(logits / tau)`` of the assignment logits, read back from the
    buffer the loss the trainer runs leaves, E = exp(logits/tau - m), at a
    uniform target."""
    target = np.full((z.shape[0], raw_prototypes.shape[0]), 1.0 / raw_prototypes.shape[0])
    e = clustering_loss(target, z, raw_prototypes, tau)[3]
    return e / e.sum(axis=1, keepdims=True)


def direct_softmax(logits, tau):
    e = np.exp(logits / tau - (logits / tau).max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def squared_distances(z, prototypes):
    return ((z[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2)


def untrained_model(seed):
    """An initialized model and a batch; predict needs no training."""
    rng = np.random.default_rng(seed)
    return net.init_model(4, 3, 4, rng, TAU_INIT), rng.normal(size=(12, 4))


class TestPrototypeBank:
    def test_rejects_single_prototype(self):
        # the head needs at least two prototypes; the training config refuses one
        with pytest.raises(ValueError, match="num_clusters"):
            TrainConfig(num_clusters=1)


class TestAssignmentProbabilities:
    def test_uniform_logits_give_uniform_probabilities(self):
        rng = np.random.default_rng(0)
        raw = np.zeros((4, 3))
        raw[:, :2] = rng.normal(size=(4, 2))
        z = np.tile([0.0, 0.0, 1.0], (2, 1))  # orthogonal to every prototype
        logits = prototype_logits(z, raw)
        assert (logits == 0.0).all()
        assert np.abs(softmax_probabilities(z, raw, 0.2) - 0.25).max() <= 1e-15

    def test_matching_prototype_dominates_at_low_temperature(self):
        rng = np.random.default_rng(1)
        raw = 2.0 * rng.normal(size=(3, 8))
        probs = softmax_probabilities(row_normalize(raw), raw, 0.01)
        for i in range(3):
            assert probs[i, i] >= 0.99

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        probs = softmax_probabilities(unit_rows(rng, 9, 4), rng.normal(size=(3, 4)), 0.3)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-10

    def test_hard_labels_invariant_to_temperature(self):
        model, x = untrained_model(3)
        labels, z = predict(model, x)
        for tau in (0.01, 0.3, 1.0):
            probs = softmax_probabilities(z, model.prototypes, tau)
            assert (probs.argmax(axis=1) == labels).all()

    def test_dimension_mismatch(self):
        model, x = untrained_model(4)
        wide = np.random.default_rng(4).normal(size=(4, 5))
        with pytest.raises(ValueError):
            predict(net.ModelState(model.layers, wide, model.log_tau), x)


class TestClusteringLoss:
    def test_zero_gradient_at_target(self):
        # the logit gradient (E/s - target) / tau, read off the E left in
        # the buffer, and both factor gradients vanish
        rng = np.random.default_rng(5)
        z, raw = unit_rows(rng, 6, 4), rng.normal(size=(3, 4))
        target = direct_softmax(prototype_logits(z, raw), 0.4)
        _, grad_z, grad_protos, e = clustering_loss(target, z, raw, 0.4)
        assert np.abs((e / e.sum(axis=1, keepdims=True) - target) / 0.4).max() <= 1e-12
        assert max(np.abs(grad_z).max(), np.abs(grad_protos).max()) <= 1e-12

    def test_one_hot_direct_evaluation(self):
        z = row_normalize(np.array([[0.9, 0.1], [0.2, 0.8]]))
        tau = 0.3
        loss = clustering_loss(np.eye(2), z, np.eye(2), tau)[0]
        probs = direct_softmax(prototype_logits(z, np.eye(2)), tau)
        direct = -float(np.log(probs[0, 0]) + np.log(probs[1, 1]))
        assert abs(loss - direct) <= 1e-12

    def test_gradient_including_prototype_normalization(self):
        rng = np.random.default_rng(6)
        z = unit_rows(rng, 8, 4)
        raw = rng.normal(size=(3, 4)) * 1.5
        target = random_stochastic(rng, (8, 3))
        tau = 0.35

        def loss_of_raw(p_raw):
            return clustering_loss(target, z, p_raw, tau)[0]

        _, _, grad_protos, _ = clustering_loss(target, z, raw, tau)
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        grad_raw = row_normalize_vjp(raw / norms, grad_protos, norms)
        fd = central_difference(loss_of_raw, raw)
        assert rel_error(grad_raw, fd) <= 1e-6

    def test_gradient_into_embeddings(self):
        rng = np.random.default_rng(7)
        z = unit_rows(rng, 5, 3)
        raw = rng.normal(size=(4, 3))
        target = random_stochastic(rng, (5, 4))
        tau = 0.5

        def loss_of_z(v):
            return clustering_loss(target, v, raw, tau)[0]

        _, grad_z, _, _ = clustering_loss(target, z, raw, tau)
        # perturbations of z feed the logits directly (no re-normalization)
        fd = central_difference(loss_of_z, z)
        assert rel_error(grad_z, fd) <= 1e-6

    def test_rejects_non_stochastic_target(self):
        # the loss no longer checks its targets: the assignment targets the
        # training step hands it are row-stochastic and non-negative
        rng = np.random.default_rng(8)
        model = net.init_model(4, 3, 2, rng, TAU_INIT, hidden=(6,))
        x1 = rng.normal(size=(8, 4))
        x2 = x1 + 0.1 * rng.normal(size=x1.shape)
        for mode in TRAINER_ORTH_MODES:
            cfg = TrainConfig(num_clusters=2, embed_dim=3, batch_size=8, orth_mode=mode)
            _, _, (_, _, assignment_targets) = _compute_step(model, x1, x2, cfg)
            for target in map(plan_of, assignment_targets):
                assert (target >= 0).all(), mode
                assert np.abs(target.sum(axis=1) - 1.0).max() <= 1e-12, mode


class TestSoftKmeans:
    """For unit embeddings and prototypes ``||z - mu||^2 = 2 - 2 z.mu``, so the
    assignment logits are the soft k-means objective up to an affine map."""

    def test_zero_at_coincident_prototypes(self):
        raw = np.random.default_rng(9).normal(size=(3, 3))
        logits = prototype_logits(row_normalize(raw), raw)
        assert abs(np.sum(np.eye(3) * (2.0 - 2.0 * logits))) <= 1e-14

    def test_unit_norm_identity_with_logits(self):
        # sum P ||z - mu||^2 = 2B - 2 sum P*H
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = unit_rows(rng, 6, 4)
            raw = rng.normal(size=(3, 4))
            p = random_stochastic(rng, (6, 3))
            lhs = float(np.sum(p * squared_distances(z, row_normalize(raw))))
            rhs = 2.0 * 6 - 2.0 * float(np.sum(p * prototype_logits(z, raw)))
            assert abs(lhs - rhs) <= 1e-10

    def test_one_hot_nearest_is_rowwise_minimum(self):
        # predict's hard labels are the k-means assignment step: the nearest
        # prototype, whose one-hot beats every soft assignment
        model, x = untrained_model(10)
        labels, z = predict(model, x)
        d2 = squared_distances(z, row_normalize(model.prototypes))
        assert (labels == d2.argmin(axis=1)).all()
        best = float(d2[np.arange(len(labels)), labels].sum())
        rng = np.random.default_rng(10)
        for _ in range(50):
            p = random_stochastic(rng, d2.shape)
            assert best <= float(np.sum(p * d2)) + 1e-12


class TestAssignmentTargets:
    def test_column_mass_near_uniform_after_five_iterations(self):
        # high-dimensional unit embeddings keep the similarity spread mild,
        # the regime where five scaling passes already balance columns
        rng = np.random.default_rng(11)
        b, k, d = 64, 4, 128
        z = unit_rows(rng, b, d)
        mu = unit_rows(rng, k, d)
        h = z @ mu.T
        plan = plan_of(sinkhorn_algorithm1(h, eta=0.05, iterations=5).factors)
        assert np.abs(plan.sum(axis=1) - 1.0).max() <= 1e-12
        col = plan.sum(axis=0)
        assert np.abs(col - b / k).max() <= 0.05 * (b / k)
