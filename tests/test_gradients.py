"""Finite-difference verification of the full training-step backward.

The differenced function is `oracles.held_step_loss`: the step's loss with
the stop-gradient quantities (transport targets and the orthogonalization
residual) held at their base-point values, which is exactly the function
whose gradient the step reports. It is written out apart from the step.
"""

import contextlib
from concurrent import futures

import numpy as np
import pytest

from oracles import (
    TAU_INIT, clone, held_embeddings, held_step_loss, logit_form_tau_grad, plan_of
)
from otsc import network as net
from otsc.trainer import TRAINER_ORTH_MODES, TrainConfig, _compute_step

REL_TOL = 1e-4  # double precision, central differences
H = 1e-6


def build_instance(mode, seed=0):
    rng = np.random.default_rng(seed)
    model = net.init_model(4, 3, 2, rng, TAU_INIT, hidden=(6,))
    # interior temperatures (away from the clamp), distinct per head
    model.log_tau[:] = np.log([0.3, 0.4])
    cfg = TrainConfig(
        num_clusters=2,
        embed_dim=3,
        batch_size=8,
        eta=0.5,
        sinkhorn_iters=3,
        lam=0.7,
        orth_mode=mode,
    )
    x1 = rng.normal(size=(8, 4))
    x2 = rng.normal(size=(8, 4))
    return model, cfg, x1, x2


def check_all_parameters(model, cfg, x1, x2, worker=None):
    _, grads, held = _compute_step(model, x1, x2, cfg, worker=worker)
    grads = dict(model.named_arrays(grads))
    failures = {}
    for name, arr in model.named_arrays():
        got = grads[name]
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            m2 = clone(model)
            dict(m2.named_arrays())[name][ix] += H
            up = held_step_loss(m2, x1, x2, cfg, held)
            m2 = clone(model)
            dict(m2.named_arrays())[name][ix] -= H
            down = held_step_loss(m2, x1, x2, cfg, held)
            fd[ix] = (up - down) / (2 * H)
        # the two log temperatures are separate scalars whose gradients
        # differ in scale, so each is held to its own finite difference
        scale = np.abs(fd) if name == "log_tau" else np.abs(fd).max()
        err = (np.abs(got - fd) / np.maximum(scale, 1e-12)).max()
        if err > REL_TOL:
            failures[name] = err
    assert "log_tau" in dict(model.named_arrays())  # the loop checked both temperatures
    assert not failures, f"gradient mismatches: {failures}"


@pytest.mark.parametrize("mode", ["none", "procrustes", "penalty"])
def test_full_step_gradients(mode):
    model, cfg, x1, x2 = build_instance(mode)
    if mode == "penalty":  # the differenced loss holds a penalty term of weight 1
        losses, _, _ = _compute_step(model, x1, x2, cfg)
        penalty = losses.total_loss - losses.affinity_loss - cfg.lam * losses.clustering_loss
        assert penalty > 0.1 * losses.total_loss
    check_all_parameters(model, cfg, x1, x2)


@contextlib.contextmanager
def panels_on_a_worker(monkeypatch, wanted=True):
    """Panels of 3 rows, splitting B = 8 as 3 + 3 + 2, and a worker to run
    view 1, if ``wanted``; else the whole-plane step inline (worker None)."""
    if not wanted:
        yield None
        return
    monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * 8 * 3)
    with futures.ThreadPoolExecutor(1) as worker:
        yield worker


@pytest.mark.parametrize("mode", ["none", "procrustes", "penalty"])
def test_full_step_gradients_in_row_panels_on_a_worker(mode, monkeypatch):
    model, cfg, x1, x2 = build_instance(mode)
    with panels_on_a_worker(monkeypatch) as worker:
        check_all_parameters(model, cfg, x1, x2, worker)


def test_clamped_temperature_has_zero_gradient():
    model, cfg, x1, x2 = build_instance("procrustes")
    model.log_tau[0] = 0.4  # above the cap: effective affinity tau pinned at 1
    _, grads, _ = _compute_step(model, x1, x2, cfg)
    grad_tau = dict(model.named_arrays(grads))["log_tau"]
    assert grad_tau[0] == 0.0
    assert grad_tau[1] != 0.0


@pytest.mark.parametrize("on_worker", [False, True], ids=["inline", "worker"])
@pytest.mark.parametrize("mode", TRAINER_ORTH_MODES)
def test_held_loss_equals_the_live_step_loss(mode, on_worker, monkeypatch):
    # at the base point the held function is the step's own loss, so the
    # finite differences above difference the function the step reports
    model, cfg, x1, x2 = build_instance(mode, seed=3)
    with panels_on_a_worker(monkeypatch, on_worker) as worker:
        losses, _, held = _compute_step(model, x1, x2, cfg, worker=worker)
    want = losses.total_loss
    assert abs(held_step_loss(model, x1, x2, cfg, held) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("on_worker", [False, True], ids=["inline", "worker"])
@pytest.mark.parametrize("mode", ["none", "procrustes", "penalty"])
def test_tau_a_gradient_matches_logit_form(mode, on_worker, monkeypatch):
    # the step takes it from the B x D embedding gradient; the oracle reads
    # the B x B logit and gradient planes
    model, cfg, x1, x2 = build_instance(mode)
    with panels_on_a_worker(monkeypatch, on_worker) as worker:
        _, grads, held = _compute_step(model, x1, x2, cfg, worker=worker)
    _, affinity_targets, _ = held
    views_z = held_embeddings(model, x1, x2, held)
    tau_a = net.effective_tau(model.log_tau)[0]
    want = logit_form_tau_grad(views_z, [plan_of(w) for w in affinity_targets], tau_a)
    want *= net.tau_grad_scale(model.log_tau)[0]
    assert abs(dict(model.named_arrays(grads))["log_tau"][0] - want) <= 1e-12 * abs(want)
