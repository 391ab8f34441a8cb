"""Finite-difference verification of the full training-step backward.

The differenced function is `oracles.held_step_loss`: the step's loss with
the stop-gradient quantities (transport targets and the orthogonalization
residual) held at their base-point values, which is exactly the function
whose gradient the step reports. It is written out apart from the step.
"""

from concurrent import futures

import numpy as np
import pytest

from oracles import held_embeddings, held_step_loss, logit_form_tau_grad
from otsc import network as net
from otsc.trainer import TRAINER_ORTH_MODES, TrainConfig, _compute_step

REL_TOL = 1e-4  # double precision, central differences
H = 1e-6


def clone(m):
    return net.ModelState(
        layers=[(w.copy(), b.copy()) for w, b in m.layers],
        prototypes=m.prototypes.copy(),
        log_tau=m.log_tau.copy(),
        version=m.version,
    )


def build_instance(mode, keep_diagonal=False, seed=0):
    rng = np.random.default_rng(seed)
    model = net.init_model(4, 3, 2, rng, hidden=(6,))
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
        penalty_rho=0.8,
        keep_diagonal=keep_diagonal,
    )
    x1 = rng.normal(size=(8, 4))
    x2 = rng.normal(size=(8, 4))
    return model, cfg, x1, x2


def check_all_parameters(model, cfg, x1, x2, worker=None):
    _, grads, held = _compute_step(model, x1, x2, cfg, worker=worker)
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


@pytest.mark.parametrize("mode", ["none", "procrustes", "qr", "penalty"])
def test_full_step_gradients(mode):
    model, cfg, x1, x2 = build_instance(mode)
    check_all_parameters(model, cfg, x1, x2)


def test_full_step_gradients_keep_diagonal():
    model, cfg, x1, x2 = build_instance("procrustes", keep_diagonal=True)
    check_all_parameters(model, cfg, x1, x2)


def test_full_step_gradients_in_row_panels_on_a_worker(monkeypatch):
    # panels of 3 rows split B = 8 as 3 + 3 + 2, and view 1 runs on a worker
    monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * 8 * 3)
    model, cfg, x1, x2 = build_instance("procrustes")
    with futures.ThreadPoolExecutor(1) as worker:
        check_all_parameters(model, cfg, x1, x2, worker)


def test_clamped_temperature_has_zero_gradient():
    model, cfg, x1, x2 = build_instance("procrustes")
    model.log_tau[0] = 0.4  # above the cap: effective affinity tau pinned at 1
    _, grads, _ = _compute_step(model, x1, x2, cfg)
    assert grads["log_tau"][0] == 0.0
    assert grads["log_tau"][1] != 0.0


@pytest.mark.parametrize("keep_diagonal", [False, True])
@pytest.mark.parametrize("mode", TRAINER_ORTH_MODES)
def test_held_loss_equals_the_live_step_loss(mode, keep_diagonal):
    # at the base point the held function is the step's own loss, so the
    # finite differences above difference the function the step reports
    model, cfg, x1, x2 = build_instance(mode, keep_diagonal=keep_diagonal, seed=3)
    losses, _, held = _compute_step(model, x1, x2, cfg)
    want = losses.total_loss
    assert abs(held_step_loss(model, x1, x2, cfg, held) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("keep_diagonal", [False, True])
@pytest.mark.parametrize("mode", ["none", "procrustes", "qr", "penalty"])
def test_tau_a_gradient_matches_logit_form(mode, keep_diagonal):
    # the step takes it from the B x D embedding gradient; the oracle reads
    # the B x B logit and gradient planes
    model, cfg, x1, x2 = build_instance(mode, keep_diagonal=keep_diagonal)
    _, grads, held = _compute_step(model, x1, x2, cfg)
    views_z = held_embeddings(model, x1, x2, held)
    tau_a = net.effective_tau(model.log_tau)[0]
    want = logit_form_tau_grad(views_z, held.affinity_targets, tau_a, keep_diagonal)
    want *= net.tau_grad_scale(model.log_tau)[0]
    assert abs(grads["log_tau"][0] - want) <= 1e-12 * abs(want)
