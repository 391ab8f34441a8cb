"""Finite-difference verification of the full training-step backward.

The differenced function holds the stop-gradient quantities (transport
targets and the orthogonalization residual) at their base-point values,
which is exactly the function whose gradient the step reports.
"""

import numpy as np
import pytest

from otsc import network as net
from otsc.trainer import TrainConfig, _compute_step

REL_TOL = 1e-4  # double precision, central differences
H = 1e-6


def step_loss(model, x1, x2, cfg, frozen):
    """Step loss with the stop-gradient quantities held at ``frozen``: the
    smooth function whose exact gradient `_compute_step` reports."""
    losses, _, _ = _compute_step(model, x1, x2, cfg, frozen)
    return losses.total


def clone(m):
    return net.ModelState(
        layers=[(w.copy(), b.copy()) for w, b in m.layers],
        prototypes=m.prototypes.copy(),
        log_tau_a=m.log_tau_a,
        log_tau_c=m.log_tau_c,
        tau_cap=m.tau_cap,
        version=m.version,
    )


def build_instance(mode, keep_diagonal=False, seed=0):
    rng = np.random.default_rng(seed)
    model = net.init_model(4, 3, 2, rng, hidden=(6,))
    # interior temperatures (away from the clamp), distinct per head
    model.log_tau_a = float(np.log(0.3))
    model.log_tau_c = float(np.log(0.4))
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


def check_all_parameters(model, cfg, x1, x2):
    _, grads, frozen = _compute_step(model, x1, x2, cfg, None)
    failures = {}
    for name, arr in model.named_arrays():
        got = np.asarray(grads[name])
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            m2 = clone(model)
            dict(m2.named_arrays())[name][ix] += H
            up = step_loss(m2, x1, x2, cfg, frozen)
            m2 = clone(model)
            dict(m2.named_arrays())[name][ix] -= H
            down = step_loss(m2, x1, x2, cfg, frozen)
            fd[ix] = (up - down) / (2 * H)
        err = np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12)
        if err > REL_TOL:
            failures[name] = err
    for name in ("log_tau_a", "log_tau_c"):
        m2 = clone(model)
        setattr(m2, name, getattr(model, name) + H)
        up = step_loss(m2, x1, x2, cfg, frozen)
        m2 = clone(model)
        setattr(m2, name, getattr(model, name) - H)
        down = step_loss(m2, x1, x2, cfg, frozen)
        fd = (up - down) / (2 * H)
        err = abs(float(grads[name]) - fd) / max(abs(fd), 1e-12)
        if err > REL_TOL:
            failures[name] = err
    assert not failures, f"gradient mismatches: {failures}"


@pytest.mark.parametrize("mode", ["none", "procrustes", "qr", "penalty"])
def test_full_step_gradients(mode):
    model, cfg, x1, x2 = build_instance(mode)
    check_all_parameters(model, cfg, x1, x2)


def test_full_step_gradients_keep_diagonal():
    model, cfg, x1, x2 = build_instance("procrustes", keep_diagonal=True)
    check_all_parameters(model, cfg, x1, x2)


def test_clamped_temperature_has_zero_gradient():
    model, cfg, x1, x2 = build_instance("procrustes")
    model.log_tau_a = 0.4  # above the cap: effective tau pinned at 1
    _, grads, _ = _compute_step(model, x1, x2, cfg, None)
    assert float(grads["log_tau_a"]) == 0.0


def test_targets_receive_no_gradient():
    # gradients computed with live targets equal gradients computed with the
    # same targets passed as frozen constants, bitwise
    model, cfg, x1, x2 = build_instance("procrustes", seed=3)
    _, grads_live, frozen = _compute_step(model, x1, x2, cfg, None)
    _, grads_frozen, _ = _compute_step(model, x1, x2, cfg, frozen)
    for name in grads_live:
        assert np.array_equal(np.asarray(grads_live[name]), np.asarray(grads_frozen[name]))
