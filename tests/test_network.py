import gc
import warnings

import numpy as np
import pytest

from oracles import central_difference, clone, rel_error
from otsc import network as net
from otsc.errors import NumericalError


def small_model(rng, d_in=4, d_out=3, k=2, hidden=(6,)):
    return net.init_model(d_in, d_out, k, rng, hidden=hidden)


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        model = small_model(np.random.default_rng(0))
        for i, (w, b) in enumerate(model.layers):
            model.layers[i] = (np.zeros_like(w), np.zeros_like(b))
        z, _ = net.forward(model, np.random.default_rng(1).normal(size=(5, 4)))
        assert np.abs(z).max() == 0.0

    def test_single_identity_layer(self):
        model = net.ModelState(
            layers=[(np.eye(3), np.zeros(3))],
            prototypes=np.eye(3)[:2],
            log_tau=np.zeros(2),
        )
        x = np.random.default_rng(2).normal(size=(4, 3))
        z, _ = net.forward(model, x)
        assert np.allclose(z, x)

    def test_output_shape(self):
        model = small_model(np.random.default_rng(3), d_in=5, d_out=2)
        z, _ = net.forward(model, np.zeros((7, 5)))
        assert z.shape == (7, 2)


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(5)
        model = small_model(rng)
        z, inputs = net.forward(model, rng.normal(size=(6, 4)))
        grads = net.backward(model, inputs, np.zeros_like(z))
        for gw, gb in grads:
            assert np.abs(gw).max() == 0.0
            assert np.abs(gb).max() == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        model = small_model(rng, hidden=(6, 5))
        x = rng.normal(size=(8, 4))
        target = rng.normal(size=(8, 3))

        z, inputs = net.forward(model, x)
        grads = net.backward(model, inputs, z - target)  # d/dz of 0.5||z-t||^2

        for i in range(len(model.layers)):
            for part, got in zip(("w", "b"), grads[i]):
                def loss_of(p):
                    m2 = clone(model)
                    w, b = m2.layers[i]
                    if part == "w":
                        m2.layers[i] = (p, b)
                    else:
                        m2.layers[i] = (w, p)
                    z2, _ = net.forward(m2, x)
                    return 0.5 * float(((z2 - target) ** 2).sum())

                base = model.layers[i][0] if part == "w" else model.layers[i][1]
                fd = central_difference(loss_of, base)
                assert rel_error(got, fd) <= 1e-6

    def test_linear_layer_matches_normal_equation_gradient(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(2, 3))
        model = net.ModelState(
            layers=[(w.copy(), np.zeros(2))],
            prototypes=np.eye(2),
            log_tau=np.zeros(2),
        )
        x = rng.normal(size=(10, 3))
        t = rng.normal(size=(10, 2))
        z, inputs = net.forward(model, x)
        grads = net.backward(model, inputs, z - t)
        # closed form: d/dW of 0.5||XW^T - T||^2 = (XW^T - T)^T X
        want = (x @ w.T - t).T @ x
        assert np.abs(grads[0][0] - want).max() <= 1e-10

    def test_zero_pre_activation_takes_zero_subgradient(self):
        # hidden unit 0 has a zero weight row, so its pre-activation is 0 on
        # every row; unit 1 computes x0 - x1, which is exactly 0 on rows 0-2
        rng = np.random.default_rng(9)
        model = small_model(rng, hidden=(3,))
        w0 = rng.normal(size=(3, 4))
        w0[0] = 0.0
        w0[1] = [1.0, -1.0, 0.0, 0.0]
        model.layers[0] = (w0, np.zeros(3))
        x = rng.normal(size=(6, 4))
        x[:3, 1] = x[:3, 0]
        z, inputs = net.forward(model, x)
        # forward keeps one array per layer, each layer's input, and no
        # pre-activations: the first is x itself, each later one the
        # rectified output of the layer before
        assert len(inputs) == len(model.layers)
        assert inputs[0] is x
        assert np.array_equal(inputs[1], np.maximum(x @ w0.T, 0.0))
        grads = net.backward(model, inputs, np.ones_like(z))
        g_h = np.ones_like(z) @ model.layers[1][0]
        assert (grads[0][0][0] == 0.0).all() and grads[0][1][0] == 0.0
        live = (x @ w0.T)[:, 1] > 0
        assert not live[:3].any()
        assert abs(grads[0][1][1] - g_h[live, 1].sum()) <= 1e-12 * np.abs(g_h).sum()


class TestTemperature:
    def test_clamped_at_one(self):
        tau = net.effective_tau(np.array([5.0, 0.0, np.log(0.05)]))
        assert tau[0] == 1.0
        assert tau[1] == 1.0
        assert tau[2] == pytest.approx(0.05)

    def test_gradient_zero_when_clamped(self):
        scale = net.tau_grad_scale(np.array([0.5, 0.0, np.log(0.2)]))
        assert scale[0] == 0.0
        assert scale[1] == 0.0
        assert scale[2] == pytest.approx(0.2)

    def test_gradient_scale_far_above_the_cap_does_not_overflow(self):
        scale = net.tau_grad_scale(np.array([800.0, -1.0]))
        assert scale.tolist() == [0.0, np.exp(-1.0)]


class TestSgd:
    def test_plain_gradient_step(self):
        rng = np.random.default_rng(9)
        model = small_model(rng)
        opt = net.OptimizerState(base_lr=0.1, momentum=0.0, weight_decay=0.0)
        grads = {name: np.ones_like(p) for name, p in model.named_arrays()}
        grads["log_tau"] = np.array([0.5, 0.0])
        before = clone(model)
        net.sgd_step(model, opt, grads, lr=0.1)
        for (name, p0), (_, p1) in zip(before.named_arrays(), model.named_arrays()):
            if name != "log_tau":
                assert np.allclose(p1, p0 - 0.1)
        assert np.allclose(model.log_tau, before.log_tau - [0.05, 0.0])

    def test_pure_decay(self):
        rng = np.random.default_rng(10)
        model = small_model(rng)
        opt = net.OptimizerState(base_lr=0.1, momentum=0.0, weight_decay=0.01)
        grads = {name: np.zeros_like(p) for name, p in model.named_arrays()}
        w_before = model.layers[0][0].copy()
        tau_before = model.log_tau.copy()
        net.sgd_step(model, opt, grads, lr=0.1)
        assert np.allclose(model.layers[0][0], w_before * (1 - 0.1 * 0.01))
        # log-temperatures are excluded from decay
        assert np.array_equal(model.log_tau, tau_before)

    def test_two_momentum_steps_hand_computed(self):
        # scalar parameter p=1, gradient 1 twice, momentum 0.9, lr 0.1:
        # buf1 = 1, p = 1 - 0.1 = 0.9; buf2 = 1.9, p = 0.9 - 0.19 = 0.71
        # (the affinity log temperature moves the same way from 0)
        model = net.ModelState(
            layers=[(np.array([[1.0]]), np.zeros(1))],
            prototypes=np.eye(2)[:, :1] + [[1.0], [0.0]],
            log_tau=np.zeros(2),
        )
        opt = net.OptimizerState(base_lr=0.1, momentum=0.9, weight_decay=0.0)
        grads = {
            "layer0.weight": np.array([[1.0]]),
            "layer0.bias": np.zeros(1),
            "prototypes": np.zeros((2, 1)),
            "log_tau": np.array([1.0, 0.0]),
        }
        net.sgd_step(model, opt, grads, 0.1)
        assert model.layers[0][0][0, 0] == pytest.approx(0.9)
        assert model.log_tau[0] == pytest.approx(-0.1)
        net.sgd_step(model, opt, grads, 0.1)
        assert model.layers[0][0][0, 0] == pytest.approx(0.71)
        assert model.log_tau == pytest.approx([-0.29, 0.0])

    def test_nan_gradient_refused(self):
        rng = np.random.default_rng(11)
        model = small_model(rng)
        opt = net.OptimizerState(base_lr=0.1)
        grads = {name: np.zeros_like(p) for name, p in model.named_arrays()}
        grads["log_tau"] = np.array([np.nan, 0.0])
        before = clone(model)
        with pytest.raises(NumericalError) as info:
            net.sgd_step(model, opt, grads, 0.1)
        assert str(info.value) == "non-finite gradient for 'log_tau'; step refused"
        assert np.allclose(before.layers[0][0], model.layers[0][0])
        assert np.array_equal(before.log_tau, model.log_tau)


class TestOptimizerState:
    @pytest.mark.parametrize("name", ["base_lr", "weight_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refuses_non_finite_setting_by_name(self, name, value):
        settings = {"base_lr": 0.1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            net.OptimizerState(**settings)

    @pytest.mark.parametrize("settings, message", [
        ({"restart_period": 2.5}, "restart_period must be an integer, got 2.5"),
        ({"momentum": "0.9"}, "momentum must be a real number, got '0.9'"),
    ])
    def test_refuses_a_value_its_annotation_does_not_take_by_name(self, settings, message):
        with pytest.raises(ValueError) as info:
            net.OptimizerState(base_lr=0.1, **settings)
        assert str(info.value) == message

    def test_numpy_scalars_are_taken(self):
        given = net.OptimizerState(np.float64(0.1), restart_period=np.int64(50))
        want = net.OptimizerState(0.1, restart_period=50)
        assert [net.cosine_lr(e, given) for e in range(60)] == [
            net.cosine_lr(e, want) for e in range(60)]


class TestCosineSchedule:
    def test_endpoints(self):
        opt = net.OptimizerState(base_lr=0.4, restart_period=200)
        assert net.cosine_lr(0, opt) == pytest.approx(0.4)
        assert net.cosine_lr(100, opt) == pytest.approx(0.2)
        assert net.cosine_lr(200, opt) == pytest.approx(0.4)  # restart
        assert net.cosine_lr(399, opt) < 1e-4

    def test_monotone_within_period(self):
        opt = net.OptimizerState(base_lr=1.0, restart_period=50)
        lrs = [net.cosine_lr(e, opt) for e in range(50)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))


class TestCheckpoint:
    def test_unreadable_file_is_closed(self, tmp_path):
        # np.load given a path leaks the handle it opened when the zip reader
        # rejects the file
        path = tmp_path / "ckpt.npz"
        model = small_model(np.random.default_rng(12))
        net.save_checkpoint(path, model, net.OptimizerState(base_lr=0.05), epoch=0)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="ckpt.npz is unreadable"):
                net.load_checkpoint(path)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        model = small_model(rng, hidden=(6, 5))
        model.log_tau[0] = -1.3
        opt = net.OptimizerState(base_lr=0.05, momentum=0.8, weight_decay=1e-4)
        opt.momentum_buffers["layer0.weight"] = rng.normal(size=model.layers[0][0].shape)
        opt.momentum_buffers["log_tau"] = np.array([0.25, -0.5])
        rng_state = {"note": "opaque"}

        path = tmp_path / "ckpt.npz"
        net.save_checkpoint(path, model, opt, epoch=17, rng_state=rng_state)
        m2, o2, epoch, rs = net.load_checkpoint(path)

        assert epoch == 17
        assert rs == rng_state
        assert np.array_equal(m2.log_tau, model.log_tau)
        assert m2.version == model.version
        for (_, a), (_, b) in zip(model.named_arrays(), m2.named_arrays()):
            assert (a == b).all()
        assert o2.base_lr == 0.05
        assert o2.momentum == 0.8
        assert o2.momentum_buffers.keys() == opt.momentum_buffers.keys()
        for name, buf in opt.momentum_buffers.items():
            assert np.array_equal(o2.momentum_buffers[name], buf)
