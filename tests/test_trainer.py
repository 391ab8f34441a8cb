import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from otsc import network as net
from otsc.errors import TrainingAbortError
from otsc.trainer import (
    TRAINER_ORTH_MODES,
    TrainConfig,
    _compute_step,
    augment,
    fit,
    predict,
    train_step,
)


def tiny_cfg(**kw):
    base = dict(
        num_clusters=2,
        embed_dim=3,
        batch_size=10,
        epochs=2,
        eta=0.3,
        sinkhorn_iters=3,
        base_lr=1e-4,
        noise_sigma=0.05,
        feature_dropout_prob=0.0,
        scale_jitter=0.02,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def random_data(n=40, d=4, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestConfig:
    def test_resolved_lr_default(self):
        cfg = tiny_cfg(batch_size=128, embed_dim=3, base_lr=None)
        assert cfg.lr == pytest.approx(0.04 * 128 / 256)

    def test_embed_dim_bound(self):
        with pytest.raises(ValueError, match="batch_size"):
            tiny_cfg(batch_size=10, embed_dim=6)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            tiny_cfg(orth_mode="qrx")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(TrainConfig) if f.type.startswith("float")]
    )
    def test_refuses_non_finite_float_by_name(self, name, value):
        # out-of-range values keep their older messages, which also name the field
        with pytest.raises(ValueError, match=f"^{name} must"):
            tiny_cfg(**{name: value})

    def test_refuses_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            tiny_cfg(seed=-1)

    @pytest.mark.parametrize("settings, message", [
        ({"base_lr": 0.0}, "base_lr must be positive"),
        ({"momentum": 1.5}, "momentum must lie in [0, 1)"),
        ({"weight_decay": -1.0}, "weight_decay must be nonnegative"),
        ({"restart_period": 0}, "restart_period must be positive"),
    ])
    def test_refuses_optimizer_settings_out_of_range(self, settings, message):
        with pytest.raises(ValueError) as info:
            tiny_cfg(**settings)
        assert str(info.value) == message

    def test_optimizer_carries_the_run_settings(self):
        cfg = tiny_cfg(base_lr=None, momentum=0.5, weight_decay=0.01, restart_period=7)
        opt = cfg.optimizer()
        assert (opt.base_lr, opt.momentum, opt.weight_decay, opt.restart_period) == (
            cfg.lr, 0.5, 0.01, 7
        )
        assert opt.momentum_buffers == {} and cfg.optimizer() is not opt


class TestAugment:
    def test_zero_strengths_identity(self):
        cfg = tiny_cfg(noise_sigma=0.0, feature_dropout_prob=0.0, scale_jitter=0.0)
        rng = np.random.default_rng(1)
        x = random_data()
        assert (augment(x, cfg, rng) == x).all()

    def test_deterministic_given_state(self):
        cfg = tiny_cfg(noise_sigma=0.2, feature_dropout_prob=0.1, scale_jitter=0.1)
        x = random_data()
        a = augment(x, cfg, np.random.default_rng(7))
        b = augment(x, cfg, np.random.default_rng(7))
        assert (a == b).all()

    def test_two_draws_from_one_stream_differ(self):
        cfg = tiny_cfg(noise_sigma=0.2, feature_dropout_prob=0.1, scale_jitter=0.1)
        rng = np.random.default_rng(8)
        x = random_data()
        a = augment(x, cfg, rng)
        b = augment(x, cfg, rng)
        assert not (a == b).all()


class TestTrainStep:
    def test_lambda_zero_total_is_affinity_only(self):
        cfg = tiny_cfg(lam=0.0)
        rng = np.random.default_rng(2)
        model = net.init_model(4, 3, 2, rng)
        x1 = rng.normal(size=(10, 4))
        x2 = rng.normal(size=(10, 4))
        losses, _, _ = _compute_step(model, x1, x2, cfg, None)
        assert losses.total_loss == losses.affinity_loss

    def test_view_exchange_symmetry(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(3)
        model = net.init_model(4, 3, 2, rng)
        x1 = rng.normal(size=(10, 4))
        x2 = rng.normal(size=(10, 4))
        a, _, _ = _compute_step(model, x1, x2, cfg, None)
        b, _, _ = _compute_step(model, x2, x1, cfg, None)
        assert abs(a.total_loss - b.total_loss) <= 1e-12

    def test_repeated_batch_loss_decreases(self):
        cfg = tiny_cfg(base_lr=1e-5, epochs=1)
        rng = np.random.default_rng(4)
        model = net.init_model(4, 3, 2, rng)
        opt = net.OptimizerState(base_lr=cfg.lr, momentum=cfg.momentum,
                                 weight_decay=cfg.weight_decay,
                                 restart_period=cfg.restart_period)
        x = random_data(n=10, seed=5)
        first = None
        for step in range(50):
            losses, model = train_step(x, model, opt, cfg, np.random.default_rng(9), cfg.lr)
            if first is None:
                first = losses.total_loss
        assert losses.total_loss < first

    def test_degenerate_batch_warns_but_proceeds(self):
        cfg = tiny_cfg(noise_sigma=0.0, feature_dropout_prob=0.0, scale_jitter=0.0,
                       batch_size=8, embed_dim=3)
        rng = np.random.default_rng(6)
        model = net.init_model(4, 3, 2, rng)
        opt = net.OptimizerState(base_lr=cfg.lr)
        x = np.tile(np.array([[0.3, -0.2, 1.0, 0.4]]), (8, 1))
        with pytest.warns(RuntimeWarning, match="degenerate"):
            train_step(x, model, opt, cfg, rng, cfg.lr)


    def test_frozen_step_reports_no_inconsistency(self):
        # the inconsistency comes from orthogonalizing the views, which a
        # step with frozen residuals does not do
        cfg = tiny_cfg()
        rng = np.random.default_rng(3)
        model = net.init_model(4, 3, 2, rng)
        x1, x2 = rng.normal(size=(10, 4)), rng.normal(size=(10, 4))
        live, _, frozen = _compute_step(model, x1, x2, cfg, None)
        again, _, _ = _compute_step(model, x1, x2, cfg, frozen)
        assert live.mean_inconsistency > 0.0 and again.mean_inconsistency == 0.0
        assert again.total_loss == live.total_loss


class TestStepBuffers:
    """`fit` hands every step one store of B x B buffers; sharing it changes
    no bit, and after the first step a step allocates no B x B array."""

    @pytest.mark.parametrize("keep_diagonal", [False, True])
    @pytest.mark.parametrize("orth_mode", ["procrustes", "penalty"])
    def test_shared_store_bitwise_equals_fresh_stores(self, orth_mode, keep_diagonal):
        cfg = tiny_cfg(orth_mode=orth_mode, keep_diagonal=keep_diagonal)
        x = random_data(n=10, seed=2)
        runs = []
        for store in ({}, None):
            rng = np.random.default_rng(7)
            model = net.init_model(4, 3, 2, rng)
            opt = net.OptimizerState(base_lr=cfg.lr)
            trail = []
            for _ in range(3):
                x1, x2 = augment(x, cfg, rng), augment(x, cfg, rng)
                losses, grads, _ = _compute_step(model, x1, x2, cfg, None, store)
                trail.append((losses, [g.tobytes() for g in grads.values()]))
                losses, model = train_step(x, model, opt, cfg, rng, cfg.lr, buffers=store)
                trail.append(losses)
            runs.append((trail, [p.tobytes() for _, p in model.named_arrays()]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("keep_diagonal", [False, True])
    def test_store_holds_only_arrays_read_back(self, keep_diagonal):
        # each view's affinity logits and targets, plus the similarities in
        # the packed layout; nothing else of size B x B
        b = 10
        cfg = tiny_cfg(keep_diagonal=keep_diagonal)
        rng = np.random.default_rng(5)
        model = net.init_model(4, 3, 2, rng)
        store = {}
        opt = net.OptimizerState(base_lr=cfg.lr)
        train_step(random_data(n=b, seed=5), model, opt, cfg, rng, cfg.lr, buffers=store)
        layout = (b, b) if keep_diagonal else (b, b - 1)
        want = {f"{kind}{v}": layout for kind in ("logits", "target") for v in (0, 1)}
        if not keep_diagonal:
            want["square"] = (b, b)
        assert {key: buf.shape for key, buf in store.items()} == want

    def test_fit_hands_every_step_one_store(self, monkeypatch):
        stores = []

        def recording_step(*args, buffers=None, **kwargs):
            stores.append(buffers)
            return train_step(*args, buffers=buffers, **kwargs)

        monkeypatch.setattr("otsc.trainer.train_step", recording_step)
        fit(random_data(), tiny_cfg())  # 2 epochs of 4 steps
        assert len(stores) == 8 and stores[0]  # filled by the first step
        assert all(store is stores[0] for store in stores)

    def test_second_step_allocates_no_square_array(self):
        b = 512
        cfg = tiny_cfg(batch_size=b)
        rng = np.random.default_rng(3)
        x = random_data(n=b, seed=3)
        model = net.init_model(4, 3, 2, rng)
        opt = net.OptimizerState(base_lr=cfg.lr)
        store = {}
        train_step(x, model, opt, cfg, rng, cfg.lr, buffers=store)
        tracemalloc.start()
        try:
            train_step(x, model, opt, cfg, rng, cfg.lr, buffers=store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # what remains is mostly the encoder's activations; a step that makes
        # its B x B arrays afresh peaks near seven of them (7 * b * b * 8 bytes)
        assert peak < 3 * b * b * 8


class TestFit:
    def test_zero_epochs_returns_init_and_empty_history(self):
        cfg = tiny_cfg(epochs=0)
        x = random_data()
        model, history = fit(x, cfg)
        assert len(history) == 0
        rng = np.random.default_rng(cfg.seed)
        want = net.init_model(4, cfg.embed_dim, cfg.num_clusters, rng)
        for (_, a), (_, b) in zip(model.named_arrays(), want.named_arrays()):
            assert (a == b).all()
        assert model.version == 0

    def test_bitwise_deterministic(self):
        cfg = tiny_cfg(epochs=3)
        x = random_data()
        m1, h1 = fit(x, cfg)
        m2, h2 = fit(x, cfg)
        assert h1 == h2
        for (_, a), (_, b) in zip(m1.named_arrays(), m2.named_arrays()):
            assert (a == b).all()
        assert np.array_equal(m1.log_tau, m2.log_tau)

    def test_history_one_record_per_epoch(self):
        cfg = tiny_cfg(epochs=4)
        _, history = fit(random_data(), cfg)
        assert len(history) == 4
        assert [r.epoch for r in history.records] == [0, 1, 2, 3]
        for rec in history.records:
            for name, value in vars(rec).items():
                assert np.isfinite(value), name
                # Python numbers, which print the same under every numpy
                assert type(value) is (int if name == "epoch" else float), name

    def test_dataset_smaller_than_batch_rejected(self):
        cfg = tiny_cfg(batch_size=100)
        with pytest.raises(ValueError, match="batch_size"):
            fit(random_data(n=50), cfg)

    def test_temperatures_stay_in_unit_interval(self):
        cfg = tiny_cfg(epochs=3)
        _, history = fit(random_data(), cfg)
        for rec in history.records:
            assert 0.0 < rec.tau_a <= 1.0
            assert 0.0 < rec.tau_c <= 1.0

    def test_nan_abort_carries_location(self):
        cfg = tiny_cfg(epochs=1, base_lr=1e200)  # overflow on the next forward
        with pytest.raises(TrainingAbortError, match="epoch 0"):
            fit(random_data(), cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_model_aborts_in_every_orth_mode(self):
        # the encoder-output guard stops a diverged model before its
        # embeddings reach the SVD, QR, penalty or transport targets
        for mode in TRAINER_ORTH_MODES:
            cfg = tiny_cfg(epochs=1, base_lr=1e200, orth_mode=mode)
            with pytest.raises(TrainingAbortError) as info:
                fit(random_data(), cfg)
            assert "aborted at epoch 0, step 1: non-finite encoder output" in str(info.value), mode


class TestPredict:
    def test_repeated_calls_bitwise_equal(self):
        cfg = tiny_cfg(epochs=1)
        x = random_data()
        model, _ = fit(x, cfg)
        l1, z1 = predict(model, x)
        l2, z2 = predict(model, x)
        assert (l1 == l2).all()
        assert (z1 == z2).all()

    def test_labels_invariant_to_temperature(self):
        cfg = tiny_cfg(epochs=1)
        x = random_data()
        model, _ = fit(x, cfg)
        l1, _ = predict(model, x)
        model.log_tau[1] = np.log(0.9)
        l2, _ = predict(model, x)
        assert (l1 == l2).all()

    def test_input_dim_mismatch(self):
        model = net.init_model(4, 3, 2, np.random.default_rng(4))
        with pytest.raises(ValueError, match="^input dim 9 does not match first layer 4$"):
            predict(model, np.zeros((3, 9)))

    def test_embeddings_are_row_normalized(self):
        cfg = tiny_cfg(epochs=1)
        x = random_data()
        model, _ = fit(x, cfg)
        _, z = predict(model, x)
        assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() <= 1e-12
