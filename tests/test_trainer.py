import contextlib
import subprocess
import sys
import threading
import tracemalloc
from concurrent import futures
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import otsc.trainer
from oracles import TAU_INIT, masked_softmax_cross_entropy, plan_of, rel_error
from otsc import network as net
from otsc.cli import format_report
from otsc.data import gen_dataset
from otsc.errors import NumericalError
from otsc.metrics import evaluate
from otsc.spectral import softmax_cross_entropy
from otsc.trainer import (
    PARALLEL_MIN_BATCH,
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

    # the next three are the guarantees `off_diagonal`, `thin_svd` and
    # `orthogonalize` trust: a B x B plane with B >= 2, B >= 2 D, a known mode

    def test_refuses_a_batch_of_one(self):
        with pytest.raises(ValueError, match="^batch_size must be >= 2, got 1$"):
            TrainConfig(num_clusters=2, batch_size=1)

    def test_embed_dim_bound(self):
        with pytest.raises(ValueError, match="^embed_dim must not exceed batch_size / 2$"):
            tiny_cfg(batch_size=10, embed_dim=6)

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="^orth_mode must be one of .*, got 'cayley'$"):
            tiny_cfg(orth_mode="cayley")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(TrainConfig) if f.type.startswith("float")]
    )
    def test_refuses_non_finite_float_by_name(self, name, value):
        with pytest.raises(ValueError) as info:
            tiny_cfg(**{name: value})
        assert str(info.value) == f"{name} must be finite, got {value}"

    @pytest.mark.parametrize("settings, message", [
        ({"sinkhorn_iters": 2.5}, "sinkhorn_iters must be an integer, got 2.5"),
        ({"num_clusters": 2.0}, "num_clusters must be an integer, got 2.0"),
        ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"batch_size": True}, "batch_size must be an integer, got True"),
        ({"eta": "0.05"}, "eta must be a real number, got '0.05'"),
        ({"lam": True}, "lam must be a real number, got True"),
        ({"base_lr": "1e-4"}, "base_lr must be a real number, got '1e-4'"),
        ({"restart_period": 2.5}, "restart_period must be an integer, got 2.5"),
        ({"embed_dim": 2.5}, "embed_dim must be an integer, got 2.5"),
        ({"momentum": "0.9"}, "momentum must be a real number, got '0.9'"),
        ({"weight_decay": None}, "weight_decay must be a real number, got None"),
        ({"noise_sigma": True}, "noise_sigma must be a real number, got True"),
        ({"feature_dropout_prob": "0.1"},
         "feature_dropout_prob must be a real number, got '0.1'"),
        ({"scale_jitter": None}, "scale_jitter must be a real number, got None"),
        ({"tau_a_init": False}, "tau_a_init must be a real number, got False"),
        ({"tau_c_init": "0.05"}, "tau_c_init must be a real number, got '0.05'"),
    ])
    def test_refuses_a_value_its_annotation_does_not_take_by_name(self, settings, message):
        # every numeric field is refused by name at least once; unrefused,
        # 2.5 sweeps would run as 3, and 2.0 clusters or eta "0.05" would
        # raise a TypeError that names no field
        with pytest.raises(ValueError) as info:
            tiny_cfg(**settings)
        assert str(info.value) == message

    def test_numpy_scalars_are_taken(self):
        # numpy integers for int fields and np.float64 for float ones: the
        # same run as with Python's
        x = random_data(n=20, d=3)
        cfg = tiny_cfg()
        given = tiny_cfg(
            num_clusters=np.int64(2), batch_size=np.int32(10), sinkhorn_iters=np.int64(3),
            eta=np.float64(0.3), base_lr=np.float64(1e-4),
        )
        (model, history), (want_model, want_history) = fit(x, given), fit(x, cfg)
        assert history == want_history
        assert all((a == b).all() for (_, a), (_, b) in
                   zip(model.named_arrays(), want_model.named_arrays()))

    def test_refuses_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            tiny_cfg(seed=-1)

    @pytest.mark.parametrize("settings, message", [
        ({"base_lr": 0.0}, "base_lr must be positive, got 0.0"),
        ({"momentum": 1.5}, "momentum must lie in [0, 1), got 1.5"),
        ({"weight_decay": -1.0}, "weight_decay must be nonnegative, got -1.0"),
        ({"restart_period": 0}, "restart_period must be >= 1, got 0"),
        # from 1 on, augment's 1 + U(-scale_jitter, scale_jitter) can zero a
        # sample or flip it through the origin
        ({"scale_jitter": 1.0}, "scale_jitter must lie in [0, 1), got 1.0"),
        ({"scale_jitter": -0.1}, "scale_jitter must lie in [0, 1), got -0.1"),
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
        assert opt.velocity is None and cfg.optimizer() is not opt


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
        # train_step takes the batch std once and hands it to both views
        c = augment(x, cfg, np.random.default_rng(7), x.std(axis=0))
        assert c.tobytes() == a.tobytes()

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
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
        x1 = rng.normal(size=(10, 4))
        x2 = rng.normal(size=(10, 4))
        losses, _, _ = _compute_step(model, x1, x2, cfg)
        assert losses.total_loss == losses.affinity_loss

    def test_view_exchange_symmetry(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(3)
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
        x1 = rng.normal(size=(10, 4))
        x2 = rng.normal(size=(10, 4))
        a, _, _ = _compute_step(model, x1, x2, cfg)
        b, _, _ = _compute_step(model, x2, x1, cfg)
        assert abs(a.total_loss - b.total_loss) <= 1e-12

    def test_repeated_batch_loss_decreases(self):
        cfg = tiny_cfg(base_lr=1e-5, epochs=1)
        rng = np.random.default_rng(4)
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
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
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
        opt = net.OptimizerState(base_lr=cfg.lr)
        x = np.tile(np.array([[0.3, -0.2, 1.0, 0.4]]), (8, 1))
        # the identical rows also embed at rank one, so the polar factor warns too
        with pytest.warns(RuntimeWarning) as caught:
            train_step(x, model, opt, cfg, rng, cfg.lr)
        assert {str(w.message) for w in caught} == {
            "degenerate batch: all augmented rows identical", "ill-conditioned polar factor"}


    @pytest.mark.parametrize("on_worker", [False, True])
    def test_one_encoder_pass_and_one_backward_per_view(self, monkeypatch, on_worker):
        # each view goes through the encoder on its own, forward and back:
        # forward sees each view's rows once, and backward each forward's
        # layer inputs once
        forwards, backwards = [], []
        forward, backward = net.forward, net.backward

        def counted_forward(model, x):
            z_raw, inputs = forward(model, x)
            forwards.append((x, inputs))
            return z_raw, inputs

        def counted_backward(model, inputs, grad_z, **out):
            backwards.append(inputs)
            return backward(model, inputs, grad_z, **out)

        monkeypatch.setattr(net, "forward", counted_forward)
        monkeypatch.setattr(net, "backward", counted_backward)
        cfg = tiny_cfg()
        rng = np.random.default_rng(3)
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
        x1, x2 = rng.normal(size=(10, 4)), rng.normal(size=(10, 4))
        with futures.ThreadPoolExecutor(1) if on_worker else contextlib.nullcontext() as worker:
            _compute_step(model, x1, x2, cfg, worker=worker)
        assert sorted(id(x) for x, _ in forwards) == sorted([id(x1), id(x2)])
        assert sorted(map(id, backwards)) == sorted(id(inputs) for _, inputs in forwards)

    @pytest.mark.parametrize("mode", TRAINER_ORTH_MODES)
    def test_each_backward_runs_on_the_model_its_forward_saw(self, monkeypatch, mode):
        # `backward` trusts its layer inputs to come from the same model before
        # the step's update: fit pairs every forward with one backward first,
        # whichever route the step takes between them
        open_passes, paired = {}, []
        forward, backward = net.forward, net.backward

        def checked_forward(model, x):
            z_raw, inputs = forward(model, x)
            open_passes[id(inputs)] = (id(model), model.version)
            return z_raw, inputs

        def checked_backward(model, inputs, grad_z, **out):
            paired.append(open_passes.pop(id(inputs)) == (id(model), model.version))
            return backward(model, inputs, grad_z, **out)

        monkeypatch.setattr(net, "forward", checked_forward)
        monkeypatch.setattr(net, "backward", checked_backward)
        fit(random_data(), tiny_cfg(orth_mode=mode))
        # 2 epochs of 4 steps, 2 views each
        assert (paired, open_passes) == ([True] * 16, {})

    @pytest.mark.parametrize("mode", TRAINER_ORTH_MODES)
    @pytest.mark.parametrize("batch_size, embed_dim", [(2, 1), (10, 5)])
    def test_the_tightest_shapes_accepted_run_a_step(self, batch_size, embed_dim, mode):
        # at TrainConfig's bounds, B = 2 and B = 2 D, `off_diagonal` gets the
        # smallest plane and `thin_svd` and `orthogonalize` the widest matrix
        # that they trust: the step stays finite and each target row puts its
        # unit of affinity off the diagonal
        cfg = tiny_cfg(batch_size=batch_size, embed_dim=embed_dim, orth_mode=mode)
        rng = np.random.default_rng(6)
        model = net.init_model(4, embed_dim, 2, rng, TAU_INIT)
        x1, x2 = rng.normal(size=(2, batch_size, 4))
        losses, grads, (_, targets, _) = _compute_step(model, x1, x2, cfg)
        assert np.isfinite(losses.total_loss)
        assert np.isfinite(grads).all()
        for t in map(plan_of, targets):
            assert np.trace(t) == 0.0
            assert np.abs(t.sum(axis=1) - 1.0).max() <= 1e-12


class TestStepStatistics:
    """The step's history columns measure what they name, in units that do
    not drift with the scale of the raw embeddings."""

    @staticmethod
    def step(orth_mode="procrustes", scale=1.0, **kw):
        rng = np.random.default_rng(11)
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
        w, b = model.layers[-1]
        w *= scale
        b *= scale
        x1, x2 = rng.normal(size=(10, 4)), rng.normal(size=(10, 4))
        return _compute_step(model, x1, x2, tiny_cfg(orth_mode=orth_mode, **kw))

    def test_inconsistency_does_not_depend_on_row_scale(self):
        base = self.step()[0].mean_inconsistency
        scaled = self.step(scale=1e3)[0].mean_inconsistency
        assert base > 0.0
        assert abs(scaled - base) <= 1e-12 * base

    def test_inconsistency_range(self):
        # a residual row is the difference of two unit rows, so its norm is
        # at most 2; nothing is orthogonalized under none and penalty
        for orth_mode in TRAINER_ORTH_MODES:
            losses = self.step(orth_mode, scale=1e3)[0]
            if orth_mode in ("none", "penalty"):
                assert losses.mean_inconsistency == 0.0
            else:
                assert 0.0 < losses.mean_inconsistency <= 2.0


class TestAffinityTargetMarginals:
    """An affinity target's column j is sample j, so Sinkhorn's column step
    balances the mass each sample receives, not the mass of a position."""

    # the README's config and data: moons, n = 1000, noise 0.04, seed 7
    CONFIG = dict(num_clusters=2, embed_dim=2, eta=0.05, sinkhorn_iters=5, base_lr=5e-6,
                  weight_decay=0.05, restart_period=600, noise_sigma=0.04,
                  feature_dropout_prob=0.0, scale_jitter=0.02, tau_a_init=0.15,
                  tau_c_init=0.12, seed=1)

    @pytest.mark.parametrize("b", [100, 256])
    def test_every_sample_receives_one_unit(self, b):
        cfg = TrainConfig(batch_size=b, **self.CONFIG)
        x = gen_dataset("moons", 1000, 0.04, 7).features
        rng = np.random.default_rng(cfg.seed)
        model = net.init_model(2, cfg.embed_dim, cfg.num_clusters, rng, TAU_INIT)
        batch = x[rng.permutation(1000)[:b]]
        planes = np.empty((2, 2, b, b))
        x1, x2 = augment(batch, cfg, rng), augment(batch, cfg, rng)
        _, _, (_, targets, _) = _compute_step(model, x1, x2, cfg, planes)
        for v in (0, 1):
            w = plan_of(targets[v])
            received = w.sum(axis=0)
            assert np.abs(received - 1.0).max() <= 0.05, (received.min(), received.max())
            assert (np.diag(w) == 0.0).all() and (np.diag(planes[1, v]) == 0.0).all()
            # the logits plane holds the cross entropy's exp after the step
            assert (np.diag(planes[0, v]) == 0.0).all()


class TestStepBuffers:
    """`fit` hands every step one (2, 2, B, B) array of planes; sharing it
    changes no bit, and after the first step a step allocates no B x B array."""

    @pytest.mark.parametrize("orth_mode", ["procrustes", "penalty", "none"])
    def test_shared_store_bitwise_equals_fresh_stores(self, orth_mode):
        cfg = tiny_cfg(orth_mode=orth_mode)
        x = random_data(n=10, seed=2)
        runs = []
        # NaN-filled shared planes: no step may read what it did not write
        for planes in (np.full((2, 2, 10, 10), np.nan), None):
            rng = np.random.default_rng(7)
            model = net.init_model(4, 3, 2, rng, TAU_INIT)
            opt = net.OptimizerState(base_lr=cfg.lr)
            trail = []
            for _ in range(3):
                x1, x2 = augment(x, cfg, rng), augment(x, cfg, rng)
                losses, grads, _ = _compute_step(model, x1, x2, cfg, planes)
                trail.append((losses, grads.tobytes()))
                losses, model = train_step(x, model, opt, cfg, rng, cfg.lr, planes=planes)
                trail.append(losses)
            runs.append((trail, [p.tobytes() for _, p in model.named_arrays()]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("orth_mode", TRAINER_ORTH_MODES)
    def test_store_holds_only_arrays_read_back(self, orth_mode, monkeypatch):
        # after a step planes[0, v] holds view v's E = exp(logits/tau - m),
        # whose row softmax is scored against view 1 - v's target, and
        # planes[1, v] the kernel of view v's row-stochastic target,
        # exp(logits/eta - max) as the solver left it, not scaled into a
        # plan, each with a zero diagonal
        b = 10
        calls = []

        def recording_loss(target, logits, z, y, tau):
            if logits.shape == (b, b):
                calls.append((target, logits.copy(), tau))
            return softmax_cross_entropy(target, logits, z, y, tau)

        monkeypatch.setattr("otsc.trainer.softmax_cross_entropy", recording_loss)
        cfg = tiny_cfg(orth_mode=orth_mode)
        rng = np.random.default_rng(5)
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
        planes = np.full((2, 2, b, b), np.nan)
        opt = net.OptimizerState(base_lr=cfg.lr)
        train_step(random_data(n=b, seed=5), model, opt, cfg, rng, cfg.lr, planes=planes)
        assert len(calls) == 2
        for v, (target, logits, tau) in enumerate(calls):
            assert np.shares_memory(target[0], planes[1, 1 - v])
            w = plan_of(target)
            _, grad = masked_softmax_cross_entropy(w, logits, tau)
            e = planes[0, v]
            assert (e.max(axis=1) == 1.0).all()
            assert rel_error(e / e.sum(axis=1, keepdims=True), grad * tau + w) <= 1e-14
            assert w.min() >= 0.0 and np.abs(w.sum(axis=1) - 1.0).max() <= 1e-14
            assert (np.diag(planes[1, 1 - v]) == 0.0).all()
            assert (np.diag(e) == 0.0).all()
            kernel = logits / cfg.eta
            kernel -= kernel.max()
            assert np.exp(kernel).tobytes() == planes[1, v].tobytes()

    def test_fit_hands_every_step_one_store(self, monkeypatch):
        handed = []

        def recording_step(*args, planes=None, **kwargs):
            handed.append(planes)
            return train_step(*args, planes=planes, **kwargs)

        monkeypatch.setattr("otsc.trainer.train_step", recording_step)
        fit(random_data(), tiny_cfg())  # 2 epochs of 4 steps at B = 10
        assert len(handed) == 8 and all(planes is handed[0] for planes in handed)
        assert handed[0].shape == (2, 2, 10, 10) and handed[0].dtype == np.float64
        assert np.isfinite(handed[0]).all()  # written by the steps

    def test_second_step_allocates_no_square_array(self):
        b = 512
        cfg = tiny_cfg(batch_size=b)
        rng = np.random.default_rng(3)
        x = random_data(n=b, seed=3)
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
        opt = net.OptimizerState(base_lr=cfg.lr)
        planes = np.empty((2, 2, b, b))
        train_step(x, model, opt, cfg, rng, cfg.lr, planes=planes)
        tracemalloc.start()
        try:
            train_step(x, model, opt, cfg, rng, cfg.lr, planes=planes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # what remains is mostly the encoder's activations; a step that makes
        # its B x B arrays afresh peaks near seven of them (7 * b * b * 8 bytes)
        assert peak < 3 * b * b * 8


def record_sinkhorn_threads(monkeypatch) -> set:
    """The threads that run the step's Sinkhorn calls, recorded through the
    name the step calls them by."""
    threads, sinkhorn = set(), otsc.trainer.sinkhorn_algorithm1

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        return sinkhorn(*args, **kwargs)

    monkeypatch.setattr("otsc.trainer.sinkhorn_algorithm1", recording)
    return threads


def failing_sinkhorn(monkeypatch, fail_view_0: bool):
    """Make the step's Sinkhorn calls raise on the worker thread (view 1)
    and, if ``fail_view_0``, on the calling thread too."""
    main, sinkhorn = threading.get_ident(), otsc.trainer.sinkhorn_algorithm1

    def failing(*args, **kwargs):
        on_main = threading.get_ident() == main
        if fail_view_0 or not on_main:
            raise NumericalError(f"view {0 if on_main else 1} failed")
        return sinkhorn(*args, **kwargs)

    monkeypatch.setattr("otsc.trainer.sinkhorn_algorithm1", failing)


class TestWorker:
    """From `PARALLEL_MIN_BATCH` on, with 2 CPUs, `fit` runs view 1 of each
    step on a worker thread; the results do not change by a bit."""

    def test_fit_with_the_worker_bitwise_equals_fit_without(self, monkeypatch):
        b = 512  # 4 row panels per view
        assert b >= PARALLEL_MIN_BATCH
        ds = gen_dataset("moons", 2 * b, 0.04, 3)
        cfg = tiny_cfg(batch_size=b, embed_dim=2)
        runs = []
        for cpus in (2, 1):
            with monkeypatch.context() as m:
                m.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
                threads = record_sinkhorn_threads(m)
                model, history = fit(ds.features, cfg)
            assert len(threads) == cpus
            labels, z = predict(model, ds.features)
            arrays = [(name, p.tobytes()) for name, p in model.named_arrays()]
            report = format_report(evaluate(ds.labels, labels), ds.name, ds.n)
            runs.append((history, arrays, labels.tobytes(), z.tobytes(), report))
        assert runs[0] == runs[1]

    def test_no_worker_below_the_threshold(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        threads = record_sinkhorn_threads(monkeypatch)
        fit(random_data(), tiny_cfg())
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("fail_view_0", [False, True])
    def test_failing_view_aborts_fit_and_joins_the_worker(self, monkeypatch, fail_view_0):
        # view 1 is joined before an error is raised; view 0's wins
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        failing_sinkhorn(monkeypatch, fail_view_0)
        before = threading.active_count()
        cfg = tiny_cfg(batch_size=PARALLEL_MIN_BATCH, embed_dim=2)
        view = 0 if fail_view_0 else 1
        with pytest.raises(NumericalError) as info:
            fit(random_data(n=PARALLEL_MIN_BATCH, seed=8), cfg)
        assert str(info.value) == f"aborted at epoch 0, step 0: view {view} failed"
        assert threading.active_count() == before

    def test_step_on_a_worker_bitwise_equals_serial_under_frequent_switches(self, monkeypatch):
        # panels of 7 rows give each view 6 of them at B = 40; a 1 us switch
        # interval interleaves the two threads as often as Python allows
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * 40 * 7)
        cfg = tiny_cfg(batch_size=40)
        rng = np.random.default_rng(9)
        x = random_data(n=40, seed=9)
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
        x1, x2 = augment(x, cfg, rng), augment(x, cfg, rng)

        def step(worker):
            losses, grads, _ = _compute_step(model, x1, x2, cfg, worker=worker)
            return losses, grads.tobytes()

        want = step(None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with futures.ThreadPoolExecutor(1) as worker:
                got = [step(worker) for _ in range(20)]
        finally:
            sys.setswitchinterval(interval)
        assert all(g == want for g in got)

    def test_row_panels_move_the_step_by_rounding_only(self, monkeypatch):
        # the panel sums of z.T @ A reorder a summation; nothing else moves
        cfg = tiny_cfg(batch_size=40)
        rng = np.random.default_rng(10)
        model = net.init_model(4, 3, 2, rng, TAU_INIT)
        x = random_data(n=40, seed=10)
        x1, x2 = augment(x, cfg, rng), augment(x, cfg, rng)
        want, want_grads, _ = _compute_step(model, x1, x2, cfg)  # one panel
        monkeypatch.setattr("otsc.spectral.PANEL_BYTES", 8 * 40 * 7)
        got, got_grads, _ = _compute_step(model, x1, x2, cfg)
        for name, value in got._asdict().items():
            assert value == pytest.approx(getattr(want, name), rel=1e-14, abs=0.0), name
        want_grads = dict(model.named_arrays(want_grads))
        for name, g in model.named_arrays(got_grads):
            scale = np.abs(want_grads[name]).max()
            assert np.abs(g - want_grads[name]).max() <= 1e-13 * scale, name


# fit's abort when base_lr = 1e200 makes the encoder output overflow on step 1
# step 0's update at lr 1e200 takes the prototypes beyond sqrt(max double), so
# step 1's first act, normalizing them, finds row 0's norm overflowed
DIVERGED = "aborted at epoch 0, step 1: row_normalize received row 0 of norm inf"


class TestFit:
    @pytest.mark.parametrize("tau_a, tau_c", [TAU_INIT, (0.15, 0.12)])
    def test_zero_epochs_returns_init_and_empty_history(self, tau_a, tau_c):
        cfg = tiny_cfg(epochs=0, tau_a_init=tau_a, tau_c_init=tau_c)
        x = random_data()
        model, history = fit(x, cfg)
        assert len(history) == 0
        rng = np.random.default_rng(cfg.seed)
        want = net.init_model(4, cfg.embed_dim, cfg.num_clusters, rng, (tau_a, tau_c))
        for (_, a), (_, b) in zip(model.named_arrays(), want.named_arrays()):
            assert (a == b).all()
        assert model.log_tau.tobytes() == np.log([tau_a, tau_c]).tobytes()
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
        with pytest.raises(NumericalError) as info:
            fit(random_data(), cfg)
        assert str(info.value) == DIVERGED

    def test_overflowing_logits_over_eta_abort_naming_the_entry(self):
        # eta 1e-310 is positive and finite, but logits/eta overflows
        message = (r"^aborted at epoch 0, step 0: entry \[\d+, \d+\] overflowed dividing by"
                   r" eta \(eta=1e-310\)$")
        with pytest.raises(NumericalError, match=message):
            fit(random_data(), tiny_cfg(epochs=1, eta=1e-310))

    def test_diverged_model_aborts_in_every_orth_mode(self):
        # the step's prototype normalization stops a diverged model before
        # its embeddings reach the SVD, penalty or transport targets,
        # and no numpy warning precedes the abort
        for mode in TRAINER_ORTH_MODES:
            cfg = tiny_cfg(epochs=1, base_lr=1e200, orth_mode=mode)
            with pytest.raises(NumericalError) as info:
                fit(random_data(), cfg)
            assert str(info.value) == DIVERGED, mode

    def test_contract_error_in_a_step_is_not_a_numerical_abort(self, monkeypatch):
        # fit turns numerical events into aborts; any other error is a bug
        # and leaves fit as itself
        def broken_backward(*args, **kwargs):
            raise ValueError("broken contract")

        monkeypatch.setattr(net, "backward", broken_backward)
        with pytest.raises(ValueError, match="^broken contract$") as info:
            fit(random_data(), tiny_cfg(epochs=1))
        assert not isinstance(info.value, NumericalError)


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
        model = net.init_model(4, 3, 2, np.random.default_rng(4), TAU_INIT)
        with pytest.raises(ValueError, match="^input dim 9 does not match first layer 4$"):
            predict(model, np.zeros((3, 9)))

    def test_overflowing_encoder_output_is_refused_without_a_warning(self):
        model = net.init_model(4, 3, 2, np.random.default_rng(4), TAU_INIT)
        for weight, _ in model.layers:
            weight *= 1e200  # the second layer's products overflow
        with pytest.raises(NumericalError) as info:
            predict(model, random_data())
        assert str(info.value) == "non-finite encoder output: the model has diverged"

    def test_embeddings_are_row_normalized(self):
        cfg = tiny_cfg(epochs=1)
        x = random_data()
        model, _ = fit(x, cfg)
        _, z = predict(model, x)
        assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() <= 1e-12


def test_training_path_does_not_import_scipy():
    # scipy serves the spectral baseline's eigensolver and the ACC matching
    # only, and each loads it where it runs; a fresh interpreter that imports
    # the trainer and the whole command line from the sources under test
    # must not load it
    src = str(Path(net.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import otsc.trainer, otsc.cli; " \
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
