"""Tests for the objective, optimizer, binarization, and fitting loop."""

import math
import threading
import time
from collections import Counter
from concurrent import futures

import numpy as np
import pytest

from helpers import assert_same_bits, peak_mb_above_held, zero_parameters
from vampvae import autodiff as ad
from vampvae import cli, training
from vampvae import helper as hp
from vampvae.autodiff import Branch, Graph, Tensor, backward
from vampvae.datasets import synth_clusters
from vampvae.errors import ContractError, DomainError
from vampvae.models import ModelSpec, build_model, set_parameters
from vampvae.training import (
    AdamState,
    TrainConfig,
    beta_schedule,
    dynamic_binarize,
    fit,
    objective,
    prepare_validation,
    step,
    validation_elbo,
)

from test_models import tiny_model


def _config(**kw):
    base = dict(max_epochs=3, learning_rate=1e-3, batch_size=16,
                warmup_epochs=2, early_stop_patience=3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestBetaSchedule:
    def test_endpoints_and_shape(self):
        assert beta_schedule(0, 100) == 0.0
        assert beta_schedule(100, 100) == 1.0
        assert beta_schedule(250, 100) == 1.0
        values = [beta_schedule(e, 100) for e in range(200)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))
        assert beta_schedule(50, 100) == 0.5

    def test_zero_warmup_means_no_annealing(self):
        assert beta_schedule(0, 0) == 1.0


class TestObjective:
    def test_beta_zero_kills_prior_gradients(self):
        model = tiny_model(1, "vamp", seed=1)
        x = np.random.default_rng(0).integers(0, 2, (4, 4)).astype(float)
        params = model.parameters()
        for p in params.values():
            p.zero_grad()
        with Graph():
            backward(objective(x, model, 0.0, np.random.default_rng(1)))
        pseudo = params["prior.pseudo_inputs"]
        assert pseudo.grad is not None
        np.testing.assert_array_equal(pseudo.grad, 0.0)
        enc_grads = [np.abs(params[k].grad).max() for k in params
                     if k.startswith("encoder.")]
        assert max(enc_grads) > 0

    def test_beta_one_is_negative_elbo(self):
        model = tiny_model(2, "vamp", seed=2)
        x = np.random.default_rng(1).integers(0, 2, (5, 4)).astype(float)
        loss = objective(x, model, 1.0, np.random.default_rng(7)).item()
        rec = model.forward(x, np.random.default_rng(7), 1)
        assert loss == pytest.approx(-rec.elbo().data.mean(), abs=1e-12)

    def test_linearity_in_beta(self):
        model = tiny_model(2, "sg", seed=3)
        x = np.random.default_rng(2).integers(0, 2, (4, 4)).astype(float)
        losses = [objective(x, model, b, np.random.default_rng(9)).item()
                  for b in (0.0, 0.5, 1.0)]
        assert losses[1] == pytest.approx((losses[0] + losses[2]) / 2,
                                          abs=1e-12)

    def test_a_desk_step_records_one_node_per_layer(self):
        # two levels, sg prior, D=64, default sizes: 14 gated layers, 4
        # heads and 3 Gaussian densities, one node each; 150 nodes unfused
        model = build_model(ModelSpec(levels=2, data_dim=64),
                            np.random.default_rng(4))
        x = np.random.default_rng(5).integers(0, 2, (100, 64)).astype(float)
        with Graph() as graph:
            objective(x, model, 1.0, np.random.default_rng(6))
            ops = Counter(node.op for node in graph.nodes)
        assert (ops["gated_dense"], ops["matmul"], ops["normal_logpdf"]) \
            == (14, 4, 3)
        assert sum(ops.values()) == 52

    def test_beta_out_of_range(self):
        model = tiny_model(1)
        with pytest.raises(ContractError):
            objective(np.zeros((1, 4)), model, 1.5, np.random.default_rng(0))


class TestStep:
    def _params(self, values):
        return {"w": Tensor(np.array(values), requires_grad=True)}

    def test_scale_invariance_per_block(self):
        updates = []
        for factor in (1.0, 10.0):
            params = self._params([1.0, 2.0, 3.0])
            params["w"].grad = factor * np.array([0.3, -0.4, 0.5])
            opt = AdamState(params)
            step(params, opt, lr=1e-2)
            updates.append(params["w"].data.copy())
        np.testing.assert_array_equal(updates[0], updates[1])

    def test_zero_gradient_block_untouched(self):
        params = self._params([1.0, 2.0])
        params["w"].grad = np.zeros(2)
        opt = AdamState(params)
        step(params, opt, lr=1e-2)
        np.testing.assert_array_equal(params["w"].data, [1.0, 2.0])
        np.testing.assert_array_equal(opt.m["w"], 0.0)

    def test_block_at_the_norm_floor_is_updated_and_below_it_skipped(self):
        # a one-element block's norm is its gradient's magnitude, exactly
        floor = 1e-12
        assert training.GRAD_NORM_FLOOR == floor
        at = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        below = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        at["w"].grad = np.array([floor])
        below["w"].grad = np.array([np.nextafter(floor, 0.0)])
        opt_at, opt_below = AdamState(at), AdamState(below)
        step(at, opt_at, lr=1e-2)
        step(below, opt_below, lr=1e-2)
        assert at["w"].data[0] < 1.0
        assert opt_at.m["w"][0] > 0.0 and opt_at.v["w"][0] > 0.0
        np.testing.assert_array_equal(below["w"].data, [1.0])
        np.testing.assert_array_equal(opt_below.m["w"], [0.0])
        np.testing.assert_array_equal(opt_below.v["w"], [0.0])

    def test_missing_gradient_rejected(self):
        params = self._params([1.0])
        opt = AdamState(params)
        with pytest.raises(ContractError):
            step(params, opt, lr=1e-2)

    @pytest.mark.parametrize("given_loss", [False, True])
    def test_missing_gradient_names_the_parameter(self, given_loss):
        params = {"w": Tensor([1.0, 2.0], requires_grad=True),
                  "unused": Tensor([3.0], requires_grad=True)}
        opt = AdamState(params)
        message = "missing gradient for parameter 'unused'"
        with Graph():
            loss = (params["w"] * params["w"]).sum()
            if given_loss:
                with pytest.raises(ContractError, match=message):
                    step(params, opt, 1e-2, loss)
            else:
                backward(loss)
                with pytest.raises(ContractError, match=message):
                    step(params, opt, 1e-2)

    @pytest.mark.parametrize("levels,prior", [(2, "vamp"), (1, "vamp"),
                                              (2, "weighted-vamp"),
                                              (2, "sg"), (1, "sg"),
                                              (2, "mog")])
    def test_updating_each_gradient_as_it_completes_gives_the_same_bits(
            self, levels, prior, cpus):
        x = np.random.default_rng(4).integers(0, 2, (6, 4)).astype(float)
        states = []
        for given_loss in (False, True):
            model = tiny_model(levels, prior, seed=5)
            params = model.parameters()
            trainable = {k: p for k, p in params.items() if p.requires_grad}
            opt = AdamState(trainable)
            rng = np.random.default_rng(6)
            for _ in range(3):
                with Graph():
                    loss = objective(x, model, 1.0, rng, mc_samples=2)
                    if given_loss:
                        step(trainable, opt, 1e-2, loss)
                    else:
                        backward(loss)
                        step(trainable, opt, 1e-2)
                        for p in trainable.values():
                            p.zero_grad()
                assert all(p.grad is None for p in trainable.values())
            states.append({k: (p.data, opt.m[k], opt.v[k])
                           for k, p in trainable.items()})
        for k, arrays in states[0].items():
            for got, want in zip(states[1][k], arrays):
                assert_same_bits(got, want)

    def test_quadratic_bowl_descends_monotonically(self):
        # normalized gradients give constant-length steps, so start far
        # enough from the bottom that 200 steps stay in the descent phase
        params = self._params([3.0, -3.0, 3.0])
        opt = AdamState(params)
        losses = []
        for _ in range(200):
            params["w"].zero_grad()
            with Graph():
                loss = (params["w"] * params["w"]).sum()
                backward(loss)
            losses.append(loss.item())
            step(params, opt, lr=1e-2)
        for a, b in zip(losses[5:], losses[6:]):
            assert b < a


def _record_updates(monkeypatch, on_run=None):
    """Wrap each update `step` queues: on running, log its index (the order
    the updates were queued in) and its thread, then call `on_run(i)`.
    Returns the log and the number queued so far, in a one-item list."""
    ran, queued = [], [0]
    real = hp.Claims.add

    def add(self, unit):
        i = queued[0]
        queued[0] += 1

        def recorded(slot):
            ran.append((i, threading.current_thread()))
            if on_run is not None:
                on_run(i)
            return unit(slot)

        real(self, recorded)

    monkeypatch.setattr(hp.Claims, "add", add)
    return ran, queued


def _sg_step():
    x = np.random.default_rng(4).integers(0, 2, (6, 4)).astype(float)
    model = tiny_model(2, "sg", seed=5)
    trainable = {k: p for k, p in model.parameters().items()
                 if p.requires_grad}
    opt = AdamState(trainable)
    with Graph():
        loss = objective(x, model, 1.0, np.random.default_rng(6))
        step(trainable, opt, 1e-2, loss)
    return {k: p.data for k, p in trainable.items()}


class TestStepClaims:
    """With two CPUs the updates are claimed one at a time by the caller
    and an idle helper; the caller never waits for an update the helper
    has not started, and `step` ends only once the helper lets go."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(hp, "usable_cpus", lambda: 2)

    def test_the_first_final_gradient_starts_the_idle_helper(
            self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(hp, "usable_cpus", lambda: 1)
            want = _sg_step()
        real_submit = hp.helper.submit
        calls = []

        def submit(fn, if_idle=False):
            task = real_submit(fn, if_idle)
            calls.append((if_idle, task is not None, queued[0]))
            return task

        monkeypatch.setattr(hp.helper, "submit", submit)
        ran, queued = _record_updates(monkeypatch)
        got = _sg_step()
        assert calls[0] == (True, True, 1)
        assert sorted(i for i, _ in ran) == list(range(queued[0])) == \
            list(range(len(want)))
        for k in want:
            assert_same_bits(got[k], want[k])

    def test_a_helper_that_starts_late_leaves_every_update_to_the_caller(
            self, monkeypatch):
        want = _sg_step()
        real_submit = hp.helper.submit
        release = threading.Event()
        blocker = real_submit(release.wait)
        # the claims' call queues behind the blocker, as on a helper whose
        # core is busy elsewhere
        monkeypatch.setattr(hp.helper, "submit",
                            lambda fn, if_idle=False: real_submit(fn))
        ran, queued = _record_updates(monkeypatch)
        try:
            got = _sg_step()
        finally:
            release.set()
        assert [i for i, _ in ran] == list(range(queued[0]))
        assert {t for _, t in ran} == {threading.current_thread()}
        blocker.result(10)
        # the withdrawn call no longer holds the helper busy
        assert hp.helper._pending == 0
        for k in want:
            assert_same_bits(got[k], want[k])

    def test_a_helper_busy_with_a_branch_leaves_updates_to_the_caller(
            self, monkeypatch):
        rng = np.random.default_rng(7)
        w = Tensor(rng.standard_normal(5), requires_grad=True)
        q = Tensor(rng.standard_normal(5), requires_grad=True)
        updated = threading.Event()

        def slow(g):
            # until w's update has run: on the helper it would queue
            # behind this replay
            assert updated.wait(10)
            return (g,)

        ran, _ = _record_updates(monkeypatch, lambda i: updated.set())
        real_submit = hp.helper.submit
        offers = []

        def submit(fn, if_idle=False):
            task = real_submit(fn, if_idle)
            if if_idle:
                offers.append(task is not None)
            return task

        monkeypatch.setattr(hp.helper, "submit", submit)
        params = {"w": w, "q": q}
        opt = AdamState(params)
        with Graph():
            h = ad.exp(w * 0.1).sum()
            # joined after w's last node, so the replay starts before w is
            # final
            (a,) = Branch(lambda: (ad.apply_op(
                "slow", q.data * 2.0, (q,), slow),)).outputs
            step(params, opt, 1e-2, h + a.sum())
        assert ran[0] == (0, threading.current_thread())
        assert sorted(i for i, _ in ran) == [0, 1]
        # refused for w during the replay, accepted for q after it
        assert offers == [False, True]

    def test_an_update_queued_after_the_helper_ran_dry_starts_it_again(
            self):
        ran = []
        with hp.Claims() as claims:
            for i in range(2):
                claims.add(lambda slot, i=i: ran.append(
                    (i, threading.current_thread())))
                assert claims.offer()
                deadline = time.monotonic() + 10
                while len(ran) <= i or hp.helper._pending:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
        assert ran == [(0, hp.helper._thread), (1, hp.helper._thread)]

    def test_a_missing_gradient_raised_on_the_helper_reaches_the_caller(
            self, monkeypatch):
        real_claim = hp.Claims.claim

        def claim(self, slot=0):
            # the caller claims only once the helper's call has ended, so
            # the helper runs every update
            if not slot and self._task is not None:
                futures.wait([self._task], timeout=10)
            return real_claim(self, slot)

        monkeypatch.setattr(hp.Claims, "claim", claim)
        queued = None

        def on_run(i):
            # the helper is still claiming when 'unused' is queued
            deadline = time.monotonic() + 10
            while i == 0 and queued[0] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.001)

        ran, queued = _record_updates(monkeypatch, on_run)
        params = {"w": Tensor([1.0, 2.0], requires_grad=True),
                  "unused": Tensor([3.0], requires_grad=True)}
        opt = AdamState(params)
        with Graph():
            loss = (params["w"] * params["w"]).sum()
            with pytest.raises(ContractError, match="missing gradient for "
                               "parameter 'unused'"):
                step(params, opt, 1e-2, loss)
        assert [i for i, _ in ran] == [0, 1]
        assert {t for _, t in ran} == {hp.helper._thread}
        assert hp.helper._pending == 0

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_in_backward_waits_for_the_helpers_update_only(
            self, error, monkeypatch):
        rng = np.random.default_rng(8)
        a, b, c = (Tensor(rng.standard_normal(4), requires_grad=True)
                   for _ in range(3))
        holding, failing = threading.Event(), threading.Event()

        def on_run(i):
            if i == 0:
                holding.set()
                assert failing.wait(10)
                time.sleep(0.05)  # the caller is leaving `step` by now

        def fail(g):
            assert holding.wait(10)
            failing.set()
            raise error

        ran, _ = _record_updates(monkeypatch, on_run)
        params = {"a": a, "b": b}
        before = {k: p.data.copy() for k, p in params.items()}
        opt = AdamState(params)
        with pytest.raises(error):
            with Graph():
                # replayed last: a is final first, then b
                early = ad.apply_op("fail", c.data.copy(), (c,), fail)
                loss = early.sum() + (b * b).sum() + (a * 2.0).sum()
                step(params, opt, 1e-2, loss)
        # a's update, on the helper, finished before `step` raised; b's
        # was queued behind it and never ran
        assert ran == [(0, hp.helper._thread)]
        assert hp.helper._pending == 0
        assert not np.array_equal(a.data, before["a"])
        np.testing.assert_array_equal(b.data, before["b"])
        time.sleep(0.05)
        assert len(ran) == 1
        # the next step is normal
        for p in params.values():
            p.zero_grad()
        with Graph():
            step(params, opt, 1e-2, (a * b).sum())
        assert sorted(i for i, _ in ran[1:]) == [2, 3]
        assert all(p.grad is None for p in params.values())


class TestBlockedAdam:
    """`step` updates in place over ADAM_CHUNK-element slices; the reference
    is the whole-array form it replaced, compared bit for bit."""

    C = training.ADAM_CHUNK

    @staticmethod
    def _reference_step(params, opt, lr):
        opt.step += 1
        t = opt.step
        corr1 = 1.0 - opt.beta1 ** t
        corr2 = 1.0 - opt.beta2 ** t
        for name, p in params.items():
            norm = float(np.sqrt((p.grad * p.grad).sum()))
            if norm < training.GRAD_NORM_FLOOR:
                continue
            g = p.grad / norm
            m = opt.m[name]
            v = opt.v[name]
            m *= opt.beta1
            m += (1.0 - opt.beta1) * g
            v *= opt.beta2
            v += (1.0 - opt.beta2) * g * g
            p.data = p.data - lr * (m / corr1) / (np.sqrt(v / corr2)
                                                 + opt.eps)

    def _shapes(self):
        return {"one": (1,), "below": (self.C - 1,), "exact": (self.C,),
                "above": (self.C + 1,), "matrix": (301, 300),
                "zero": (5,), "signed": (4,)}

    def _params(self, seed):
        rng = np.random.default_rng(seed)
        return {k: Tensor(rng.standard_normal(shape), requires_grad=True)
                for k, shape in self._shapes().items()}

    def _set_grads(self, params, rng):
        for k, p in params.items():
            p.grad = rng.standard_normal(p.shape) * 1e-3
        params["zero"].grad = np.zeros(5)
        params["signed"].grad = np.array([-0.0, 1e-3, -2e-3, 0.0])

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    def test_bitwise_equal_to_whole_array_update(self):
        got, want = self._params(7), self._params(7)
        opt_got, opt_want = AdamState(got), AdamState(want)
        rng_got, rng_want = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):
            self._set_grads(got, rng_got)
            self._set_grads(want, rng_want)
            step(got, opt_got, 1e-2)
            self._reference_step(want, opt_want, 1e-2)
        for k in got:
            np.testing.assert_array_equal(self._bits(got[k].data),
                                          self._bits(want[k].data))
            np.testing.assert_array_equal(self._bits(opt_got.m[k]),
                                          self._bits(opt_want.m[k]))
            np.testing.assert_array_equal(self._bits(opt_got.v[k]),
                                          self._bits(opt_want.v[k]))
        np.testing.assert_array_equal(opt_got.m["zero"], 0.0)

    def test_updates_in_place(self):
        params = self._params(9)
        arrays = {k: p.data for k, p in params.items()}
        self._set_grads(params, np.random.default_rng(10))
        step(params, AdamState(params), 1e-2)
        assert all(params[k].data is arrays[k] for k in params)

    def test_non_contiguous_parameter_is_updated(self):
        base = np.random.default_rng(11).standard_normal((3, 4))
        want = {"w": Tensor(base.copy(), requires_grad=True)}
        got = {"w": Tensor(np.asfortranarray(base), requires_grad=True)}
        grad = np.random.default_rng(12).standard_normal((3, 4))
        want["w"].grad, got["w"].grad = grad, np.asfortranarray(grad)
        step(got, AdamState(got), 1e-2)
        self._reference_step(want, AdamState(want), 1e-2)
        np.testing.assert_array_equal(self._bits(got["w"].data),
                                      self._bits(want["w"].data))


class TestDynamicBinarize:
    def test_endpoints(self):
        batch = np.array([[0.0, 1.0]] * 100)
        out = dynamic_binarize(batch, np.random.default_rng(0))
        np.testing.assert_array_equal(out[:, 0], 0.0)
        np.testing.assert_array_equal(out[:, 1], 1.0)

    def test_half_intensity_hits_binomial_band(self):
        out = dynamic_binarize(np.full((100, 100), 0.5),
                               np.random.default_rng(1))
        assert 0.485 <= out.mean() <= 0.515

    def test_same_seed_reproduces(self):
        batch = np.random.default_rng(2).random((5, 7))
        a = dynamic_binarize(batch, np.random.default_rng(3))
        b = dynamic_binarize(batch, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            dynamic_binarize(np.array([[1.2]]), np.random.default_rng(0))


class TestFit:
    def test_single_epoch_stops_on_max_epochs(self):
        data = synth_clusters(64, 16, 2, seed=0)
        model = tiny_model(1, d=16, m=2, hidden=4)
        log = fit(data.train, data.val, model, _config(max_epochs=1))
        assert len(log.epochs) == 1
        assert log.stop_reason == "max_epochs"

    def test_worsening_validation_stops_after_patience(self, monkeypatch):
        values = iter(range(0, -100, -1))
        monkeypatch.setattr(training, "validation_elbo",
                            lambda *a, **k: float(next(values)))
        data = synth_clusters(64, 16, 2, seed=0)
        model = tiny_model(1, d=16, m=2, hidden=4)
        log = fit(data.train, data.val, model,
                  _config(max_epochs=50, early_stop_patience=4))
        assert log.stop_reason == "early_stop"
        assert len(log.epochs) == 1 + 4
        assert log.best_epoch == 0

    def test_training_improves_validation_elbo(self):
        # smoke oracle: a tiny hierarchical model on two clusters must gain
        # at least one nat of validation ELBO over its initialization
        data = synth_clusters(256, 16, 2, seed=1)
        model = tiny_model(2, "vamp", seed=4, d=16, m=2, hidden=12, k=4)
        config = _config(max_epochs=30, learning_rate=5e-3, batch_size=32,
                         warmup_epochs=10, early_stop_patience=30, seed=5)
        val_set, val_seq, _ = prepare_validation(data.val, config, "none")
        before = validation_elbo(model, val_set, np.random.default_rng(val_seq))
        log = fit(data.train, data.val, model, config)
        assert log.best_val_elbo > before + 1.0

    def test_deterministic_given_seed(self):
        data = synth_clusters(96, 16, 2, seed=2)
        logs, states = [], []
        for _ in range(2):
            model = tiny_model(1, "vamp", seed=6, d=16, m=2, hidden=4)
            log = fit(data.train, data.val, model, _config(max_epochs=3))
            logs.append(log)
            states.append({k: p.data.copy()
                           for k, p in model.parameters().items()})
        assert logs[0].to_jsonl() == logs[1].to_jsonl()
        assert logs[0].stop_reason == logs[1].stop_reason
        for k in states[0]:
            np.testing.assert_array_equal(states[0][k], states[1][k])

    def test_logged_best_elbo_reproducible_from_snapshot(self):
        data = synth_clusters(96, 16, 2, seed=3)
        model = tiny_model(2, "sg", seed=7, d=16, m=2, hidden=4)
        config = _config(max_epochs=4)
        log = fit(data.train, data.val, model, config)
        set_parameters(model, log.best_state)
        val_set, val_seq, _ = prepare_validation(data.val, config, "none")
        again = validation_elbo(model, val_set, np.random.default_rng(val_seq),
                                config.mc_samples)
        assert again == pytest.approx(log.best_val_elbo, abs=1e-9)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ContractError):
            _config(learning_rate=lr)

    def test_defaults_are_the_paper_recipe_and_the_cli_defaults(self):
        config = TrainConfig(max_epochs=1)
        args = cli.build_parser().parse_args(["train", "--outdir", "out"])
        assert config.learning_rate == args.lr == 5e-4
        assert config.batch_size == args.batch_size == 100
        assert config.warmup_epochs == args.warmup_epochs == 100
        assert config.early_stop_patience == args.patience == 50

    def test_patience_of_one_epoch(self, monkeypatch):
        values = iter([-1.0, -2.0, -3.0])
        monkeypatch.setattr(training, "validation_elbo",
                            lambda *a, **k: next(values))
        data = synth_clusters(64, 16, 2, seed=0)
        model = tiny_model(1, d=16, m=2, hidden=4)
        log = fit(data.train, data.val, model,
                  _config(max_epochs=3, early_stop_patience=1))
        assert (log.stop_reason, len(log.epochs)) == ("early_stop", 2)

    def test_batch_of_one_row(self, monkeypatch):
        data = synth_clusters(40, 16, 2, seed=7)
        updates = []
        real_step = training.step

        def counting(*args, **kwargs):
            updates.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(training, "step", counting)
        model = tiny_model(1, d=16, m=2, hidden=4)
        log = fit(data.train, data.val, model,
                  _config(max_epochs=1, batch_size=1))
        assert len(updates) == data.train.shape[0]
        assert math.isfinite(log.epochs[0].train_loss)

    def test_a_tied_validation_elbo_keeps_the_earlier_epoch(self,
                                                            monkeypatch):
        snapshots = []

        def tied(model, *args, **kwargs):
            snapshots.append({k: p.data.copy()
                              for k, p in model.parameters().items()})
            return -5.0

        monkeypatch.setattr(training, "validation_elbo", tied)
        data = synth_clusters(64, 16, 2, seed=8)
        model = tiny_model(1, d=16, m=2, hidden=4)
        log = fit(data.train, data.val, model,
                  _config(max_epochs=2, early_stop_patience=5))
        assert log.best_epoch == 0
        first, last = snapshots
        assert not np.array_equal(first["encoder_head.w"],
                                  last["encoder_head.w"])
        for k, value in first.items():
            np.testing.assert_array_equal(log.best_state[k], value)

    def test_empty_split_rejected(self):
        model = tiny_model(1, d=16)
        with pytest.raises(ContractError):
            fit(np.zeros((0, 16)), np.zeros((4, 16)), model, _config())

    def test_gradients_are_dropped_after_each_update(self, monkeypatch):
        data = synth_clusters(64, 16, 2, seed=5)
        seen = []
        real_validation = training.validation_elbo

        def spy(model, *args, **kwargs):
            seen.append([k for k, p in model.parameters().items()
                         if p.grad is not None])
            return real_validation(model, *args, **kwargs)

        monkeypatch.setattr(training, "validation_elbo", spy)
        model = tiny_model(2, "vamp", seed=8, d=16, m=2, hidden=4)
        fit(data.train, data.val, model, _config(max_epochs=2))
        assert seen == [[], []]
        assert all(p.grad is None for p in model.parameters().values())

    def test_a_gradient_left_by_the_caller_does_not_reach_the_update(self):
        data = synth_clusters(64, 16, 2, seed=6)
        states = []
        for stale in (False, True):
            model = tiny_model(1, "vamp", seed=9, d=16, m=2, hidden=4)
            if stale:
                for p in model.parameters().values():
                    p.grad = np.ones_like(p.data)
            fit(data.train, data.val, model, _config(max_epochs=1))
            states.append({k: p.data.copy()
                           for k, p in model.parameters().items()})
        for k in states[0]:
            np.testing.assert_array_equal(states[0][k], states[1][k])

    def test_jsonl_has_one_line_per_epoch(self):
        data = synth_clusters(64, 16, 2, seed=4)
        model = tiny_model(1, d=16, m=2, hidden=4)
        log = fit(data.train, data.val, model, _config(max_epochs=3))
        lines = log.to_jsonl().strip().split("\n")
        assert len(lines) == 3
        import json
        rec = json.loads(lines[0])
        assert set(rec) == {"epoch", "beta", "train_loss", "val_elbo"}


class TestTapeMemory:
    def test_paper_scale_step_stays_under_45_mb(self):
        # the paper's sizes (D=784, hidden 300, M=40+40, K=500, batch 100):
        # the tape keeps only what backward reads, and backward frees each
        # node as it replays it; a tape holding every forward array read
        # about 74 MB here
        rng = np.random.default_rng(0)
        x = (rng.random((100, 784)) < 0.3).astype(np.float64)
        spec = ModelSpec(levels=2, data_dim=784, prior_kind="vamp",
                         prior_components=500)
        model = build_model(spec, rng, data_mean=x.mean(axis=0))

        def step():
            with Graph():
                backward(objective(x, model, 1.0, rng))

        _, peak_mb = peak_mb_above_held(step)
        assert model.parameters()["prior.pseudo_inputs"].grad is not None
        assert peak_mb < 45.0
