"""Tests of the pairwise mixture density that evaluation starts on the
helper thread as soon as z is drawn (`distributions.start_pairwise`, whose
row blocks are `autodiff._Claims`) inside an `autodiff.splitting` block:
it keeps the bits of the inline path, makes every op, span and tape node
on the calling thread, raises errors as the inline path does, runs no
block once its pass has failed, and leaves the helper usable after an
error or a fork."""

import gc
import os
import signal
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest

from helpers import assert_same_bits, peak_mb_above_held
from test_distributions import _unblocked_pairwise
from test_models import tiny_model
from test_paper_bytes import SPEC
from vampvae import autodiff as ad
from vampvae import distributions as dist
from vampvae import models, priors, training
from vampvae.autodiff import Graph, Tensor
from vampvae.distributions import DiagGaussian
from vampvae.errors import NumericError
from vampvae.evaluation import per_example_log_likelihood


class _Seen(list):
    hook = None


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The test runs as on one usable CPU, where every block of a started
    density runs on the calling thread when it is finished, and as on two,
    where the helper may claim blocks from the start on."""
    monkeypatch.setattr(ad, "_usable_cpus", lambda: request.param)
    return request.param


@pytest.fixture
def handoffs(monkeypatch):
    """The claims `_Claims.start` handed to the helper, each with the
    thread that started it as `caller`."""
    started = []
    real = ad._Claims.start

    def counted(claims, work):
        real(claims, work)
        if claims._task is not None:
            claims.caller = threading.current_thread()
            started.append(claims)
        return claims

    monkeypatch.setattr(ad._Claims, "start", counted)
    return started


@pytest.fixture
def split():
    """The test runs inside a `splitting` block, as evaluation does."""
    with ad.splitting():
        yield


@pytest.fixture
def no_floor(monkeypatch):
    """Any work that is not empty goes to the helper when it can."""
    monkeypatch.setattr(ad, "BESIDE_MIN_WORK", 1)


@pytest.fixture
def blocks(monkeypatch):
    """The thread of every block of a pairwise forward, in the order the
    blocks started; `blocks.hook(thread)`, when set, runs first."""
    seen = _Seen()
    real = dist._gaussian_terms

    def terms(diff, log_var, precision, out):
        if diff.ndim == 3:  # a pairwise block
            seen.append(threading.current_thread())
            if seen.hook is not None:
                seen.hook(threading.current_thread())
        return real(diff, log_var, precision, out)

    monkeypatch.setattr(dist, "_gaussian_terms", terms)
    return seen


def _density(b, seed=0, k=500, m=40):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.standard_normal((b, m)))
    p = DiagGaussian(Tensor(rng.standard_normal((k, m))),
                     Tensor(rng.uniform(-2.0, 2.0, (k, m))))
    return z, p


def _inline(z, p):
    return dist.log_normal_diag_pairwise(z, p).data


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _started_units(*fns):
    """Claims of one unit per function, started as a kernel above the
    floor."""
    return ad._Claims(lambda slot, fn=fn: fn() for fn in fns).start(
        ad.BESIDE_MIN_WORK)


class TestSameBits:
    M = 40
    K = 500

    @pytest.mark.parametrize("size", ["1", "rows-1", "rows", "rows+1",
                                      "7-blocks", "500"])
    def test_pairwise_density(self, cpus, handoffs, no_floor, size):
        rows = dist.pairwise_block_rows(self.K, self.M)
        b = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
             "7-blocks": 7 * rows - 1, "500": 500}[size]
        rng = np.random.default_rng(3000 + b)
        z = rng.standard_normal((b, self.M))
        mean = rng.standard_normal((self.K, self.M))
        log_var = rng.uniform(-2.0, 2.0, (self.K, self.M))
        g = rng.standard_normal((b, self.K))
        with Graph():
            out = dist.log_normal_diag_pairwise(
                Tensor(z, requires_grad=True),
                DiagGaussian(Tensor(mean, requires_grad=True),
                             Tensor(log_var, requires_grad=True)))
            got = (out.data, *out.node.grad_fn(g))
        for a, w in zip(got, _unblocked_pairwise(z, mean, log_var, g)):
            assert_same_bits(a, w)
        assert handoffs == []  # outside a splitting block
        p = DiagGaussian(Tensor(mean), Tensor(log_var))
        with ad.splitting():
            with dist.start_pairwise(Tensor(z), p) as started:
                plain = dist.log_normal_diag_pairwise(Tensor(z), p, started)
        assert_same_bits(plain.data, got[0])
        assert len(handoffs) == (1 if cpus == 2 else 0)

    def test_evaluation_workers_give_the_same_bits(self, cpus, handoffs,
                                                   monkeypatch):
        # one worker runs on the calling thread and starts its densities;
        # worker threads compute theirs inline
        data = np.random.default_rng(6).integers(0, 2, (6, 4)).astype(float)
        interval = sys.getswitchinterval()
        for levels in (1, 2):
            model = tiny_model(levels, "vamp", seed=4)
            monkeypatch.setattr(ad, "BESIDE_MIN_WORK", float("inf"))
            serial = per_example_log_likelihood(model, data, 30, seed=2,
                                                chunk_size=12)
            assert handoffs == []
            monkeypatch.setattr(ad, "BESIDE_MIN_WORK", 1)
            sys.setswitchinterval(1e-6)
            try:
                for workers in (1, 2, 3):
                    assert_same_bits(per_example_log_likelihood(
                        model, data, 30, seed=2, workers=workers,
                        chunk_size=12), serial)
                    assert {c.caller for c in handoffs} == (
                        {threading.main_thread()} if cpus == 2 else set())
            finally:
                sys.setswitchinterval(interval)
            handoffs.clear()

    def test_training_and_validation_keep_their_kernels_whole(
            self, handoffs, no_floor, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        data = np.random.default_rng(6).integers(0, 2, (40, 4)).astype(float)
        config = training.TrainConfig(max_epochs=2, batch_size=10,
                                      warmup_epochs=0, seed=1)
        # training and validation start no density, nor do the sg prior
        # and evaluation's worker threads
        for prior in ("vamp", "mog", "sg"):
            model = tiny_model(2, prior, seed=4)
            frozen = models.with_frozen_prior(model)
            # the start hook starts nothing while a graph records
            with ad.splitting(), Graph():
                with priors.start_log_prob(frozen.prior,
                                           Tensor(data[:10, :2])) as started:
                    assert started is None
            training.fit(data[:30], data[30:], model, config, "dynamic")
            per_example_log_likelihood(model, data[:2], 30, seed=2,
                                       workers=2, chunk_size=12)
            assert handoffs == []
            per_example_log_likelihood(model, data[:2], 30, seed=2,
                                       chunk_size=12)
            assert bool(handoffs) == (prior != "sg")
            handoffs.clear()

    @pytest.mark.parametrize("b,split", [(100, True), (99, False)],
                             ids=["above-the-floor", "below-the-floor"])
    def test_the_floor_keeps_small_work_inline(self, cpus, handoffs, blocks,
                                               b, split):
        # at K=500, M=40 a density of 100 rows or more starts on the
        # helper; an S=20 chunk's does not
        z, p = _density(b)
        assert (b * self.K * self.M * 6 >= ad.BESIDE_MIN_WORK) == split
        with ad.splitting():
            with dist.start_pairwise(z, p) as started:
                dist.log_normal_diag_pairwise(z, p, started)
        assert len(handoffs) == (1 if cpus == 2 and split else 0)

    def test_a_kernel_started_on_a_busy_helper_runs_inline(
            self, split, handoffs, blocks, no_floor, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        z, p = _density(40)
        release = threading.Event()
        replay = ad._helper.submit(release.wait)  # as a branch replay
        try:
            with dist.start_pairwise(z, p) as started:
                dist.log_normal_diag_pairwise(z, p, started)
            assert handoffs == []
            assert blocks == [threading.main_thread()] * 10
        finally:
            release.set()
            replay.result(timeout=10)
        with dist.start_pairwise(z, p) as started:
            dist.log_normal_diag_pairwise(z, p, started)
        assert len(handoffs) == 1

    def test_only_a_thread_in_a_splitting_block_hands_work_over(
            self, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)

        def offered():
            claims = _started_units(lambda: None)
            handed = claims._task is not None
            claims.finish()
            return handed

        assert not offered()
        with ad.splitting():
            with ad.splitting():
                pass
            # the helper and other threads are outside the caller's block
            assert not ad._helper.submit(offered).result(10)
            other = []
            thread = threading.Thread(target=lambda: other.append(offered()))
            thread.start()
            thread.join(10)
            assert not thread.is_alive() and other == [False]
            # the inner block left the outer one open
            assert offered()
        assert not offered()


class TestShared:
    """A started density's blocks are shared with the helper by claiming
    them one at a time, so the caller never waits for a block the helper
    has not started."""

    def test_a_helper_that_starts_late_leaves_every_block_to_the_caller(
            self, cpus, split, blocks, no_floor, monkeypatch):
        z, p = _density(40)
        want = _inline(z, p)
        blocks.clear()
        release = threading.Event()
        blocker = ad._helper.submit(release.wait)
        real_submit = ad._helper.submit
        # the density's call queues behind the blocker, as on a helper whose
        # core is busy elsewhere
        monkeypatch.setattr(ad._helper, "submit",
                            lambda fn, if_idle=False: real_submit(fn))
        try:
            with dist.start_pairwise(z, p) as started:
                got = dist.log_normal_diag_pairwise(z, p, started)
        finally:
            release.set()
        assert_same_bits(got.data, want)
        assert blocks == [threading.main_thread()] * 10
        blocker.result(10)
        # the withdrawn call no longer holds the helper busy
        _wait_until(lambda: not ad._helper._pending)
        monkeypatch.setattr(ad._helper, "submit", real_submit)
        claims = _started_units(lambda: 3)
        assert (claims._task is not None) == (cpus == 2)
        claims.finish()

    def test_the_helper_runs_the_blocks_while_the_caller_works(
            self, cpus, split, blocks, no_floor):
        z, p = _density(40)
        want = _inline(z, p)
        blocks.clear()
        with dist.start_pairwise(z, p) as started:
            if cpus == 2:
                _wait_until(lambda: len(blocks) == 10
                            and not ad._helper._pending)
            else:
                assert blocks == []
            got = dist.log_normal_diag_pairwise(z, p, started)
        assert_same_bits(got.data, want)
        assert set(blocks) == {threading.main_thread() if cpus == 1
                               else ad._helper._thread}
        assert len(blocks) == 10

    def test_an_error_in_a_helper_block_is_raised_at_the_finish(
            self, cpus, split, blocks, no_floor):
        z, p = _density(40)

        def fail(thread):
            raise ValueError(f"block on {thread.name}")

        blocks.hook = fail
        with dist.start_pairwise(z, p) as started:
            if cpus == 2:
                _wait_until(lambda: blocks and not ad._helper._pending)
            with pytest.raises(ValueError, match="block on") as exc:
                dist.log_normal_diag_pairwise(z, p, started)
        thread = ad._helper._thread if cpus == 2 else threading.main_thread()
        assert str(exc.value) == f"block on {thread.name}"
        # no block was claimed after the error
        assert blocks == [thread]
        blocks.hook = None
        claims = _started_units(lambda: 1)
        assert (claims._task is not None) == (cpus == 2)
        claims.finish()

    @pytest.mark.parametrize("error", [NumericError, KeyboardInterrupt])
    @pytest.mark.parametrize("levels", [1, 2])
    def test_an_error_between_start_and_finish_ends_the_density(
            self, cpus, split, handoffs, blocks, no_floor, levels, error):
        # a paper-sized prior, so the density has several blocks
        model = tiny_model(levels, "vamp", seed=4, m=40, k=500)
        frozen = models.with_frozen_prior(model)
        encoded = frozen.encode_x(np.ones((40, 4)))

        def hold(thread):
            # the helper's first block lasts until the caller's error has
            # ended the claims
            if thread is not threading.main_thread():
                _wait_until(lambda: handoffs and not handoffs[-1]._open)

        def decode(*latents):
            if cpus == 2:
                _wait_until(lambda: blocks)
            raise error("operation 'decode' produced a non-finite value")

        blocks.hook = hold
        frozen.decode = decode
        with pytest.raises(error):
            frozen.log_importance_weight(encoded, np.random.default_rng(0))
        assert not ad._helper._pending
        ran = len(blocks)
        time.sleep(0.05)
        assert len(blocks) == ran == (1 if cpus == 2 else 0)
        assert [c.caller for c in handoffs] == (
            [threading.main_thread()] if cpus == 2 else [])

    @pytest.mark.parametrize("caller_fails", [False, True])
    def test_after_an_error_no_unit_is_claimed_and_the_callers_comes_first(
            self, split, monkeypatch, caller_fails):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        ran = []

        def helpers():
            # until the caller has claimed the second unit
            _wait_until(lambda: 1 in ran)
            ran.append(0)
            raise ValueError("unit 0")

        def callers():
            ran.append(1)
            # until the helper has failed and let go of the claims
            _wait_until(lambda: 0 in ran and not ad._helper._pending)
            if caller_fails:
                raise KeyError("unit 1")

        claims = _started_units(helpers, callers, lambda: ran.append(2))
        _wait_until(lambda: claims._next == 1)
        with pytest.raises(KeyError if caller_fails else ValueError):
            claims.finish()
        assert sorted(ran) == [0, 1]


def test_chunks_free_their_started_density_without_the_collector(cpus,
                                                                 split):
    # a handle in a reference cycle would keep each chunk's density
    # buffers until the collector ran: about 3 MB a chunk
    rng = np.random.default_rng(0)
    x = (rng.random((1, 784)) < 0.3).astype(np.float64)
    model = models.with_frozen_prior(models.build_model(SPEC, rng))
    encoded = model.encode_x(np.repeat(x, 500, axis=0))

    def chunks(n):
        for _ in range(n):
            model.log_importance_weight(encoded, rng)

    chunks(1)
    gc.disable()
    try:
        _, one = peak_mb_above_held(lambda: chunks(1))
        _, ten = peak_mb_above_held(lambda: chunks(10))
    finally:
        gc.enable()
    assert ten < one + 1.0


def _record_threads(monkeypatch):
    """Record the thread of every `apply_op` call, of every function that
    calls it (the ops the benchmark tracer times), of every public function
    of the package (its spans) and of every `Hvae` method."""
    seen = []

    def wrap(fn, kind):
        def recorded(*args, **kwargs):
            seen.append((kind, threading.get_ident()))
            return fn(*args, **kwargs)
        return recorded

    import vampvae.cli  # noqa: F401  (every module loaded)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "vampvae" or name.startswith("vampvae.")]
    targets = {}
    for module in modules:
        for name, value in vars(module).items():
            if (isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and (not name.startswith("_")
                         or "apply_op" in value.__code__.co_names)):
                targets.setdefault(value, wrap(value, name))
    for module in modules:
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in targets:
                monkeypatch.setattr(module, name, targets[value])
    for cls in (models.Hvae, models.MixtureOfGaussians):
        for name, value in list(vars(cls).items()):
            if isinstance(value, types.FunctionType):
                monkeypatch.setattr(cls, name, wrap(value, name))
    return seen


class TestTracerContract:
    """The benchmark tracer keeps one span stack and one op stack for all
    threads, so it is valid only while every op, span and `Hvae` method
    runs on the calling thread; the helper runs private numpy kernels."""

    def test_paper_width_step_and_chunk_record_on_the_calling_thread(
            self, cpus, handoffs, monkeypatch):
        rng = np.random.default_rng(13)
        x = (rng.random((100, 784)) < 0.3).astype(np.float64)
        model = models.build_model(SPEC, rng, data_mean=x.mean(axis=0))
        params = {k: p for k, p in model.parameters().items()
                  if p.requires_grad}
        opt = training.AdamState(params)
        seen = _record_threads(monkeypatch)
        with Graph():
            loss = training.objective(x, model, 1.0, rng)
            training.step(params, opt, 1e-3, loss)
        assert handoffs == []  # a recorded pass starts no density
        frozen = models.with_frozen_prior(model)
        encoded = frozen.encode_x(np.repeat(x[:1], 500, axis=0))
        inline = frozen.log_importance_weight(encoded,
                                              np.random.default_rng(1))
        with ad.splitting():
            weights = frozen.log_importance_weight(encoded,
                                                   np.random.default_rng(1))
        assert_same_bits(weights, inline)
        kinds = {kind for kind, _ in seen}
        assert {"apply_op", "gated_dense", "log_normal_diag_pairwise",
                "logsumexp", "log_bernoulli", "objective", "step",
                "encode_x", "log_importance_weight", "decode",
                "start_log_prob", "log_prob"} <= kinds
        assert {ident for _, ident in seen} == {threading.get_ident()}
        assert bool(handoffs) == (cpus == 2)


def test_a_child_forked_while_the_helper_is_busy_can_use_it(split,
                                                          monkeypatch):
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    release = threading.Event()
    busy = _started_units(release.wait)
    assert busy._task is not None
    refused = _started_units(lambda: None)
    assert refused._task is None
    refused.finish()
    try:
        with warnings.catch_warnings():
            # a fork of a threaded process warns on newer Pythons
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                done = []
                claims = _started_units(lambda: done.append(7))
                started = claims._task is not None
                claims.finish()
                code = 0 if started and done == [7] else 2
            finally:
                os._exit(code)
        assert _exit_code(pid, timeout=30) == 0
    finally:
        release.set()
        busy.finish()
    claims = _started_units(lambda: None)
    assert claims._task is not None
    claims.finish()


def _exit_code(pid, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise AssertionError("the forked child did not exit")
