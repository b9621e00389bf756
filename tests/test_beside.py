"""Tests of the forward kernels that share their work with the helper
thread (`autodiff._shared`) inside an `autodiff.splitting` block, which
evaluation opens: they keep the bits of the inline path, make every op,
span and tape node on the calling thread, raise errors as the inline path
does, and leave the helper usable after an error or a fork."""

import os
import signal
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest

from helpers import (
    arriving_grads,
    assert_same_bits,
    assert_same_run,
    unfused_gated_dense,
)
from test_distributions import _unblocked_pairwise
from test_models import tiny_model
from test_paper_bytes import SPEC
from vampvae import autodiff as ad
from vampvae import distributions as dist
from vampvae import models, training
from vampvae.autodiff import Graph, Tensor
from vampvae.distributions import DiagGaussian
from vampvae.errors import NumericError
from vampvae.evaluation import per_example_log_likelihood


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The test runs as on one usable CPU, where every kernel keeps all its
    units on the calling thread, and as on two, where the helper may claim
    units of each kernel above the work floor."""
    monkeypatch.setattr(ad, "_usable_cpus", lambda: request.param)
    return request.param


@pytest.fixture
def handoffs(monkeypatch):
    """The futures of the kernel shares `_beside` started on the helper,
    each with the thread that started it as `caller`."""
    started = []
    real = ad._beside

    def counted(fn, work):
        task = real(fn, work)
        if task is not None:
            task.caller = threading.current_thread()
            started.append(task)
        return task

    monkeypatch.setattr(ad, "_beside", counted)
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
        with ad.splitting():
            plain = dist.log_normal_diag_pairwise(
                Tensor(z), DiagGaussian(Tensor(mean), Tensor(log_var)))
        assert_same_bits(plain.data, got[0])
        assert len(handoffs) == (1 if cpus == 2 and b > rows else 0)

    @pytest.mark.parametrize("d_in", [300, 40])
    def test_gated_dense(self, cpus, handoffs, no_floor, d_in):
        rng = np.random.default_rng(d_in)
        arrays = (rng.standard_normal((100, d_in)),
                  rng.standard_normal((d_in, 300)) * 0.1,
                  rng.standard_normal(300),
                  rng.standard_normal((d_in, 300)) * 0.1,
                  rng.standard_normal(300))
        g = rng.standard_normal((100, 300))
        got, want = (arriving_grads(fn, arrays, g)
                     for fn in (ad.gated_dense, unfused_gated_dense))
        assert_same_run(got, want)
        assert handoffs == []
        with ad.splitting():
            plain = ad.gated_dense(*(Tensor(a) for a in arrays))
        assert_same_bits(plain.data, got[0])
        assert len(handoffs) == (1 if cpus == 2 else 0)

    @pytest.mark.parametrize("d_in,split", [(300, True), (40, False)],
                             ids=["above-the-floor", "below-the-floor"])
    def test_the_floor_keeps_small_work_inline(self, cpus, handoffs, d_in,
                                               split):
        # an IS chunk's 500 rows: its 300 -> 300 layers split, its
        # 40 -> 300 layers do not
        rng = np.random.default_rng(d_in)
        x = Tensor(rng.standard_normal((500, d_in)))
        w1, w2 = (Tensor(rng.standard_normal((d_in, 300)) * 0.1)
                  for _ in range(2))
        b1, b2 = (Tensor(rng.standard_normal(300)) for _ in range(2))
        assert (x.size * 300 // 4 >= ad.BESIDE_MIN_WORK) == split
        with ad.splitting():
            ad.gated_dense(x, w1, b1, w2, b2)
        assert len(handoffs) == (1 if cpus == 2 and split else 0)

    def test_a_kernel_started_on_a_busy_helper_runs_inline(
            self, handoffs, no_floor, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(1)
        arrays = [Tensor(rng.standard_normal(shape)) for shape in
                  ((50, 30), (30, 20), (20,), (30, 20), (20,))]
        release = threading.Event()
        blocker = ad._helper.submit(release.wait)
        try:
            with ad.splitting():
                ad.gated_dense(*arrays)
            assert handoffs == []
        finally:
            release.set()
            blocker.result(timeout=10)
        with ad.splitting():
            ad.gated_dense(*arrays)
        assert len(handoffs) == 1

    def test_only_a_thread_in_a_splitting_block_hands_work_over(
            self, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        assert ad._beside(lambda: None, ad.BESIDE_MIN_WORK) is None
        with ad.splitting():
            with ad.splitting():
                pass
            # the helper and other threads are outside the caller's block
            inner = ad._helper.submit(
                lambda: ad._beside(lambda: None, ad.BESIDE_MIN_WORK))
            assert inner.result(10) is None
            other = []
            thread = threading.Thread(target=lambda: other.append(
                ad._beside(lambda: None, ad.BESIDE_MIN_WORK)))
            thread.start()
            thread.join(10)
            assert not thread.is_alive() and other == [None]
            # the inner block left the outer one open
            assert ad._beside(lambda: 3, ad.BESIDE_MIN_WORK).result(10) == 3
        assert ad._beside(lambda: None, ad.BESIDE_MIN_WORK) is None

    def test_training_and_validation_keep_their_kernels_whole(
            self, handoffs, no_floor, monkeypatch):
        # a recorded step's backward, and the steps after a split
        # validation, measured slower by what the split saved
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        model = tiny_model(2, "vamp", seed=4)
        data = np.random.default_rng(6).integers(0, 2, (40, 4)).astype(float)
        config = training.TrainConfig(max_epochs=2, batch_size=10,
                                      warmup_epochs=0, seed=1)
        training.fit(data[:30], data[30:], model, config, "dynamic")
        assert handoffs == []
        per_example_log_likelihood(model, data[:2], 30, seed=2,
                                   chunk_size=12)
        assert handoffs

    def test_evaluation_workers_give_the_same_bits(self, cpus, handoffs,
                                                   monkeypatch):
        # one worker runs on the calling thread and splits; worker threads
        # keep their kernels whole
        model = tiny_model(2, "vamp", seed=4)
        data = np.random.default_rng(6).integers(0, 2, (6, 4)).astype(float)
        monkeypatch.setattr(ad, "BESIDE_MIN_WORK", float("inf"))
        serial = per_example_log_likelihood(model, data, 30, seed=2,
                                            chunk_size=12)
        monkeypatch.setattr(ad, "BESIDE_MIN_WORK", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                assert_same_bits(per_example_log_likelihood(
                    model, data, 30, seed=2, workers=workers, chunk_size=12),
                    serial)
                assert {t.caller for t in handoffs} == (
                    {threading.main_thread()} if cpus == 2 else set())
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.usefixtures("split")
class TestShared:
    """`_shared` runs each unit once, on the first thread to claim it, so
    the caller never waits for a unit the helper has not started."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)

    def test_a_helper_that_starts_late_leaves_every_unit_to_the_caller(
            self, monkeypatch):
        real = ad._beside
        release = threading.Event()
        blocker = ad._helper.submit(release.wait)
        # the share's call queues behind the blocker, as on a helper whose
        # core is busy elsewhere
        monkeypatch.setattr(ad, "_beside",
                            lambda fn, work: ad._helper.submit(fn))
        slots = []
        try:
            out = ad._shared(lambda i, slot: slots.append(slot) or i * i, 5,
                             ad.BESIDE_MIN_WORK)
        finally:
            release.set()
        assert out == [0, 1, 4, 9, 16] and slots == [0] * 5
        blocker.result(10)
        # the withdrawn call no longer holds the helper busy
        assert real(lambda: 3, ad.BESIDE_MIN_WORK).result(10) == 3

    def test_the_helper_claims_the_units_the_caller_leaves_in_order(self):
        n = 6
        last_done = threading.Event()
        slots = {}

        def run(i, slot):
            slots[i] = slot
            if i == 0:
                assert last_done.wait(10)
            if i == n - 1:
                last_done.set()
            return -i

        assert ad._shared(run, n, ad.BESIDE_MIN_WORK) == [-i for i in range(n)]
        assert slots == {0: 0, **{i: 1 for i in range(1, n)}}

    @pytest.mark.parametrize("caller_fails", [False, True])
    def test_after_an_error_no_unit_is_claimed_and_the_callers_comes_first(
            self, caller_fails):
        ran = []

        def run(i, slot):
            ran.append(i)
            if i == 1:
                raise ValueError("unit 1")
            if i == 0:
                # until the helper has failed and let go of the share
                deadline = time.monotonic() + 10
                while not ran.count(1) or ad._helper._pending:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                if caller_fails:
                    raise KeyError("unit 0")
            return i

        with pytest.raises(KeyError if caller_fails else ValueError):
            ad._shared(run, 4, ad.BESIDE_MIN_WORK)
        assert sorted(ran) == [0, 1]
        assert ad._shared(lambda i, slot: i, 3, ad.BESIDE_MIN_WORK) == [0, 1, 2]


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
    for name, value in list(vars(models.Hvae).items()):
        if isinstance(value, types.FunctionType):
            monkeypatch.setattr(models.Hvae, name, wrap(value, name))
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
        assert handoffs == []  # a recorded pass keeps its kernels whole
        with ad.splitting():
            frozen = models.with_frozen_prior(model)
            frozen.log_importance_weight(
                frozen.encode_x(np.repeat(x[:1], 500, axis=0)), rng)
        kinds = {kind for kind, _ in seen}
        assert {"apply_op", "gated_dense", "log_normal_diag_pairwise",
                "logsumexp", "log_bernoulli", "objective", "step",
                "encode_x", "log_importance_weight", "decode"} <= kinds
        assert {ident for _, ident in seen} == {threading.get_ident()}
        assert bool(handoffs) == (cpus == 2)


@pytest.mark.usefixtures("split")
class TestErrors:
    @pytest.mark.parametrize("bad", ["linear", "gate", "both"])
    def test_a_non_finite_pre_activation_raises_as_inline(
            self, cpus, handoffs, no_floor, bad):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((20, 30)))
        w1, w2 = (Tensor(rng.standard_normal((30, 40))) for _ in range(2))
        b1, b2 = (Tensor(rng.standard_normal(40)) for _ in range(2))
        # the gate's inf would pass the sigmoid as a finite 1.0
        if bad in ("linear", "both"):
            b1.data[3] = np.inf
        if bad in ("gate", "both"):
            b2.data[5] = np.inf
        with pytest.raises(NumericError, match="operation 'gated_dense'"):
            ad.gated_dense(x, w1, b1, w2, b2)
        assert len(handoffs) == (1 if cpus == 2 else 0)
        self._helper_is_free_again(cpus, handoffs)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_in_the_callers_half_waits_for_the_helpers(
            self, cpus, handoffs, error):
        finished = []
        started = threading.Event()

        def second():
            started.set()
            threading.Event().wait(0.2)
            finished.append(threading.get_ident())

        def first():
            if cpus == 2:
                assert started.wait(5.0)
            raise error

        with pytest.raises(error):
            ad._in_two(first, second, ad.BESIDE_MIN_WORK)
        # the inline path raises before it starts the second half
        assert len(finished) == (1 if cpus == 2 else 0)
        if cpus == 2:
            assert finished[0] == ad._helper._thread.ident
        self._helper_is_free_again(cpus, handoffs)

    def test_an_error_in_the_helpers_half_is_raised_by_the_caller(
            self, cpus, handoffs):
        def second():
            raise NumericError("operation 'half': a non-finite value")

        with pytest.raises(NumericError, match="'half'"):
            ad._in_two(lambda: 1, second, ad.BESIDE_MIN_WORK)
        self._helper_is_free_again(cpus, handoffs)

    @staticmethod
    def _helper_is_free_again(cpus, handoffs):
        before = len(handoffs)
        assert ad._in_two(lambda: 1, lambda: 2, ad.BESIDE_MIN_WORK) == (1, 2)
        assert len(handoffs) == before + (1 if cpus == 2 else 0)


def test_a_child_forked_while_the_helper_is_busy_can_use_it(split,
                                                          monkeypatch):
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    release = threading.Event()
    busy = ad._beside(release.wait, ad.BESIDE_MIN_WORK)
    assert busy is not None
    assert ad._beside(lambda: None, ad.BESIDE_MIN_WORK) is None
    try:
        with warnings.catch_warnings():
            # a fork of a threaded process warns on newer Pythons
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                task = ad._beside(lambda: 7, ad.BESIDE_MIN_WORK)
                code = 0 if task is not None and task.result(10) == 7 else 2
            finally:
                os._exit(code)
        assert _exit_code(pid, timeout=30) == 0
    finally:
        release.set()
        busy.result(timeout=10)
    assert ad._beside(lambda: 7, ad.BESIDE_MIN_WORK).result(10) == 7


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
