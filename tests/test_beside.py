"""Tests of the pairwise mixture density that an unrecorded pass offers to
the idle helper thread as soon as z is drawn (`priors.start_log_prob`, a
`distributions.start_pairwise` handle whose row blocks are
`autodiff._Claims`): it keeps the bits of the inline path, makes every op,
span and tape node on the calling thread, raises errors as the inline path
does, runs no block once its pass has failed, frees its buffers early, and
leaves the helper usable after an error or a fork. A recorded pass never
offers its density, and a process allowed one CPU hands the helper
nothing."""

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
from vampvae.autodiff import Branch, Graph, Tensor
from vampvae.distributions import DiagGaussian
from vampvae.errors import NumericError
from vampvae.evaluation import per_example_log_likelihood


class _Seen(list):
    hook = None


@pytest.fixture
def handoffs(monkeypatch):
    """The densities the helper accepted (`_Claims.offer`), each with the
    thread that offered it as `caller`."""
    offered = []
    real = ad._Claims.offer

    def counted(claims):
        accepted = real(claims)
        if (accepted and isinstance(claims, dist.PairwiseStart)
                and claims not in offered):
            claims.caller = threading.current_thread()
            offered.append(claims)
        return accepted

    monkeypatch.setattr(ad._Claims, "offer", counted)
    return offered


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


def _offered(z, p):
    """`start_pairwise(z, p)`, offered to the helper."""
    started = dist.start_pairwise(z, p)
    started.offer()
    return started


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _offered_units(*fns):
    """Claims of one unit per function, offered to the helper."""
    claims = ad._Claims(lambda slot, fn=fn: fn() for fn in fns)
    claims.offer()
    return claims


def _inline_bits(fn, monkeypatch):
    """fn() as on one usable CPU, where every density runs inline."""
    with monkeypatch.context() as m:
        m.setattr(ad, "_usable_cpus", lambda: 1)
        return fn()


class TestSameBits:
    M = 40
    K = 500

    @pytest.mark.parametrize("size", ["1", "rows-1", "rows", "rows+1",
                                      "7-blocks", "500"])
    def test_pairwise_density(self, cpus, handoffs, size):
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
        assert handoffs == []  # a direct call offers nothing
        p = DiagGaussian(Tensor(mean), Tensor(log_var))
        with _offered(Tensor(z), p) as started:
            plain = dist.log_normal_diag_pairwise(Tensor(z), p, started)
        assert_same_bits(plain.data, got[0])
        assert len(handoffs) == (1 if cpus == 2 else 0)

    def test_evaluation_workers_give_the_same_bits(self, cpus, handoffs,
                                                   monkeypatch):
        # the calling thread and worker threads alike offer their
        # densities; whichever finds the helper idle hands one over
        data = np.random.default_rng(6).integers(0, 2, (6, 4)).astype(float)
        interval = sys.getswitchinterval()
        for levels in (1, 2):
            model = tiny_model(levels, "vamp", seed=4)
            serial = _inline_bits(lambda: per_example_log_likelihood(
                model, data, 30, seed=2, chunk_size=12), monkeypatch)
            assert handoffs == []
            sys.setswitchinterval(1e-6)
            try:
                for workers in (1, 2, 3):
                    assert_same_bits(per_example_log_likelihood(
                        model, data, 30, seed=2, workers=workers,
                        chunk_size=12), serial)
                    callers = {c.caller for c in handoffs}
                    if cpus == 1:
                        assert callers == set()
                    elif workers == 1:
                        assert callers == {threading.main_thread()}
                    else:
                        assert callers and threading.main_thread() \
                            not in callers
                    handoffs.clear()
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("prior", ["vamp", "mog", "sg"])
    def test_validation_may_start_its_density(self, cpus, handoffs, prior,
                                              monkeypatch):
        data = np.random.default_rng(6).integers(0, 2, (40, 4)).astype(float)
        for levels in (1, 2):
            model = tiny_model(levels, prior, seed=4)
            want = _inline_bits(lambda: training.validation_elbo(
                model, data, np.random.default_rng(1), batch_size=10),
                monkeypatch)
            got = training.validation_elbo(model, data,
                                           np.random.default_rng(1),
                                           batch_size=10)
            assert got == want
            # one density per batch, none for the sg prior
            assert len(handoffs) == (4 if cpus == 2 and prior != "sg"
                                     else 0)
            handoffs.clear()

    def test_a_20_row_chunk_may_start_its_density(self, cpus, handoffs,
                                                  blocks):
        # a desk S=20 chunk at K=500, M=40: five blocks of four rows
        z, p = _density(20)
        want = _inline(z, p)
        blocks.clear()
        with _offered(z, p) as started:
            got = dist.log_normal_diag_pairwise(z, p, started)
        assert_same_bits(got.data, want)
        assert len(handoffs) == (1 if cpus == 2 else 0)
        assert len(blocks) == 5

    def test_a_kernel_started_on_a_busy_helper_runs_inline(
            self, handoffs, blocks, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        z, p = _density(40)
        release = threading.Event()
        replay = ad._helper.submit(release.wait)  # as a branch replay
        try:
            with _offered(z, p) as started:
                dist.log_normal_diag_pairwise(z, p, started)
            assert handoffs == []
            assert blocks == [threading.main_thread()] * 10
        finally:
            release.set()
            replay.result(timeout=10)
        with _offered(z, p) as started:
            dist.log_normal_diag_pairwise(z, p, started)
        assert len(handoffs) == 1

    @pytest.mark.parametrize("prior", ["vamp", "mog"])
    def test_a_recorded_step_never_offers_its_density(self, handoffs, prior,
                                                      monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        data = np.random.default_rng(6).integers(0, 2, (40, 4)).astype(float)
        for levels in (1, 2):
            model = tiny_model(levels, prior, seed=4)
            frozen = models.with_frozen_prior(model)
            # the start hook starts nothing while a graph records
            with Graph():
                with priors.start_log_prob(frozen.prior,
                                           Tensor(data[:10, :2])) as started:
                    assert started is None
            params = {k: p for k, p in model.parameters().items()
                      if p.requires_grad}
            opt = training.AdamState(params)
            rng = np.random.default_rng(1)
            for lo in range(0, 40, 10):
                with Graph():
                    loss = training.objective(data[lo:lo + 10], model, 1.0,
                                              rng)
                    training.step(params, opt, 1e-2, loss)
            assert handoffs == []


class TestOneCpu:
    """A process allowed one CPU hands the helper nothing: the calling
    thread runs every branch replay, Adam update and density block."""

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)

    def test_the_helper_refuses_every_call(self):
        ran = []
        assert ad._helper.submit(lambda: ran.append(1)) is None
        assert ad._helper.submit(lambda: ran.append(2), if_idle=True) is None
        assert not ad._helper._pending
        assert ran == []

    def test_a_started_density_runs_every_block_on_the_caller(
            self, handoffs, blocks):
        z, p = _density(40)
        want = _inline(z, p)
        blocks.clear()
        started = dist.start_pairwise(z, p)
        assert not started.offer()
        with started:
            got = dist.log_normal_diag_pairwise(z, p, started)
        assert_same_bits(got.data, want)
        assert blocks == [threading.main_thread()] * 10
        assert handoffs == []

    def test_a_branch_replays_on_the_calling_thread(self):
        w = Tensor(np.arange(3.0), requires_grad=True)
        threads = []

        def noted(g):
            threads.append(threading.current_thread())
            return (g * 2.0,)

        with Graph():
            (a,) = Branch(lambda: (ad.apply_op("noted", w.data * 2.0, (w,),
                                               noted),)).outputs
            ad.backward((a * a).sum())
        assert threads == [threading.main_thread()]
        assert_same_bits(w.grad, 8.0 * w.data)


def test_code_on_the_helper_never_hands_work_to_itself(monkeypatch):
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)

    def offered():
        claims = _offered_units(lambda: None)
        handed = claims._task is not None
        claims.finish()
        return handed

    assert not ad._helper.submit(offered).result(10)
    assert offered()


def test_the_helper_drops_its_block_buffer_once_it_finds_no_block(
        monkeypatch):
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    z, p = _density(40)
    with _offered(z, p) as started:
        assert started._task is not None
        _wait_until(lambda: not ad._helper._pending)
        assert started._bufs[1] is None
        dist.log_normal_diag_pairwise(z, p, started)
        # the caller found no block either, and keeps no buffer
        assert started._bufs == [None, None]


class TestShared:
    """A started density's blocks are shared with the helper by claiming
    them one at a time, so the caller never waits for a block the helper
    has not started."""

    def test_a_helper_that_starts_late_leaves_every_block_to_the_caller(
            self, blocks, monkeypatch):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
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
            with _offered(z, p) as started:
                got = dist.log_normal_diag_pairwise(z, p, started)
        finally:
            release.set()
        assert_same_bits(got.data, want)
        assert blocks == [threading.main_thread()] * 10
        blocker.result(10)
        # the withdrawn call no longer holds the helper busy
        _wait_until(lambda: not ad._helper._pending)
        monkeypatch.setattr(ad._helper, "submit", real_submit)
        claims = _offered_units(lambda: 3)
        assert claims._task is not None
        claims.finish()

    def test_the_helper_runs_the_blocks_while_the_caller_works(
            self, cpus, blocks):
        z, p = _density(40)
        want = _inline(z, p)
        blocks.clear()
        with _offered(z, p) as started:
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
            self, cpus, blocks):
        z, p = _density(40)

        def fail(thread):
            raise ValueError(f"block on {thread.name}")

        blocks.hook = fail
        with _offered(z, p) as started:
            if cpus == 2:
                _wait_until(lambda: blocks and not ad._helper._pending)
            with pytest.raises(ValueError, match="block on") as exc:
                dist.log_normal_diag_pairwise(z, p, started)
        thread = ad._helper._thread if cpus == 2 else threading.main_thread()
        assert str(exc.value) == f"block on {thread.name}"
        # no block was claimed after the error
        assert blocks == [thread]
        blocks.hook = None
        claims = _offered_units(lambda: 1)
        assert (claims._task is not None) == (cpus == 2)
        claims.finish()

    @pytest.mark.parametrize("error", [NumericError, KeyboardInterrupt])
    @pytest.mark.parametrize("levels", [1, 2])
    def test_an_error_between_start_and_finish_ends_the_density(
            self, cpus, handoffs, blocks, levels, error):
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
            self, monkeypatch, caller_fails):
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

        claims = _offered_units(helpers, callers, lambda: ran.append(2))
        _wait_until(lambda: claims._next == 1)
        with pytest.raises(KeyError if caller_fails else ValueError):
            claims.finish()
        assert sorted(ran) == [0, 1]


def test_chunks_free_their_started_density_without_the_collector(cpus):
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

    def test_paper_width_step_validation_and_chunk_record_on_the_caller(
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
        training.validation_elbo(model, x, np.random.default_rng(2))
        assert len(handoffs) == (1 if cpus == 2 else 0)
        frozen = models.with_frozen_prior(model)
        encoded = frozen.encode_x(np.repeat(x[:1], 500, axis=0))
        inline = _inline_bits(lambda: frozen.log_importance_weight(
            encoded, np.random.default_rng(1)), monkeypatch)
        weights = frozen.log_importance_weight(encoded,
                                               np.random.default_rng(1))
        assert_same_bits(weights, inline)
        kinds = {kind for kind, _ in seen}
        assert {"apply_op", "gated_dense", "log_normal_diag_pairwise",
                "logsumexp", "log_bernoulli", "objective", "step",
                "validation_elbo", "encode_x", "log_importance_weight",
                "decode", "start_log_prob", "log_prob"} <= kinds
        assert {ident for _, ident in seen} == {threading.get_ident()}
        assert len(handoffs) == (2 if cpus == 2 else 0)


def test_a_child_forked_while_the_helper_is_busy_can_use_it(monkeypatch):
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    release = threading.Event()
    busy = _offered_units(release.wait)
    assert busy._task is not None
    refused = _offered_units(lambda: None)
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
                claims = _offered_units(lambda: done.append(7))
                started = claims._task is not None
                claims.finish()
                code = 0 if started and done == [7] else 2
            finally:
                os._exit(code)
        assert _exit_code(pid, timeout=30) == 0
    finally:
        release.set()
        busy.finish()
    claims = _offered_units(lambda: None)
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
