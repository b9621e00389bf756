"""Loads vampvae before any test module imports numpy, and fails a test
that leaves a non-daemon thread running.

Importing vampvae pins BLAS to one thread, which takes effect only if numpy
is not loaded yet. The test modules import numpy first, so without this
file the suite would run at the host's BLAS thread count and, at paper
shapes, compute other bits than the CLI does. `test_blas_threads` checks
the order.

The package's helper thread is a daemon and outlives the test that starts
it; a thread that is not a daemon and is still running when its test ends
would keep the interpreter from exiting. A call the helper still has
pending a short while after its test ends (a branch replay, a started
density's blocks or an Adam update the test leaked) fails that test too,
before it can hold the helper busy for the next one. So do claims offered
to the helper (`autodiff._Claims.offer`) and never finished or ended, at
once: their units would drain within the grace and pass unnoticed.

The `cpus` fixture runs a test as on one usable CPU, where the helper
takes no call and the calling thread runs everything, and as on two.
"""

import sys

NUMPY_LOADED_FIRST = "numpy" in sys.modules

import threading  # noqa: E402
import time  # noqa: E402

import pytest  # noqa: E402

import vampvae  # noqa: E402,F401
from vampvae import autodiff  # noqa: E402

# how long a test's last helper call may take to finish after the test
HELPER_GRACE_S = 1.0


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and not t.daemon and t.is_alive()]
    if left:
        pytest.fail(f"test left non-daemon threads running: {left}")


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(autodiff, "_usable_cpus", lambda: request.param)
    return request.param


@pytest.fixture(autouse=True)
def no_helper_call_left_pending(monkeypatch):
    unended = []  # a token per offered claims not yet ended
    offer, end = autodiff._Claims.offer, autodiff._Claims.__exit__

    def counted_offer(claims):
        if "unended" not in vars(claims):
            claims.unended = object()
            unended.append(claims.unended)
        return offer(claims)

    def counted_end(claims, *exc):
        token = vars(claims).pop("unended", None)
        if token is not None:
            unended.remove(token)
        return end(claims, *exc)

    monkeypatch.setattr(autodiff._Claims, "offer", counted_offer)
    monkeypatch.setattr(autodiff._Claims, "__exit__", counted_end)
    yield
    if unended:
        pytest.fail(f"test left {len(unended)} offered claims unended")
    deadline = time.monotonic() + HELPER_GRACE_S
    while autodiff._helper._pending and time.monotonic() < deadline:
        time.sleep(0.001)
    if autodiff._helper._pending:
        pytest.fail(f"test left {autodiff._helper._pending} call(s) pending "
                    "on the helper thread")
