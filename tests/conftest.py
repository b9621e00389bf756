"""Loads vampvae before any test module imports numpy, and fails a test
that leaves a non-daemon thread running.

Importing vampvae pins BLAS to one thread, which takes effect only if numpy
is not loaded yet. The test modules import numpy first, so without this
file the suite would run at the host's BLAS thread count and, at paper
shapes, compute other bits than the CLI does. `test_blas_threads` checks
the order.

The package's helper thread is a daemon and outlives the test that starts
it; a thread that is not a daemon and is still running when its test ends
would keep the interpreter from exiting.
"""

import sys

NUMPY_LOADED_FIRST = "numpy" in sys.modules

import threading  # noqa: E402

import pytest  # noqa: E402

import vampvae  # noqa: E402,F401


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and not t.daemon and t.is_alive()]
    if left:
        pytest.fail(f"test left non-daemon threads running: {left}")
