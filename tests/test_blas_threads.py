"""Importing vampvae pins BLAS to one thread, so a seeded product has the
same bits whatever the host's core count.

OpenBLAS splits a large enough product across its threads, and the split
changes the summation order. Two paper-shape products are hashed in a fresh
interpreter that imports vampvae before numpy: once with the thread
variables unset, once with them set to 1. The suite itself loads vampvae
first (`conftest.py`), so its own products must hash the same. On a
one-core host the checks on the bits hold trivially.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import conftest
import vampvae

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PRODUCTS = """
import hashlib
import vampvae
import numpy as np

rng = np.random.default_rng(0)
w = rng.standard_normal((784, 300))
for rows in (100, 500):
    x = rng.standard_normal((rows, 784))
    print(rows, hashlib.sha256((x @ w).tobytes()).hexdigest())
"""


def _digests(threads: str | None) -> str:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARS, threads))
    env["PYTHONPATH"] = str(Path(vampvae.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", PRODUCTS], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_unset_thread_variables_give_one_thread_bits():
    unset = _digests(None)
    assert len(unset.splitlines()) == 2
    assert unset == _digests("1")


def test_the_suite_loads_vampvae_before_numpy():
    assert not conftest.NUMPY_LOADED_FIRST


def test_the_suite_computes_one_thread_bits():
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(PRODUCTS, {})
    assert here.getvalue() == _digests("1")
