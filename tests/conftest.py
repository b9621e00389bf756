"""Loads vampvae before any test module imports numpy.

Importing vampvae pins BLAS to one thread, which takes effect only if numpy
is not loaded yet. The test modules import numpy first, so without this
file the suite would run at the host's BLAS thread count and, at paper
shapes, compute other bits than the CLI does. `test_blas_threads` checks
the order.
"""

import sys

NUMPY_LOADED_FIRST = "numpy" in sys.modules

import vampvae  # noqa: E402,F401
