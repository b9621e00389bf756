"""Variational auto-encoders with mixture-of-posteriors priors.

Library layout:

- `autodiff`      reverse-mode AD over dense float64 tensors
- `distributions` diagonal Gaussians, Bernoulli and discretized-logistic
                  likelihoods, reparameterized sampling
- `priors`        interchangeable latent priors (standard Gaussian, mixture
                  of Gaussians, mixture-of-posteriors variants)
- `models`        gated-MLP VAE and two-level hierarchical VAE, checkpoints
- `training`      warm-up objective, block-normalized Adam, fitting loop
- `evaluation`    importance-sampled log-likelihood and diagnostics
- `datasets`      IDX / raw-matrix loaders, splits, synthetic data
- `cli`           command-line entry point

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where they are unset: at another thread count OpenBLAS
gives other bits for the same product, so seeded artifacts would depend on
the host's core count. It takes effect only if numpy is not loaded yet; a
caller who imported numpy first keeps the BLAS threads it started with.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

__version__ = "0.1.0"
