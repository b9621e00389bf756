"""A seeded step and importance-weight chunk at the paper's shapes keep
their bytes.

`test_same_bytes` pins whole CLI runs at desk sizes (D=16, K=40, batch 50,
S=20), where every blocked kernel works in a single block. This file pins
the shapes of the paper's two costs, where the blocks split the work: the
pairwise density runs 4 rows of z per block at K=500, M=40, and the
Bernoulli log-likelihood 20 rows per block at D=784.

- One training step of a two-level vamp model (D=784, hidden 300,
  M=40+40, K=500, batch 100, KL weight 1): `training.objective`, then
  `backward`, then `training.step`. The digest covers the loss, every
  gradient and the parameters after the step. The gradients are in it
  because a first Adam step moves each weight by about lr * sign(g), so the
  updated parameters alone would hardly see a gradient's last bits.
- One 500-sample `log_importance_weight` chunk on
  `models.with_frozen_prior` of the stepped model, for one test row
  repeated as `evaluation.is_log_likelihood` repeats it.

The digests are keyed by `test_same_bytes.platform_key()`; on a platform
with no record the test checks only that two runs give the same bytes.
"""

import hashlib

import numpy as np
import pytest

from test_same_bytes import platform_key
from vampvae import models, training
from vampvae.autodiff import Graph, backward

SPEC = models.ModelSpec(levels=2, data_dim=784, latent1=40, latent2=40,
                        hidden=300, hidden_layers=2, prior_kind="vamp",
                        prior_components=500)
BATCH = 100
IS_CHUNK = 500

# platform_key() -> part -> sha256
RECORDED = {
    "x86_64 simd=X86_V3,X86_V4,AVX512_ICL,AVX512_SPR numpy=2.4.6 blas=scipy-openblas-0.3.31.188.0": {
        "step":
            "96de204e1f27c95ec8bdf133631e6c3ea4e68c0b13c6aaba7813b35a7781a03e",
        "is_chunk":
            "ea1427a9d1d5cc9bcd821f018060f9c8a4731fa85a30c7f263cb21b3279061e9",
    },
    "x86_64 simd=X86_V3,X86_V4,AVX512_ICL numpy=2.4.6 blas=scipy-openblas-0.3.31.188.0": {
        "step":
            "96de204e1f27c95ec8bdf133631e6c3ea4e68c0b13c6aaba7813b35a7781a03e",
        "is_chunk":
            "ea1427a9d1d5cc9bcd821f018060f9c8a4731fa85a30c7f263cb21b3279061e9",
    },
}


def _update(h, arr) -> None:
    h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def paper_digests() -> dict[str, str]:
    """The sha256 of the step's loss, gradients and updated parameters, and
    of the chunk's importance weights."""
    rng = np.random.default_rng(13)
    x = (rng.random((BATCH, 784))
         < rng.beta(0.3, 0.7, (BATCH, 784))).astype(np.float64)
    model = models.build_model(SPEC, rng, data_mean=x.mean(axis=0))
    params = {k: p for k, p in model.parameters().items() if p.requires_grad}
    opt = training.AdamState(params)
    with Graph():
        loss = training.objective(x, model, 1.0, rng)
        backward(loss)
    training.step(params, opt, 1e-3)
    step = hashlib.sha256()
    _update(step, loss.data)
    for name, p in params.items():
        step.update(name.encode())
        _update(step, p.grad)
        _update(step, p.data)

    frozen = models.with_frozen_prior(model)
    encoded = frozen.encode_x(np.repeat(x[:1], IS_CHUNK, axis=0))
    weights = frozen.log_importance_weight(encoded, rng)
    assert weights.shape == (IS_CHUNK,)
    return {"step": step.hexdigest(),
            "is_chunk": hashlib.sha256(
                np.ascontiguousarray(weights, dtype="<f8").tobytes())
            .hexdigest()}


def test_paper_shape_bytes():
    got = paper_digests()
    recorded = RECORDED.get(platform_key())
    if recorded is None:
        assert paper_digests() == got
    else:
        assert got == recorded
