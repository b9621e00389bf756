"""Shared test fixtures: linear-Gaussian toy models with known marginals,
a heap-peak probe, and the op chains the fused graph nodes replaced, with
a probe of the gradients `backward` delivers."""

import tracemalloc

import numpy as np

from vampvae import autodiff as ad
from vampvae.autodiff import Graph, Tensor, backward

LOG_2PI = float(np.log(2.0 * np.pi))


class LinearGaussianModel:
    """p(z) = N(0, I), p(x|z) = N(Wz + b, s2 I), encoder = exact posterior.

    With the exact posterior the importance weight p(x, z) / q(z | x) is
    constant in z and equals the marginal likelihood, which makes this the
    reference model for importance-sampling estimators.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray, noise_var: float):
        self.w = np.asarray(w, dtype=float)          # (d, m)
        self.b = np.asarray(b, dtype=float)          # (d,)
        self.noise_var = float(noise_var)
        d, m = self.w.shape
        self.post_cov = np.linalg.inv(np.eye(m) + self.w.T @ self.w / noise_var)
        self.post_chol = np.linalg.cholesky(self.post_cov)
        sign, logdet = np.linalg.slogdet(self.post_cov)
        assert sign > 0
        self.post_logdet = logdet

    def posterior_mean(self, x: np.ndarray) -> np.ndarray:
        # row convention, works for (d,) vectors and (n, d) batches alike
        return ((x - self.b) @ self.w / self.noise_var) @ self.post_cov

    def _log_likelihood(self, x, z):
        d = x.shape[-1]
        resid = x - (z @ self.w.T + self.b)
        return -0.5 * (d * (LOG_2PI + np.log(self.noise_var))
                       + (resid ** 2).sum(axis=-1) / self.noise_var)

    @staticmethod
    def _log_prior(z):
        m = z.shape[-1]
        return -0.5 * (m * LOG_2PI + (z ** 2).sum(axis=-1))

    def _log_posterior(self, x, z):
        m = z.shape[-1]
        mean = self.posterior_mean(x)
        diff = z - mean
        quad = np.einsum("...i,ij,...j->...", diff,
                         np.linalg.inv(self.post_cov), diff)
        return -0.5 * (m * LOG_2PI + self.post_logdet + quad)

    def encode_x(self, x: np.ndarray) -> np.ndarray:
        return x

    def log_importance_weight(self, x: np.ndarray, rng) -> np.ndarray:
        """One posterior draw per row; weights are constant by construction."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, m = x.shape[0], self.w.shape[1]
        eps = rng.standard_normal((n, m))
        z = self.posterior_mean(x) + eps @ self.post_chol.T
        return (self._log_likelihood(x, z) + self._log_prior(z)
                - self._log_posterior(x, z))

    def elbo_samples(self, x: np.ndarray, q_mean: np.ndarray,
                     q_log_var: np.ndarray, n: int, rng) -> np.ndarray:
        """Single-sample ELBO draws under a (generally suboptimal) diagonal q."""
        x = np.asarray(x, dtype=float)
        m = self.w.shape[1]
        std = np.exp(0.5 * q_log_var)
        eps = rng.standard_normal((n, m))
        z = q_mean + std * eps
        log_q = -0.5 * (m * LOG_2PI + q_log_var.sum()
                        + (((z - q_mean) / std) ** 2).sum(axis=-1))
        return self._log_likelihood(x, z) + self._log_prior(z) - log_q


def zero_parameters(model) -> None:
    """Zero every parameter tensor in place (degenerate-model fixture)."""
    for t in model.parameters().values():
        t.data[...] = 0.0


def peak_mb_above_held(fn):
    """fn's result and the peak of the heap, traced by tracemalloc (numpy
    included), above what was held when fn started, in MB."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, (tracemalloc.get_traced_memory()[1] - held) / 2**20
    finally:
        if started:
            tracemalloc.stop()


# -- the op chains the fused nodes replaced, kept as their bitwise references

def unfused_affine(x, w, b):
    return x @ w + b


def unfused_gated_dense(x, w1, b1, w2, b2):
    return ad.mul(x @ w1 + b1, ad.sigmoid(x @ w2 + b2))


def unfused_log_normal_diag(z, p):
    diff = ad.sub(z, p.mean)
    precision = ad.exp(ad.neg(p.log_var))
    terms = ad.add(p.log_var, ad.mul(diff.square(), precision)) + LOG_2PI
    return (-0.5) * terms.sum(axis=-1)


def unfused_bernoulli(x, logits):
    return ad.sub(ad.mul(x, logits), ad.softplus(logits)).sum(axis=-1)


def arriving_grads(fn, arrays, g, requires=None):
    """fn's value on tensors of `arrays`, and the gradient `backward`
    delivers to each of them (None where it delivers none) for upstream
    gradient g, whose shape is the value's. The gradients are read where
    they arrive, at a reshape in front of each leaf: a leaf writes 0.0 plus
    its first gradient, which would hide the sign of a zero."""
    requires = [True] * len(arrays) if requires is None else requires
    seen = {}

    def capture(i):
        def grad_fn(grad):
            seen[i] = grad
            return (grad,)
        return grad_fn

    with Graph():
        tensors = []
        for i, (a, r) in enumerate(zip(arrays, requires)):
            t = ad.reshape(Tensor(a, requires_grad=r), np.shape(a))
            if t.node is not None:
                t.node.grad_fn = capture(i)
            tensors.append(t)
        out = fn(*tensors)
        backward(ad.mul(out, Tensor(g)).sum())
    return out.data, [seen.get(i) for i in range(len(arrays))]


def assert_same_bits(got, want):
    # assert_array_equal alone treats -0.0 and 0.0 as equal
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_run(got, want):
    """Two `arriving_grads` results hold the same bits, and the same
    inputs got no gradient."""
    assert_same_bits(got[0], want[0])
    for a, w in zip(got[1], want[1], strict=True):
        if w is None:
            assert a is None
        else:
            assert_same_bits(a, w)
