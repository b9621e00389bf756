"""Interchangeable priors over latent codes.

Five families: standard Gaussian, trainable mixture of Gaussians, and three
mixture-of-posteriors variants whose components are the encoder evaluated at
pseudo-inputs (trainable, frozen training rows, or softmax-weighted).

Mixture log-densities run through the fused pairwise density, whose
arithmetic matches `log_normal_diag`, so a single-component mixture is
bitwise equal to the plain density; the log-sum-exp reduction keeps the
result exactly invariant to component permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .distributions import (
    DiagGaussian,
    log_normal_diag_pairwise,
    log_standard_normal,
    sample_reparam,
)
from .errors import ContractError, DimensionError

PRIOR_KINDS = ("sg", "mog", "vamp", "vamp-data", "weighted-vamp")


class StandardGaussian(Module):
    """Fixed N(0, I) prior."""

    tag = "sg"

    def __init__(self, dim: int):
        self.dim = dim

    def log_prob(self, z: Tensor) -> Tensor:
        if z.shape[-1] != self.dim:
            raise DimensionError(f"prior dim {self.dim} != z dim {z.shape[-1]}")
        return log_standard_normal(z)


class MixtureOfGaussians(Module):
    """Uniform mixture of K diagonal Gaussians with trainable parameters."""

    tag = "mog"

    def __init__(self, means: Tensor, log_vars: Tensor):
        if means.shape != log_vars.shape or means.ndim != 2:
            raise DimensionError("MoG means and log_vars must share a (K, M) shape")
        self.means = means
        self.log_vars = log_vars

    @classmethod
    def initialize(cls, k: int, dim: int, rng) -> "MixtureOfGaussians":
        # overlapping start: component means drawn with spread 0.5, unit vars
        means = Tensor(rng.normal(0.0, 0.5, size=(k, dim)), requires_grad=True)
        log_vars = Tensor(np.zeros((k, dim)), requires_grad=True)
        return cls(means, log_vars)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def components(self) -> DiagGaussian:
        return DiagGaussian(self.means, self.log_vars)

    def log_prob(self, z: Tensor) -> Tensor:
        return _mixture_log_prob(z, self.components(), None)


class VampPrior(Module):
    """Mixture of variational posteriors at K trainable pseudo-inputs.

    Pseudo-inputs are stored unconstrained; when `squash` is set they pass
    through a logistic before entering the encoder so they live in the [0, 1]
    data domain.
    """

    tag = "vamp"

    def __init__(self, pseudo_inputs: Tensor, squash: bool = True):
        if pseudo_inputs.ndim != 2:
            raise DimensionError("pseudo_inputs must have shape (K, D)")
        self.pseudo_inputs = pseudo_inputs
        self.squash = bool(squash)
        self.encoder = None  # bound by the owning model; never mutated here

    @classmethod
    def initialize(cls, k: int, data_dim: int, rng, data_mean=None,
                   squash: bool = True) -> "VampPrior":
        if data_mean is None:
            data_mean = np.full(data_dim, 0.5)
        draws = rng.normal(loc=data_mean, scale=0.1, size=(k, data_dim))
        if squash:
            draws = np.clip(draws, 1e-4, 1.0 - 1e-4)
            raw = np.log(draws) - np.log1p(-draws)
        else:
            raw = draws
        return cls(Tensor(raw, requires_grad=True), squash=squash)

    @property
    def k(self) -> int:
        return self.pseudo_inputs.shape[0]

    def pseudo_input_values(self) -> Tensor:
        return ad.sigmoid(self.pseudo_inputs) if self.squash else self.pseudo_inputs

    def components(self) -> DiagGaussian:
        if self.encoder is None:
            raise ContractError("prior has no encoder bound")
        return self.encoder(self.pseudo_input_values())

    def _log_weights(self):
        return None

    def log_prob(self, z: Tensor) -> Tensor:
        return _mixture_log_prob(z, self.components(), self._log_weights())


class VampDataPrior(VampPrior):
    """Mixture of posteriors at a frozen subset of training rows."""

    tag = "vamp-data"

    def __init__(self, pseudo_inputs: Tensor):
        # frozen rows already live in data space: no squashing, no gradient
        super().__init__(pseudo_inputs, squash=False)
        self.pseudo_inputs.requires_grad = False

    @classmethod
    def from_data(cls, data: np.ndarray, k: int, rng) -> "VampDataPrior":
        if k > data.shape[0]:
            raise ContractError(f"cannot draw {k} pseudo-inputs from "
                                f"{data.shape[0]} rows without replacement")
        rows = rng.choice(data.shape[0], size=k, replace=False)
        return cls(Tensor(data[rows]))


class WeightedVampPrior(VampPrior):
    """VampPrior with trainable softmax mixture weights."""

    tag = "weighted-vamp"

    def __init__(self, pseudo_inputs: Tensor, weight_logits: Tensor,
                 squash: bool = True):
        super().__init__(pseudo_inputs, squash=squash)
        if weight_logits.shape != (pseudo_inputs.shape[0],):
            raise DimensionError("weight_logits must have shape (K,)")
        self.weight_logits = weight_logits

    @classmethod
    def initialize(cls, k: int, data_dim: int, rng, data_mean=None,
                   squash: bool = True) -> "WeightedVampPrior":
        base = VampPrior.initialize(k, data_dim, rng, data_mean, squash)
        logits = Tensor(np.zeros(k), requires_grad=True)
        return cls(base.pseudo_inputs, logits, squash=squash)

    def weights(self) -> np.ndarray:
        w = np.exp(self.weight_logits.data - self.weight_logits.data.max())
        return w / w.sum()

    def _log_weights(self) -> Tensor:
        return ad.sub(self.weight_logits, self.weight_logits.logsumexp())


def _mixture_log_prob(z: Tensor, comps: DiagGaussian,
                      log_weights: Tensor | None) -> Tensor:
    """log sum_k w_k N(z | mu_k, var_k) for a batch of rows z."""
    if z.ndim != 2:
        raise DimensionError(f"mixture log_prob expects a (B, M) batch, got "
                             f"{z.shape}")
    k, m = comps.mean.shape
    if z.shape[1] != m:
        raise DimensionError(f"latent dim {z.shape[1]} != component dim {m}")
    mat = log_normal_diag_pairwise(z, comps)
    if log_weights is None:
        # same arithmetic as the weighted path so uniform logits reproduce
        # the unweighted density bitwise
        log_weights = Tensor(np.full(k, -np.log(float(k))))
    return ad.add(mat, log_weights).logsumexp(axis=1)


def log_prior(z: Tensor, spec) -> Tensor:
    """Log-density of the prior at each row of z; differentiable throughout."""
    return spec.log_prob(z)


@dataclass
class PriorSample:
    """Latent draws plus the mixture component that produced each row."""

    z: np.ndarray
    components: np.ndarray | None


def sample_prior(spec, n: int, rng) -> PriorSample:
    """Draw n latent vectors from the prior (evaluation-time, no recording)."""
    if n < 0:
        raise ContractError("sample count must be non-negative")
    if isinstance(spec, StandardGaussian):
        return PriorSample(rng.standard_normal((n, spec.dim)), None)
    comps = spec.components()
    if isinstance(spec, WeightedVampPrior):
        ks = rng.choice(spec.k, size=n, p=spec.weights())
    else:
        ks = rng.integers(spec.k, size=n)
    eps = rng.standard_normal((n, comps.dim))
    picked = DiagGaussian(Tensor(comps.mean.data[ks]),
                          Tensor(comps.log_var.data[ks]))
    z = sample_reparam(picked, Tensor(eps)).data
    return PriorSample(z, ks)


def cross_entropy_to_prior(data: np.ndarray, model, spec, samples_per_x: int,
                           rng) -> float:
    """Monte Carlo estimate of E_{z ~ q(z)} [-log p(z)].

    Draws `samples_per_x` posterior samples for every row of `data` through
    the model's encoder at the prior's level and averages -log_prior.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ContractError("cross_entropy_to_prior needs a non-empty batch")
    if samples_per_x < 1:
        raise ContractError("samples_per_x must be at least 1")
    post = model.prior_level_posterior(Tensor(data))
    mean, std = post.mean.data, np.exp(0.5 * post.log_var.data)
    total = 0.0
    for _ in range(samples_per_x):
        z = mean + std * rng.standard_normal(mean.shape)
        total += float(-log_prior(Tensor(z), spec).data.sum())
    return total / (data.shape[0] * samples_per_x)
