"""Interchangeable priors over latent codes.

Five families: standard Gaussian, trainable mixture of Gaussians, and three
mixture-of-posteriors variants whose components are the encoder evaluated at
pseudo-inputs (trainable, frozen training rows, or softmax-weighted).

Mixture log-densities run through the fused pairwise density, whose
arithmetic matches `log_normal_diag`, so a single-component mixture is
bitwise equal to the plain density; the log-sum-exp reduction keeps the
result exactly invariant to component permutation.

With its parameters fixed, a mixture-of-posteriors prior is a plain mixture
of Gaussians: `frozen` computes its components once, for evaluation.
`start_log_prob` offers an unrecorded mixture's density of z to the idle
helper thread as soon as z is drawn, for `log_prob(z, started)` to finish;
a recorded (training) pass keeps it on the calling thread.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .distributions import (
    DiagGaussian,
    log_normal_diag_pairwise,
    log_standard_normal,
    sample_reparam,
    start_pairwise,
)
from .errors import ContractError, DimensionError

PRIOR_KINDS = ("sg", "mog", "vamp", "vamp-data", "weighted-vamp")


class StandardGaussian(Module):
    """Fixed N(0, I) prior."""

    def __init__(self, dim: int):
        self.dim = dim

    def log_prob(self, z: Tensor, started=None) -> Tensor:
        if z.shape[-1] != self.dim:
            raise DimensionError(f"prior dim {self.dim} != z dim {z.shape[-1]}")
        return log_standard_normal(z)


class MixtureOfGaussians(Module):
    """Mixture of K diagonal Gaussians with trainable parameters; uniform
    unless given fixed log-weights."""

    def __init__(self, means: Tensor, log_vars: Tensor,
                 log_weights: Tensor | None = None):
        if means.shape != log_vars.shape or means.ndim != 2:
            raise DimensionError("MoG means and log_vars must share a (K, M) shape")
        self.means = means
        self.log_vars = log_vars
        # assigned last: the means and log_vars keep their parameter names
        self.log_weights = log_weights

    @classmethod
    def initialize(cls, k: int, dim: int, rng) -> "MixtureOfGaussians":
        # overlapping start: component means drawn with spread 0.5, unit vars
        means = Tensor(rng.normal(0.0, 0.5, size=(k, dim)), requires_grad=True)
        log_vars = Tensor(np.zeros((k, dim)), requires_grad=True)
        return cls(means, log_vars)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    def components(self) -> DiagGaussian:
        return DiagGaussian(self.means, self.log_vars)

    def log_prob(self, z: Tensor, started=None) -> Tensor:
        comps = self.components() if started is None else started.p
        return _mixture_log_prob(z, comps, self.log_weights, started)


class VampPrior(Module):
    """Mixture of variational posteriors at K trainable pseudo-inputs.

    Pseudo-inputs are stored unconstrained; when `squash` is set they pass
    through a logistic before entering the encoder so they live in the [0, 1]
    data domain.
    """

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

    def log_prob(self, z: Tensor, started=None) -> Tensor:
        return _mixture_log_prob(z, self._recorded_components(),
                                 self._log_weights())

    def _recorded_components(self) -> DiagGaussian:
        """`components()`, recorded as an autodiff branch while a graph
        records: the pseudo-inputs do not depend on the batch, so
        `backward` replays their re-encoding on the helper thread beside
        the batch's own replay."""
        if not ad.recording():
            return self.components()

        def run():
            comps = self.components()
            return comps.mean, comps.log_var

        return DiagGaussian.clipped(*ad.Branch(run).outputs)


class VampDataPrior(VampPrior):
    """Mixture of posteriors at a frozen subset of training rows."""

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
                      log_weights: Tensor | None, started=None) -> Tensor:
    """log sum_k w_k N(z | mu_k, var_k) for a batch of rows z, with the
    pairwise density's forward `started` earlier, if given."""
    if z.ndim != 2:
        raise DimensionError(f"mixture log_prob expects a (B, M) batch, got "
                             f"{z.shape}")
    k, m = comps.mean.shape
    if z.shape[1] != m:
        raise DimensionError(f"latent dim {z.shape[1]} != component dim {m}")
    mat = log_normal_diag_pairwise(z, comps, started)
    if log_weights is None:
        # same arithmetic as the weighted path so uniform logits reproduce
        # the unweighted density bitwise
        log_weights = Tensor(np.full(k, -np.log(float(k))))
    return ad.add(mat, log_weights).logsumexp(axis=1)


def start_log_prob(prior, z: Tensor):
    """A context manager yielding the handle of `prior`'s density of z,
    started ahead of `log_prob(z, started)`, and ending it if that is not
    reached: an unrecorded mixture of Gaussians offers its pairwise density
    (`start_pairwise`) to the helper thread; any other prior, or any prior
    while a graph records, yields None."""
    if isinstance(prior, MixtureOfGaussians) and not ad.recording():
        started = start_pairwise(z, prior.components())
        started.offer()
        return started
    return contextlib.nullcontext()


def frozen(prior):
    """The prior's current density as a fixed value: a mixture-of-posteriors
    prior becomes the `MixtureOfGaussians` of its components and
    log-weights, computed once, with the same bits. Any other prior is
    returned as it is."""
    if not isinstance(prior, VampPrior):
        return prior
    comps = prior.components()
    return MixtureOfGaussians(comps.mean, comps.log_var, prior._log_weights())


@dataclass
class PriorSample:
    """Latent draws plus the mixture component that produced each row."""

    z: np.ndarray
    components: np.ndarray | None


def sample_prior(prior, n: int, rng, component: int | None = None
                 ) -> PriorSample:
    """Draw n latent vectors from the prior, or from its mixture component
    `component` alone (evaluation-time, no recording). A draw picks a
    component, then reparameterizes; a fixed component draws only the
    noise."""
    if n < 0:
        raise ContractError("sample count must be non-negative")
    if isinstance(prior, StandardGaussian):
        if component is not None:
            raise ContractError("component-conditioned sampling needs a "
                                "mixture prior")
        return PriorSample(rng.standard_normal((n, prior.dim)), None)
    if component is not None:
        if not 0 <= component < prior.k:
            raise ContractError(f"component {component} out of range for "
                                f"K={prior.k}")
        ks = np.full(n, component)
    elif isinstance(prior, WeightedVampPrior):
        ks = rng.choice(prior.k, size=n, p=prior.weights())
    else:
        ks = rng.integers(prior.k, size=n)
    comps = prior.components()
    eps = rng.standard_normal((n, comps.dim))
    picked = DiagGaussian(Tensor(comps.mean.data[ks]),
                          Tensor(comps.log_var.data[ks]))
    z = sample_reparam(picked, Tensor(eps)).data
    return PriorSample(z, ks)
