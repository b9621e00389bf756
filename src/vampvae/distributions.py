"""Log-densities and samplers: diagonal Gaussians, Bernoulli pixels,
discretized logistic intensities, and the reparameterization transform.

All functions treat the last axis as the event dimension and reduce over it,
so a (B, M) input yields a (B,) tensor of per-row log-densities and an (M,)
input yields a scalar.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, DomainError

LOG_2PI = math.log(2.0 * math.pi)

# Variance is kept inside [e^-14, e^14] so mixture densities and importance
# weights stay representable.
LOG_VAR_MIN = -14.0
LOG_VAR_MAX = 14.0

# 8-bit intensities sit on the {0, 1/255, ..., 1} grid; each carries a bin of
# width 1/256 whose probability is floored before the log.
INTENSITY_GRID_STEP = 1.0 / 255.0
INTENSITY_BIN_WIDTH = 1.0 / 256.0
PROB_FLOOR = 1e-7


class DiagGaussian:
    """Mean and log-variance of a diagonal Gaussian, batched on leading axes."""

    __slots__ = ("mean", "log_var")

    def __init__(self, mean: Tensor, log_var: Tensor):
        if mean.shape != log_var.shape:
            raise DimensionError(
                f"DiagGaussian mean {mean.shape} and log_var {log_var.shape} "
                "must have equal shapes")
        self.mean = mean
        self.log_var = log_var.clip(LOG_VAR_MIN, LOG_VAR_MAX)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def _check_event_dim(name: str, z, p: DiagGaussian) -> None:
    if z.shape[-1] != p.dim:
        raise DimensionError(f"{name}: event dim {z.shape[-1]} != {p.dim}")


def log_normal_diag(z: Tensor, p: DiagGaussian) -> Tensor:
    """log N(z | p.mean, diag(exp(p.log_var))), summed over the event axis."""
    _check_event_dim("log_normal_diag", z, p)
    diff = ad.sub(z, p.mean)
    precision = ad.exp(ad.neg(p.log_var))
    terms = ad.add(p.log_var, ad.mul(diff.square(), precision)) + LOG_2PI
    return (-0.5) * terms.sum(axis=-1)


def log_standard_normal(z: Tensor) -> Tensor:
    """log N(z | 0, I), summed over the event axis."""
    return (-0.5) * (z.square() + LOG_2PI).sum(axis=-1)


def log_normal_diag_pairwise(z: Tensor, p: DiagGaussian) -> Tensor:
    """(B, K) matrix of log N(z_b | mean_k, var_k) as one fused graph node.

    The arithmetic mirrors `log_normal_diag` term for term, so a K=1 column
    is bitwise equal to the plain density and rows permute exactly with the
    components. The fused form keeps mixture priors at O(1) graph nodes.
    """
    if z.ndim != 2 or p.mean.ndim != 2:
        raise DimensionError("pairwise density expects (B, M) rows and "
                             "(K, M) components")
    _check_event_dim("log_normal_diag_pairwise", z, p)
    mean, log_var = p.mean, p.log_var
    zd = z.data[:, None, :]                    # (B, 1, M)
    lv = log_var.data[None, :, :]              # (1, K, M)
    precision = np.exp(-log_var.data)          # (K, M)
    diff = zd - mean.data[None, :, :]          # (B, K, M)
    terms = (lv + diff * diff * precision) + LOG_2PI
    out = (-0.5) * terms.sum(axis=-1)          # (B, K)

    def grad_fn(g):
        gw = g[:, :, None]                     # (B, K, 1)
        weighted_diff = diff * precision
        g_z = -(gw * weighted_diff).sum(axis=1)
        g_mean = (gw * weighted_diff).sum(axis=0)
        g_log_var = (gw * (-0.5 * (1.0 - diff * diff * precision))).sum(axis=0)
        return g_z, g_mean, g_log_var

    return ad.apply_op("normal_logpdf_pairwise", out, (z, mean, log_var),
                       grad_fn)


def sample_reparam(p: DiagGaussian, eps: Tensor) -> Tensor:
    """z = mean + exp(log_var / 2) * eps; differentiable in mean and log_var."""
    _check_event_dim("sample_reparam", eps, p)
    std = ad.exp(0.5 * p.log_var)
    return ad.add(p.mean, ad.mul(std, eps))


def log_bernoulli(x: Tensor, logits: Tensor) -> Tensor:
    """Bernoulli log-mass sum_d [x log s(l) + (1-x) log(1-s(l))].

    Computed in the fused form x*l - softplus(l), which is exact for hard
    targets, linear in soft targets, and immune to sigmoid saturation.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if np.any(x.data < 0.0) or np.any(x.data > 1.0):
        raise DomainError("log_bernoulli targets must lie in [0, 1]")
    if x.shape[-1] != logits.shape[-1]:
        raise DimensionError(f"log_bernoulli: target dim {x.shape[-1]} != "
                             f"logit dim {logits.shape[-1]}")
    return ad.sub(ad.mul(x, logits), ad.softplus(logits)).sum(axis=-1)


def log_discretized_logistic(x: Tensor, mean: Tensor, log_scale: Tensor) -> Tensor:
    """Log-mass of 8-bit intensities under a discretized logistic.

    Each grid point x owns the bin [x, x + 1/256); its probability is the CDF
    difference, floored at 1e-7 before the log.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    scaled = x.data * 255.0
    if np.any(np.abs(scaled - np.round(scaled)) > 255.0 * 1e-9) \
            or np.any(x.data < -1e-9) or np.any(x.data > 1.0 + 1e-9):
        raise DomainError("log_discretized_logistic inputs must lie on the "
                          "{0, 1/255, ..., 1} grid")
    if x.shape[-1] != mean.shape[-1]:
        raise DimensionError(f"log_discretized_logistic: data dim "
                             f"{x.shape[-1]} != mean dim {mean.shape[-1]}")
    inv_scale = ad.exp(ad.neg(log_scale))
    upper = ad.sigmoid(ad.mul(ad.sub(x + INTENSITY_BIN_WIDTH, mean), inv_scale))
    lower = ad.sigmoid(ad.mul(ad.sub(x, mean), inv_scale))
    prob = ad.sub(upper, lower).clip(lo=PROB_FLOOR)
    return ad.log(prob).sum(axis=-1)


def normal_entropy(p: DiagGaussian) -> Tensor:
    """Differential entropy of a diagonal Gaussian, per batch row."""
    return 0.5 * (p.log_var + (1.0 + LOG_2PI)).sum(axis=-1)


class BernoulliParams:
    """Pixel-wise Bernoulli likelihood parameterized by logits."""

    __slots__ = ("logits",)
    kind = "bernoulli"

    def __init__(self, logits: Tensor):
        self.logits = logits

    def log_prob(self, x) -> Tensor:
        return log_bernoulli(x, self.logits)

    def mean_value(self) -> np.ndarray:
        return ad.sigmoid(Tensor(self.logits.data)).data


class DiscretizedLogisticParams:
    """Discretized-logistic likelihood with mean in [0, 1] and a log-scale."""

    __slots__ = ("mean", "log_scale")
    kind = "logistic"

    def __init__(self, mean: Tensor, log_scale: Tensor):
        if mean.shape != log_scale.shape:
            raise DimensionError(
                f"DiscretizedLogisticParams mean {mean.shape} and log_scale "
                f"{log_scale.shape} must have equal shapes")
        self.mean = mean
        self.log_scale = log_scale

    def log_prob(self, x) -> Tensor:
        return log_discretized_logistic(x, self.mean, self.log_scale)

    def mean_value(self) -> np.ndarray:
        return self.mean.data.copy()
