"""Log-densities and samplers: diagonal Gaussians, Bernoulli pixels,
discretized logistic intensities, and the reparameterization transform.

All functions treat the last axis as the event dimension and reduce over it,
so a (B, M) input yields a (B,) tensor of per-row log-densities and an (M,)
input yields a scalar.

Three densities are fused graph nodes: `log_normal_diag` (tag
``normal_logpdf``), and two that work through their rows in blocks of a
small reused buffer, `log_normal_diag_pairwise` (tag
``normal_logpdf_pairwise``) and `log_bernoulli` (tag ``log_bernoulli``).
Each follows the operation order of the unfused op chain it replaces, so
its bytes are that chain's, without the chain's nodes and full-size
temporaries. The two Gaussian densities form their summands with one
function, `_gaussian_terms`, and `log_bernoulli` takes its softplus and
sigmoid from `autodiff`, the functions the chain's `softplus` and
`sigmoid` nodes run. Bernoulli targets are data: they have the logits'
shape and take no gradient. The pairwise density's forward can start
before its node is recorded (`start_pairwise`), so that an unrecorded pass
can offer it to the helper thread beside the rest of that pass.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError, DomainError

LOG_2PI = math.log(2.0 * math.pi)

# Variance is kept inside [e^-14, e^14] so mixture densities and importance
# weights stay representable.
LOG_VAR_MIN = -14.0
LOG_VAR_MAX = 14.0

# 8-bit intensities sit on the {0, 1/255, ..., 1} grid; each carries a bin of
# width 1/256 whose probability is floored before the log.
INTENSITY_BIN_WIDTH = 1.0 / 256.0
PROB_FLOOR = 1e-7

# Bytes of the buffer one block of the pairwise density works in (the
# backward uses two): small enough to stay in a core's L2 cache instead of
# streaming (B, K, M) temporaries through memory.
PAIRWISE_BLOCK_BYTES = 640 * 1024

# Bytes of each of the two buffers one block of the Bernoulli
# log-likelihood works in.
BERNOULLI_BLOCK_BYTES = 128 * 1024


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

    @classmethod
    def clipped(cls, mean: Tensor, log_var: Tensor) -> "DiagGaussian":
        """A Gaussian from a log-variance already in the band, such as
        another `DiagGaussian`'s: no second clip is recorded."""
        out = cls.__new__(cls)
        out.mean, out.log_var = mean, log_var
        return out

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def _check_event_dim(name: str, z, p: DiagGaussian) -> None:
    if z.shape[-1] != p.dim:
        raise DimensionError(f"{name}: event dim {z.shape[-1]} != {p.dim}")


def _gaussian_terms(diff: np.ndarray, log_var: np.ndarray,
                    precision: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The summands ``log_var + diff^2 * precision + log 2 pi`` of -2 log N,
    in that order, into `out` (which may be diff itself)."""
    np.multiply(diff, diff, out=out)
    np.multiply(out, precision, out=out)
    np.add(log_var, out, out=out)
    return np.add(out, LOG_2PI, out=out)


def log_normal_diag(z: Tensor, p: DiagGaussian) -> Tensor:
    """log N(z | p.mean, diag(exp(p.log_var))), summed over the event axis.

    One graph node that runs the op chain
    ``-0.5 * sum(log_var + (z - mean)^2 * exp(-log_var) + log 2 pi)`` in
    place, in that chain's order. It keeps z - mean and the precision, and
    its backward recomputes the square. Inputs (log_var, log_var, z, mean):
    the chain's tape sent log_var the gradient of the add before that of
    exp(-log_var). z and the mean broadcast as in `autodiff`.
    """
    _check_event_dim("log_normal_diag", z, p)
    mean, log_var = p.mean, p.log_var
    ad._broadcast_check("log_normal_diag", z, mean)
    lv = log_var.data
    diff = np.subtract(z.data, mean.data)
    precision = np.exp(-lv)
    terms = _gaussian_terms(diff, lv, precision, np.empty_like(diff))
    axis, shape = terms.ndim - 1, terms.shape
    out = np.multiply(terms.sum(axis=axis), -0.5)

    z_shape, mean_shape, lv_shape = z.shape, mean.shape, log_var.shape
    z_grad, mean_grad = z.requires_grad, mean.requires_grad
    lv_grad = log_var.requires_grad

    def grad_fn(g):
        g_terms = ad._spread(g * -0.5, axis, shape)
        yield ad._reduce_to(g_terms, lv_shape) if lv_grad else None
        if lv_grad:
            g_lv = np.multiply(diff, diff)
            np.multiply(g_terms, g_lv, out=g_lv)
            g_lv = ad._reduce_to(g_lv, lv_shape)
            np.multiply(g_lv, precision, out=g_lv)
            yield np.negative(g_lv, out=g_lv)
            del g_lv
        else:
            yield None
        g_diff = np.multiply(2.0, diff)
        np.multiply(g_diff, np.multiply(g_terms, precision), out=g_diff)
        yield ad._reduce_to(g_diff, z_shape) if z_grad else None
        yield ad._reduce_to(-g_diff, mean_shape) if mean_grad else None

    return ad.apply_op("normal_logpdf", np.asarray(out),
                       (log_var, log_var, z, mean), grad_fn)


def log_standard_normal(z: Tensor) -> Tensor:
    """log N(z | 0, I), summed over the event axis."""
    return (-0.5) * (z.square() + LOG_2PI).sum(axis=-1)


def pairwise_block_rows(k: int, m: int) -> int:
    """Rows of z per block of the pairwise density: as many (K, M) slabs as
    fit in PAIRWISE_BLOCK_BYTES, and at least one."""
    return max(1, PAIRWISE_BLOCK_BYTES // (8 * k * m))


def _pairwise_diff(zd: np.ndarray, mean: np.ndarray, lo: int,
                   buf: np.ndarray) -> np.ndarray:
    """z_b - mean_k for the block of rows starting at `lo`, written into the
    leading rows of `buf`."""
    rows = zd[lo:lo + buf.shape[0], None, :]
    return np.subtract(rows, mean, out=buf[:rows.shape[0]])


def _accumulate_rows(acc: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """Add the rows of `block` to `acc` one at a time in index order, as
    numpy's axis-0 sum does. An empty accumulator is seeded with numpy's own
    sum of the first row, so the sign of a zero comes out as it does there."""
    start = 0
    if acc is None:
        acc, start = block[:1].sum(axis=0), 1
    for row in block[start:]:
        acc += row
    return acc


class PairwiseStart(ad._Claims):
    """`log_normal_diag_pairwise(z, p)`'s forward under way: its row blocks
    as claims, the components `p`, their precision and the output. Each
    thread that claims a block works in a block buffer of its own, dropped
    as soon as that thread finds no block left."""

    def __init__(self, blocks, p: DiagGaussian, precision: np.ndarray,
                 out: np.ndarray, bufs: list):
        super().__init__(blocks)
        self.p, self.precision, self.out = p, precision, out
        self._bufs = bufs

    def run(self, slot: int = 0) -> None:
        try:
            super().run(slot)
        finally:
            self._bufs[slot] = None


def start_pairwise(z: Tensor, p: DiagGaussian) -> PairwiseStart:
    """Prepare `log_normal_diag_pairwise(z, p)`'s forward: its row blocks
    run on the calling thread when the handle is passed to
    `log_normal_diag_pairwise`, unless `offer()` first hands them to an idle
    helper, which then claims them one at a time. Pass the handle to
    `log_normal_diag_pairwise`, or leave a ``with`` block on it to end it."""
    if z.ndim != 2 or p.mean.ndim != 2:
        raise DimensionError("pairwise density expects (B, M) rows and "
                             "(K, M) components")
    _check_event_dim("log_normal_diag_pairwise", z, p)
    zd, mu, lv = z.data, p.mean.data, p.log_var.data
    b, (k, m) = zd.shape[0], mu.shape
    rows = pairwise_block_rows(k, m)
    precision = np.exp(-lv)                    # (K, M)
    out = np.empty((b, k))
    bufs = [None, None]  # per slot of the claims

    def one_block(lo, slot):
        if bufs[slot] is None:
            bufs[slot] = np.empty((min(rows, b), k, m))
        diff = _pairwise_diff(zd, mu, lo, bufs[slot])
        terms = _gaussian_terms(diff, lv, precision, diff)
        np.sum(terms, axis=-1, out=out[lo:lo + terms.shape[0]])

    blocks = (functools.partial(one_block, lo) for lo in range(0, b, rows))
    return PairwiseStart(blocks, p, precision, out, bufs)


def log_normal_diag_pairwise(z: Tensor, p: DiagGaussian,
                             started: PairwiseStart | None = None) -> Tensor:
    """(B, K) matrix of log N(z_b | mean_k, var_k) as one fused graph node.

    Each block's summands come from `_gaussian_terms`, as the plain
    density's do, so a K=1 column is bitwise equal to the plain density and
    rows permute exactly with the components. The fused form keeps mixture
    priors at O(1) graph nodes.

    Forward and backward run over blocks of `pairwise_block_rows` rows of z
    in a reused (rows, K, M) buffer per thread, in the operation order of the
    unblocked broadcast, so the bytes are those of the (B, K, M) form; the
    backward recomputes the differences per block instead of keeping them.
    The forward is `start_pairwise(z, p)`, or `started`, that call's handle
    made (and perhaps offered) earlier, finished here on the calling
    thread.
    """
    started = start_pairwise(z, p) if started is None else started
    started.finish()
    out, precision = started.out, started.precision
    out *= -0.5
    zd, mu = z.data, p.mean.data
    b, (k, m) = zd.shape[0], mu.shape
    rows = pairwise_block_rows(k, m)
    block = (min(rows, b), k, m)

    def grad_fn(g):
        g_z = np.empty_like(zd)
        g_mean = g_log_var = None
        diff_buf, weighted_buf = np.empty(block), np.empty(block)
        for lo in range(0, b, rows):
            diff = _pairwise_diff(zd, mu, lo, diff_buf)
            hi = lo + diff.shape[0]
            gw = g[lo:hi, :, None]
            weighted = np.multiply(diff, precision,
                                   out=weighted_buf[:diff.shape[0]])
            np.multiply(gw, weighted, out=weighted)
            np.negative(weighted.sum(axis=1), out=g_z[lo:hi])
            g_mean = _accumulate_rows(g_mean, weighted)
            np.multiply(diff, diff, out=diff)
            np.multiply(diff, precision, out=diff)
            np.subtract(1.0, diff, out=diff)
            np.multiply(-0.5, diff, out=diff)
            np.multiply(gw, diff, out=diff)
            g_log_var = _accumulate_rows(g_log_var, diff)
        if b == 0:
            g_mean, g_log_var = np.zeros((k, m)), np.zeros((k, m))
        return g_z, g_mean, g_log_var

    return ad.apply_op("normal_logpdf_pairwise", out,
                       (z, p.mean, p.log_var), grad_fn)


def sample_reparam(p: DiagGaussian, eps: Tensor) -> Tensor:
    """z = mean + exp(log_var / 2) * eps; differentiable in mean and log_var."""
    _check_event_dim("sample_reparam", eps, p)
    std = ad.exp(0.5 * p.log_var)
    return ad.add(p.mean, ad.mul(std, eps))


def bernoulli_block_rows(d: int) -> int:
    """Rows per block of the fused Bernoulli log-likelihood: as many D-wide
    rows as fit in BERNOULLI_BLOCK_BYTES, and at least one."""
    return max(1, BERNOULLI_BLOCK_BYTES // (8 * max(d, 1)))


def log_bernoulli(x: Tensor, logits: Tensor) -> Tensor:
    """Bernoulli log-mass sum_d [x log s(l) + (1-x) log(1-s(l))].

    Computed in the fused form x*l - softplus(l), which is exact for hard
    targets, linear in soft targets, and immune to sigmoid saturation.

    The targets x are data: they have the logits' shape and take no
    gradient. One graph node whose forward runs over blocks of
    `bernoulli_block_rows` rows in two reused buffers, in the order of the
    op chain ``sum(x * l - softplus(l))``. The backward returns
    ``(-g) s(l) + g x`` for the logits, the order in which that chain's
    tape added them up.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    # two reductions, no boolean temporaries; an empty array has no min
    if x.size and (x.data.min() < 0.0 or x.data.max() > 1.0):
        raise DomainError("log_bernoulli targets must lie in [0, 1]")
    if x.shape != logits.shape:
        raise DimensionError(f"log_bernoulli: targets {x.shape} != logits "
                             f"{logits.shape}")
    if x.requires_grad:
        raise ContractError("log_bernoulli targets are data and must not "
                            "require grad")
    shape = logits.shape
    xr, lr = x.data.reshape(-1, shape[-1]), logits.data.reshape(-1, shape[-1])
    n, d = lr.shape
    rows = bernoulli_block_rows(d)
    soft, prod = np.empty((min(rows, n), d)), np.empty((min(rows, n), d))
    out = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        sp, xl = soft[:hi - lo], prod[:hi - lo]
        ad._softplus_values(lr[lo:hi], out=sp, work=xl)
        np.multiply(xr[lo:hi], lr[lo:hi], out=xl)
        np.subtract(xl, sp, out=xl)
        np.sum(xl, axis=-1, out=out[lo:hi])

    block = soft.shape

    def grad_fn(g):
        # recorded only when the logits require grad
        gr = np.reshape(g, (n, 1))
        g_l = np.empty((n, d))
        buf = np.empty(block)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            gb, s = gr[lo:hi], ad._sigmoid_values(lr[lo:hi], out=g_l[lo:hi])
            np.multiply(np.negative(gb), s, out=s)
            np.add(s, np.multiply(gb, xr[lo:hi], out=buf[:hi - lo]), out=s)
        return None, g_l.reshape(shape)

    return ad.apply_op("log_bernoulli", out.reshape(shape[:-1]), (x, logits),
                       grad_fn)


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

    def __init__(self, logits: Tensor):
        self.logits = logits

    def log_prob(self, x) -> Tensor:
        return log_bernoulli(x, self.logits)

    def mean_value(self) -> np.ndarray:
        return ad.sigmoid(Tensor(self.logits.data)).data


class DiscretizedLogisticParams:
    """Discretized-logistic likelihood with mean in [0, 1] and a log-scale."""

    __slots__ = ("mean", "log_scale")

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
