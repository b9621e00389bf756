"""Test-time metrics: importance-sampled marginal log-likelihood,
bits per dimension, the two-term objective decomposition, the active-units
statistic, and per-example log-likelihood histograms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError
from .models import Vae, with_frozen_prior

DEFAULT_IS_CHUNK = 500


def _lse(values: np.ndarray) -> float:
    m = values.max()
    return float(m + np.log(np.exp(values - m).sum()))


def is_log_likelihood(x: np.ndarray, model, s: int, rng,
                      chunk_size: int = DEFAULT_IS_CHUNK) -> float:
    """Importance-sampled log p(x) for one example with S posterior samples.

    Samples are drawn in chunks with a running log-sum-exp, so memory stays
    proportional to the chunk size rather than S. The repeated row is
    encoded (`model.encode_x`) once per distinct chunk length (the full chunk
    and the tail) and that encoding is reused for every chunk of its length:
    the same input bytes and shape give the same bits as encoding per chunk.
    """
    if s < 1:
        raise ContractError("importance sampling needs at least one sample")
    if chunk_size < 1:
        raise ContractError("chunk_size must be at least 1")
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    encoded = {}
    partials = []
    remaining = s
    while remaining > 0:
        c = min(chunk_size, remaining)
        if c not in encoded:
            encoded[c] = model.encode_x(np.repeat(x, c, axis=0))
        weights = model.log_importance_weight(encoded[c], rng)
        partials.append(_lse(weights))
        remaining -= c
    return _lse(np.asarray(partials)) - math.log(s)


def per_example_log_likelihood(model, data: np.ndarray, s: int, seed: int,
                               chunk_size: int = DEFAULT_IS_CHUNK) -> np.ndarray:
    """IS log-likelihood per dataset row, one row after another on the
    calling thread.

    Each row gets its own generator spawned from `seed`, so a row's estimate
    does not depend on the rows before it. The rows are evaluated on a copy
    of the model with a frozen prior, so the prior's mixture components are
    computed once for the whole call; each row's forward passes may still
    offer their mixture density to the package's helper thread.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ContractError("need a non-empty (N, D) matrix")
    seqs = np.random.SeedSequence(seed).spawn(data.shape[0])
    frozen_model = with_frozen_prior(model)
    return np.array([is_log_likelihood(row, frozen_model, s,
                                       np.random.default_rng(seq), chunk_size)
                     for row, seq in zip(data, seqs)])


def bits_per_dim(mean_ll_nats: float, d: int) -> float:
    """Negative log-likelihood per dimension, in bits."""
    if d < 1:
        raise ContractError("dimension must be positive")
    return -mean_ll_nats / (d * math.log(2.0))


@dataclass
class ElboDecomposition:
    """Reconstruction + posterior entropy - cross-entropy-to-prior."""

    recon: float
    posterior_entropy: float
    cross_entropy_term: float
    per_example: dict[str, np.ndarray]

    @property
    def elbo_sum(self) -> float:
        return self.recon + self.posterior_entropy - self.cross_entropy_term


def elbo_decomposition(data: np.ndarray, model, samples_per_x: int, rng,
                       entropy_mode: str = "analytic") -> ElboDecomposition:
    """Split the objective into its reconstruction and two regularizer terms.

    `entropy_mode="analytic"` uses the closed-form diagonal-Gaussian entropy;
    `"sampled"` uses -log q at the drawn latents, which makes `elbo_sum`
    coincide with the direct Monte Carlo objective under common random
    numbers. The batch is encoded once; each sample is one `Model.forward`
    pass over that encoding, so the noise order is the model's own.
    """
    if samples_per_x < 1:
        raise ContractError("samples_per_x must be at least 1")
    if entropy_mode not in ("analytic", "sampled"):
        raise ContractError(f"unknown entropy_mode '{entropy_mode}'")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ContractError("need a non-empty (N, D) matrix")
    x = model.encode_x(data)
    n = data.shape[0]
    recon = np.zeros(n)
    entropy = np.zeros(n)
    cross = np.zeros(n)
    for _ in range(samples_per_x):
        rec = model.forward(x, rng, 1)
        recon += rec.log_px.data
        cross += -rec.log_p().data
        if entropy_mode == "analytic":
            entropy += rec.entropy().data
        else:
            entropy += -rec.log_q().data

    recon /= samples_per_x
    cross /= samples_per_x
    entropy /= samples_per_x
    per_example = {"recon": recon, "entropy": entropy, "cross_entropy": cross}
    return ElboDecomposition(float(recon.mean()), float(entropy.mean()),
                             float(cross.mean()), per_example)


@dataclass
class ActiveUnits:
    """Per-level activity: variance across the data of the posterior mean."""

    counts: list[int]
    scores: list[np.ndarray]


def active_units(data: np.ndarray, model,
                 threshold: float = 0.01) -> ActiveUnits:
    """Count latent dimensions whose posterior mean varies across the data.

    A unit d is active when Var_x(E_q[z_d]) exceeds the threshold. The inner
    expectation is the posterior mean; for the lower level of a hierarchy the
    conditioning z2 is fixed at its own posterior mean, keeping the statistic
    deterministic.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ContractError("active_units needs at least two data points")
    x = Tensor(data)
    if isinstance(model, Vae):
        mus = [model.encode(x).mean.data]
    else:
        q2 = model.encode_top(x)
        mu2 = q2.mean.data
        q1 = model.encode_bottom(model.enc_z1_x(x), Tensor(mu2))
        mus = [q1.mean.data, mu2]
    # reduce over a sorted copy so the statistic is exactly invariant to
    # permutations of the dataset rows
    scores = [np.sort(mu, axis=0).var(axis=0) for mu in mus]
    counts = [int((s > threshold).sum()) for s in scores]
    return ActiveUnits(counts, scores)


@dataclass
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray

    def to_csv(self) -> str:
        lines = ["bin_left,bin_right,count"]
        for left, right, count in zip(self.bin_edges[:-1], self.bin_edges[1:],
                                      self.counts):
            lines.append(f"{left!r},{right!r},{int(count)}")
        return "\n".join(lines) + "\n"


def ll_histogram(per_example_ll: np.ndarray, bins: int) -> Histogram:
    """Equal-width histogram spanning [min, max]; counts sum to N."""
    values = np.asarray(per_example_ll, dtype=np.float64)
    if values.size == 0:
        raise ContractError("ll_histogram needs at least one value")
    if bins < 1:
        raise ContractError("bins must be at least 1")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return Histogram(edges, counts)


@dataclass
class EvalReport:
    """Everything the evaluate command reports for one checkpoint."""

    mean_test_ll: float
    per_example_ll: np.ndarray
    bits_per_dim: float | None
    active_unit_counts: list[int]
    histogram: Histogram
    is_samples: int
    seed: int

    def __post_init__(self):
        want = float(np.mean(self.per_example_ll))
        if abs(self.mean_test_ll - want) > 1e-12 * max(1.0, abs(want)):
            raise ContractError("mean_test_ll does not match per-example mean")

    def to_json(self) -> str:
        payload = {
            "mean_test_ll": self.mean_test_ll,
            "per_example_ll": [float(v) for v in self.per_example_ll],
            "bits_per_dim": self.bits_per_dim,
            "active_unit_counts": self.active_unit_counts,
            "histogram": {
                "bin_edges": [float(v) for v in self.histogram.bin_edges],
                "counts": [int(v) for v in self.histogram.counts],
            },
            "is_samples": self.is_samples,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def evaluate_model(model, test_data: np.ndarray, s: int, seed: int,
                   bins: int = 50) -> EvalReport:
    """Full evaluation pass: active units (no randomness, so a split too
    small for them fails at once), IS log-likelihood, histogram."""
    act = active_units(test_data, model)
    lls = per_example_log_likelihood(model, test_data, s, seed)
    mean_ll = float(lls.mean())
    bpd = None
    if model.spec.likelihood == "logistic":
        bpd = bits_per_dim(mean_ll, model.spec.data_dim)
    hist = ll_histogram(lls, bins)
    return EvalReport(mean_ll, lls, bpd, act.counts, hist, s, seed)
