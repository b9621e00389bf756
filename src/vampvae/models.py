"""Generative architectures: gated-MLP VAE, two-level hierarchical VAE,
generation and reconstruction, and binary checkpoint persistence.

The hierarchical model factorizes the variational part as
q(z1 | x, z2) q(z2 | x) and the generative part as
p(x | z1, z2) p(z1 | z2) p(z2), with the top-level prior p(z2) supplied by
the `priors` module. Every conditional Gaussian is produced by a stack of
gated dense layers followed by an affine head emitting (mean, log_var).
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .distributions import (
    BernoulliParams,
    DiagGaussian,
    DiscretizedLogisticParams,
    log_normal_diag,
    normal_entropy,
    sample_reparam,
)
from .errors import ContractError, DimensionError, FormatError
from .priors import (
    PRIOR_KINDS,
    MixtureOfGaussians,
    StandardGaussian,
    VampDataPrior,
    VampPrior,
    WeightedVampPrior,
    frozen,
    sample_prior,
    start_log_prob,
)

LIKELIHOODS = ("bernoulli", "logistic")

# decoder log-scales are kept in a sane band; the probability floor in the
# discretized logistic guards the extremes anyway
LOG_SCALE_MIN = -7.0
LOG_SCALE_MAX = 7.0

CHECKPOINT_MAGIC = b"VAMP"
CHECKPOINT_VERSION = 1


@dataclass
class ModelSpec:
    """Architecture description; everything needed to rebuild a model."""

    levels: int
    data_dim: int
    latent1: int = 40
    latent2: int = 40
    hidden: int = 300
    hidden_layers: int = 2
    likelihood: str = "bernoulli"
    prior_kind: str = "sg"
    prior_components: int = 500
    prior_squash: bool = True

    def __post_init__(self):
        # not isinstance: a bool is an int to Python, and a spec holding one
        # would re-save as true/false
        for name in ("levels", "data_dim", "latent1", "latent2", "hidden",
                     "hidden_layers", "prior_components"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ContractError(f"{name} must be a positive integer")
        if self.levels not in (1, 2):
            raise ContractError(f"levels must be 1 or 2, got {self.levels}")
        if not isinstance(self.prior_squash, bool):
            raise ContractError("prior_squash must be true or false")
        if self.likelihood not in LIKELIHOODS:
            raise ContractError(f"unknown likelihood '{self.likelihood}'")
        if self.prior_kind not in PRIOR_KINDS:
            raise ContractError(f"unknown prior '{self.prior_kind}'")

    @property
    def top_latent(self) -> int:
        return self.latent2 if self.levels == 2 else self.latent1


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class GatedDense(Module):
    """Affine output gated element-wise by a sigmoid of a second affine map."""

    def __init__(self, in_dim: int, out_dim: int, rng):
        self.w1 = Tensor(_glorot(rng, in_dim, out_dim), requires_grad=True)
        self.b1 = Tensor(np.zeros(out_dim), requires_grad=True)
        self.w2 = Tensor(_glorot(rng, in_dim, out_dim), requires_grad=True)
        self.b2 = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.gated_dense(x, self.w1, self.b1, self.w2, self.b2)


class GatedStack(Module, list):
    """`depth` gated dense layers: in_dim -> width -> ... -> width."""

    def __init__(self, in_dim: int, width: int, depth: int, rng):
        super().__init__(GatedDense(in_dim if i == 0 else width, width, rng)
                         for i in range(depth))

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self:
            x = layer(x)
        return x


class GaussianHead(Module):
    """Affine map emitting (mean, log_var) halves of a diagonal Gaussian."""

    def __init__(self, in_dim: int, out_dim: int, rng):
        self.out_dim = out_dim
        self.w = Tensor(_glorot(rng, in_dim, 2 * out_dim), requires_grad=True)
        self.b = Tensor(np.zeros(2 * out_dim), requires_grad=True)

    def __call__(self, h: Tensor) -> DiagGaussian:
        raw = ad.matmul(h, self.w, self.b)
        m = self.out_dim
        return DiagGaussian(raw.slice(1, 0, m), raw.slice(1, m, 2 * m))


class LikelihoodHead(Module):
    """Affine map emitting Bernoulli logits or logistic (mean, log_scale)."""

    def __init__(self, in_dim: int, data_dim: int, likelihood: str, rng):
        self.data_dim = data_dim
        self.likelihood = likelihood
        width = data_dim if likelihood == "bernoulli" else 2 * data_dim
        self.w = Tensor(_glorot(rng, in_dim, width), requires_grad=True)
        self.b = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, h: Tensor):
        raw = ad.matmul(h, self.w, self.b)
        if self.likelihood == "bernoulli":
            return BernoulliParams(raw)
        d = self.data_dim
        mean = ad.sigmoid(raw.slice(1, 0, d))
        log_scale = raw.slice(1, d, 2 * d).clip(LOG_SCALE_MIN, LOG_SCALE_MAX)
        return DiscretizedLogisticParams(mean, log_scale)


@dataclass
class Record:
    """Per-row log-terms of the objective, averaged over samples: log p(x | z)
    and, per latent level with the top level first, log p(z) and log q(z | .),
    with the posteriors and, in `decode`'s argument order, the latents of
    the last sample."""

    log_px: Tensor
    log_pz: tuple[Tensor, ...]
    log_qz: tuple[Tensor, ...]
    posteriors: tuple[DiagGaussian, ...]
    latents: tuple[Tensor, ...]

    def log_p(self) -> Tensor:
        """The prior side of the regularizer."""
        return reduce(ad.add, self.log_pz)

    def log_q(self) -> Tensor:
        """The posterior side of the regularizer."""
        return reduce(ad.add, self.log_qz)

    def entropy(self) -> Tensor:
        """Analytic entropy of each level's posterior, summed; a lower level
        is conditioned on the last sample of the level above."""
        return reduce(ad.add, map(normal_entropy, self.posteriors))

    def regularizer(self) -> Tensor:
        return ad.sub(self.log_p(), self.log_q())

    def elbo(self) -> Tensor:
        return ad.add(self.log_px, self.regularizer())


@dataclass
class Generation:
    """Decoded likelihood means plus the latents that produced them."""

    x_mean: np.ndarray
    z1: np.ndarray
    z2: np.ndarray | None = None
    components: np.ndarray | None = None


@dataclass(frozen=True)
class Encoding:
    """The part of a forward pass that depends only on x: the top-level
    posterior and, with two levels, the x path of q(z1 | x, z2)."""

    x: Tensor
    q: DiagGaussian
    x_path: Tensor | None = None


def _checked_batch(x, spec: ModelSpec) -> Tensor:
    """The checks both encoders share; returns x as a (B, D) tensor."""
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.ndim == 1:
        t = t.reshape((1, t.shape[0]))
    if t.ndim != 2:
        raise DimensionError(f"expected a (B, D) batch, got {t.shape}")
    if t.shape[1] != spec.data_dim:
        raise DimensionError(f"data dim {t.shape[1]} != {spec.data_dim}")
    return t


def _encoded(model, x, mc_samples: int) -> Encoding:
    """forward's input as an encoding: an `Encoding` as given, any other
    batch through `model.encode_x`."""
    if mc_samples < 1:
        raise ContractError("mc_samples must be at least 1")
    return x if isinstance(x, Encoding) else model.encode_x(x)


def _average(terms) -> Tensor:
    total = reduce(ad.add, terms)
    return total * (1.0 / len(terms)) if len(terms) > 1 else total


def _record(samples, posteriors, latents) -> Record:
    """Average each term of the per-sample (log p(x | z), log p(z) per level,
    log q(z | .) per level) tuples over the samples, in that order."""
    log_px, *logs = [_average(term) for term in zip(*samples)]
    levels = len(posteriors)
    return Record(log_px, tuple(logs[:levels]), tuple(logs[levels:]),
                  posteriors, latents)


class Vae(Module):
    """One-level VAE: q(z|x), p(x|z), interchangeable prior p(z)."""

    def __init__(self, spec: ModelSpec, prior, rng):
        if spec.levels != 1:
            raise ContractError("Vae requires a one-level spec")
        self.spec = spec
        self.encoder = GatedStack(spec.data_dim, spec.hidden,
                                  spec.hidden_layers, rng)
        self.encoder_head = GaussianHead(spec.hidden, spec.latent1, rng)
        self.decoder = GatedStack(spec.latent1, spec.hidden,
                                  spec.hidden_layers, rng)
        self.decoder_head = LikelihoodHead(spec.hidden, spec.data_dim,
                                           spec.likelihood, rng)
        # assigned last: the prior's tensors close the parameter order
        self.prior = prior
        if isinstance(prior, VampPrior):
            prior.encoder = self.encode

    def encode(self, x: Tensor) -> DiagGaussian:
        return self.encoder_head(self.encoder(x))

    def decode(self, z: Tensor):
        return self.decoder_head(self.decoder(z))

    def encode_x(self, x) -> Encoding:
        x = _checked_batch(x, self.spec)
        return Encoding(x, self.encode(x))

    def forward(self, x, rng, mc_samples: int = 1) -> Record:
        """The objective's terms for a batch or its `encode_x` encoding; the
        encoding can be reused, as the samples are drawn here."""
        enc = _encoded(self, x, mc_samples)
        x, q = enc.x, enc.q
        samples = []
        for _ in range(mc_samples):
            eps = Tensor(rng.standard_normal((x.shape[0], self.spec.latent1)))
            z = sample_reparam(q, eps)
            with start_log_prob(self.prior, z) as started:
                samples.append((self.decode(z).log_prob(x),
                                self.prior.log_prob(z, started),
                                log_normal_diag(z, q)))
        return _record(samples, (q,), (z,))

    def log_importance_weight(self, x, rng) -> np.ndarray:
        rec = self.forward(x, rng, mc_samples=1)
        return rec.elbo().data

    def generate_from_top(self, z_top: np.ndarray, rng,
                          components) -> Generation:
        """Decode top-level latents; `rng` is unused (z is the only level)."""
        x = self.decode(Tensor(z_top)).mean_value()
        return Generation(x, z_top, components=components)


class Hvae(Module):
    """Two-level hierarchical VAE with a coupled top-level prior."""

    def __init__(self, spec: ModelSpec, prior, rng):
        if spec.levels != 2:
            raise ContractError("Hvae requires a two-level spec")
        self.spec = spec
        d, h, depth = spec.data_dim, spec.hidden, spec.hidden_layers
        m1, m2 = spec.latent1, spec.latent2
        self.enc_z2 = GatedStack(d, h, depth, rng)
        self.enc_z2_head = GaussianHead(h, m2, rng)
        self.enc_z1_x = GatedStack(d, h, depth, rng)
        self.enc_z1_z = GatedStack(m2, h, depth, rng)
        self.enc_z1_joint = GatedDense(2 * h, h, rng)
        self.enc_z1_head = GaussianHead(h, m1, rng)
        self.cond_z1 = GatedStack(m2, h, depth, rng)
        self.cond_z1_head = GaussianHead(h, m1, rng)
        self.dec_z1 = GatedStack(m1, h, depth, rng)
        self.dec_z2 = GatedStack(m2, h, depth, rng)
        self.dec_joint = GatedDense(2 * h, h, rng)
        self.dec_head = LikelihoodHead(h, d, spec.likelihood, rng)
        # assigned last: the prior's tensors close the parameter order
        self.prior = prior
        if isinstance(prior, VampPrior):
            prior.encoder = self.encode_top

    def encode_top(self, x: Tensor) -> DiagGaussian:
        return self.enc_z2_head(self.enc_z2(x))

    def encode_bottom(self, x_path: Tensor, z2: Tensor) -> DiagGaussian:
        """q(z1 | x, z2) from the x path `enc_z1_x(x)` and z2."""
        joint = self.enc_z1_joint(ad.concat([x_path, self.enc_z1_z(z2)], axis=1))
        return self.enc_z1_head(joint)

    def conditional_prior(self, z2: Tensor) -> DiagGaussian:
        return self.cond_z1_head(self.cond_z1(z2))

    def decode(self, z1: Tensor, z2: Tensor):
        joint = self.dec_joint(ad.concat([self.dec_z1(z1), self.dec_z2(z2)],
                                         axis=1))
        return self.dec_head(joint)

    def encode_x(self, x) -> Encoding:
        x = _checked_batch(x, self.spec)
        return Encoding(x, self.encode_top(x), self.enc_z1_x(x))

    def forward(self, x, rng, mc_samples: int = 1) -> Record:
        """The objective's terms for a batch or its `encode_x` encoding; the
        encoding can be reused, as the samples are drawn here."""
        enc = _encoded(self, x, mc_samples)
        x, q2 = enc.x, enc.q
        b = x.shape[0]
        samples = []
        for _ in range(mc_samples):
            eps2 = Tensor(rng.standard_normal((b, self.spec.latent2)))
            z2 = sample_reparam(q2, eps2)
            with start_log_prob(self.prior, z2) as started:
                q1 = self.encode_bottom(enc.x_path, z2)
                eps1 = Tensor(rng.standard_normal((b, self.spec.latent1)))
                z1 = sample_reparam(q1, eps1)
                p1 = self.conditional_prior(z2)
                samples.append((self.decode(z1, z2).log_prob(x),
                                self.prior.log_prob(z2, started),
                                log_normal_diag(z1, p1),
                                log_normal_diag(z2, q2),
                                log_normal_diag(z1, q1)))
        return _record(samples, (q2, q1), (z1, z2))

    def log_importance_weight(self, x, rng) -> np.ndarray:
        rec = self.forward(x, rng, mc_samples=1)
        return rec.elbo().data

    def generate_from_top(self, z_top: np.ndarray, rng,
                          components) -> Generation:
        """Draw z1 from p(z1 | z2 = z_top) and decode both levels."""
        z2 = Tensor(z_top)
        p1 = self.conditional_prior(z2)
        eps = Tensor(rng.standard_normal((z_top.shape[0], self.spec.latent1)))
        z1 = sample_reparam(p1, eps)
        x = self.decode(z1, z2).mean_value()
        return Generation(x, z1.data, z2=z_top, components=components)


Model = Vae | Hvae


def build_prior(spec: ModelSpec, rng, data_mean=None, data_rows=None):
    kind, k = spec.prior_kind, spec.prior_components
    top = spec.top_latent
    if kind == "sg":
        return StandardGaussian(top)
    if kind == "mog":
        return MixtureOfGaussians.initialize(k, top, rng)
    if kind == "vamp":
        return VampPrior.initialize(k, spec.data_dim, rng, data_mean,
                                    squash=spec.prior_squash)
    if kind == "vamp-data":
        if data_rows is None:
            raise ContractError("vamp-data prior needs training rows")
        return VampDataPrior.from_data(np.asarray(data_rows, dtype=float), k, rng)
    return WeightedVampPrior.initialize(k, spec.data_dim, rng, data_mean,
                                        squash=spec.prior_squash)


def build_model(spec: ModelSpec, rng, data_mean=None, data_rows=None) -> Model:
    """Construct a freshly initialized model with its prior bound."""
    prior = build_prior(spec, rng, data_mean=data_mean, data_rows=data_rows)
    if spec.levels == 1:
        return Vae(spec, prior, rng)
    return Hvae(spec, prior, rng)


def with_frozen_prior(model: Model) -> Model:
    """A shallow copy of `model` whose prior is `priors.frozen(model.prior)`,
    for passes that change no parameter (evaluation, the validation ELBO):
    the prior's components are computed once here, not on every `log_prob`.
    `model` and its prior are left as they are."""
    copied = copy.copy(model)
    copied.prior = frozen(model.prior)
    return copied


def generate(model: Model, n: int, rng,
             component: int | None = None) -> Generation:
    """Sample the generative chain, with the top latent drawn from the prior
    or from its mixture component `component`, and decode to likelihood
    means."""
    ps = sample_prior(model.prior, n, rng, component)
    if n == 0:
        return Generation(np.empty((0, model.spec.data_dim)),
                          np.empty((0, model.spec.latent1)))
    return model.generate_from_top(ps.z, rng, ps.components)


def reconstruct(x, model: Model, rng) -> np.ndarray:
    """Encode with one posterior sample and decode to the likelihood mean."""
    rec = model.forward(x, rng, mc_samples=1)
    return model.decode(*rec.latents).mean_value()


def set_parameters(model: Model, state: dict[str, np.ndarray]) -> None:
    """Overwrite all model parameters from a name -> array snapshot."""
    params = model.parameters()
    if set(params) != set(state):
        raise ContractError("tensor names do not match the model")
    for name, t in params.items():
        if np.shape(state[name]) != t.shape:
            raise ContractError(f"tensor '{name}' has shape "
                                f"{np.shape(state[name])}, expected {t.shape}")
    for name, t in params.items():
        t.data = np.array(state[name], dtype=np.float64)


# -- checkpoint persistence ------------------------------------------------

def _header(model: Model) -> bytes:
    """The checkpoint's JSON header: the spec and the [name, shape] manifest
    in parameter order, with sorted keys."""
    manifest = [[name, list(t.shape)]
                for name, t in model.parameters().items()]
    return json.dumps({"spec": asdict(model.spec), "tensors": manifest},
                      sort_keys=True).encode("utf-8")


def save_checkpoint(model: Model, path) -> None:
    """Write magic, version, JSON header, raw f64 payloads to `path`.tmp,
    then move it onto `path`: an interrupted save leaves `path` as it was."""
    header = _header(model)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack(
                "<II", CHECKPOINT_VERSION, len(header)) + header)
            for t in model.parameters().values():
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class _ZeroDraws:
    """Stands in for the generator when a checkpoint is loaded: every draw
    is zeros, since the payloads overwrite each initial value. The zeros
    are written, not left to the allocator: untouched pages would fault
    once when the finiteness screen reads them and again when the payload
    lands."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.full(size, 0.0)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.full(size, 0.0)

    def choice(self, a, size=None, replace=True):
        return np.zeros(size, dtype=np.intp)


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint; bitwise inverse of save.

    After the magic, version and length checks only the header's spec is
    parsed; the model is built from it on zero-filled arrays, not random
    draws, and the header must be exactly `_header(model)`, byte for byte
    (else `FormatError` at offset 12). Each payload is then read straight
    into its parameter's array, little-endian and finite, so no second copy
    of the parameters exists.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 4 or head[:4] != CHECKPOINT_MAGIC:
            raise FormatError("bad checkpoint magic", offset=0)
        if len(head) < 8:
            raise FormatError("truncated checkpoint header", offset=4)
        version = struct.unpack("<I", head[4:8])[0]
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version} "
                              f"(expected {CHECKPOINT_VERSION})", offset=4)
        if len(head) < 12:
            raise FormatError("truncated checkpoint header", offset=8)
        header_len = struct.unpack("<I", head[8:12])[0]
        if size < 12 + header_len:
            raise FormatError("truncated checkpoint metadata", offset=12)
        header = fh.read(header_len)
        try:
            spec = ModelSpec(**json.loads(header.decode("utf-8"))["spec"])
        except (ValueError, KeyError, TypeError, ContractError) as exc:
            raise FormatError(f"bad checkpoint metadata: {exc}",
                              offset=12) from exc

        placeholder = None
        if spec.prior_kind == "vamp-data":
            placeholder = np.zeros((spec.prior_components, spec.data_dim))
        model = build_model(spec, _ZeroDraws(), data_rows=placeholder)
        if header != _header(model):
            raise FormatError("bad checkpoint metadata: not the canonical "
                              "header for its spec", offset=12)
        offset = 12 + header_len
        for name, t in model.parameters().items():
            data = t.data
            if fh.readinto(memoryview(data).cast("B")) != data.nbytes:
                raise FormatError(f"truncated payload for tensor '{name}'",
                                  offset=offset)
            if sys.byteorder == "big":
                data.byteswap(inplace=True)
            finite = np.isfinite(data)
            if not finite.all():
                raise FormatError(f"non-finite value in tensor '{name}'",
                                  offset=offset + 8 * int(np.argmin(finite)))
            offset += data.nbytes
        if fh.read(1):
            raise FormatError("trailing bytes after checkpoint payload",
                              offset=offset)
    return model
