"""Optimization recipe: warm-up-weighted objective, Adam over per-block
normalized gradients, mini-batching with dynamic binarization, early stopping.

Everything is driven by seeded generators derived from `TrainConfig.seed`, so
a fit is bit-for-bit reproducible: identical logs, identical parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor
from .errors import ContractError, DomainError
from .helper import Claims
from .models import with_frozen_prior

# gradient blocks with L2 norm below this are skipped entirely
GRAD_NORM_FLOOR = 1e-12

# elements per slice of the in-place Adam update, so its two scratch
# buffers stay in cache; of 4K, 16K, 64K and 256K, 64K timed fastest
ADAM_CHUNK = 65_536


@dataclass
class TrainConfig:
    max_epochs: int
    learning_rate: float = 5e-4
    batch_size: int = 100
    warmup_epochs: int = 100
    early_stop_patience: int = 50
    mc_samples: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError("learning_rate must be finite and positive")
        if self.batch_size < 1:
            raise ContractError("batch_size must be at least 1")
        if self.early_stop_patience < 1:
            raise ContractError("early_stop_patience must be at least 1")
        if self.max_epochs < 1:
            raise ContractError("max_epochs must be at least 1")
        if self.mc_samples < 1:
            raise ContractError("mc_samples must be at least 1")


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.step = 0
        self.m = {k: np.zeros(p.shape) for k, p in params.items()
                  if p.requires_grad}
        self.v = {k: np.zeros(p.shape) for k, p in params.items()
                  if p.requires_grad}


def beta_schedule(epoch: int, warmup_epochs: int) -> float:
    """Linear KL warm-up: 0 at epoch 0, 1 from `warmup_epochs` onwards."""
    if warmup_epochs <= 0:
        return 1.0
    return min(1.0, epoch / warmup_epochs)


def objective(batch, model, beta: float, rng, mc_samples: int = 1) -> Tensor:
    """Negative warm-up-weighted ELBO, averaged over the batch."""
    if not 0.0 <= beta <= 1.0:
        raise ContractError(f"beta must lie in [0, 1], got {beta}")
    rec = model.forward(batch, rng, mc_samples)
    weighted = ad.add(rec.log_px, ad.mul(rec.regularizer(), beta))
    return ad.neg(weighted.mean())


def step(params: dict[str, Tensor], opt: AdamState, lr: float,
         loss: Tensor | None = None) -> None:
    """One update: rescale each block's gradient to unit L2 norm, then Adam.

    Given `loss`, it sets the loss graph's `on_final`, runs
    `backward(loss)`, and queues each parameter's update as `backward`
    passes it on as final; without `loss` it queues every update at once,
    from the gradients the parameters hold. The updates are claimed one at
    a time from that queue (`helper.Claims`) by the calling thread and
    the package's helper thread, started whenever it is idle: with the
    `sg` and `mog` priors the helper has nothing else to do, so the
    updates overlap the rest of the backward pass. While the helper
    replays a vamp prior's branch, or where the process may use one CPU
    and the helper refuses every call, the caller runs each update as it
    comes, between the nodes of the replay. The caller claims whatever is
    left once `backward` returns, and `step` returns, or raises, only
    after every update it started has finished; an update not yet claimed
    then is dropped. Each update drops its gradient once used (given `loss`).
    Every trainable parameter needs a gradient, and gets the same bits on
    any thread.

    Blocks whose gradient norm is below the floor are left untouched,
    moments included. The norm is one sum over the whole block; the update
    runs in place over slices of ADAM_CHUNK elements, into two scratch
    slices of the thread that runs it, in the op order of

        g = grad / norm
        m = beta1 m + (1 - beta1) g
        v = beta2 v + ((1 - beta2) g) g
        p = p - lr (m / corr1) / (sqrt(v / corr2) + eps)

    so parameters and moments hold the same bits as the whole-array form.
    """
    if loss is not None and loss.node is None:
        raise ContractError("step's loss must be produced inside a Graph")
    opt.step += 1
    t = opt.step
    corr1 = 1.0 - opt.beta1 ** t
    corr2 = 1.0 - opt.beta2 ** t
    names = {p: name for name, p in params.items() if p.requires_grad}
    # per slot of the claims (the caller's, the helper's); made by that
    # thread's first update, not before
    scratch: list[list[np.ndarray]] = [[], []]

    def update(p: Tensor, name: str, slot: int) -> None:
        if not scratch[slot]:
            scratch[slot] = [np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)]
        a, b = scratch[slot]
        full = p.grad
        if full is None:
            raise ContractError(f"missing gradient for parameter '{name}'")
        if loss is not None:
            p.grad = None
        norm = float(np.sqrt((full * full).sum()))
        if norm < GRAD_NORM_FLOOR:
            return
        # reshape(-1) views a C-contiguous array; the moments always are
        p.data = np.require(p.data, requirements="CW")
        grad, w = full.reshape(-1), p.data.reshape(-1)
        m, v = opt.m[name].reshape(-1), opt.v[name].reshape(-1)
        for lo in range(0, w.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, w.size)
            g, s = a[:hi - lo], b[:hi - lo]
            mc, vc, wc = m[lo:hi], v[lo:hi], w[lo:hi]
            np.divide(grad[lo:hi], norm, out=g)
            mc *= opt.beta1
            mc += np.multiply(1.0 - opt.beta1, g, out=s)
            vc *= opt.beta2
            np.multiply(1.0 - opt.beta2, g, out=s)
            vc += np.multiply(s, g, out=s)
            np.divide(mc, corr1, out=g)
            np.multiply(lr, g, out=g)
            np.divide(vc, corr2, out=s)
            np.sqrt(s, out=s)
            np.add(s, opt.eps, out=s)
            wc -= np.divide(g, s, out=g)

    with Claims() as claims:
        def final(p: Tensor) -> None:
            name = names.pop(p, None)
            if name is None:
                return
            claims.add(lambda slot: update(p, name, slot))
            if not claims.offer():
                claims.run()

        if loss is not None:
            loss.node.graph.on_final = final
            ad.backward(loss)
        for p in list(names):
            final(p)
        claims.run()


def dynamic_binarize(batch: np.ndarray, rng) -> np.ndarray:
    """Draw each pixel Bernoulli(intensity); fresh noise per call."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.size and (batch.min() < 0.0 or batch.max() > 1.0):
        raise DomainError("dynamic_binarize expects intensities in [0, 1]")
    return (rng.random(batch.shape) < batch).astype(np.float64)


def validation_elbo(model, data: np.ndarray, rng, mc_samples: int = 1,
                    batch_size: int = 100) -> float:
    """Mean ELBO (beta = 1) over a dataset, evaluated without recording on a
    copy of the model with a frozen prior, so the prior's mixture components
    are computed once for all batches."""
    data = np.asarray(data, dtype=np.float64)
    frozen_model = with_frozen_prior(model)
    total = 0.0
    for start in range(0, data.shape[0], batch_size):
        rows = data[start:start + batch_size]
        rec = frozen_model.forward(rows, rng, mc_samples)
        total += float(rec.elbo().data.sum())
    return total / data.shape[0]


@dataclass
class EpochRecord:
    epoch: int
    beta: float
    train_loss: float
    val_elbo: float


@dataclass
class TrainLog:
    """Per-epoch history plus the best-validation snapshot."""

    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = ""
    best_state: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def best_val_elbo(self) -> float:
        return self.epochs[self.best_epoch].val_elbo

    def to_jsonl(self) -> str:
        lines = [json.dumps({"epoch": r.epoch, "beta": r.beta,
                             "train_loss": r.train_loss,
                             "val_elbo": r.val_elbo}, sort_keys=True)
                 for r in self.epochs]
        return "\n".join(lines) + "\n"


def write_trainlog(log: TrainLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(log.to_jsonl())


def prepare_validation(val: np.ndarray, config: TrainConfig,
                       binarization: str):
    """The fixed validation set and evaluation seed a fit derives from its
    config; exposed so logged ELBOs can be reproduced from a checkpoint."""
    root = np.random.SeedSequence(config.seed)
    train_seq, val_bin_seq, val_eval_seq = root.spawn(3)
    if binarization == "dynamic":
        val_set = dynamic_binarize(val, np.random.default_rng(val_bin_seq))
    else:
        val_set = np.asarray(val, dtype=np.float64)
    return val_set, val_eval_seq, train_seq


def check_splits(train: np.ndarray, val: np.ndarray) -> None:
    """The splits `fit` needs, checked before a model is built from them."""
    if len(train) == 0 or len(val) == 0:
        raise ContractError("fit requires non-empty train and val splits")


def fit(train: np.ndarray, val: np.ndarray, model, config: TrainConfig,
        binarization: str = "none") -> TrainLog:
    """Run the training loop with early stopping on the validation ELBO.

    `binarization="dynamic"` resamples binary training pixels every epoch and
    fixes a single seeded binarization of the validation set. Returns the
    full log along with a copy of the best parameters in `best_state`.
    """
    train = np.asarray(train, dtype=np.float64)
    val = np.asarray(val, dtype=np.float64)
    check_splits(train, val)
    if binarization not in ("none", "dynamic"):
        raise ContractError(f"unknown binarization mode '{binarization}'")

    val_eval_set, val_eval_seq, train_seq = prepare_validation(
        val, config, binarization)
    train_rng = np.random.default_rng(train_seq)

    params = model.parameters()
    trainable = {k: p for k, p in params.items() if p.requires_grad}
    # each update drops its gradients after use; a gradient the caller left
    # behind must not reach the first one
    for p in trainable.values():
        p.zero_grad()
    opt = AdamState(trainable)
    log = TrainLog()
    best = -np.inf
    since_best = 0

    for epoch in range(config.max_epochs):
        beta = beta_schedule(epoch, config.warmup_epochs)
        order = train_rng.permutation(train.shape[0])
        loss_sum = 0.0
        for start in range(0, train.shape[0], config.batch_size):
            rows = train[order[start:start + config.batch_size]]
            if binarization == "dynamic":
                rows = dynamic_binarize(rows, train_rng)
            with Graph():
                loss = objective(rows, model, beta, train_rng,
                                 config.mc_samples)
                step(trainable, opt, config.learning_rate, loss)
            loss_sum += loss.item() * rows.shape[0]
        train_loss = loss_sum / train.shape[0]

        # same generator state every epoch: the validation signal moves only
        # when the parameters do
        val_elbo = validation_elbo(model, val_eval_set,
                                   np.random.default_rng(val_eval_seq),
                                   config.mc_samples)
        log.epochs.append(EpochRecord(epoch, beta, train_loss, val_elbo))

        if val_elbo > best:
            best = val_elbo
            log.best_epoch = epoch
            log.best_state = {k: p.data.copy() for k, p in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.early_stop_patience:
                log.stop_reason = "early_stop"
                break
    if not log.stop_reason:
        log.stop_reason = "max_epochs"
    return log
