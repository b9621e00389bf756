"""Measurement primitives: the percentile rule, attribute patching with an
exact restore, the step/row clock of untraced runs, and the span tracer of
traced runs.

Everything here wraps public functions of the `vampvae` package from the
outside; nothing under `src/` is modified, and `Patcher.restore` puts every
replaced attribute back.
"""

from __future__ import annotations

import math
import sys
import time
import types
from collections import Counter, defaultdict

from spec import OP_TAGS

clock = time.perf_counter

MIN_BEYOND = 10


def percentile(values, q: float):
    """Linearly interpolated q-th percentile, or None when fewer than ten
    samples lie beyond it (a p50 needs 20 samples, a p90 needs 100)."""
    n = len(values)
    if math.floor(n * (100.0 - q) / 100.0 + 1e-9) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def vampvae_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "vampvae" or name.startswith("vampvae.")]


class Patcher:
    """Replaces attributes on modules, classes and instances; `restore`
    undoes every replacement in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def everywhere(self, fn, make_wrapper) -> None:
        """Replace every `vampvae` module binding of `fn` (including names
        imported with `from x import fn`) by one wrapper."""
        wrapper = make_wrapper(fn)
        for module in vampvae_modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, name, wrapper)

    def method(self, cls, name, make_wrapper) -> None:
        self.set(cls, name, make_wrapper(vars(cls)[name]))

    def restore(self) -> None:
        while self._undo:
            owner, name, existed, old = self._undo.pop()
            if existed:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


class Clock:
    """The only instrumentation of an untraced run: the time of each
    mini-batch update (from the call of `training.objective` to the return
    of `training.step`), of each IS row and IS chunk, and each step's loss
    for the correctness gate."""

    def __init__(self):
        self.step_ms: list[float] = []
        self.row_ms: list[float] = []
        self.chunk_ms: list[float] = []
        self.losses: list[float] = []
        self._step_start = None

    def install(self, patcher: Patcher) -> None:
        from vampvae import evaluation, models, training

        def objective(fn):
            def timed(*args, **kwargs):
                self._step_start = clock()
                loss = fn(*args, **kwargs)
                self.losses.append(float(loss.data))
                return loss
            return timed

        def step(fn):
            def timed(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.step_ms.append((clock() - self._step_start) * 1e3)
                return out
            return timed

        def into(samples):
            def wrap(fn):
                def timed(*args, **kwargs):
                    t0 = clock()
                    out = fn(*args, **kwargs)
                    samples.append((clock() - t0) * 1e3)
                    return out
                return timed
            return wrap

        patcher.everywhere(training.objective, objective)
        patcher.everywhere(training.step, step)
        patcher.everywhere(evaluation.is_log_likelihood, into(self.row_ms))
        patcher.method(models.Hvae, "log_importance_weight",
                       into(self.chunk_ms))


# (module, attribute or Class.method, span name): the module boundaries the
# traced run records. autodiff ops are profiled separately (see Tracer).
LAYER_SPANS = [
    ("distributions", "log_normal_diag", "distributions.log_normal_diag"),
    ("distributions", "log_bernoulli", "distributions.log_bernoulli"),
    ("distributions", "sample_reparam", "distributions.sample_reparam"),
    ("priors", "StandardGaussian.log_prob", "priors.log_prob"),
    ("priors", "MixtureOfGaussians.log_prob", "priors.log_prob"),
    ("priors", "VampPrior.log_prob", "priors.log_prob"),
    ("models", "Hvae.forward", "models.forward"),
    ("models", "Hvae.encode_top", "models.encode_top"),
    ("models", "Hvae.encode_bottom", "models.encode_bottom"),
    ("models", "Hvae.conditional_prior", "models.conditional_prior"),
    ("models", "Hvae.decode", "models.decode"),
    ("models", "Hvae.log_importance_weight", "models.log_importance_weight"),
    ("models", "save_checkpoint", "models.checkpoint_save"),
    ("models", "load_checkpoint", "models.checkpoint_load"),
    ("models", "build_model", "models.build"),
    ("training", "fit", "training.fit"),
    ("training", "objective", "training.objective"),
    ("training", "step", "training.step"),
    ("training", "dynamic_binarize", "training.binarize"),
    ("training", "validation_elbo", "training.validation"),
    ("evaluation", "is_log_likelihood", "evaluation.is_row"),
    ("evaluation", "active_units", "evaluation.active_units"),
    ("evaluation", "ll_histogram", "evaluation.histogram"),
    ("datasets", "synth_clusters", "datasets.synth"),
    ("datasets", "load_raw_matrix", "datasets.load_raw"),
    ("cli", "load_dataset", "cli.load_dataset"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
]

# spans that start a new operation id: one training step, one IS row
OP_ROOTS = ("training.objective", "evaluation.is_row")
OP_ENDS = ("training.step", "evaluation.is_row")


class _SpanProxy:
    """Stands in for a callable instance attribute (the model's `enc_z1_x`
    stack, the prior's bound `encoder`) and records a span around each call;
    every other attribute passes through."""

    def __init__(self, tracer, name, target):
        self._tracer = tracer
        self._name = name
        self._target = target

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._target, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def self_times(spans) -> dict[str, tuple[float, int]]:
    """name -> (summed self time, call count). A span is
    (name, parent index or -1, op id, start, end); its self time is its
    duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for name, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        total, count = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - covered[i], count + 1)
    return out


class Tracer:
    """Span recorder for the traced run.

    Layer spans (LAYER_SPANS, the prior's re-encoding and the first-level
    x path) form one tree kept in memory; a layer's time is its self time in
    that tree. autodiff ops form a second, flat profile aggregated as they
    run: forward time per op tag (the op function minus its `apply_op`),
    `apply_op` time (finiteness screen plus recording), backward time per
    tag (each node's `grad_fn`, wrapped inside `apply_op`) and backward time
    outside the `grad_fn`s. Op time is not subtracted from the layer spans
    that contain it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0
        self._ops_started = 0
        self._in_step = False
        self._frames: list[list] = []
        self.reset_profile()

    def reset_profile(self) -> None:
        """Zero the autodiff profile (called when the timed cycles start)."""
        self.fwd = defaultdict(lambda: [0.0, 0])
        self.bwd = defaultdict(lambda: [0.0, 0])
        self.apply = [0.0, 0]
        self.backward_self = [0.0, 0]
        self.step_nodes = 0
        self.pairwise_bytes = 0
        self._grad_time = 0.0

    # -- layer spans ------------------------------------------------------

    def enter(self, name: str) -> None:
        if name in OP_ROOTS:
            self._ops_started += 1
            self._op = self._ops_started
            self._in_step = name == "training.objective"
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, parent, self._op, clock(), 0.0])

    def exit(self) -> None:
        span = self.spans[self._stack.pop()]
        span[4] = clock()
        if span[0] in OP_ENDS:
            self._op = 0
            self._in_step = False

    def call(self, name, fn, args, kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def span_wrapper(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
            return traced
        return make

    # -- autodiff profile -------------------------------------------------

    def _op_wrapper(self, fn):
        frames = self._frames

        def traced_op(*args, **kwargs):
            frame = [0.0, None]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                if frame[1] is not None:
                    acc = self.fwd[frame[1]]
                    acc[0] += dt - frame[0]
                    acc[1] += 1
        return traced_op

    def _timed_grad(self, tag, grad_fn):
        def timed(g):
            t0 = clock()
            grads = grad_fn(g)
            dt = clock() - t0
            acc = self.bwd[tag]
            acc[0] += dt
            acc[1] += 1
            self._grad_time += dt
            return grads
        return timed

    def _apply_wrapper(self, fn):
        def traced_apply(tag, out_data, inputs, grad_fn):
            timed = self._timed_grad(tag, grad_fn)
            t0 = clock()
            out = fn(tag, out_data, inputs, timed)
            dt = clock() - t0
            self.apply[0] += dt
            self.apply[1] += 1
            if self._frames:
                frame = self._frames[-1]
                frame[0] += dt
                if frame[1] is None:
                    frame[1] = tag
            if out.node is not None and self._in_step:
                self.step_nodes += 1
            if tag == "normal_logpdf_pairwise":
                b, k = out_data.shape
                self.pairwise_bytes += b * k * inputs[0].shape[1] * 8
            return out
        return traced_apply

    def _backward_wrapper(self, fn):
        def traced_backward(root):
            before = self._grad_time
            self.enter("training.backward")
            t0 = clock()
            try:
                return fn(root)
            finally:
                dt = clock() - t0
                self.exit()
                self.backward_self[0] += dt - (self._grad_time - before)
                self.backward_self[1] += 1
        return traced_backward

    # -- installation -----------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        import vampvae.cli  # noqa: F401  (load every module before scanning)
        from vampvae import autodiff, models

        # taken before any wrapping: re-encoding must reach the plain method
        original_init = vars(models.Hvae)["__init__"]
        original_encode_top = vars(models.Hvae)["encode_top"]
        tracer = self

        for module in vampvae_modules():
            for name, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and value is not autodiff.apply_op
                        and "apply_op" in value.__code__.co_names):
                    patcher.everywhere(value, self._op_wrapper)
        patcher.everywhere(autodiff.apply_op, self._apply_wrapper)
        patcher.everywhere(autodiff.backward, self._backward_wrapper)

        for module_name, attr, span in LAYER_SPANS:
            module = sys.modules[f"vampvae.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                patcher.method(getattr(module, cls_name), meth,
                               self.span_wrapper(span))
            else:
                patcher.everywhere(getattr(module, attr),
                                   self.span_wrapper(span))

        def traced_init(model, spec, prior, rng):
            original_init(model, spec, prior, rng)
            model.enc_z1_x = _SpanProxy(tracer, "models.enc_z1_x",
                                        model.enc_z1_x)
            if isinstance(prior, models.VampPrior):
                # re-encoding is timed through the prior's own attribute, so
                # it is not counted again under models.encode_top
                prior.encoder = _SpanProxy(
                    tracer, "priors.reencode",
                    types.MethodType(original_encode_top, model))

        patcher.set(models.Hvae, "__init__", traced_init)

    # -- results ----------------------------------------------------------

    def dump(self) -> dict:
        """The spans, plus the autodiff profile's [seconds, calls] totals
        over the timed cycles."""
        return {"fields": ["name", "parent", "op", "start", "end"],
                "spans": self.spans,
                "autodiff": {"fwd": dict(self.fwd), "bwd": dict(self.bwd),
                             "apply_op": self.apply,
                             "backward_self": self.backward_self}}

    def metrics(self, first_cycle_span: int, cycles: int) -> dict[str, float]:
        """Per-layer values named as in spec.PER_LAYER. Layer times are mean
        self time per call over the whole run, set-up included; the op
        profile covers the timed cycles; counts are per timed cycle, from the
        spans recorded from index `first_cycle_span` on."""
        out: dict[str, float] = {}
        for tag in OP_TAGS:
            fwd, bwd = self.fwd.get(tag, (0.0, 0)), self.bwd.get(tag, (0.0, 0))
            out[f"autodiff.fwd_ms.{tag}"] = _mean_ms(*fwd)
            out[f"autodiff.bwd_ms.{tag}"] = _mean_ms(*bwd)
            out[f"autodiff.calls.{tag}"] = fwd[1] / cycles
        out["autodiff.apply_op_ms"] = _mean_ms(*self.apply)
        out["autodiff.backward_self_ms"] = _mean_ms(*self.backward_self)

        layer = self_times(self.spans)
        for name in {s for _, _, s in LAYER_SPANS} | {
                "training.backward", "priors.reencode", "models.enc_z1_x"}:
            total, count = layer.get(name, (0.0, 0))
            if name in ("cli.train", "cli.evaluate"):
                out[f"{name}_s"] = total / count if count else 0.0
            else:
                out[f"{name}_ms"] = _mean_ms(total, count)

        timed = Counter(span[0] for span in self.spans[first_cycle_span:])
        steps = timed["training.step"]
        rows = timed["evaluation.is_row"]
        chunks = timed["models.log_importance_weight"]
        out["autodiff.nodes_per_step"] = self.step_nodes / steps if steps else 0
        out["distributions.pairwise_bytes"] = self.pairwise_bytes / cycles
        out["priors.reencode_calls"] = timed["priors.reencode"] / cycles
        out["training.steps"] = steps / cycles
        out["evaluation.chunks_per_row"] = chunks / rows if rows else 0
        return out


def _mean_ms(total: float, count: int) -> float:
    return total * 1e3 / count if count else 0.0
