"""Command-line entry point: train, evaluate, generate, reconstruct,
inspect-prior.

All artifacts land under --outdir and every command is deterministic given
--seed. Exit codes: 0 success, 1 I/O or state errors and running out of
memory, 2 usage errors, 130 interrupted (Ctrl-C), reported as one
`interrupted` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import datasets as ds_mod
from . import evaluation, pgm, training
from .errors import FormatError, VampVaeError
from .models import (
    LIKELIHOODS,
    ModelSpec,
    build_model,
    generate,
    load_checkpoint,
    reconstruct,
    save_checkpoint,
    set_parameters,
)
from .priors import PRIOR_KINDS, MixtureOfGaussians, VampPrior
from .training import TrainConfig, fit

RUNTIME_ERROR = 1
# the shell's code for a process ended by SIGINT (128 + 2)
INTERRUPTED = 130

# dataset-name defaults: pseudo-input count, likelihood, binarization,
# validation rows drawn from the training split
DATASET_DEFAULTS = {
    "synth": dict(k=500, likelihood="bernoulli", binarization="static"),
    "dynamic-mnist": dict(k=500, likelihood="bernoulli",
                          binarization="dynamic"),
    "static-mnist": dict(k=500, likelihood="bernoulli",
                         binarization="static"),
    "omniglot": dict(k=1000, likelihood="bernoulli", binarization="dynamic",
                     val_rows=1345),
    "caltech": dict(k=500, likelihood="bernoulli", binarization="static",
                    val_rows=2264),
    "freyfaces": dict(k=500, likelihood="logistic", binarization="none",
                      val_rows=200),
    "histopathology": dict(k=500, likelihood="logistic", binarization="none",
                           val_rows=2000),
    "raw": dict(k=500, likelihood="bernoulli", binarization="none"),
}

# validation rows for non-MNIST datasets are drawn once with a fixed seed so
# the split does not move with --seed
VAL_SPLIT_SEED = 20236851


def _int_at_least(lo: int):
    """argparse type for an integer of at least `lo`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got "
                                             f"{value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse type for a finite value greater than 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and greater than "
                                         f"0, got {text!r}")
    return value


class _Once(argparse.Action):
    """Store an option value and reject a second occurrence."""

    def __call__(self, parser, namespace, values, option_string=None):
        marker = f"_seen_{self.dest}"
        if getattr(namespace, marker, False):
            parser.error(f"{option_string} may only be given once")
        setattr(namespace, marker, True)
        setattr(namespace, self.dest, values)


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("dataset")
    g.add_argument("--dataset", action=_Once,
                   choices=sorted(DATASET_DEFAULTS), default="synth",
                   help="dataset name (default: synth)")
    g.add_argument("--train-path", help="training images (IDX or raw matrix)")
    g.add_argument("--test-path", help="test images (IDX or raw matrix)")
    g.add_argument("--val-path", help="optional validation matrix (raw)")
    g.add_argument("--data-format", choices=("idx", "raw"),
                   help="file format (default: idx for MNIST, raw otherwise)")
    g.add_argument("--dim", type=_int_at_least(1),
                   help="row width for raw matrices")
    g.add_argument("--scale", type=_positive_float, default=1.0,
                   help="raw-matrix intensity scale (e.g. 1/255)")
    g.add_argument("--val-rows", type=_int_at_least(1),
                   help="validation rows drawn from the training split")
    g.add_argument("--synth-n", type=_int_at_least(1), default=10_000)
    g.add_argument("--synth-dim", type=_int_at_least(1), default=64)
    g.add_argument("--synth-k", type=_int_at_least(1), default=8)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("model")
    g.add_argument("--levels", action=_Once, type=int, choices=(1, 2),
                   default=2)
    g.add_argument("--prior", action=_Once, choices=PRIOR_KINDS,
                   default="sg")
    g.add_argument("--k", type=_int_at_least(1), help="mixture components / "
                   "pseudo-inputs (default 500; 1000 for omniglot)")
    g.add_argument("--m1", type=_int_at_least(1), default=40,
                   help="first-level latents")
    g.add_argument("--m2", type=_int_at_least(1), default=40,
                   help="second-level latents")
    g.add_argument("--hidden", type=_int_at_least(1), default=300)
    g.add_argument("--likelihood", choices=LIKELIHOODS,
                   help="default: per dataset")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("training")
    g.add_argument("--lr", type=_positive_float, default=5e-4)
    g.add_argument("--batch-size", type=_int_at_least(1), default=100)
    g.add_argument("--warmup-epochs", type=_int_at_least(0), default=100)
    g.add_argument("--patience", type=_int_at_least(1), default=50)
    g.add_argument("--max-epochs", type=_int_at_least(1), default=2000)
    g.add_argument("--mc-samples", type=_int_at_least(1), default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vampvae",
        description="Variational auto-encoders with mixture-of-posteriors "
                    "priors: training, evaluation, and inspection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model and write "
                             "checkpoints plus a JSONL training log")
    _add_dataset_flags(p_train)
    _add_model_flags(p_train)
    _add_train_flags(p_train)

    p_eval = sub.add_parser("evaluate", help="importance-sampled test "
                            "log-likelihood and diagnostics")
    _add_dataset_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--is-samples", type=_int_at_least(1), default=5000)
    p_eval.add_argument("--bins", type=_int_at_least(1), default=50)

    p_gen = sub.add_parser("generate", help="decode prior samples to a "
                           "PGM grid")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--n", type=_int_at_least(1), default=25)

    p_rec = sub.add_parser("reconstruct", help="originals next to their "
                           "reconstructions as a PGM grid")
    _add_dataset_flags(p_rec)
    p_rec.add_argument("--checkpoint", required=True)
    p_rec.add_argument("--n", type=_int_at_least(1), default=25)

    p_ins = sub.add_parser("inspect-prior", help="render pseudo-inputs or "
                           "decoded mixture means")
    p_ins.add_argument("--checkpoint", required=True)
    p_ins.add_argument("--component", type=int,
                       help="also decode draws from one mixture component")
    p_ins.add_argument("--n", type=_int_at_least(1), default=25)

    for p in (p_train, p_eval, p_gen, p_rec, p_ins):
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--outdir", required=True)
    return parser


def _load_named_matrix(path, fmt: str, dim, scale: float) -> np.ndarray:
    if fmt != "idx" and dim is None:
        raise VampVaeError("raw matrices need --dim")
    try:
        if fmt == "idx":
            return ds_mod.load_idx(path)
        return ds_mod.load_raw_matrix(path, dim, scale)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_dataset(args) -> ds_mod.Dataset:
    name = args.dataset
    defaults = DATASET_DEFAULTS[name]
    if name == "synth":
        return ds_mod.synth_clusters(args.synth_n, args.synth_dim,
                                     args.synth_k, seed=args.seed)
    if args.train_path is None or args.test_path is None:
        raise VampVaeError(f"dataset '{name}' needs --train-path and "
                           "--test-path")
    fmt = args.data_format or ("idx" if name.endswith("mnist") else "raw")
    train = _load_named_matrix(args.train_path, fmt, args.dim, args.scale)
    test = _load_named_matrix(args.test_path, fmt, args.dim, args.scale)
    if name.endswith("mnist"):
        return ds_mod.canonical_split(name, train, test)

    if args.val_path is not None:
        val = _load_named_matrix(args.val_path, fmt, args.dim, args.scale)
    else:
        n_val = args.val_rows or defaults.get("val_rows") \
            or max(1, train.shape[0] // 10)
        if n_val >= train.shape[0]:
            raise VampVaeError(f"cannot hold out {n_val} validation rows from "
                               f"{train.shape[0]} training rows "
                               "(see --val-rows)")
        picks = np.random.default_rng(VAL_SPLIT_SEED).choice(
            train.shape[0], size=n_val, replace=False)
        mask = np.zeros(train.shape[0], dtype=bool)
        mask[picks] = True
        train, val = train[~mask], train[mask]
    return ds_mod.Dataset(name=name, dim=train.shape[1], train=train, val=val,
                          test=test, binarization=defaults["binarization"])


def _model_spec(args, dataset: ds_mod.Dataset) -> ModelSpec:
    defaults = DATASET_DEFAULTS[dataset.name]
    k = args.k if args.k is not None else defaults["k"]
    likelihood = args.likelihood or defaults["likelihood"]
    return ModelSpec(levels=args.levels, data_dim=dataset.dim,
                     latent1=args.m1, latent2=args.m2, hidden=args.hidden,
                     likelihood=likelihood, prior_kind=args.prior,
                     prior_components=k)


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _workers(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("VAMPVAE_THREADS", "1")
    try:
        return max(1, min(int(raw), 32))
    except ValueError:
        parser.error(f"VAMPVAE_THREADS must be an integer, got {raw!r}")


def _fixed_test_binarization(dataset: ds_mod.Dataset, seed: int) -> np.ndarray:
    if dataset.binarization != "dynamic":
        return dataset.test
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB1A)))
    return training.dynamic_binarize(dataset.test, rng)


def _checkpoint_and_test(args) -> tuple:
    """The checkpoint's model and the dataset's test split, binarized as
    evaluation fixes it; the split's width must be the model's."""
    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args)
    if dataset.dim != model.spec.data_dim:
        raise VampVaeError(f"dataset dim {dataset.dim} does not match "
                           f"checkpoint dim {model.spec.data_dim}")
    return model, _fixed_test_binarization(dataset, args.seed)


def cmd_train(args) -> int:
    started = time.monotonic()
    dataset = load_dataset(args)
    training.check_splits(dataset.train, dataset.val)
    spec = _model_spec(args, dataset)
    rng = np.random.default_rng(args.seed)
    model = build_model(spec, rng, data_mean=dataset.train.mean(axis=0),
                        data_rows=dataset.train)
    config = TrainConfig(max_epochs=args.max_epochs, learning_rate=args.lr,
                         batch_size=args.batch_size,
                         warmup_epochs=args.warmup_epochs,
                         early_stop_patience=args.patience,
                         mc_samples=args.mc_samples, seed=args.seed)
    binarization = "dynamic" if dataset.binarization == "dynamic" else "none"
    log = fit(dataset.train, dataset.val, model, config,
              binarization=binarization)

    out = _outdir(args)
    training.write_trainlog(log, out / "trainlog.jsonl")
    save_checkpoint(model, out / "checkpoint_final.ckpt")
    set_parameters(model, log.best_state)
    save_checkpoint(model, out / "checkpoint_best.ckpt")
    print(f"stop reason: {log.stop_reason} after {len(log.epochs)} epochs")
    print(f"final val ELBO: {log.epochs[-1].val_elbo!r}")
    print(f"best val ELBO: {log.best_val_elbo!r} (epoch {log.best_epoch})")
    print(f"wallclock: {time.monotonic() - started:.1f}s", file=sys.stderr)
    return 0


def cmd_evaluate(args, parser: argparse.ArgumentParser) -> int:
    workers = _workers(parser)
    model, test = _checkpoint_and_test(args)
    report = evaluation.evaluate_model(model, test, s=args.is_samples,
                                       seed=args.seed, bins=args.bins,
                                       workers=workers)
    out = _outdir(args)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "histogram.csv").write_text(report.histogram.to_csv(),
                                       encoding="utf-8")
    if args.is_samples == 1:
        print("note: S=1 gives a single-sample bound, not an IS estimate")
    print(f"mean test LL: {report.mean_test_ll!r} "
          f"(S={args.is_samples}, N={len(report.per_example_ll)})")
    if report.bits_per_dim is not None:
        print(f"bits/dim: {report.bits_per_dim!r}")
    print(f"active units per level: {report.active_unit_counts}")
    return 0


def cmd_generate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    out = _outdir(args)
    gen = generate(model, args.n, np.random.default_rng(args.seed))
    pgm.write_grid(gen.x_mean, pgm.tile_shape(model.spec.data_dim),
                   out / "generated.pgm")
    print(f"wrote {args.n} generations to {out / 'generated.pgm'}")
    return 0


def cmd_reconstruct(args) -> int:
    model, test = _checkpoint_and_test(args)
    rows = test[:args.n]
    recon = reconstruct(rows, model, np.random.default_rng(args.seed))
    out = _outdir(args)
    pgm.write_side_by_side(rows, recon, pgm.tile_shape(model.spec.data_dim),
                           out / "reconstructions.pgm")
    print(f"wrote {rows.shape[0]} reconstructions to "
          f"{out / 'reconstructions.pgm'}")
    return 0


def cmd_inspect_prior(args, parser: argparse.ArgumentParser) -> int:
    model = load_checkpoint(args.checkpoint)
    prior = model.prior
    if not isinstance(prior, (VampPrior, MixtureOfGaussians)):
        raise VampVaeError("no inspectable prior parameters (standard "
                           "Gaussian prior)")
    if args.component is not None and not 0 <= args.component < prior.k:
        parser.error(f"--component {args.component} out of range for "
                     f"K={prior.k}")
    out = _outdir(args)
    shape = pgm.tile_shape(model.spec.data_dim)
    rng = np.random.default_rng(args.seed)

    if isinstance(prior, VampPrior):
        values = prior.pseudo_input_values().data
        pgm.write_grid(values[:args.n], shape, out / "pseudo_inputs.pgm")
        print(f"wrote {min(args.n, values.shape[0])} pseudo-inputs to "
              f"{out / 'pseudo_inputs.pgm'}")
    else:
        means = prior.means.data[:args.n]
        decoded = model.generate_from_top(means, rng, None).x_mean
        pgm.write_grid(decoded, shape, out / "mog_means.pgm")
        print(f"wrote {means.shape[0]} decoded component means to "
              f"{out / 'mog_means.pgm'}")

    if args.component is not None:
        gen = generate(model, args.n, rng, component=args.component)
        path = out / f"component_{args.component}.pgm"
        pgm.write_grid(gen.x_mean, shape, path)
        print(f"wrote {args.n} generations from component "
              f"{args.component} to {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "evaluate":
            return cmd_evaluate(args, parser)
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "reconstruct":
            return cmd_reconstruct(args)
        if args.command == "inspect-prior":
            return cmd_inspect_prior(args, parser)
        parser.error(f"unknown command {args.command}")
    except (VampVaeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return RUNTIME_ERROR
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPTED
    return 0


if __name__ == "__main__":
    sys.exit(main())
