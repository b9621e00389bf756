"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup` and then repeats
one identical `cycle` for the measured time. Every cycle starts from the
same inputs, so every cycle must produce the same bytes; `outputs` are the
values the correctness gate compares (see run.py).

All calls into the package go through module attributes (`models.x`, not
`from vampvae.models import x`) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from vampvae import cli, datasets, models, training

PAPER_SPEC = dict(levels=2, data_dim=784, latent1=40, latent2=40, hidden=300,
                  hidden_layers=2, likelihood="bernoulli", prior_kind="vamp",
                  prior_components=500)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def params_sha256(model) -> str:
    h = hashlib.sha256()
    for name, t in model.parameters().items():
        h.update(name.encode())
        h.update(repr(t.shape).encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


def mnist_like(rng, n: int) -> np.ndarray:
    """MNIST-shaped intensities in [0, 1], mostly near 0 with a bright
    minority, like digit images."""
    return rng.beta(0.3, 0.7, size=(n, 784))


def paper_model(rng, data_mean):
    return models.build_model(models.ModelSpec(**PAPER_SPEC), rng,
                              data_mean=data_mean)


def checkpoint_round_trip(model, path: Path):
    """Save and reload; the reloaded model must hold the same bytes."""
    models.save_checkpoint(model, path)
    loaded = models.load_checkpoint(path)
    if params_sha256(loaded) != params_sha256(model):
        raise AssertionError("checkpoint round trip changed the parameters")
    return loaded


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise AssertionError(f"vampvae {argv[0]} exited with {code}")


def report_outputs(path: Path) -> dict:
    blob = path.read_bytes()
    lls = np.asarray(json.loads(blob)["per_example_ll"], dtype=np.float64)
    return {"report_sha256": sha256(blob), "lls_sha256": sha256(lls.tobytes()),
            "lls_mean": float(lls.mean())}


def report_invariants(path: Path) -> list[str]:
    report = json.loads(path.read_bytes())
    lls = np.asarray(report["per_example_ll"], dtype=np.float64)
    problems = []
    if not np.all(np.isfinite(lls)):
        problems.append("non-finite per-row LL")
    if report["mean_test_ll"] != float(lls.mean()):
        problems.append("report mean differs from the row mean")
    if np.any(lls > 0.0):
        problems.append("Bernoulli LL above 0")
    return problems


class Workload:
    """A workload's phases (`train`: a fit or the train command; `eval`: the
    evaluate command) are timed one by one for the rows-per-second figures;
    `phase_rows` gives the rows each phase processes per cycle."""

    phase_rows: dict[str, int] = {}

    def __init__(self):
        self.phase_s = {phase: [] for phase in self.phase_rows}

    @property
    def rows_per_cycle(self) -> int:
        return sum(self.phase_rows.values())

    def timed(self, phase, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.phase_s[phase].append(time.perf_counter() - t0)
        return out


class TrainPaperVamp(Workload):
    """`training.fit` for one epoch of 10 mini-batches of 100 rows with
    dynamic binarization, plus validation on 100 rows, on a paper-scale
    two-level vamp model; every cycle restarts from the same parameters.

    The KL weight is 1 (no warm-up), as in training after the warm-up
    epochs: at the default warm-up the first epoch has weight 0, the
    pseudo-inputs and the conditional prior then get a zero gradient, Adam
    skips them, and neither the losses nor the parameters depend on the
    prior, so the gate could not see it."""

    train_rows = 1000
    val_rows = 100
    phase_rows = {"train": train_rows}

    def setup(self, seed: int, work: Path, clock) -> None:
        rng = np.random.default_rng(seed)
        self.train = mnist_like(rng, self.train_rows)
        self.val = mnist_like(rng, self.val_rows)
        model = paper_model(rng, self.train.mean(axis=0))
        self.model = checkpoint_round_trip(model, work / "train.ckpt")
        self.initial = {k: p.data.copy()
                        for k, p in self.model.parameters().items()}
        self.config = training.TrainConfig(max_epochs=1, batch_size=100,
                                           warmup_epochs=0, seed=seed)
        self.clock = clock

    def cycle(self) -> dict:
        models.set_parameters(self.model, self.initial)
        first = len(self.clock.losses)
        log = self.timed("train", training.fit, self.train, self.val,
                         self.model, self.config, "dynamic")
        self.losses = self.clock.losses[first:]
        self.val_elbo = [r.val_elbo for r in log.epochs]
        return {"losses": self.losses, "val_elbo": self.val_elbo,
                "params_sha256": params_sha256(self.model)}

    def invariants(self) -> list[str]:
        problems = []
        if len(self.losses) != self.train_rows // 100:
            problems.append(f"{len(self.losses)} steps, expected "
                            f"{self.train_rows // 100}")
        if not np.all(np.isfinite(self.losses + self.val_elbo)):
            problems.append("non-finite loss or validation ELBO")
        if not all(np.all(np.isfinite(p.data))
                   for p in self.model.parameters().values()):
            problems.append("non-finite parameters")
        if max(self.val_elbo) > 0.0:
            problems.append("Bernoulli validation ELBO above 0")
        unchanged = [k for k, p in self.model.parameters().items()
                     if np.array_equal(p.data, self.initial[k])]
        if unchanged:
            problems.append("parameters not updated: " + ", ".join(unchanged))
        return problems


class EvalPaperVamp(Workload):
    """`vampvae evaluate --is-samples 5000` on two binary test rows read
    from a raw-matrix file, against a paper-scale vamp checkpoint."""

    test_rows = 2
    phase_rows = {"eval": test_rows}

    def setup(self, seed: int, work: Path, clock) -> None:
        rng = np.random.default_rng(seed)
        test = (rng.random((self.test_rows, 784))
                < mnist_like(rng, self.test_rows)).astype(np.float64)
        train = (rng.random((20, 784)) < mnist_like(rng, 20)).astype(np.float64)
        datasets.save_raw_matrix(test, work / "test.raw")
        datasets.save_raw_matrix(train, work / "train.raw")
        model = paper_model(rng, train.mean(axis=0))
        ckpt = work / "eval.ckpt"
        checkpoint_round_trip(model, ckpt)
        self.out = work / "eval"
        self.argv = ["evaluate", "--dataset", "raw",
                     "--train-path", str(work / "train.raw"),
                     "--test-path", str(work / "test.raw"), "--dim", "784",
                     "--checkpoint", str(ckpt), "--is-samples", "5000",
                     "--seed", str(seed), "--outdir", str(self.out)]

    def cycle(self) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.timed("eval", run_cli, self.argv)
        return report_outputs(self.out / "report.json")

    def invariants(self) -> list[str]:
        return report_invariants(self.out / "report.json")


class CliDeskSg(Workload):
    """`vampvae train` (synth, D=64, 1000 rows, 3 epochs, sg prior, default
    model sizes) then `vampvae evaluate --is-samples 20` on its best
    checkpoint."""

    synth_n = 1000
    epochs = 3
    # synth_clusters splits 70/15/15; training rows pass once per epoch
    phase_rows = {"train": int(synth_n * 0.70) * epochs,
                  "eval": synth_n - int(synth_n * 0.70) - int(synth_n * 0.15)}

    def setup(self, seed: int, work: Path, clock) -> None:
        self.out = work / "desk"
        data = ["--dataset", "synth", "--synth-n", str(self.synth_n),
                "--synth-dim", "64", "--seed", str(seed)]
        self.train_argv = ["train", *data, "--prior", "sg",
                           "--max-epochs", str(self.epochs),
                           "--outdir", str(self.out)]
        self.eval_argv = ["evaluate", *data,
                          "--checkpoint", str(self.out / "checkpoint_best.ckpt"),
                          "--is-samples", "20",
                          "--outdir", str(self.out / "eval")]

    def cycle(self) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.timed("train", run_cli, self.train_argv)
        self.timed("eval", run_cli, self.eval_argv)
        out = report_outputs(self.out / "eval" / "report.json")
        for name in ("trainlog.jsonl", "checkpoint_final.ckpt",
                     "checkpoint_best.ckpt"):
            out[name] = sha256((self.out / name).read_bytes())
        return out

    def invariants(self) -> list[str]:
        problems = report_invariants(self.out / "eval" / "report.json")
        for line in (self.out / "trainlog.jsonl").read_text().splitlines():
            record = json.loads(line)
            if not (np.isfinite(record["train_loss"])
                    and np.isfinite(record["val_elbo"])):
                problems.append("non-finite training log entry")
            if record["val_elbo"] > 0.0:
                problems.append("Bernoulli validation ELBO above 0")
        return problems


WORKLOADS = {
    "train-paper-vamp": TrainPaperVamp,
    "eval-paper-vamp": EvalPaperVamp,
    "cli-desk-sg": CliDeskSg,
}
