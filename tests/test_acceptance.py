"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a pass line on success.

Run with `pytest tests/test_acceptance.py -v -s`. The paired-training
criteria (6 and 7) share one module-scoped set of runs and dominate the
runtime (minutes); everything else finishes in seconds.
"""

import json
import math
import struct
import time

import numpy as np
import pytest
from scipy import stats

from helpers import LinearGaussianModel
from vampvae import autodiff as ad
from vampvae import cli
from vampvae.autodiff import Graph, Tensor, backward, grad_check
from vampvae.datasets import load_idx, load_raw_matrix, save_raw_matrix, \
    synth_clusters
from vampvae.distributions import log_normal_diag, sample_reparam
from vampvae.evaluation import active_units, elbo_decomposition, \
    is_log_likelihood
from vampvae.models import ModelSpec, build_model, load_checkpoint, \
    save_checkpoint, set_parameters
from vampvae.priors import MixtureOfGaussians, StandardGaussian, \
    VampDataPrior
from vampvae.training import TrainConfig, fit, validation_elbo

from test_models import tiny_model


def _passed(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): PASS")


class TestCriterion1GradientSuite:
    """Finite-difference check of the single-sample objective gradients."""

    CASES = [("vae-sg", 1, "sg"), ("vae-vamp", 1, "vamp"),
             ("hvae-vamp", 2, "vamp")]

    def test_gradient_suite(self):
        started = time.monotonic()
        worst = {}
        for label, levels, prior in self.CASES:
            model = tiny_model(levels, prior, seed=100, d=6, m=2, hidden=8,
                               k=3)
            params = [t for t in model.parameters().values()
                      if t.requires_grad]
            x = np.random.default_rng(101).integers(0, 2, (2, 6)).astype(float)

            def f(_, m=model):
                rec = m.forward(x, np.random.default_rng(202), 1)
                return ad.neg(rec.elbo().mean())

            err = grad_check(f, params)
            worst[label] = err
            assert err < 1e-5, f"{label}: max relative error {err}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        _passed(1, "gradient suite " + ", ".join(
            f"{k}={v:.2e}" for k, v in worst.items()))


class TestCriterion2VampCoupling:
    """Tied posterior/component responses cancel the KL gradient."""

    def test_tied_outputs_zero_kl_gradient(self):
        model = tiny_model(1, "vamp", seed=102, d=6, m=2, hidden=8, k=4)
        prior = model.prior
        raw_row = np.random.default_rng(103).normal(0.0, 0.8, 6)
        prior.pseudo_inputs.data = np.tile(raw_row, (prior.k, 1))
        x_row = ad.sigmoid(Tensor(raw_row)).data
        x = Tensor(np.tile(x_row, (5, 1)))

        encoder_params = {name: p for name, p in model.parameters().items()
                          if name.startswith("encoder")}
        for p in encoder_params.values():
            p.zero_grad()
        eps = Tensor(np.random.default_rng(104).standard_normal((5, 2)))
        with Graph():
            q = model.encode(x)
            z = sample_reparam(q, eps)
            kl = (log_normal_diag(z, q) - prior.log_prob(z)).mean()
            backward(kl)
        worst = max(np.abs(p.grad).max() for p in encoder_params.values())
        assert worst < 1e-8, f"KL gradient L-inf norm {worst}"
        _passed(2, f"vamp coupling, L-inf {worst:.2e}")


class TestCriterion3AggregatedPosteriorOptimality:
    """The all-training-points posterior mixture beats SG and random MoGs."""

    def test_cross_entropy_ordering(self):
        started = time.monotonic()
        rng = np.random.default_rng(105)
        n, d, m = 5, 6, 2
        data = rng.integers(0, 2, (n, d)).astype(float)
        model = tiny_model(1, "sg", seed=106, d=d, m=m, hidden=8)
        for name, p in model.parameters().items():
            if name.startswith("encoder"):
                p.data = p.data * 4.0  # spread the posteriors apart

        agg = VampDataPrior.from_data(data, n, np.random.default_rng(107))
        agg.encoder = model.encode

        post = model.encode(Tensor(data))
        mean, std = post.mean.data, np.exp(0.5 * post.log_var.data)
        draws = np.random.default_rng(108).standard_normal((2000, n, m))
        z = Tensor((mean + std * draws).reshape(-1, m))
        assert z.shape[0] == 10_000

        nll_agg = -agg.log_prob(z).data
        rivals = {"sg": StandardGaussian(m)}
        for i in range(5):
            r = np.random.default_rng(200 + i)
            rivals[f"mog{i}"] = MixtureOfGaussians.initialize(5, m, r)
        margins = {}
        for name, rival in rivals.items():
            diff = -rival.log_prob(z).data - nll_agg
            se = diff.std(ddof=1) / math.sqrt(diff.size)
            assert diff.mean() > 3 * se, \
                f"{name}: margin {diff.mean():.4f} vs 3*SE {3 * se:.4f}"
            margins[name] = diff.mean() / se
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        _passed(3, "aggregated posterior optimal, min margin "
                   f"{min(margins.values()):.1f} SE")


class TestCriterion4ImportanceSamplingOracle:
    """Exact-posterior IS reproduces the closed-form marginal."""

    def test_matches_closed_form(self):
        rng = np.random.default_rng(109)
        d, m, noise = 4, 2, 0.6
        w = rng.standard_normal((d, m))
        b = rng.standard_normal(d)
        toy = LinearGaussianModel(w, b, noise)
        x = rng.standard_normal(d)
        want = stats.multivariate_normal.logpdf(
            x, mean=b, cov=w @ w.T + noise * np.eye(d))
        errs = []
        for s in (1, 10, 100):
            got = is_log_likelihood(x, toy, s, np.random.default_rng(300 + s))
            errs.append(abs(got - want))
            assert abs(got - want) < 1e-8, f"S={s}: |error| {abs(got - want)}"
        _passed(4, f"IS oracle, max |error| {max(errs):.2e}")


class TestCriterion5ElboDecompositionIdentity:
    """Sampled-entropy decomposition equals the direct MC objective."""

    CASES = [("vae-sg", 1, "sg"), ("vae-mog", 1, "mog"),
             ("hvae-vamp", 2, "vamp"), ("hvae-wvamp", 2, "weighted-vamp")]

    def test_identity_under_common_random_numbers(self):
        worst = 0.0
        for label, levels, prior in self.CASES:
            model = tiny_model(levels, prior, seed=110, d=6, m=3, hidden=8,
                               k=4)
            data = np.random.default_rng(111).integers(0, 2, (7, 6)) \
                .astype(float)
            dec = elbo_decomposition(data, model, 3,
                                     np.random.default_rng(112),
                                     entropy_mode="sampled")
            rec = model.forward(data, np.random.default_rng(112), 3)
            direct = float(rec.elbo().data.mean())
            err = abs(dec.elbo_sum - direct)
            worst = max(worst, err)
            assert err < 1e-9, f"{label}: |difference| {err}"
        _passed(5, f"decomposition identity, max |difference| {worst:.2e}")


@pytest.fixture(scope="module")
def paired_runs():
    """Criterion 6/7 protocol: HVAE+SG vs HVAE+Vamp, K=50, hidden=100,
    M1=M2=16, 10k rows, 30 epochs, warm-up 10, 3 seeds. The cluster count
    gives the second stochastic level real structure to encode."""
    data = synth_clusters(10_000, 64, 32, seed=60)
    results = {}
    for prior in ("sg", "vamp"):
        for seed in (0, 1, 2):
            spec = ModelSpec(levels=2, data_dim=64, latent1=16, latent2=16,
                             hidden=100, prior_kind=prior,
                             prior_components=50)
            model = build_model(spec, np.random.default_rng(seed),
                                data_mean=data.train.mean(axis=0))
            config = TrainConfig(max_epochs=30, learning_rate=5e-4,
                                 batch_size=100, warmup_epochs=10,
                                 early_stop_patience=50, seed=seed)
            log = fit(data.train, data.val, model, config)
            set_parameters(model, log.best_state)
            test_elbo = validation_elbo(model, data.test,
                                        np.random.default_rng(12345),
                                        mc_samples=5)
            act = active_units(data.test, model)
            results[(prior, seed)] = (test_elbo, act.counts)
    return results


class TestCriterion6DirectionalImprovement:
    def test_vamp_beats_sg_on_test_elbo(self, paired_runs):
        started = time.monotonic()
        wins = 0
        lines = []
        for seed in (0, 1, 2):
            vamp = paired_runs[("vamp", seed)][0]
            sg = paired_runs[("sg", seed)][0]
            wins += vamp > sg
            lines.append(f"seed {seed}: vamp {vamp:.2f} vs sg {sg:.2f}")
        assert wins >= 2, "; ".join(lines)
        assert time.monotonic() - started < 30 * 60
        _passed(6, f"directional improvement, {wins}/3 seeds; "
                   + "; ".join(lines))


class TestCriterion7ActiveUnitsDirection:
    def test_vamp_keeps_more_level2_units_active(self, paired_runs):
        wins = 0
        lines = []
        for seed in (0, 1, 2):
            vamp = paired_runs[("vamp", seed)][1][1]
            sg = paired_runs[("sg", seed)][1][1]
            wins += vamp >= sg
            lines.append(f"seed {seed}: vamp {vamp} vs sg {sg}")
        assert wins >= 2, "; ".join(lines)
        _passed(7, f"active-units direction, {wins}/3 seeds; "
                   + "; ".join(lines))


class TestCriterion8Determinism:
    """Identical seeds give bitwise-identical logs, checkpoints, reports."""

    ARGS = ["--dataset", "synth", "--synth-n", "200", "--synth-dim", "16",
            "--synth-k", "2"]

    def test_repeated_commands_are_bitwise_identical(self, tmp_path):
        train_artifacts, eval_artifacts, image_artifacts = [], [], []
        for tag in ("a", "b"):
            out = tmp_path / f"train_{tag}"
            argv = (["train"] + self.ARGS
                    + ["--levels", "2", "--prior", "vamp", "--k", "4",
                       "--m1", "3", "--m2", "3", "--hidden", "8",
                       "--max-epochs", "3", "--warmup-epochs", "2",
                       "--batch-size", "50", "--patience", "5",
                       "--seed", "11", "--outdir", str(out)])
            assert cli.main(argv) == 0
            train_artifacts.append(tuple(
                (out / name).read_bytes()
                for name in ("trainlog.jsonl", "checkpoint_best.ckpt",
                             "checkpoint_final.ckpt")))

            ev = tmp_path / f"eval_{tag}"
            argv = (["evaluate", "--checkpoint",
                     str(out / "checkpoint_best.ckpt")] + self.ARGS
                    + ["--is-samples", "8", "--seed", "11",
                       "--outdir", str(ev)])
            assert cli.main(argv) == 0
            eval_artifacts.append(tuple(
                (ev / name).read_bytes()
                for name in ("report.json", "histogram.csv")))

            gen = tmp_path / f"gen_{tag}"
            argv = ["generate", "--checkpoint",
                    str(out / "checkpoint_best.ckpt"), "--n", "9",
                    "--seed", "11", "--outdir", str(gen)]
            assert cli.main(argv) == 0
            image_artifacts.append((gen / "generated.pgm").read_bytes())

        assert train_artifacts[0] == train_artifacts[1]
        assert eval_artifacts[0] == eval_artifacts[1]
        assert image_artifacts[0] == image_artifacts[1]
        _passed(8, "determinism across train/evaluate/generate")


class TestCriterion9FormatSuite:
    def test_formats_exact(self, tmp_path):
        # IDX fixture written field by field
        images = np.array([[[0, 128], [255, 64]]], dtype=np.uint8)
        idx = tmp_path / "img.idx"
        with open(idx, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 1, 2, 2))
            fh.write(images.tobytes())
        np.testing.assert_array_equal(load_idx(idx),
                                      [[0, 128 / 255, 1.0, 64 / 255]])

        # raw-matrix round trip, bitwise
        matrix = np.random.default_rng(113).uniform(0, 1, (4, 3))
        raw = tmp_path / "m.raw"
        save_raw_matrix(matrix, raw)
        np.testing.assert_array_equal(load_raw_matrix(raw, 3), matrix)

        # checkpoint round trip, bitwise
        model = tiny_model(2, "weighted-vamp", seed=114)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        loaded = load_checkpoint(ckpt)
        for (name, a), b in zip(model.parameters().items(),
                                loaded.parameters().values()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

        # PGM header validity
        from vampvae.pgm import write_grid

        pgm_path = tmp_path / "g.pgm"
        write_grid(np.zeros((4, 4)), (2, 2), pgm_path)
        assert pgm_path.read_bytes().startswith(b"P5\n")
        header = pgm_path.read_bytes().split(b"\n", 3)
        assert header[2] == b"255"
        _passed(9, "format suite exact")
