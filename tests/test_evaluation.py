"""Tests for importance-sampled likelihood and the diagnostics suite."""

import json
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp as scipy_lse

from helpers import LinearGaussianModel, peak_mb_above_held, zero_parameters
from vampvae.autodiff import Graph, Tensor, backward
from vampvae.datasets import synth_clusters
from vampvae.distributions import DiagGaussian
from vampvae.errors import ContractError
from vampvae.evaluation import (
    ElboDecomposition,
    EvalReport,
    active_units,
    bits_per_dim,
    elbo_decomposition,
    evaluate_model,
    is_log_likelihood,
    ll_histogram,
    per_example_log_likelihood,
)
from vampvae.models import (
    ModelSpec,
    build_model,
    save_checkpoint,
    with_frozen_prior,
)
from vampvae.training import (
    AdamState,
    TrainConfig,
    fit,
    objective,
    step,
    validation_elbo,
)

from test_models import tiny_model

LOG_2PI = math.log(2 * math.pi)


class _RecordedWeights:
    """Stub model replaying a fixed weight sequence chunk by chunk."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.cursor = 0

    def encode_x(self, x):
        return x

    def log_importance_weight(self, x, rng):
        n = x.shape[0]
        out = self.weights[self.cursor:self.cursor + n]
        self.cursor += n
        return out


@pytest.fixture(scope="module")
def small_trained_model():
    data = synth_clusters(192, 16, 2, seed=11)
    model = tiny_model(1, "sg", seed=12, d=16, m=2, hidden=6)
    fit(data.train, data.val, model,
        TrainConfig(max_epochs=8, learning_rate=5e-3, batch_size=32,
                    warmup_epochs=4, early_stop_patience=8, seed=13))
    return model, data


class TestIsLogLikelihood:
    def test_single_sample_equals_elbo_draw(self):
        model = tiny_model(2, "vamp", seed=20)
        x = np.random.default_rng(0).integers(0, 2, 4).astype(float)
        got = is_log_likelihood(x, model, 1, np.random.default_rng(5))
        want = model.forward(x.reshape(1, -1), np.random.default_rng(5),
                             1).elbo().data[0]
        assert got == want

    @pytest.mark.parametrize("s", [1, 10, 100])
    def test_linear_gaussian_exact_posterior_recovers_marginal(self, s):
        # with the exact posterior every importance weight equals the
        # marginal, so any S reproduces the closed form
        rng = np.random.default_rng(21)
        d, m = 4, 2
        w = rng.standard_normal((d, m))
        b = rng.standard_normal(d)
        toy = LinearGaussianModel(w, b, noise_var=0.7)
        x = rng.standard_normal(d)
        got = is_log_likelihood(x, toy, s, np.random.default_rng(22))
        want = stats.multivariate_normal.logpdf(
            x, mean=b, cov=w @ w.T + 0.7 * np.eye(d))
        assert got == pytest.approx(want, abs=1e-8)

    def test_more_samples_tighten_the_bound(self, small_trained_model):
        model, data = small_trained_model
        x = data.test[0]
        lo = np.array([is_log_likelihood(x, model, 1,
                                         np.random.default_rng(1000 + i))
                       for i in range(50)])
        hi = np.array([is_log_likelihood(x, model, 1000,
                                         np.random.default_rng(1000 + i))
                       for i in range(50)])
        se = math.sqrt(lo.var(ddof=1) / 50 + hi.var(ddof=1) / 50)
        assert hi.mean() - lo.mean() > 2 * se

    def test_chunked_lse_matches_one_shot(self):
        rng = np.random.default_rng(23)
        weights = rng.normal(-30, 5, size=1234)
        stub = _RecordedWeights(weights)
        got = is_log_likelihood(np.zeros(3), stub, 1234,
                                np.random.default_rng(0), chunk_size=100)
        want = scipy_lse(weights) - math.log(1234)
        assert got == pytest.approx(want, abs=1e-12)

    def test_chunks_of_one_sample(self):
        weights = np.random.default_rng(25).normal(-30, 5, size=37)
        got = is_log_likelihood(np.zeros(3), _RecordedWeights(weights), 37,
                                np.random.default_rng(0), chunk_size=1)
        assert got == pytest.approx(scipy_lse(weights) - math.log(37),
                                    abs=1e-12)

    def test_jensen_inequality_per_call(self):
        rng = np.random.default_rng(24)
        weights = rng.normal(-10, 3, size=640)
        stub = _RecordedWeights(weights)
        got = is_log_likelihood(np.zeros(2), stub, 640,
                                np.random.default_rng(0))
        assert got >= weights.mean()

    def test_sample_count_contract(self):
        model = tiny_model(1)
        with pytest.raises(ContractError):
            is_log_likelihood(np.zeros(4), model, 0, np.random.default_rng(0))


class TestPerExampleLogLikelihood:
    def test_a_row_does_not_depend_on_the_other_rows(self):
        # each row draws from its own generator, spawned by its index
        model = tiny_model(1, seed=25)
        data = np.random.default_rng(1).integers(0, 2, (6, 4)).astype(float)
        want = per_example_log_likelihood(model, data, 20, seed=7)
        data[0] = 1.0 - data[0]
        got = per_example_log_likelihood(model, data, 20, seed=7)
        np.testing.assert_array_equal(got[1:], want[1:])
        assert got[0] != want[0]

    def test_deterministic_given_seed(self):
        model = tiny_model(2, "vamp", seed=26)
        data = np.random.default_rng(2).integers(0, 2, (4, 4)).astype(float)
        a = per_example_log_likelihood(model, data, 10, seed=3)
        b = per_example_log_likelihood(model, data, 10, seed=3)
        np.testing.assert_array_equal(a, b)


class TestOncePerCallComponents:
    """`per_example_log_likelihood` and `validation_elbo` compute the prior's
    mixture components once per call instead of once per chunk or batch."""

    S, CHUNK, SEED = 12, 5, 8

    @pytest.fixture
    def model(self):
        return tiny_model(2, "vamp", seed=31)

    @pytest.fixture
    def data(self):
        return np.random.default_rng(32).integers(0, 2, (5, 4)).astype(float)

    def _direct(self, model, data):
        # one is_log_likelihood call per row: re-encodes on every chunk
        seqs = np.random.SeedSequence(self.SEED).spawn(data.shape[0])
        return np.array([
            is_log_likelihood(data[i], model, self.S,
                              np.random.default_rng(seqs[i]), self.CHUNK)
            for i in range(data.shape[0])])

    def _per_example(self, model, data):
        return per_example_log_likelihood(model, data, self.S, self.SEED,
                                          chunk_size=self.CHUNK)

    @staticmethod
    def _count_encodes(model, monkeypatch) -> list:
        calls = []
        encode = model.prior.encoder

        def counting(x):
            calls.append(x.shape)
            return encode(x)

        monkeypatch.setattr(model.prior, "encoder", counting)
        return calls

    def test_bitwise_equal_to_re_encoding_calls(self, model, data, cpus):
        want = self._direct(model, data)
        got = self._per_example(model, data)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_prior_encoder_runs_once_per_call(self, model, data,
                                              monkeypatch):
        calls = self._count_encodes(model, monkeypatch)
        self._direct(model, data)
        chunks = -(-self.S // self.CHUNK) * data.shape[0]
        assert len(calls) == chunks
        calls.clear()
        self._per_example(model, data)
        assert calls == [(model.prior.k, 4)]
        calls.clear()
        validation_elbo(model, data, np.random.default_rng(0), batch_size=2)
        assert len(calls) == 1

    def test_validation_elbo_matches_per_batch_re_encoding(self, model, data):
        want = 0.0
        rng = np.random.default_rng(3)
        for start in range(0, data.shape[0], 2):
            rec = model.forward(data[start:start + 2], rng, 2)
            want += float(rec.elbo().data.sum())
        want /= data.shape[0]
        got = validation_elbo(model, data, np.random.default_rng(3),
                              mc_samples=2, batch_size=2)
        assert got == want

    def test_no_components_left_after_an_exception_in_a_row(
            self, model, data, monkeypatch):
        class Boom(Exception):
            pass

        weight = model.log_importance_weight

        def failing(x, rng):
            if np.array_equal(x.x.data[0], data[3]):
                raise Boom()
            return weight(x, rng)

        prior = model.prior
        monkeypatch.setattr(model, "log_importance_weight", failing)
        with pytest.raises(Boom):
            self._per_example(model, data)
        assert model.prior is prior
        calls = self._count_encodes(model, monkeypatch)
        model.prior.log_prob(Tensor(np.zeros((2, model.spec.latent2))))
        assert len(calls) == 1

    def test_parameters_and_checkpoint_bytes_unchanged(self, model,
                                                       tmp_path):
        before = model.parameters()
        prior = model.prior
        save_checkpoint(model, tmp_path / "before.ckpt")
        copied = with_frozen_prior(model)
        assert copied.prior is not prior and model.prior is prior
        after = model.parameters()
        save_checkpoint(model, tmp_path / "after.ckpt")
        assert list(after) == list(before)
        assert all(after[k] is before[k] for k in before)
        assert (tmp_path / "after.ckpt").read_bytes() \
            == (tmp_path / "before.ckpt").read_bytes()

    def test_training_step_after_evaluate_uses_fresh_components(
            self, model, data):
        first = self._per_example(model, data)
        trainable = {k: p for k, p in model.parameters().items()
                     if p.requires_grad}
        with Graph():
            backward(objective(data, model, 1.0, np.random.default_rng(4)))
        step(trainable, AdamState(trainable), 1e-2)
        second = self._per_example(model, data)
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(second, self._direct(model, data))


class TestBitsPerDim:
    def test_definitional_values(self):
        assert bits_per_dim(-4 * math.log(2), 4) == pytest.approx(1.0,
                                                                  rel=1e-14)
        assert bits_per_dim(0.0, 560) == 0.0

    def test_logistic_model_reports_finite_positive_value(self):
        model = tiny_model(1, d=4, likelihood="logistic", seed=27)
        data = (np.random.default_rng(3).integers(0, 256, (6, 4)) / 255.0)
        report = evaluate_model(model, data, s=10, seed=4, bins=4)
        assert report.bits_per_dim is not None
        assert math.isfinite(report.bits_per_dim)
        assert report.bits_per_dim > 0


class TestElboDecomposition:
    @pytest.mark.parametrize("levels,prior", [(1, "sg"), (1, "mog"),
                                              (2, "vamp")],
                             ids=["vae-sg", "vae-mog", "hvae-vamp"])
    def test_sampled_form_matches_direct_objective(self, levels, prior):
        model = tiny_model(levels, prior, seed=28)
        data = np.random.default_rng(4).integers(0, 2, (5, 4)).astype(float)
        dec = elbo_decomposition(data, model, 3, np.random.default_rng(17),
                                 entropy_mode="sampled")
        rec = model.forward(data, np.random.default_rng(17), 3)
        direct = float(rec.elbo().data.mean())
        assert dec.elbo_sum == pytest.approx(direct, abs=1e-9)

    def test_matched_prior_terms_cancel(self):
        model = tiny_model(1, "sg", d=4, m=2)
        zero_parameters(model)
        n = 4000
        data = np.tile([1.0, 0.0, 1.0, 0.0], (n, 1))
        dec = elbo_decomposition(data, model, 1, np.random.default_rng(18))
        m = model.spec.latent1
        want = 0.5 * m * (1 + LOG_2PI)
        assert dec.posterior_entropy == pytest.approx(want, rel=1e-12)
        diff = dec.per_example["entropy"] - dec.per_example["cross_entropy"]
        se = diff.std(ddof=1) / math.sqrt(n)
        assert abs(diff.mean()) <= 3 * se

    def test_cross_entropy_term_agrees_with_standalone_estimator(self):
        model = tiny_model(1, "sg", seed=29)
        data = np.random.default_rng(5).integers(0, 2, (50, 4)).astype(float)
        dec = elbo_decomposition(data, model, 40, np.random.default_rng(19))
        # E_{z ~ q(z|x)} [-log p(z)] from 40 fresh posterior draws per row
        post = model.encode(Tensor(data))
        mean, std = post.mean.data, np.exp(0.5 * post.log_var.data)
        rng = np.random.default_rng(20)
        standalone = float(np.mean([
            -model.prior.log_prob(
                Tensor(mean + std * rng.standard_normal(mean.shape))).data
            for _ in range(40)]))
        per = dec.per_example["cross_entropy"]
        se = per.std(ddof=1) / math.sqrt(per.size)
        assert abs(dec.cross_entropy_term - standalone) < 6 * se + 0.05

    def test_aggregated_posterior_prior_lowers_cross_entropy(self):
        # VampData over the full (tiny) dataset approximates the optimal
        # prior; its cross-entropy term must undercut the standard Gaussian
        from vampvae.priors import StandardGaussian, VampDataPrior

        rng = np.random.default_rng(30)
        data = rng.integers(0, 2, (5, 4)).astype(float)
        model = tiny_model(1, "sg", seed=31, d=4, m=2)
        agg = VampDataPrior.from_data(data, 5, np.random.default_rng(6))
        agg.encoder = model.encode

        model.prior = agg
        dec_agg = elbo_decomposition(data, model, 500,
                                     np.random.default_rng(21))
        model.prior = StandardGaussian(2)
        dec_sg = elbo_decomposition(data, model, 500,
                                    np.random.default_rng(21))
        assert dec_agg.cross_entropy_term <= dec_sg.cross_entropy_term


class TestActiveUnits:
    def test_constant_columns_are_inactive(self):
        model = tiny_model(1, d=10, m=10, seed=32)
        proj = np.eye(10)
        proj[:, 3] = 0.0
        proj[:, 7] = 0.0

        def patched_encode(x):
            return DiagGaussian(Tensor(x.data @ proj),
                                Tensor(np.zeros_like(x.data)))

        model.encode = patched_encode
        data = np.random.default_rng(7).standard_normal((400, 10))
        result = active_units(data, model)
        assert result.counts[0] == 8
        inactive = {3, 7}
        for d in range(10):
            if d in inactive:
                assert result.scores[0][d] == 0.0
            else:
                assert result.scores[0][d] > 0.5

    def test_infinite_threshold_kills_everything(self):
        model = tiny_model(2, seed=33)
        data = np.random.default_rng(8).integers(0, 2, (20, 4)).astype(float)
        result = active_units(data, model, threshold=np.inf)
        assert result.counts == [0, 0]

    def test_row_permutation_invariance_exact(self):
        model = tiny_model(2, "vamp", seed=34)
        data = np.random.default_rng(9).integers(0, 2, (30, 4)).astype(float)
        base = active_units(data, model)
        perm = np.random.default_rng(10).permutation(30)
        shuffled = active_units(data[perm], model)
        for a, b in zip(base.scores, shuffled.scores):
            np.testing.assert_array_equal(a, b)

    def test_needs_two_points(self):
        model = tiny_model(1)
        with pytest.raises(ContractError):
            active_units(np.zeros((1, 4)), model)

    def test_hvae_reports_both_levels(self):
        model = tiny_model(2, seed=35)
        data = np.random.default_rng(11).integers(0, 2, (12, 4)).astype(float)
        result = active_units(data, model)
        assert len(result.counts) == 2
        assert len(result.scores[0]) == model.spec.latent1
        assert len(result.scores[1]) == model.spec.latent2


class TestHistogram:
    def test_single_value(self):
        hist = ll_histogram(np.array([-3.2]), bins=4)
        assert hist.counts.sum() == 1
        assert len(hist.counts) == 4

    def test_four_values_two_bins(self):
        hist = ll_histogram(np.array([0.0, 1.0, 2.0, 3.0]), bins=2)
        np.testing.assert_array_equal(hist.counts, [2, 2])

    def test_conservation(self):
        values = np.random.default_rng(12).normal(size=257)
        hist = ll_histogram(values, bins=13)
        assert hist.counts.sum() == 257

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ll_histogram(np.array([]), bins=3)

    def test_csv_shape(self):
        hist = ll_histogram(np.array([0.0, 1.0]), bins=2)
        lines = hist.to_csv().strip().split("\n")
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 3


class TestEvalReport:
    def test_mean_matches_per_example(self):
        model = tiny_model(1, seed=36)
        data = np.random.default_rng(13).integers(0, 2, (5, 4)).astype(float)
        report = evaluate_model(model, data, s=5, seed=1, bins=3)
        assert report.mean_test_ll == pytest.approx(
            report.per_example_ll.mean(), abs=1e-12)
        assert report.bits_per_dim is None  # bernoulli likelihood

    def test_inconsistent_mean_rejected(self):
        hist = ll_histogram(np.array([0.0, 1.0]), bins=2)
        with pytest.raises(ContractError):
            EvalReport(5.0, np.array([0.0, 1.0]), None, [1], hist, 1, 0)

    def test_json_round_trip(self):
        model = tiny_model(2, seed=37)
        data = np.random.default_rng(14).integers(0, 2, (4, 4)).astype(float)
        report = evaluate_model(model, data, s=3, seed=2, bins=3)
        payload = json.loads(report.to_json())
        assert payload["is_samples"] == 3
        assert len(payload["per_example_ll"]) == 4
        assert payload["active_unit_counts"] == report.active_unit_counts


class TestRowOnceEncoding:
    """`is_log_likelihood` encodes the repeated row once per distinct chunk
    length and reuses it for every chunk of that length; the reference is
    the per-chunk loop that encodes every chunk afresh."""

    CHUNK, SEED = 7, 40

    @staticmethod
    def _lse(values):
        m = values.max()
        return float(m + np.log(np.exp(values - m).sum()))

    @classmethod
    def _reference_row(cls, x, model, s, rng, chunk):
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        partials = []
        remaining = s
        while remaining > 0:
            c = min(chunk, remaining)
            weights = model.log_importance_weight(np.repeat(x, c, 0), rng)
            partials.append(cls._lse(weights))
            remaining -= c
        return cls._lse(np.asarray(partials)) - math.log(s)

    def _reference(self, model, data, s):
        seqs = np.random.SeedSequence(self.SEED).spawn(data.shape[0])
        frozen_model = with_frozen_prior(model)
        return np.array([
            self._reference_row(data[i], frozen_model, s,
                                np.random.default_rng(seqs[i]), self.CHUNK)
            for i in range(data.shape[0])])

    @staticmethod
    def _data():
        return np.random.default_rng(41).integers(0, 2, (3, 4)).astype(float)

    @pytest.mark.parametrize("s", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 3])
    @pytest.mark.parametrize("levels,prior", [(1, "sg"), (1, "vamp"),
                                              (2, "sg"), (2, "vamp")],
                             ids=["vae-sg", "vae-vamp", "hvae-sg",
                                  "hvae-vamp"])
    def test_bitwise_equal_to_per_chunk_encoding(self, levels, prior, s,
                                                 cpus):
        model = tiny_model(levels, prior, seed=42)
        data = self._data()
        got = per_example_log_likelihood(model, data, s, self.SEED,
                                         chunk_size=self.CHUNK)
        want = self._reference(model, data, s)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("s,lengths", [(CHUNK, 1), (2 * CHUNK, 1),
                                           (2 * CHUNK + 3, 2)])
    def test_x_path_runs_once_per_chunk_length(self, s, lengths,
                                               monkeypatch):
        model = tiny_model(2, "vamp", seed=42)
        data = self._data()
        calls = []
        stack = model.enc_z1_x

        def counting(x):
            calls.append(x.shape[0])
            return stack(x)

        monkeypatch.setattr(model, "enc_z1_x", counting)
        per_example_log_likelihood(model, data, s, self.SEED,
                                   chunk_size=self.CHUNK)
        assert len(calls) == lengths * data.shape[0]
        tail = s % self.CHUNK
        assert sorted(set(calls)) == sorted({self.CHUNK, tail} - {0})

    @pytest.mark.parametrize("levels", [1, 2])
    def test_forward_on_an_encoding_equals_forward_on_the_batch(self,
                                                                levels):
        model = tiny_model(levels, "vamp", seed=43)
        data = self._data()
        enc = model.encode_x(data)
        for mc in (1, 3):
            a = model.forward(data, np.random.default_rng(5), mc).elbo().data
            b = model.forward(enc, np.random.default_rng(5), mc).elbo().data
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        with pytest.raises(ContractError):
            model.forward(enc, np.random.default_rng(5), 0)

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    @pytest.mark.parametrize("levels,prior", [(1, "mog"), (2, "vamp")])
    def test_elbo_decomposition_arrays_unchanged(self, levels, prior, mode):
        model = tiny_model(levels, prior, seed=44)
        data = self._data()
        got = elbo_decomposition(data, model, 3, np.random.default_rng(6),
                                 entropy_mode=mode).per_example
        # reference: every sample re-encodes the batch
        rng = np.random.default_rng(6)
        want = {k: np.zeros(data.shape[0])
                for k in ("recon", "entropy", "cross_entropy")}
        for _ in range(3):
            rec = model.forward(Tensor(data), rng, 1)
            want["recon"] += rec.log_px.data
            want["cross_entropy"] += -rec.log_p().data
            want["entropy"] += (rec.entropy().data if mode == "analytic"
                                else -rec.log_q().data)
        for key, value in want.items():
            value /= 3
            np.testing.assert_array_equal(got[key].view(np.int64),
                                          value.view(np.int64))


class TestIsChunkMemory:
    def test_paper_scale_chunk_stays_under_12_mb(self):
        # one S=500 chunk at the paper's sizes with a frozen prior reads
        # about 9 MB: the fused Bernoulli node works in two small buffers,
        # where the op chain it replaced peaked at about 12 MB by itself and
        # took the chunk to about 16 MB
        rng = np.random.default_rng(0)
        spec = ModelSpec(levels=2, data_dim=784, prior_kind="vamp",
                         prior_components=500)
        x = (rng.random((1, 784)) < 0.3).astype(np.float64)
        model = with_frozen_prior(build_model(spec, rng))
        encoded = model.encode_x(np.repeat(x, 500, axis=0))
        weights, peak_mb = peak_mb_above_held(
            lambda: model.log_importance_weight(encoded, rng))
        assert weights.shape == (500,)
        assert peak_mb < 12.0
