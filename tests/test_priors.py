"""Tests for the prior families and their couplings."""

import math

import mpmath
import numpy as np
import pytest

from vampvae import autodiff as ad
from vampvae.autodiff import Graph, Tensor, backward
from vampvae.distributions import DiagGaussian, log_normal_diag, sample_reparam
from vampvae.errors import ContractError
from vampvae.priors import (
    MixtureOfGaussians,
    PriorSample,
    StandardGaussian,
    VampDataPrior,
    VampPrior,
    WeightedVampPrior,
    frozen,
    sample_prior,
)

LOG_2PI = math.log(2 * math.pi)


class LinearEncoder:
    """Tiny affine encoder q(z | x) used as the Vamp component map."""

    def __init__(self, d, m, rng, scale=0.4):
        self.w_mean = Tensor(rng.normal(0, scale, (d, m)), requires_grad=True)
        self.b_mean = Tensor(rng.normal(0, scale, m), requires_grad=True)
        self.w_lv = Tensor(rng.normal(0, scale, (d, m)), requires_grad=True)
        self.b_lv = Tensor(rng.normal(0, scale, m), requires_grad=True)

    def __call__(self, x: Tensor) -> DiagGaussian:
        return DiagGaussian(x @ self.w_mean + self.b_mean,
                            x @ self.w_lv + self.b_lv)

    def params(self):
        return [self.w_mean, self.b_mean, self.w_lv, self.b_lv]


def _vamp(k, d, m, rng, cls=VampPrior, **kw):
    prior = cls.initialize(k, d, rng, **kw) if cls is not VampDataPrior else None
    encoder = LinearEncoder(d, m, rng)
    prior.encoder = encoder
    return prior, encoder


class TestStandardGaussian:
    def test_origin_forty_dims(self):
        sg = StandardGaussian(40)
        got = sg.log_prob(Tensor(np.zeros((1, 40)))).data[0]
        assert got == pytest.approx(-20.0 * LOG_2PI, abs=1e-5)
        assert got == pytest.approx(-36.75754, abs=1e-5)


class TestVampPrior:
    def test_single_component_equals_plain_density(self):
        rng = np.random.default_rng(20)
        prior, encoder = _vamp(1, 5, 3, rng)
        z = Tensor(rng.standard_normal((4, 3)))
        got = prior.log_prob(z).data

        comp = encoder(prior.pseudo_input_values())
        plain = log_normal_diag(
            z, DiagGaussian(comp.mean.slice(0, 0, 1).reshape((3,)),
                            comp.log_var.slice(0, 0, 1).reshape((3,)))).data
        np.testing.assert_array_equal(got, plain)

    def test_duplicate_components_collapse(self):
        rng = np.random.default_rng(21)
        prior, encoder = _vamp(2, 5, 3, rng)
        prior.pseudo_inputs.data[1] = prior.pseudo_inputs.data[0]
        single = VampPrior(Tensor(prior.pseudo_inputs.data[:1]), squash=True)
        single.encoder = encoder
        z = Tensor(rng.standard_normal((6, 3)))
        np.testing.assert_allclose(prior.log_prob(z).data,
                                   single.log_prob(z).data, rtol=1e-14)

    def test_permutation_of_pseudo_inputs_is_exact(self):
        rng = np.random.default_rng(22)
        prior, encoder = _vamp(7, 4, 3, rng)
        z = Tensor(rng.standard_normal((5, 3)))
        base = prior.log_prob(z).data.copy()
        perm = rng.permutation(7)
        shuffled = VampPrior(Tensor(prior.pseudo_inputs.data[perm]), squash=True)
        shuffled.encoder = encoder
        np.testing.assert_array_equal(shuffled.log_prob(z).data, base)

    def test_evaluation_does_not_mutate_encoder(self):
        rng = np.random.default_rng(23)
        prior, encoder = _vamp(3, 4, 2, rng)
        before = [p.data.copy() for p in encoder.params()]
        prior.log_prob(Tensor(rng.standard_normal((3, 2))))
        for old, p in zip(before, encoder.params()):
            np.testing.assert_array_equal(old, p.data)

    def test_unbound_encoder_rejected(self):
        prior = VampPrior.initialize(2, 3, np.random.default_rng(0))
        with pytest.raises(ContractError):
            prior.log_prob(Tensor(np.zeros((1, 2))))

    def test_gradients_reach_pseudo_inputs_and_encoder(self):
        rng = np.random.default_rng(24)
        prior, encoder = _vamp(3, 4, 2, rng)
        with Graph():
            z = Tensor(rng.standard_normal((5, 2)))
            backward(prior.log_prob(z).sum())
        assert prior.pseudo_inputs.grad is not None
        assert np.abs(prior.pseudo_inputs.grad).max() > 0
        assert all(p.grad is not None for p in encoder.params())

    def test_vamp_data_pseudo_inputs_frozen(self):
        rng = np.random.default_rng(25)
        data = rng.uniform(0, 1, size=(10, 4))
        prior = VampDataPrior.from_data(data, 3, rng)
        encoder = LinearEncoder(4, 2, rng)
        prior.encoder = encoder
        assert not prior.pseudo_inputs.requires_grad
        with Graph():
            backward(prior.log_prob(Tensor(rng.standard_normal((4, 2)))).sum())
        assert prior.pseudo_inputs.grad is None
        assert all(p.grad is not None for p in encoder.params())

    def test_vamp_data_rows_are_training_rows(self):
        rng = np.random.default_rng(26)
        data = rng.uniform(0, 1, size=(8, 3))
        prior = VampDataPrior.from_data(data, 5, rng)
        for row in prior.pseudo_inputs.data:
            assert any(np.array_equal(row, d) for d in data)
        # without replacement: all distinct
        assert len({tuple(r) for r in prior.pseudo_inputs.data}) == 5


class TestMoGPrior:
    def test_matches_extended_precision_direct_sum(self):
        rng = np.random.default_rng(27)
        k, m = 3, 4
        prior = MixtureOfGaussians(
            Tensor(rng.normal(0, 1, (k, m)), requires_grad=True),
            Tensor(rng.uniform(-1, 1, (k, m)), requires_grad=True))
        z = rng.standard_normal((5, m))
        got = prior.log_prob(Tensor(z)).data

        mpmath.mp.dps = 50
        for b in range(5):
            acc = mpmath.mpf(0)
            for i in range(k):
                dens = mpmath.mpf(1)
                for j in range(m):
                    var = mpmath.e ** mpmath.mpf(prior.log_vars.data[i, j])
                    diff = mpmath.mpf(z[b, j]) - mpmath.mpf(prior.means.data[i, j])
                    dens *= mpmath.e ** (-diff * diff / (2 * var)) / mpmath.sqrt(
                        2 * mpmath.pi * var)
                acc += dens
            want = float(mpmath.log(acc / k))
            assert got[b] == pytest.approx(want, rel=1e-12)

    def test_initialize_shapes_and_spread(self):
        prior = MixtureOfGaussians.initialize(6, 3, np.random.default_rng(1))
        assert prior.means.shape == (6, 3)
        np.testing.assert_array_equal(prior.log_vars.data, np.zeros((6, 3)))


class TestWeightedVamp:
    def test_uniform_logits_match_plain_vamp_exactly(self):
        rng = np.random.default_rng(28)
        weighted, encoder = _vamp(4, 5, 3, rng, cls=WeightedVampPrior)
        plain = VampPrior(weighted.pseudo_inputs, squash=True)
        plain.encoder = encoder
        z = Tensor(rng.standard_normal((6, 3)))
        np.testing.assert_array_equal(weighted.log_prob(z).data,
                                      plain.log_prob(z).data)

    def test_weights_normalized(self):
        rng = np.random.default_rng(29)
        weighted, _ = _vamp(3, 4, 2, rng, cls=WeightedVampPrior)
        weighted.weight_logits.data[:] = [2.0, -1.0, 0.5]
        w = weighted.weights()
        assert np.all(w >= 0) and w.sum() == pytest.approx(1.0, rel=1e-12)

    def test_saturated_logits_dominate_sampling(self):
        rng = np.random.default_rng(30)
        weighted, _ = _vamp(3, 4, 2, rng, cls=WeightedVampPrior)
        weighted.weight_logits.data[:] = [50.0, -50.0, -50.0]
        out = sample_prior(weighted, 10_000, np.random.default_rng(5))
        assert (out.components == 0).mean() > 0.999


class TestFrozen:
    """`frozen` turns a prior's current parameters into a fixed value with
    the same density, bit for bit."""

    @staticmethod
    def _prior(kind, rng):
        if kind == "mog":
            return MixtureOfGaussians(
                Tensor(rng.normal(0, 1, (4, 3)), requires_grad=True),
                Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True))
        if kind == "vamp-data":
            prior = VampDataPrior.from_data(rng.uniform(0, 1, (9, 5)), 4, rng)
            prior.encoder = LinearEncoder(5, 3, rng)
            return prior
        cls = WeightedVampPrior if kind == "weighted-vamp" else VampPrior
        prior, _ = _vamp(4, 5, 3, rng, cls=cls)
        if kind == "weighted-vamp":
            prior.weight_logits.data[:] = [1.5, -0.25, 0.0, -2.0]
        return prior

    @pytest.mark.parametrize("kind", ["mog", "vamp", "vamp-data",
                                      "weighted-vamp"])
    def test_log_prob_bitwise_equal(self, kind):
        rng = np.random.default_rng(33)
        prior = self._prior(kind, rng)
        z = Tensor(rng.standard_normal((6, 3)))
        got = frozen(prior).log_prob(z).data
        want = prior.log_prob(z).data
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert isinstance(frozen(prior), MixtureOfGaussians)

    def test_priors_without_an_encoder_returned_as_they_are(self):
        sg = StandardGaussian(3)
        mog = self._prior("mog", np.random.default_rng(34))
        assert frozen(sg) is sg
        assert frozen(mog) is mog


class TestSamplePrior:
    def test_standard_gaussian_moments(self):
        n = 100_000
        out = sample_prior(StandardGaussian(4), n, np.random.default_rng(31))
        assert isinstance(out, PriorSample)
        assert out.components is None
        assert np.abs(out.z.mean(axis=0)).max() < 3.0 / math.sqrt(n)

    def test_degenerate_component_concentrates(self):
        rng = np.random.default_rng(32)
        prior = VampPrior.initialize(1, 4, rng)

        class TightEncoder:
            # variance below the clamp floor: every draw sits at the mean
            def __call__(self, u):
                return DiagGaussian(Tensor([[0.3, -0.7]]),
                                    Tensor(np.full((1, 2), -50.0)))

        prior.encoder = TightEncoder()
        out = sample_prior(prior, 1000, np.random.default_rng(6))
        mean = prior.encoder(prior.pseudo_input_values()).mean.data[0]
        assert np.abs(out.z - mean).max() < 0.01

    def test_component_labels_returned(self):
        rng = np.random.default_rng(33)
        prior = MixtureOfGaussians.initialize(5, 2, rng)
        out = sample_prior(prior, 50, np.random.default_rng(7))
        assert out.components.shape == (50,)
        assert set(np.unique(out.components)) <= set(range(5))


class TestCrossEntropyToPrior:
    def test_aggregated_posterior_beats_other_priors(self):
        # The optimal prior is the aggregated posterior itself: realize it as
        # VampDataPrior over all data points and compare cross-entropies with
        # common random numbers, paired per sample.
        rng = np.random.default_rng(34)
        n, d, m = 3, 4, 2
        data = rng.uniform(0, 1, (n, d))
        encoder = LinearEncoder(d, m, rng, scale=2.0)
        agg = VampDataPrior.from_data(data, n, np.random.default_rng(1))
        agg.encoder = encoder

        post = encoder(Tensor(data))
        mean, std = post.mean.data, np.exp(0.5 * post.log_var.data)
        draws = np.random.default_rng(10).standard_normal((3400, n, m))
        z = Tensor((mean + std * draws).reshape(-1, m))

        nll_agg = -agg.log_prob(z).data
        rivals = [StandardGaussian(m)]
        mog_rng = np.random.default_rng(11)
        rivals.append(MixtureOfGaussians(
            Tensor(mog_rng.normal(0, 1, (4, m))),
            Tensor(mog_rng.uniform(-1, 1, (4, m)))))
        for rival in rivals:
            diff = -rival.log_prob(z).data - nll_agg
            se = diff.std(ddof=1) / math.sqrt(diff.size)
            assert diff.mean() > 3 * se


class TestVampGradientCoupling:
    def test_tied_encoder_outputs_zero_kl_gradient(self):
        # When every pseudo-input equals the data point, the posterior and
        # the mixture components respond identically to the encoder weights,
        # so the coupled difference terms in the KL gradient cancel. The two
        # terms are still computed through structurally different graphs.
        rng = np.random.default_rng(35)
        d, m, k = 5, 3, 4
        encoder = LinearEncoder(d, m, rng)
        x_row = rng.uniform(0.2, 0.8, d)
        raw = np.log(x_row) - np.log1p(-x_row)
        prior = VampPrior(Tensor(np.tile(raw, (k, 1)), requires_grad=True),
                          squash=True)
        prior.encoder = encoder

        x = Tensor(np.tile(x_row, (6, 1)))
        eps = Tensor(rng.standard_normal((6, m)))
        with Graph():
            q = encoder(x)
            z = sample_reparam(q, eps)
            kl = (log_normal_diag(z, q) - prior.log_prob(z)).mean()
            backward(kl)
        for p in encoder.params():
            assert p.grad is not None
            assert np.abs(p.grad).max() < 1e-8

    def test_dissimilar_pseudo_inputs_produce_nonzero_kl_gradient(self):
        # Control: with pseudo-inputs unlike x the coupling terms survive.
        rng = np.random.default_rng(36)
        d, m, k = 5, 3, 4
        encoder = LinearEncoder(d, m, rng)
        prior = VampPrior.initialize(k, d, rng)
        prior.encoder = encoder
        x = Tensor(rng.uniform(0, 1, (6, d)))
        eps = Tensor(rng.standard_normal((6, m)))
        with Graph():
            q = encoder(x)
            z = sample_reparam(q, eps)
            backward((log_normal_diag(z, q) - prior.log_prob(z)).mean())
        assert np.abs(encoder.w_mean.grad).max() > 1e-3
