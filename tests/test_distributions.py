"""Tests for densities, samplers, and the reparameterization transform."""

import math

import mpmath
import numpy as np
import pytest

from vampvae import autodiff as ad
from vampvae import distributions as dist
from vampvae.autodiff import Graph, Tensor, backward, grad_check
from vampvae.distributions import (
    DiagGaussian,
    log_bernoulli,
    log_discretized_logistic,
    log_normal_diag,
    log_standard_normal,
    normal_entropy,
    sample_reparam,
)
from vampvae.errors import DimensionError, DomainError

LOG_2PI = math.log(2 * math.pi)


def _gauss(mean, log_var):
    return DiagGaussian(Tensor(mean), Tensor(log_var))


class TestLogNormalDiag:
    def test_standard_at_origin(self):
        p = _gauss(np.zeros(2), np.zeros(2))
        assert log_normal_diag(Tensor(np.zeros(2)), p).item() == pytest.approx(
            -LOG_2PI, abs=1e-12)

    def test_mode_value_unit_variance(self):
        p = _gauss([1.7], [0.0])
        assert log_normal_diag(Tensor([1.7]), p).item() == pytest.approx(
            -0.5 * LOG_2PI, abs=1e-12)

    def test_matches_high_precision_product(self):
        # Oracle: per-coordinate scalar Gaussian densities multiplied in
        # 50-digit arithmetic.
        rng = np.random.default_rng(3)
        z = rng.standard_normal(5)
        mean = rng.standard_normal(5)
        log_var = rng.uniform(-1.5, 1.5, size=5)
        got = log_normal_diag(Tensor(z), _gauss(mean, log_var)).item()

        mpmath.mp.dps = 50
        total = mpmath.mpf(1)
        for zi, mi, lvi in zip(z, mean, log_var):
            var = mpmath.e ** mpmath.mpf(lvi)
            densi = mpmath.e ** (-(mpmath.mpf(zi) - mpmath.mpf(mi)) ** 2 / (2 * var))
            densi /= mpmath.sqrt(2 * mpmath.pi * var)
            total *= densi
        want = float(mpmath.log(total))
        assert got == pytest.approx(want, rel=1e-12)

    def test_batched_rows(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((7, 3))
        p = _gauss(rng.standard_normal((7, 3)), rng.uniform(-1, 1, (7, 3)))
        out = log_normal_diag(Tensor(z), p)
        assert out.shape == (7,)
        one = log_normal_diag(
            Tensor(z[2]), _gauss(p.mean.data[2], p.log_var.data[2])).item()
        assert out.data[2] == pytest.approx(one, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            log_normal_diag(Tensor(np.zeros(3)), _gauss(np.zeros(2), np.zeros(2)))

    def test_standard_normal_shortcut_agrees(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 6))
        full = log_normal_diag(Tensor(z), _gauss(np.zeros(6), np.zeros(6)))
        short = log_standard_normal(Tensor(z))
        np.testing.assert_allclose(short.data, full.data, rtol=1e-14)


class TestSampleReparam:
    def test_zero_noise_returns_mean(self):
        p = _gauss([0.3, -2.0], [0.7, -0.4])
        out = sample_reparam(p, Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, [0.3, -2.0])

    def test_unit_variance_adds_noise(self):
        p = _gauss([1.0, 2.0], [0.0, 0.0])
        out = sample_reparam(p, Tensor([0.5, -0.5]))
        np.testing.assert_allclose(out.data, [1.5, 1.5], rtol=1e-15)

    def test_moments_match_within_three_se(self):
        # Monte Carlo oracle on 1e5 draws.
        rng = np.random.default_rng(6)
        n, mean, log_var = 100_000, 0.8, -0.6
        p = _gauss(np.full((n, 1), mean), np.full((n, 1), log_var))
        eps = Tensor(rng.standard_normal((n, 1)))
        z = sample_reparam(p, eps).data[:, 0]
        var = math.exp(log_var)
        se_mean = math.sqrt(var / n)
        assert abs(z.mean() - mean) < 3 * se_mean
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert abs(z.var(ddof=1) - var) < 3 * se_var

    def test_gradients_of_transform(self):
        # d sample / d mean = I and d sample / d log_var = 0.5 * sigma * eps.
        eps_val = np.array([0.7, -1.2, 0.4])
        log_var_val = np.array([0.3, -0.5, 0.0])
        with Graph():
            mean = Tensor(np.zeros(3), requires_grad=True)
            log_var = Tensor(log_var_val, requires_grad=True)
            z = sample_reparam(DiagGaussian(mean, log_var), Tensor(eps_val))
            backward(z.sum())
        np.testing.assert_allclose(mean.grad, np.ones(3), rtol=1e-14)
        want = 0.5 * np.exp(0.5 * log_var_val) * eps_val
        np.testing.assert_allclose(log_var.grad, want, rtol=1e-14)

    def test_grad_check_through_transform(self):
        rng = np.random.default_rng(7)
        eps = Tensor(rng.standard_normal(4))
        mean = Tensor(rng.standard_normal(4), requires_grad=True)
        log_var = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)

        def f(ps):
            z = sample_reparam(DiagGaussian(ps[0], ps[1]), eps)
            return z.square().sum()

        assert grad_check(f, [mean, log_var]) < 1e-7


class TestLogBernoulli:
    def test_even_odds(self):
        out = log_bernoulli(Tensor([1.0]), Tensor([0.0]))
        assert out.item() == pytest.approx(math.log(0.5), abs=1e-12)

    def test_saturated_logits_no_overflow(self):
        out = log_bernoulli(Tensor([1.0, 0.0]), Tensor([50.0, -50.0]))
        assert out.item() == pytest.approx(0.0, abs=1e-20)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2, size=20).astype(float)
        logits = rng.uniform(-4, 4, size=20)
        got = log_bernoulli(Tensor(x), Tensor(logits)).item()
        s = 1 / (1 + np.exp(-logits))
        want = float(np.sum(x * np.log(s) + (1 - x) * np.log(1 - s)))
        assert got == pytest.approx(want, abs=1e-10)

    def test_soft_targets_supported(self):
        out = log_bernoulli(Tensor([0.25, 0.75]), Tensor([0.3, -0.2]))
        assert math.isfinite(out.item())

    def test_out_of_range_target_rejected(self):
        with pytest.raises(DomainError):
            log_bernoulli(Tensor([1.5]), Tensor([0.0]))

    def test_nonpositive_for_hard_targets(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.integers(0, 2, size=6).astype(float)
            logits = rng.uniform(-8, 8, size=6)
            assert log_bernoulli(Tensor(x), Tensor(logits)).item() <= 0.0


class TestLogDiscretizedLogistic:
    def test_direct_cdf_difference_at_target(self):
        # Oracle: evaluate the two CDFs directly for mean == x.
        x = 128.0 / 255.0
        s = 0.01
        got = log_discretized_logistic(
            Tensor([x]), Tensor([x]), Tensor([math.log(s)])).item()
        upper = 1 / (1 + math.exp(-((1.0 / 256.0) / s)))
        want = math.log(upper - 0.5)
        assert got == pytest.approx(want, rel=1e-12)
        # same sigmoid argument written two ways
        assert (1.0 / 256.0) / s == pytest.approx((0.5 / s) * (1.0 / 128.0))

    def test_bin_probabilities_sum_to_one(self):
        # Brute force over all 256 bins with the mass concentrated well
        # inside [0, 1]; only edge and inter-bin slivers are excepted.
        grid = np.arange(256) / 255.0
        mean = 128.0 / 255.0 + 1.0 / 512.0
        log_scale = math.log(2e-4)
        lp = log_discretized_logistic(
            Tensor(grid[:, None]), Tensor([mean]), Tensor([log_scale]))
        total = float(np.exp(lp.data).sum())
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_flattening_is_monotone_and_scales_like_inverse_s(self):
        x = 100.0 / 255.0
        probs = []
        for log_scale in (0.0, 2.0, 5.0):
            lp = log_discretized_logistic(
                Tensor([x]), Tensor([x + 1.0 / 512.0]), Tensor([log_scale]))
            probs.append(math.exp(lp.item()))
        assert probs[0] > probs[1] > probs[2]
        # in the flat limit the bin mass approaches width * s'(0) / s
        want = (1.0 / 256.0) * 0.25 / math.exp(5.0)
        assert probs[2] == pytest.approx(want, rel=1e-2)

    def test_off_grid_rejected(self):
        with pytest.raises(DomainError):
            log_discretized_logistic(
                Tensor([0.5]), Tensor([0.5]), Tensor([0.0]))

    def test_nonpositive(self):
        rng = np.random.default_rng(10)
        x = rng.integers(0, 256, size=12) / 255.0
        lp = log_discretized_logistic(
            Tensor(x), Tensor(rng.uniform(0, 1, 12)),
            Tensor(rng.uniform(-3, 1, 12)))
        assert lp.item() <= 0.0

    def test_floor_keeps_log_finite(self):
        out = log_discretized_logistic(
            Tensor([1.0]), Tensor([0.0]), Tensor([-7.0]))
        assert math.isfinite(out.item())
        assert out.item() >= math.log(dist.PROB_FLOOR) - 1e-9


class TestPairwiseDensity:
    def test_matches_plain_density_column_by_column(self):
        rng = np.random.default_rng(40)
        z = Tensor(rng.standard_normal((6, 3)))
        means = rng.standard_normal((4, 3))
        log_vars = rng.uniform(-1, 1, (4, 3))
        mat = dist.log_normal_diag_pairwise(
            z, DiagGaussian(Tensor(means), Tensor(log_vars))).data
        for k in range(4):
            col = log_normal_diag(z, _gauss(means[k], log_vars[k])).data
            np.testing.assert_array_equal(mat[:, k], col)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        z = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        means = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        log_vars = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)

        def f(ps):
            mat = dist.log_normal_diag_pairwise(
                ps[0], DiagGaussian(ps[1], ps[2]))
            return (mat * 0.3).logsumexp()

        assert grad_check(f, [z, means, log_vars]) < 1e-7

    def test_shape_contract(self):
        with pytest.raises(Exception):
            dist.log_normal_diag_pairwise(
                Tensor(np.zeros(3)), _gauss(np.zeros((2, 3)), np.zeros((2, 3))))


class TestKlAndEntropy:
    def test_entropy_standard_normal(self):
        p = _gauss(np.zeros(3), np.zeros(3))
        want = 1.5 * (1 + LOG_2PI)
        assert normal_entropy(p).item() == pytest.approx(want, rel=1e-14)

    def test_log_var_clamped_at_construction(self):
        p = _gauss(np.zeros(2), [50.0, -50.0])
        np.testing.assert_array_equal(p.log_var.data, [14.0, -14.0])


class TestLikelihoodParams:
    def test_bernoulli_mean_is_sigmoid(self):
        params = dist.BernoulliParams(Tensor([0.0, 4.0]))
        np.testing.assert_allclose(
            params.mean_value(), [0.5, 1 / (1 + math.exp(-4.0))], rtol=1e-12)

    def test_logistic_mean_passthrough(self):
        params = dist.DiscretizedLogisticParams(Tensor([0.25]), Tensor([-2.0]))
        np.testing.assert_array_equal(params.mean_value(), [0.25])

    def test_log_prob_dispatch(self):
        b = dist.BernoulliParams(Tensor([0.0]))
        assert b.log_prob(Tensor([1.0])).item() == pytest.approx(math.log(0.5))
