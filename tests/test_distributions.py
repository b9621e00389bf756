"""Tests for densities, samplers, and the reparameterization transform."""

import math

import mpmath
import numpy as np
import pytest

from helpers import (
    arriving_grads,
    assert_same_bits,
    assert_same_run,
    unfused_bernoulli,
    unfused_log_normal_diag,
)
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
from vampvae.errors import ContractError, DimensionError, DomainError

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


def _density(fn):
    return lambda z, mean, log_var: fn(z, DiagGaussian(mean, log_var))


class TestFusedNormal:
    """`log_normal_diag` is one node with the bits of the op chain it
    replaced (`helpers.unfused_log_normal_diag`): its value and the gradient
    each input receives, the sign of zeros included."""

    M = 6

    def _assert_matches_chain(self, arrays, g, requires=None):
        got = arriving_grads(_density(log_normal_diag), arrays, g, requires)
        want = arriving_grads(_density(unfused_log_normal_diag), arrays, g,
                              requires)
        assert_same_run(got, want)

    @pytest.mark.parametrize("z_shape,mean_shape", [
        ((9, M), (9, M)), ((M,), (M,)), ((9, M), (M,)), ((M,), (9, M)),
    ], ids=["rows", "one-row", "broadcast-mean", "broadcast-z"])
    def test_forward_and_gradients_match_the_op_chain(self, z_shape,
                                                      mean_shape):
        rng = np.random.default_rng(len(z_shape) * 10 + len(mean_shape))
        arrays = (rng.standard_normal(z_shape),
                  rng.standard_normal(mean_shape),
                  rng.uniform(-3.0, 3.0, mean_shape))
        rows = max(z_shape, mean_shape, key=len)[:-1]
        g = np.asarray(rng.standard_normal(rows))
        self._assert_matches_chain(arrays, g)

    def test_signed_zeros_in_the_gradients_match(self):
        rng = np.random.default_rng(31)
        z = rng.standard_normal((5, self.M))
        mean = z.copy()
        mean[:, 3:] += 1.0
        z[0, :2] = -0.0
        g = rng.standard_normal(5)
        g[1], g[2] = 0.0, -0.0
        arrays = (z, mean, rng.uniform(-1.0, 1.0, (5, self.M)))
        want = arriving_grads(_density(unfused_log_normal_diag), arrays, g)
        # log_var's two partials never sum to -0.0
        assert all(np.signbit(grad[grad == 0.0]).any() for grad in want[1][:2])
        self._assert_matches_chain(arrays, g)

    @pytest.mark.parametrize("requires", [
        (True, False, False), (False, True, True), (False, False, True),
        (True, True, False),
    ])
    def test_inputs_without_grad_get_none(self, requires):
        rng = np.random.default_rng(32)
        arrays = (rng.standard_normal((4, self.M)),
                  rng.standard_normal(self.M), rng.uniform(-1.0, 1.0, self.M))
        self._assert_matches_chain(arrays, rng.standard_normal(4), requires)

    def test_one_node_with_the_log_variance_listed_twice(self):
        z = Tensor(np.ones((2, 3)), requires_grad=True)
        mean = Tensor(np.zeros(3), requires_grad=True)
        with Graph() as graph:
            p = DiagGaussian(mean, Tensor(np.zeros(3), requires_grad=True))
            out = log_normal_diag(z, p)
            clipped = p.log_var.node
            assert graph.nodes == [clipped, out.node]
            assert out.node.op == "normal_logpdf"
            assert out.node.parents == (clipped, clipped, z, mean)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            log_normal_diag(Tensor(np.zeros((2, 3))),
                            _gauss(np.zeros((3, 3)), np.zeros((3, 3))))


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


class TestFusedBernoulli:
    """`log_bernoulli` has the bits of the op chain it replaced, for data
    targets of the logits' shape, the only targets it takes."""

    D = 784

    def _assert_matches_chain(self, x, logits, g):
        got, want = (arriving_grads(fn, (x, logits), g, (False, True))
                     for fn in (log_bernoulli, unfused_bernoulli))
        assert_same_run(got, want)

    @pytest.mark.parametrize("b_offset", ["one", -1, 0, 1, "101"])
    def test_forward_and_gradients_match_the_op_chain(self, b_offset):
        rows = dist.bernoulli_block_rows(self.D)
        b = {"one": 1, "101": 101}.get(b_offset) or rows + b_offset
        rng = np.random.default_rng(2000 + b)
        x = (rng.random((b, self.D)) < 0.3).astype(float)
        logits = rng.standard_normal((b, self.D)) * 4.0
        self._assert_matches_chain(x, logits, rng.standard_normal(b))

    def test_one_row_vector(self):
        rng = np.random.default_rng(21)
        x = (rng.random(self.D) < 0.5).astype(float)
        self._assert_matches_chain(x, rng.standard_normal(self.D),
                                   np.asarray(rng.standard_normal()))

    def test_soft_targets_and_saturated_logits(self):
        rng = np.random.default_rng(22)
        b = 2 * dist.bernoulli_block_rows(self.D) + 3
        x = rng.random((b, self.D))
        logits = rng.choice([-800.0, 800.0], (b, self.D))
        logits[:, ::3] = rng.standard_normal((b, len(range(0, self.D, 3))))
        self._assert_matches_chain(x, logits, rng.standard_normal(b))

    def test_signed_zeros_in_the_gradients_match(self):
        rng = np.random.default_rng(23)
        b = dist.bernoulli_block_rows(self.D) + 1
        # a zero upstream gradient, zero logits and negative-zero targets
        # make signed-zero terms
        x = (rng.random((b, self.D)) < 0.3).astype(float)
        x[:, :5] = -0.0
        logits = rng.standard_normal((b, self.D))
        logits[:, 5:10] = 0.0
        g = rng.standard_normal(b)
        g[:3] = 0.0
        g[3] = -0.0
        _, (_, g_logits) = arriving_grads(unfused_bernoulli, (x, logits), g,
                                          (False, True))
        assert np.signbit(g_logits[0]).any()
        self._assert_matches_chain(x, logits, g)

    def test_targets_without_grad_get_none(self):
        rng = np.random.default_rng(24)
        x = (rng.random((5, 7)) < 0.5).astype(float)
        logits = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
        with Graph():
            out = log_bernoulli(Tensor(x), logits)
            g_x, g_logits = out.node.grad_fn(np.ones(5))
        assert g_x is None and g_logits.shape == (5, 7)
        # targets are data: one that requires grad is a caller's mistake
        with Graph(), pytest.raises(ContractError):
            log_bernoulli(Tensor(x, requires_grad=True), logits)

    def test_empty_batch(self):
        with Graph():
            logits = Tensor(np.zeros((0, 4)), requires_grad=True)
            out = log_bernoulli(Tensor(np.zeros((0, 4))), logits)
            _, g_logits = out.node.grad_fn(np.zeros(0))
        assert out.shape == (0,) and g_logits.shape == (0, 4)

    def test_out_of_range_and_mismatched_shapes_rejected(self):
        with pytest.raises(DomainError):
            log_bernoulli(Tensor([[0.5, -0.1]]), Tensor([[0.0, 0.0]]))
        with pytest.raises(DimensionError):
            log_bernoulli(Tensor([[0.5, 0.5]]), Tensor([[0.0, 0.0, 0.0]]))
        with pytest.raises(DimensionError):
            log_bernoulli(Tensor(np.zeros((2, 3, 4))),
                          Tensor(np.zeros((3, 2, 4))))
        # one target row is not broadcast over many rows of logits
        with pytest.raises(DimensionError):
            log_bernoulli(Tensor(np.ones(7)), Tensor(np.zeros((30, 7))))

    def test_block_rows_follow_the_byte_budget(self):
        assert dist.bernoulli_block_rows(self.D) * self.D * 8 \
            <= dist.BERNOULLI_BLOCK_BYTES
        assert dist.bernoulli_block_rows(10**6) == 1
        assert dist.bernoulli_block_rows(0) >= 1


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

    @pytest.mark.parametrize("x,on_grid", [
        (3 / 255 + 0.9e-9, True), (3 / 255 - 0.9e-9, True), (-1e-9, True),
        (3 / 255 + 1.1e-9, False), (3 / 255 - 1.1e-9, False),
        (-1.1e-9, False), (256 / 255, False), (-1 / 255, False)])
    def test_grid_tolerance_boundaries(self, x, on_grid):
        # within 1e-9 of a grid point in [0, 1] is on the grid, -1e-9 itself
        # included; 256/255 and -1/255 are grid multiples outside [0, 1]
        args = (Tensor([x]), Tensor([0.5]), Tensor([0.0]))
        if on_grid:
            assert math.isfinite(log_discretized_logistic(*args).item())
        else:
            with pytest.raises(DomainError):
                log_discretized_logistic(*args)

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

    def test_bin_below_the_floor_is_exactly_the_floor(self):
        # the bin [1, 1 + 1/256) starts e^7 (about 1,100) scales above a mean
        # of 0: both CDFs round to 1, and their difference 0 is floored
        out = log_discretized_logistic(
            Tensor([1.0]), Tensor([0.0]), Tensor([-7.0]))
        assert out.item() == math.log(1e-7)
        assert dist.PROB_FLOOR == 1e-7


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


def _unblocked_pairwise(z, mean, log_var, g):
    """The pairwise density and its gradients as one (B, K, M) broadcast:
    the formula before blocking, kept as the bitwise reference."""
    precision = np.exp(-log_var)
    diff = z[:, None, :] - mean[None, :, :]
    terms = (log_var[None, :, :] + diff * diff * precision) + LOG_2PI
    out = (-0.5) * terms.sum(axis=-1)
    gw = g[:, :, None]
    weighted_diff = diff * precision
    g_z = -(gw * weighted_diff).sum(axis=1)
    g_mean = (gw * weighted_diff).sum(axis=0)
    g_log_var = (gw * (-0.5 * (1.0 - diff * diff * precision))).sum(axis=0)
    return out, g_z, g_mean, g_log_var


class TestBlockedPairwise:
    M = 40

    @staticmethod
    def _blocked(z, mean, log_var, g):
        with Graph():
            out = dist.log_normal_diag_pairwise(
                Tensor(z, requires_grad=True),
                DiagGaussian(Tensor(mean, requires_grad=True),
                             Tensor(log_var, requires_grad=True)))
            return (out.data, *out.node.grad_fn(g))

    @pytest.mark.parametrize("k", [1, 3, 500])
    @pytest.mark.parametrize("b_offset", ["one", -1, 0, 1, "101"])
    def test_forward_and_gradients_match_the_unblocked_formula(self, k,
                                                               b_offset):
        rows = dist.pairwise_block_rows(k, self.M)
        b = {"one": 1, "101": 101}.get(b_offset) or rows + b_offset
        rng = np.random.default_rng(1000 + k + b)
        z = rng.standard_normal((b, self.M))
        mean = rng.standard_normal((k, self.M))
        log_var = rng.uniform(-2.0, 2.0, (k, self.M))
        g = rng.standard_normal((b, k))
        got = self._blocked(z, mean, log_var, g)
        for a, w in zip(got, _unblocked_pairwise(z, mean, log_var, g)):
            assert_same_bits(a, w)

    def test_signed_zeros_in_the_gradients_match(self):
        # a zero upstream gradient makes every term of a sum a signed zero
        k = 500
        b = 2 * dist.pairwise_block_rows(k, self.M) + 1
        rng = np.random.default_rng(7)
        z = rng.standard_normal((b, self.M))
        mean = z[0] + 1.0 + rng.uniform(0.0, 1.0, (k, self.M))
        log_var = rng.uniform(-1.0, 1.0, (k, self.M))
        g = rng.standard_normal((b, k))
        g[:, :3] = 0.0
        g[4] = 0.0
        got = self._blocked(z, mean, log_var, g)
        want = _unblocked_pairwise(z, mean, log_var, g)
        assert np.signbit(want[1][4]).all()
        for a, w in zip(got, want):
            assert_same_bits(a, w)

    def test_block_rows_follow_the_byte_budget(self):
        assert dist.pairwise_block_rows(500, 40) * 500 * 40 * 8 \
            <= dist.PAIRWISE_BLOCK_BYTES
        assert dist.pairwise_block_rows(10**6, 40) == 1

    def test_empty_batch(self):
        mean, log_var = np.zeros((3, 2)), np.zeros((3, 2))
        out, g_z, g_mean, g_log_var = self._blocked(
            np.zeros((0, 2)), mean, log_var, np.zeros((0, 3)))
        assert out.shape == (0, 3) and g_z.shape == (0, 2)
        np.testing.assert_array_equal(g_mean, np.zeros((3, 2)))
        np.testing.assert_array_equal(g_log_var, np.zeros((3, 2)))


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
