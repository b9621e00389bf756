"""Tests for the reverse-mode autodiff core."""

import gc
import math
import types
import weakref

import numpy as np
import pytest

from helpers import (
    arriving_grads,
    assert_same_bits,
    assert_same_run,
    unfused_affine,
    unfused_gated_dense,
    unfused_log_normal_diag,
)
from vampvae import autodiff as ad
from vampvae import distributions
from vampvae.autodiff import Graph, Tensor, backward, concat, grad_check
from vampvae.errors import ContractError, DimensionError, NumericError


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestForwardValues:
    def test_sigmoid_symmetry(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_logsumexp_two_zeros(self):
        assert Tensor([0.0, 0.0]).logsumexp().item() == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_logsumexp_shift_invariant_and_overflow_safe(self):
        v = Tensor([1000.0, 1000.0])
        out = v.logsumexp().item()
        assert math.isfinite(out)
        assert out == pytest.approx(1000.0 + math.log(2.0), rel=1e-12)

    def test_logsumexp_matches_scipy_form(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6))
        got = Tensor(x).logsumexp(axis=1).data
        m = x.max(axis=1, keepdims=True)
        want = (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).squeeze(1)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_logsumexp_constant_shift(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(9)
        base = Tensor(x).logsumexp().item()
        shifted = Tensor(x + 7.25).logsumexp().item()
        assert shifted - 7.25 == pytest.approx(base, rel=1e-12)

    def test_logsumexp_permutation_exact(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(11)
        perm = rng.permutation(11)
        assert Tensor(x).logsumexp().item() == Tensor(x[perm]).logsumexp().item()

    def test_softplus_overflow_safe(self):
        out = ad.softplus(Tensor([800.0, -800.0])).data
        assert out[0] == 800.0
        assert out[1] == 0.0

    def test_matmul_shape_error(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_broadcast_rule_rejects_middle_broadcast(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.ones((4, 1, 3))), Tensor(np.ones((4, 2, 3))))

    def test_leading_broadcast_add(self):
        out = ad.add(Tensor(np.zeros((5, 3))), Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_log_of_negative_raises_numeric(self):
        with pytest.raises(NumericError):
            ad.log(Tensor([-1.0]))

    def test_exp_overflow_raises_numeric(self):
        with pytest.raises(NumericError):
            ad.exp(Tensor([1e4]))

    def test_tensor_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])


class TestBackward:
    def test_quadratic(self):
        with Graph():
            w = Tensor([1.0, 2.0], requires_grad=True)
            backward((w * w).sum())
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_logsumexp_equal_entries(self):
        with Graph():
            v = Tensor([0.0, 0.0], requires_grad=True)
            backward(v.logsumexp())
        np.testing.assert_allclose(v.grad, [0.5, 0.5], rtol=1e-14)

    def test_fanout_accumulates_both_paths(self):
        # f = g(w) + h(w) with g = sum(w^2), h = sum(3 w)
        with Graph():
            w = Tensor([1.0, -2.0], requires_grad=True)
            f = (w * w).sum() + (3.0 * w).sum()
            backward(f)
        np.testing.assert_allclose(w.grad, [2 * 1 + 3, 2 * -2 + 3], rtol=1e-14)

    def test_non_scalar_root_rejected(self):
        with Graph():
            w = Tensor([1.0, 2.0], requires_grad=True)
            y = w * w
            with pytest.raises(ContractError):
                backward(y)

    def test_root_outside_graph_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        y = (w * w).sum()  # no active graph: nothing recorded
        with pytest.raises(ContractError):
            backward(y)

    def test_no_recording_without_graph(self):
        w = Tensor([1.0], requires_grad=True)
        y = w * w
        assert y.node is None and not y.requires_grad

    def test_grad_accumulates_across_calls(self):
        w = Tensor([2.0], requires_grad=True)
        for _ in range(2):
            with Graph():
                backward((w * w).sum())
        np.testing.assert_array_equal(w.grad, [8.0])


class TestTapeRelease:
    def test_tape_is_freed_without_the_cyclic_collector(self):
        gc.disable()
        try:
            w = Tensor([1.0, 2.0], requires_grad=True)
            with Graph() as graph:
                loss = (w * w).sum()
                first = weakref.ref(graph.nodes[0])
                last = weakref.ref(loss.node)
                backward(loss)
            assert first() is None and last() is None
            assert graph.nodes == [] and loss.node is None
        finally:
            gc.enable()
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])
        assert loss.item() == 5.0

    def test_backward_after_the_block_is_a_contract_error(self):
        w = Tensor([1.0], requires_grad=True)
        with Graph():
            loss = (w * w).sum()
        with pytest.raises(ContractError):
            backward(loss)


class TestTapeKeepsOnlyWhatBackwardReads:
    def test_an_array_no_gradient_reads_dies_with_its_tensor(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 3)))
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        gc.disable()
        try:
            with Graph():
                h = x @ w
                y = ad.sigmoid(h + b).sum()
                h_data = weakref.ref(h.data)
                del h
                assert h_data() is None
                backward(y)
        finally:
            gc.enable()
        assert w.grad is not None and b.grad is not None

    def test_backward_consumes_every_replayed_node(self):
        w = Tensor([0.5, -1.0], requires_grad=True)
        with Graph() as graph:
            loss = (ad.exp(w * w) + w).sum()
            nodes = list(graph.nodes)
            backward(loss)
            assert nodes and all(n.grad_fn is None for n in nodes)

    def test_second_backward_on_the_same_tape_is_a_contract_error(self):
        w = Tensor([0.5, -1.0], requires_grad=True)
        with Graph():
            loss = (w * w).sum()
            backward(loss)
            with pytest.raises(ContractError):
                backward(loss)
        np.testing.assert_array_equal(w.grad, [1.0, -2.0])

    def test_output_of_an_outer_graph_is_a_leaf_of_the_inner_one(self):
        w = Tensor([2.0, 3.0], requires_grad=True)
        with Graph():
            h = w * w
            with Graph():
                backward((h * 3.0).sum())
        np.testing.assert_array_equal(h.grad, [3.0, 3.0])
        assert w.grad is None


def _recording_ops():
    """Every function of `autodiff` and `distributions` that records a node
    (the ops and the fused densities), found as the benchmark tracer finds
    them."""
    return {name: fn for module in (ad, distributions)
            for name, fn in vars(module).items()
            if isinstance(fn, types.FunctionType)
            and fn.__module__ == module.__name__ and fn is not ad.apply_op
            and "apply_op" in fn.__code__.co_names}


# one call per recording op on (3, 4) operands that require grad
OP_CALLS = {
    "add": lambda f, a, r: f(a, r),
    "sub": lambda f, a, r: f(a, r),
    "mul": lambda f, a, r: f(a, r),
    "neg": lambda f, a, r: f(a),
    "matmul": lambda f, a, r: f(a, ad.reshape(r, (4, 1)), r.slice(0, 0, 1)),
    "sigmoid": lambda f, a, r: f(a),
    "softplus": lambda f, a, r: f(a),
    "exp": lambda f, a, r: f(a),
    "log": lambda f, a, r: f(a),
    "square": lambda f, a, r: f(a),
    "clip": lambda f, a, r: f(a, 0.7, 1.2),
    "tensor_sum": lambda f, a, r: f(a, 1),
    "tensor_mean": lambda f, a, r: f(a, 0),
    "logsumexp": lambda f, a, r: f(a, 1),
    "reshape": lambda f, a, r: f(a, (4, 3)),
    "narrow": lambda f, a, r: f(a, 1, 1, 3),
    "concat": lambda f, a, r: f([a, a], 0),
    "gated_dense": lambda f, a, r: f(
        a, ad.reshape(r, (4, 1)), r.slice(0, 0, 1),
        ad.reshape(r * 0.5, (4, 1)), r.slice(0, 1, 2)),
    "log_normal_diag": lambda f, a, r: f(
        a, distributions.DiagGaussian(r * 0.5, r * 0.1)),
    "log_normal_diag_pairwise": lambda f, a, r: f(
        a, distributions.DiagGaussian(a * 0.5, a * 0.1)),
    "log_bernoulli": lambda f, a, r: f(Tensor(a.data * 0.5), a),
}


def _captured(fn) -> list:
    """Every value `fn`'s closure holds, with the items of captured tuples
    and lists, and what the closures of captured functions hold in turn."""
    captured = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        captured.append(value)
        if isinstance(value, (list, tuple)):
            captured.extend(value)
        elif isinstance(value, types.FunctionType):
            captured.extend(_captured(value))
    return captured


class TestClosureContract:
    """A `grad_fn` captures arrays and shapes, never a Tensor: a captured
    tensor would keep its array, its node and the node's parents alive for
    as long as the tape. A rule built from shared rules, such as
    `_affine_grads`, is checked through them."""

    def test_every_recording_op_has_a_call(self):
        assert set(_recording_ops()) == set(OP_CALLS)

    @pytest.mark.parametrize("name", sorted(OP_CALLS))
    def test_grad_fn_captures_no_tensor(self, name):
        rng = np.random.default_rng(11)
        a = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
        r = Tensor(rng.random(4) + 0.5, requires_grad=True)
        with Graph():
            out = OP_CALLS[name](_recording_ops()[name], a, r)
            assert out.node is not None
            captured = _captured(out.node.grad_fn)
        assert not [v for v in captured if isinstance(v, Tensor)]

    def test_the_walk_reaches_a_tensor_in_a_nested_closure(self):
        t = Tensor(np.ones(2))

        def inner(g):
            return g * t.data

        def outer(g):
            return (inner(g),)

        assert any(v is t for v in _captured(outer))


def _layer_arrays(rng, rows, fan_in=9, width=5, gated=True):
    """x, then (w, b) once for a biased `matmul` or twice for `gated_dense`."""
    arrays = [rng.standard_normal((rows, fan_in))]
    for _ in range(2 if gated else 1):
        arrays += [rng.standard_normal((fan_in, width)),
                   rng.standard_normal(width)]
    return arrays


FUSED_LAYERS = [(ad.matmul, unfused_affine, False),
                (ad.gated_dense, unfused_gated_dense, True)]


@pytest.mark.parametrize("fused,chain,gated", FUSED_LAYERS,
                         ids=["affine", "gated_dense"])
class TestFusedLayers:
    """The affine map (a biased `matmul`) and `gated_dense` are one node
    each, with the bits of the op chain each replaced (kept in `helpers`):
    the value and the gradient every input receives, the sign of zeros
    included."""

    @staticmethod
    def _assert_matches_chain(fused, chain, arrays, g, requires=None):
        assert_same_run(arriving_grads(fused, arrays, g, requires),
                        arriving_grads(chain, arrays, g, requires))

    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_forward_and_gradients_match_the_op_chain(self, fused, chain,
                                                      gated, rows):
        rng = np.random.default_rng(40 + rows)
        arrays = _layer_arrays(rng, rows, gated=gated)
        self._assert_matches_chain(fused, chain, arrays,
                                   rng.standard_normal((rows, 5)))

    def test_zero_gradients_match_bit_for_bit(self, fused, chain, gated):
        # the layers' gradients are products and sums, which give +0.0 here;
        # the bitwise comparison would see a -0.0
        rng = np.random.default_rng(47)
        arrays = _layer_arrays(rng, 6, gated=gated)
        arrays[0][:, 0] = -0.0
        arrays[0][1] = 0.0
        g = rng.standard_normal((6, 5))
        g[2], g[:, 4] = 0.0, -0.0
        want = arriving_grads(chain, arrays, g)
        assert all((grad == 0.0).any() for grad in want[1])
        self._assert_matches_chain(fused, chain, arrays, g)

    def test_data_operand_gets_none(self, fused, chain, gated):
        rng = np.random.default_rng(48)
        arrays = _layer_arrays(rng, 4, gated=gated)
        requires = [False] + [True] * (len(arrays) - 1)
        self._assert_matches_chain(fused, chain, arrays,
                                   rng.standard_normal((4, 5)), requires)

    def test_one_node_listing_its_inputs_in_chain_order(self, fused, chain,
                                                        gated):
        rng = np.random.default_rng(49)
        x, *params = (Tensor(a, requires_grad=True)
                      for a in _layer_arrays(rng, 3, gated=gated))
        if gated:
            w1, b1, w2, b2 = params
            want = (b2, x, w2, b1, x, w1)
        else:
            w, b = params
            want = (b, x, w)
        with Graph() as graph:
            out = fused(x, *params)
            assert graph.nodes == [out.node]
            assert out.node.parents == want

    def test_shape_errors(self, fused, chain, gated):
        rng = np.random.default_rng(50)
        x, *params = (Tensor(a) for a in _layer_arrays(rng, 3, gated=gated))
        with pytest.raises(DimensionError):
            fused(Tensor(np.ones((3, 8))), *params)
        with pytest.raises(DimensionError):
            fused(x, *(Tensor(np.ones(4)) if t.ndim == 1 else t
                       for t in params))


class TestGatedDenseScreen:
    """Both pre-activations pass the finiteness screen: the sigmoid maps an
    infinite gate input to 0 or 1 and would hide the overflow."""

    @pytest.mark.parametrize("half", ["gate", "linear"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pre_activation_overflow_raises_numeric(self, half, sign):
        x = Tensor(np.full((2, 3), 1e200))
        small, huge = np.ones((3, 4)), np.full((3, 4), sign * 1e200)
        w1, w2 = (small, huge) if half == "gate" else (huge, small)
        b = Tensor(np.zeros(4))
        # numpy's own overflow warning on the product is not the subject
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="gated_dense"):
                ad.gated_dense(x, Tensor(w1), b, Tensor(w2), b)
            with pytest.raises(NumericError):
                unfused_gated_dense(x, Tensor(w1), b, Tensor(w2), b)


class TestFusedSharedInput:
    """A z that feeds two gated layers and a density (as z2 feeds several
    consumers in the two-level model) sums the fused nodes' partials in the
    chains' order, so it and every leaf get the chains' bits."""

    @staticmethod
    def _objective(gated, density):
        def f(z, w1, b1, w2, b2, v1, c1, v2, c2, mean, log_var):
            first = gated(z, w1, b1, w2, b2)
            second = gated(first, v1, c1, v2, c2)
            again = gated(z, v1, c1, v2, c2)
            p = distributions.DiagGaussian(mean, log_var)
            return (ad.add(second, again).sum(axis=1)
                    + density(z, p) * 0.3)
        return f

    def _arrays(self):
        rng = np.random.default_rng(51)
        return [rng.standard_normal((6, 5))] + [
            rng.standard_normal(shape)
            for shape in [(5, 5), 5, (5, 5), 5] * 2] + [
            rng.standard_normal((6, 5)), rng.uniform(-2.0, 2.0, (6, 5))]

    def test_partials_arrive_with_the_chain_bits(self):
        arrays = self._arrays()
        g = np.random.default_rng(52).standard_normal(6)
        fused = self._objective(ad.gated_dense, distributions.log_normal_diag)
        chain = self._objective(unfused_gated_dense, unfused_log_normal_diag)
        assert_same_run(arriving_grads(fused, arrays, g),
                        arriving_grads(chain, arrays, g))

    def test_leaf_gradients_match(self):
        arrays = self._arrays()
        grads = []
        for gated, density in [
                (ad.gated_dense, distributions.log_normal_diag),
                (unfused_gated_dense, unfused_log_normal_diag)]:
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            with Graph():
                backward(self._objective(gated, density)(*leaves).sum())
            grads.append([t.grad for t in leaves])
        for got, want in zip(*grads):
            assert_same_bits(got, want)


UNARY_OPS = [
    ("sigmoid", ad.sigmoid, None),
    ("softplus", ad.softplus, None),
    ("exp", ad.exp, None),
    ("square", ad.square, None),
    ("neg", ad.neg, None),
    ("log", ad.log, "positive"),
]


class TestPerOpGradients:
    """Per-op finite-difference checks: pure ops must hit < 1e-7."""

    @pytest.mark.parametrize("name,fn,domain", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
    def test_unary(self, name, fn, domain):
        rng = np.random.default_rng(hash(name) % 2**32)
        x = rng.standard_normal((3, 4)) * 0.8
        if domain == "positive":
            x = np.abs(x) + 0.5
        p = Tensor(x, requires_grad=True)
        err = grad_check(lambda ps: fn(ps[0]).sum(), [p])
        assert err < 1e-7

    @pytest.mark.parametrize("name,fn", [
        ("add", ad.add), ("sub", ad.sub), ("mul", ad.mul)],
        ids=["add", "sub", "mul"])
    def test_binary_same_shape(self, name, fn):
        rng = np.random.default_rng(7)
        a, b = _rand(rng, 2, 3), _rand(rng, 2, 3)
        err = grad_check(lambda ps: fn(ps[0], ps[1]).sum(), [a, b])
        assert err < 1e-7

    @pytest.mark.parametrize("name,fn", [
        ("add", ad.add), ("sub", ad.sub), ("mul", ad.mul)],
        ids=["add", "sub", "mul"])
    def test_binary_leading_broadcast(self, name, fn):
        rng = np.random.default_rng(8)
        a, b = _rand(rng, 4, 3), _rand(rng, 3)
        err = grad_check(lambda ps: (fn(ps[0], ps[1]) * 0.5).sum(), [a, b])
        assert err < 1e-7

    def test_matmul(self):
        rng = np.random.default_rng(9)
        a, b = _rand(rng, 3, 4), _rand(rng, 4, 2)
        err = grad_check(lambda ps: (ps[0] @ ps[1]).square().sum(), [a, b])
        assert err < 1e-7

    def test_reductions(self):
        rng = np.random.default_rng(11)
        a = _rand(rng, 3, 5)
        for target in (lambda p: p.sum(axis=1).square().sum(),
                       lambda p: p.mean(axis=0).square().sum(),
                       lambda p: p.logsumexp(axis=1).sum(),
                       lambda p: p.logsumexp()):
            err = grad_check(lambda ps: target(ps[0]), [a])
            assert err < 1e-7

    def test_slice_concat_reshape(self):
        rng = np.random.default_rng(12)
        a, b = _rand(rng, 3, 4), _rand(rng, 3, 2)

        def f(ps):
            left = ps[0].slice(1, 0, 2)
            joined = concat([left, ps[1]], axis=1)
            return joined.reshape((12,)).square().sum()

        assert grad_check(f, [a, b]) < 1e-7

    def test_clip_away_from_kinks(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.uniform(-0.5, 0.5, size=(4,)), requires_grad=True)
        err = grad_check(lambda ps: ps[0].clip(-1.0, 1.0).square().sum(), [a])
        assert err < 1e-7

    def test_clip_blocks_gradient_outside(self):
        with Graph():
            a = Tensor([-3.0, 0.0, 3.0], requires_grad=True)
            backward(a.clip(-1.0, 1.0).sum())
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])


def _gated_mlp_scalar(params):
    """3-layer gated MLP ending in a scalar, for composition checks."""
    x, w1, b1, g1, c1, w2, b2, g2, c2, w3, b3 = params
    h = (x @ w1 + b1) * ad.sigmoid(x @ g1 + c1)
    h = (h @ w2 + b2) * ad.sigmoid(h @ g2 + c2)
    return ad.softplus(h @ w3 + b3).sum()


class TestMatmulOperandGradients:
    """`matmul` computes no gradient for an operand that does not require
    one; the other operand's gradient keeps its bits."""

    def test_data_operand_gets_none(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((6, 4)))
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        g = rng.standard_normal((6, 3))
        with Graph():
            out = x @ w
            gx, gw = out.node.grad_fn(g)
        assert gx is None
        np.testing.assert_array_equal(gw.view(np.int64),
                                      (x.data.T @ g).view(np.int64))
        with Graph():
            out = w @ Tensor(rng.standard_normal((3, 6)))
            gw, gy = out.node.grad_fn(rng.standard_normal((4, 6)))
        assert gw is not None and gy is None

    @pytest.mark.parametrize("biased", [False, True])
    def test_rule_returns_its_gradients_at_once(self, biased):
        # a rule that yields would be timed, by a caller that times only
        # the call, as the creation of a generator
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        bias = Tensor(rng.standard_normal(3), requires_grad=True) \
            if biased else None
        with Graph():
            out = ad.matmul(x, w, bias)
            grads = out.node.grad_fn(rng.standard_normal((6, 3)))
        assert isinstance(grads, tuple) and len(grads) == 2 + biased
        assert all(isinstance(gr, np.ndarray) for gr in grads)


class TestElementwiseOperandGradients:
    """`add`, `sub` and `mul` follow `matmul`'s rule: an operand without
    requires_grad gets None, and the other operand's gradient keeps its
    bits, a broadcast operand's reduction included."""

    @pytest.mark.parametrize("op,want", [
        (ad.add, lambda g, a, b: (g.sum(axis=0), g)),
        (ad.sub, lambda g, a, b: (g.sum(axis=0), -g)),
        (ad.mul, lambda g, a, b: ((g * b).sum(axis=0), g * a)),
    ], ids=["add", "sub", "mul"])
    def test_operand_without_grad_gets_none(self, op, want):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(4), rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 4))
        want_a, want_b = want(g, a, b)
        for a_grad in (True, False):
            with Graph():
                out = op(Tensor(a, requires_grad=a_grad),
                         Tensor(b, requires_grad=not a_grad))
                ga, gb = out.node.grad_fn(g)
            got, wanted = (ga, want_a) if a_grad else (gb, want_b)
            assert (gb if a_grad else ga) is None
            np.testing.assert_array_equal(got.view(np.int64),
                                          wanted.view(np.int64))


class TestCompositions:
    def test_gated_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        d, h1, h2 = 3, 4, 3
        params = [
            _rand(rng, 2, d),
            _rand(rng, d, h1), _rand(rng, h1), _rand(rng, d, h1), _rand(rng, h1),
            _rand(rng, h1, h2), _rand(rng, h2), _rand(rng, h1, h2), _rand(rng, h2),
            _rand(rng, h2, 1), _rand(rng, 1),
        ]
        assert grad_check(_gated_mlp_scalar, params) < 1e-5

    def test_quadratic_form_near_exact(self):
        rng = np.random.default_rng(22)
        a = _rand(rng, 4)
        err = grad_check(lambda ps: (ps[0] * ps[0]).sum(), [a])
        assert err < 1e-9


class TestGradCheckContract:
    def test_rejects_bad_step(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            grad_check(lambda ps: ps[0].sum(), [p], h=1e-2)

    def test_rejects_nondeterministic_target(self):
        p = Tensor([1.0], requires_grad=True)
        state = {"n": 0.0}

        def f(ps):
            state["n"] += 1.0
            return (ps[0] * state["n"]).sum()

        with pytest.raises(ContractError):
            grad_check(f, [p])

    def test_negative_control_detects_wrong_rule(self):
        # An op with a deliberately wrong backward rule must be flagged.
        def bad_square(t):
            return ad.apply_op("bad_square", t.data * t.data, (t,),
                             lambda g: (3.0 * t.data * g,))

        p = Tensor([1.3, -0.4], requires_grad=True)
        err = grad_check(lambda ps: bad_square(ps[0]).sum(), [p])
        assert err > 1e-2
