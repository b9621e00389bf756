"""Tests of autodiff branches: a computation on leaves recorded on a graph
of its own, joined into the main tape and replayed on the helper thread
beside the main replay with the single tape's bytes; and of the graph's
`on_final` hook."""

import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from helpers import assert_same_bits
from vampvae import autodiff as ad
from vampvae import helper as hp
from vampvae.autodiff import Branch, Graph, Tensor, backward
from vampvae.errors import ContractError, NumericError
from vampvae.priors import VampPrior
from vampvae.training import objective, validation_elbo

from test_models import tiny_model


# every test runs as on one usable CPU, where the helper refuses the
# branches and `backward` replays them itself, and as on two, where the
# helper replays them
pytestmark = pytest.mark.usefixtures("cpus")


def _replay_thread(cpus):
    return threading.current_thread() if cpus == 1 else hp.helper._thread


def _tap(a, log, name):
    """Identity on `a` whose rule logs, with its thread, when it has
    finished: a generator rule runs its `finally` when `backward` drops
    it."""
    def grad_fn(g):
        try:
            yield g * 1.0
        finally:
            log.append(("done", name, threading.current_thread()))

    return ad.apply_op("tap", a.data.copy(), (a,), grad_fn)


class _Case:
    """A leaf `w` reached by the main tape and by two branches (three
    contributions, as two samples give a shared encoder), and a leaf `p`
    only the branches reach."""

    def __init__(self):
        rng = np.random.default_rng(3)
        self.w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        self.p = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        self.x = Tensor(rng.standard_normal((3, 4)))
        self.log = []

    def branch_fn(self, name):
        def fn():
            h = ad.sigmoid(_tap(self.w, self.log, name) * self.p)
            return h, ad.exp(h * 0.5)
        return fn

    def run(self, branched, on_final=None):
        with Graph() as graph:
            graph.on_final = on_final
            main = _tap(self.w, self.log, "main") * self.x
            parts = [Branch(self.branch_fn(n)).outputs if branched
                     else self.branch_fn(n)() for n in ("b1", "b2")]
            (a1, b1), (a2, b2) = parts
            backward((main * a1 + b1 * a2 - b2).sum())
        return self.w.grad, self.p.grad

    def threads(self):
        return {name: thread for _, name, thread in
                (e for e in self.log if e[0] == "done")}


class TestBranch:
    def test_same_bits_as_the_single_tape(self, cpus):
        want = _Case().run(branched=False)
        case = _Case()
        got = case.run(branched=True)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        threads = case.threads()
        assert threads["main"] is threading.current_thread()
        assert threads["b1"] is threads["b2"] is _replay_thread(cpus)

    def test_on_final_once_per_leaf_after_its_last_add_and_rule(self):
        want = dict(zip("wp", _Case().run(branched=False)))
        case = _Case()
        seen = Counter()

        def on_final(leaf):
            name = "w" if leaf is case.w else "p"
            seen[name] += 1
            assert threading.current_thread() is threading.main_thread()
            assert_same_bits(leaf.grad, want[name])
            case.log.append(("final", name))

        case.run(branched=True, on_final=on_final)
        assert seen == {"w": 1, "p": 1}
        log = [e[:2] for e in case.log]
        # every rule that delivers to w has finished before w is final
        assert log.index(("final", "w")) > max(
            log.index(("done", n)) for n in ("main", "b1", "b2"))
        assert log.index(("final", "p")) > max(
            log.index(("done", n)) for n in ("b1", "b2"))

    def test_without_a_branch_leaves_pass_once_final(self):
        case = _Case()
        case.run(branched=False, on_final=lambda leaf: case.log.append(
            ("final", "w" if leaf is case.w else "p")))
        log = [e[:2] for e in case.log]
        # each leaf right after the node nearest the tape's start that lists
        # it: p after b1's product, before b1's tap has finished
        assert log == [("done", "b2"), ("final", "p"), ("done", "b1"),
                       ("done", "main"), ("final", "w")]

    def test_many_branches_under_frequent_thread_switches(self):
        # eight branches and the main tape add into one leaf; a lost or
        # reordered add would change its bits
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((40, 30)), requires_grad=True)
        x = Tensor(rng.standard_normal((40, 30)))

        def fn():
            return (ad.sigmoid(w * x),)

        def run(branched):
            w.zero_grad()
            with Graph():
                total = ad.exp(w * 0.1)
                for i in range(8):
                    (out,) = Branch(fn).outputs if branched else fn()
                    total = total + out * float(i + 1)
                backward(total.sum())
            return w.grad

        want = run(branched=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert_same_bits(run(branched=True), want)
        finally:
            sys.setswitchinterval(interval)

    def test_on_final_skips_a_leaf_no_gradient_reached(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([3.0], requires_grad=True)
        finals = []
        with Graph() as graph:
            graph.on_final = finals.append
            _ = unused * 2.0
            (a,) = Branch(lambda: (w * 1.0,)).outputs
            backward((a * w).sum())
        assert finals == [w] and unused.grad is None

    def test_join_records_one_node_per_output_that_takes_a_gradient(
            self, cpus):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as graph:
            branch = Branch(lambda: (w * 2.0, Tensor([5.0, 5.0])))
            a, c = branch.outputs
            assert [n.op for n in graph.nodes] == ["join"]
            assert [n.op for n in branch.graph.nodes] == ["mul"]
            assert a.node is graph.nodes[0] and c.node is None
            assert not [v for v in _closure(a.node.grad_fn)
                        if isinstance(v, Tensor)]
            backward((a * c).sum())
            # the helper's replay is done when backward returns
            assert branch.task.done() if cpus == 2 else branch.task is None
        np.testing.assert_array_equal(w.grad, [10.0, 10.0])
        assert branch.graph.nodes == []

    def test_a_branch_is_recorded_inside_a_graph(self):
        with pytest.raises(ContractError, match="inside a Graph"):
            Branch(lambda: ())

    def test_a_branch_reads_only_leaves(self):
        w = Tensor([1.0], requires_grad=True)
        with Graph():
            h = w * 2.0
            with pytest.raises(ContractError, match="recorded on no graph"):
                Branch(lambda: (h * 3.0,))
            with pytest.raises(ContractError, match="recorded on no graph"):
                Branch(lambda: (h,))
            assert ad._graph_stack()[-1] is h.node.graph


def _closure(fn):
    return [cell.cell_contents for cell in fn.__closure__ or ()]


def _next_step_is_normal(w):
    assert ad._graph_stack() == []
    w.zero_grad()
    with Graph() as graph:
        (a,) = Branch(lambda: (w * w,)).outputs
        backward(a.sum())
        assert graph.branches
    np.testing.assert_array_equal(w.grad, 2.0 * w.data)


class TestBranchFailures:
    def test_a_numeric_error_in_a_branch_names_its_op(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(NumericError, match="operation 'exp'"):
            with Graph() as graph:
                Branch(lambda: (ad.exp(w * 1000.0),))
        assert graph.nodes == [] and graph.branches == []
        _next_step_is_normal(w)

    def test_an_error_in_a_branch_replay_is_raised_by_backward(self, cpus):
        w = Tensor([1.0, 2.0], requires_grad=True)

        def failing_rule(g):
            assert threading.current_thread() is _replay_thread(cpus)
            raise NumericError("operation 'fail': the rule raised")

        with pytest.raises(NumericError, match="operation 'fail'"):
            with Graph():
                (a,) = Branch(lambda: (ad.apply_op(
                    "fail", w.data * 2.0, (w,), failing_rule),)).outputs
                backward(a.sum())
        _next_step_is_normal(w)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_leaving_the_block_during_a_branch_releases_it(self, error):
        w = Tensor([1.0, 2.0], requires_grad=True)
        recorded = []

        def interrupted():
            recorded.append(ad.exp(w))
            raise error

        with pytest.raises(error):
            with Graph() as graph:
                done = Branch(lambda: (w * 2.0,))
                Branch(interrupted)
        # both branch tapes are released, the failed one's too
        assert done.graph.nodes == [] and recorded[0].node is None
        assert graph.nodes == [] and graph.branches == []
        _next_step_is_normal(w)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_during_the_replay_ends_the_branches(self, error,
                                                           cpus):
        w = Tensor([1.0, 2.0], requires_grad=True)

        def slow_rule(g):
            time.sleep(0.2)
            return (g,)

        def failing_rule(g):
            raise error

        with pytest.raises(error):
            with Graph():
                # replayed after both joins, while the branches replay
                early = ad.apply_op("fail", w.data.copy(), (w,),
                                    failing_rule)
                # the older branch's replay queues behind the newer one's
                (b,) = Branch(lambda: (ad.apply_op(
                    "slow", w.data * 3.0, (w,), slow_rule),)).outputs
                (a,) = Branch(lambda: (ad.apply_op(
                    "slow", w.data * 2.0, (w,), slow_rule),)).outputs
                backward((early + b + a).sum())
        # on the helper, the running replay was waited for and the queued
        # one never ran; one CPU replays both before the failing rule
        np.testing.assert_array_equal(w.grad, [{1: 2.0, 2: 1.0}[cpus]] * 2)
        _next_step_is_normal(w)


class TestModelBranches:
    """A mixture-of-posteriors prior re-encodes its pseudo-inputs on a
    branch per sample; with two samples the top encoder's parameters sum
    three contributions (two branches, then the batch)."""

    @pytest.mark.parametrize("levels,prior", [(1, "vamp"), (2, "vamp"),
                                              (2, "weighted-vamp"),
                                              (2, "vamp-data")])
    def test_each_parameter_is_final_once_with_the_single_tape_gradient(
            self, levels, prior, monkeypatch):
        x = np.random.default_rng(2).integers(0, 2, (5, 4)).astype(float)
        model = tiny_model(levels, prior, seed=3)
        params = model.parameters()
        names = {p: k for k, p in params.items()}

        def gradients(on_final=None):
            for p in params.values():
                p.zero_grad()
            with Graph() as graph:
                graph.on_final = on_final
                loss = objective(x, model, 1.0, np.random.default_rng(4), 2)
                branches = len(graph.branches)
                backward(loss)
            return branches, {k: p.grad for k, p in params.items()
                              if p.grad is not None}

        with monkeypatch.context() as m:
            m.setattr(VampPrior, "_recorded_components",
                      VampPrior.components)
            branches, want = gradients()
            assert branches == 0
        seen = Counter()

        def on_final(leaf):
            seen[names[leaf]] += 1
            assert_same_bits(leaf.grad, want[names[leaf]])

        branches, got = gradients(on_final)
        assert branches == 2
        assert seen == Counter(set(want)) == Counter(set(got))
        for k in want:
            assert_same_bits(got[k], want[k])

    def test_only_a_recorded_pass_of_a_vamp_prior_branches(self,
                                                            monkeypatch):
        x = np.random.default_rng(2).integers(0, 2, (5, 4)).astype(float)
        started = []

        def counted(fn):
            started.append(1)
            return Branch(fn)

        monkeypatch.setattr(ad, "Branch", counted)
        counts = {}
        for prior in ("sg", "mog", "vamp"):
            model = tiny_model(2, prior, seed=3)
            with Graph():
                objective(x, model, 1.0, np.random.default_rng(4))
            counts[prior] = len(started)
            model.forward(x, np.random.default_rng(4))
            validation_elbo(model, x, np.random.default_rng(5))
        assert counts == {"sg": 0, "mog": 0, "vamp": 1}
        assert len(started) == 1
