"""A property-based differential test of `Branch` and `on_final`.

Hypothesis draws small tapes: leaves, up to three branches over them, and
ops on the main tape that read the same leaves. Each tape runs three ways:
as a single tape with no branch, branched on one CPU (the helper refuses
every replay) and branched on two (the helper replays them). All three must
give every leaf the same gradient bytes, and pass each leaf that received a
gradient to `on_final` exactly once, holding its final gradient.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vampvae import autodiff as ad
from vampvae import helper as hp
from vampvae.autodiff import Branch, Graph, Tensor, backward

LEAVES = 4
SHAPE = (2, 3)

OPS = st.sampled_from(["add", "mul"])
MAIN = st.tuples(st.just("main"), st.integers(0, LEAVES - 1), OPS)
BRANCH = st.tuples(st.just("branch"),
                   st.lists(st.tuples(st.integers(0, LEAVES - 1), OPS),
                            min_size=1, max_size=3),
                   st.integers(1, 2))


@st.composite
def tapes(draw):
    """Steps in tape order, each a main op on a leaf or a branch of ops on
    leaves with one or two outputs; at most three branches."""
    steps = draw(st.lists(st.one_of(MAIN, BRANCH), min_size=1, max_size=6))
    kept, branches = [], 0
    for step in steps:
        if step[0] == "branch":
            branches += 1
            if branches > 3:
                continue
        kept.append(step)
    return kept


def _apply(op, a, b):
    return ad.add(a, b) if op == "add" else ad.mul(a, b)


def _branch_fn(leaves, chain, outputs):
    def fn():
        (first, _), rest = chain[0], chain[1:]
        h = leaves[first] * 0.5
        for leaf, op in rest:
            h = _apply(op, h, leaves[leaf])
        s = ad.sigmoid(h)
        return (s, ad.exp(h * 0.25)) if outputs == 2 else (s,)
    return fn


def run(steps, seed, branched):
    """Record and replay the tape; the leaves, and the leaves `on_final`
    received in order, each with the gradient bytes it held then."""
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.standard_normal(SHAPE), requires_grad=True)
              for _ in range(LEAVES)]
    finals = []
    with Graph() as graph:
        graph.on_final = lambda t: finals.append((t, t.grad.tobytes()))
        acc = None
        for step in steps:
            if step[0] == "main":
                _, leaf, op = step
                term = ad.square(leaves[leaf])
                acc = term if acc is None else _apply(op, acc, term)
                continue
            fn = _branch_fn(leaves, *step[1:])
            for out in (Branch(fn).outputs if branched else fn()):
                acc = out if acc is None else _apply("mul", acc, out)
        backward(acc.sum())
    return leaves, finals


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(tapes(), st.integers(0, 2**16))
def test_branches_match_the_single_tape_on_any_cpu_count(steps, seed):
    runs = [run(steps, seed, branched=False)]
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hp, "usable_cpus", lambda: cpus)
            runs.append(run(steps, seed, branched=True))
    grads = [[None if t.grad is None else t.grad.tobytes() for t in leaves]
             for leaves, _ in runs]
    assert grads[1] == grads[0] and grads[2] == grads[0]
    for leaves, finals in runs:
        passed = [leaves.index(leaf) for leaf, _ in finals]
        assert sorted(passed) == [i for i, t in enumerate(leaves)
                                  if t.grad is not None]
        for leaf, held in finals:
            assert held == leaf.grad.tobytes()
