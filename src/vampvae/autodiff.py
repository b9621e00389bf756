"""Reverse-mode automatic differentiation over dense float64 tensors.

A `Graph` is a tape: operations executed inside a ``with Graph():`` block
append nodes in execution order, which is already a topological order.
`backward` replays the tape in reverse, accumulating gradients into leaf
tensors, so it must run inside the block.

The tape keeps only what the gradient rules read. A node refers to its
output weakly and to its inputs as parent nodes (or as the leaf tensors
that receive gradients), and each `grad_fn` captures arrays and shapes,
never tensors. An intermediate array no rule reads, such as the
``std * eps`` of a reparameterized sample before its mean is added, is
therefore freed as soon as the forward code drops its tensor. `backward`
consumes the tape: it drops each node's `grad_fn`, and with it the arrays
the rule captured, as it replays the node, so a second `backward` on the
same tape is a `ContractError`.
Leaving the block frees the rest: every recorded output drops its node,
which breaks the node -> graph -> nodes reference cycles, so reference
counting releases the tape at once instead of the cyclic collector some
time later.

A gradient rule returns one gradient (or None) per input, or yields them
one at a time in input order; `backward` adds each into its parent as it
arrives and drops it, so a rule that yields holds only the gradients it has
still to deliver. Besides the elementwise, reduction and shape ops, the
module records two fused layer nodes, each one node where the op chain it
replaces recorded several, with that chain's bytes (`distributions` fuses
its densities the same way):

- `matmul` with a bias (tag ``matmul``): ``x @ w + b``;
- `gated_dense` (tag ``gated_dense``): ``(x @ w1 + b1) * sigmoid(x @ w2 +
  b2)``.

A fused node lists an input once per use in the chain, in the order the
chain's reversed tape delivered gradients to it, so a parent shared with
other nodes sums its gradients in the chain's order, and with its bits.
Each formula a fused node shares with the ops it replaced is written once:
`_sigmoid_values` (the `sigmoid` op, `softplus`'s gradient, the gate of
`gated_dense` and the Bernoulli backward), `_softplus_values` (the
`softplus` op and the Bernoulli forward) and `_affine_grads`, the gradient
rule of every `matmul`, biased or not, and of each half of `gated_dense`.

A `Branch` is a computation on leaves only, such as a prior's re-encoding
of its pseudo-inputs, recorded on a graph of its own and joined into the
main tape where a single tape would have recorded it; `backward` replays
it on the package's one helper thread beside the rest of the main replay
(on the calling thread, where a process may use only one CPU).
`backward` orders every add into a leaf both reach as the single tape
would, so the bytes do not depend on the thread that computed them, and
it passes each leaf to the graph's `on_final` callback, when one is set,
once its gradient is complete (`training.step` applies Adam there).

The same helper also computes the pairwise Gaussian density of
`distributions` beside the rest of an unrecorded pass (see `priors`), when
it is idle: the density's row blocks are units of `_Claims`, offered to the
helper as soon as z is drawn, and the helper claims them one at a time
while the calling thread runs the rest of the pass. Where the density is
recorded, the caller claims the blocks left (`_Claims.finish`) and waits
only for the block the helper holds, so a helper whose core is busy
elsewhere costs at most one block. Every op stays on the calling thread;
the helper runs numpy calls only, and each row is computed by the same
calls as inline, so the bytes do not depend on which thread ran a block.
`training.step` claims its Adam updates the same way, each queued once
`backward` passes its parameter on as final. A process allowed one CPU
hands the helper nothing: the caller runs every unit and every branch
itself.

Broadcasting is deliberately narrow: two operands are compatible when their
shapes are equal or one shape is a trailing suffix of the other (the smaller
operand is repeated over the leading batch dimensions). Python scalars are
always accepted. Nothing wider is supported.
"""

from __future__ import annotations

import os
import queue
import threading
import weakref
from concurrent import futures
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray

_state = threading.local()


def _graph_stack() -> list["Graph"]:
    stack = getattr(_state, "graphs", None)
    if stack is None:
        stack = []
        _state.graphs = stack
    return stack


def _active_graph() -> "Graph | None":
    stack = _graph_stack()
    return stack[-1] if stack else None


def _ensure_finite(tag: str, data: Array) -> None:
    # one-pass screen; the exact check runs only when the sum misbehaves,
    # which also clears false alarms from benign summation overflow
    if not np.isfinite(np.sum(data)) and not np.all(np.isfinite(data)):
        raise NumericError(f"operation '{tag}' produced a non-finite value")


class Node:
    """One recorded operation: tag, parents, output, gradient rule.

    `parents` has one entry per input: the input's node when it was recorded
    on the same graph, the input tensor itself when it is a leaf that
    requires grad (recorded on no graph or on another one), else None.
    `out` is a weak reference to the output tensor, and `grad_fn` is None
    once `backward` has replayed the node.
    """

    # weak-referenceable so a test can watch a node die with its tape
    __slots__ = ("op", "parents", "out", "grad_fn", "graph", "index",
                 "__weakref__")

    def __init__(self, op, parents, out, grad_fn, graph, index):
        self.op = op
        self.parents = parents
        self.out = out
        self.grad_fn = grad_fn
        self.graph = graph
        self.index = index


class Graph:
    """Tape of nodes recorded during one forward pass (define-by-run).

    Confined to a single thread between entry and the matching `backward`,
    apart from the replays of its `Branch`es; leaving the block ends those
    and releases the tape. `on_final`, when set, is the callback
    `backward` passes each leaf to once its gradient is complete.
    """

    __slots__ = ("nodes", "branches", "on_final")

    def __init__(self):
        self.nodes: list[Node] = []
        self.branches: list[Branch] = []
        self.on_final: Callable[[Tensor], None] | None = None

    def __enter__(self) -> "Graph":
        _graph_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _graph_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("graph context exited out of order")
        stack.pop()
        try:
            for branch in self.branches:
                branch._end()
        finally:
            self.branches.clear()
            self._release()

    def _release(self) -> None:
        # every recorded output drops its node, which breaks the node ->
        # graph -> nodes cycles
        for node in self.nodes:
            out = node.out()
            if out is not None:
                out.node = None
        self.nodes.clear()


def recording() -> bool:
    """Whether a `Graph` block is recording on this thread."""
    return _active_graph() is not None


class _Helper:
    """The package's one helper thread: it runs the calls submitted to it
    one at a time, in order, and reports each through a `Future`. It is a
    daemon thread, started on first use, and idle between calls; no option
    governs it. Three kinds of call reach it: the branch replays of
    `backward`, which queue; the claiming of a started density's blocks
    and of a training step's Adam updates (`_Claims.offer`), which starts
    only on an idle helper, so neither waits behind a replay. In a process
    allowed one CPU it takes no call at all. A call withdrawn before it
    starts no longer counts as pending. A forked child starts from a fresh
    helper: the parent's thread does not exist there, and a call it had
    pending would hold the helper busy for good."""

    def __init__(self):
        self._reset()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._calls = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._pending = 0  # calls submitted and not yet finished

    def submit(self, fn: Callable[[], object],
               if_idle: bool = False) -> futures.Future | None:
        """Queue `fn`; with `if_idle`, only when no call is pending, and in
        any case only where the process may use two or more CPUs, else
        return None. Code running on the helper is inside a pending call, so
        it never hands work to itself."""
        if _usable_cpus() == 1:
            return None
        with self._lock:
            if if_idle and self._pending:
                return None
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._serve, name="vampvae-helper", daemon=True)
                self._thread.start()
            self._pending += 1
        task = futures.Future()
        self._calls.put((task, fn))
        return task

    def withdraw(self, task: futures.Future) -> bool:
        """Cancel `task` unless the helper has started it; True if it did."""
        with self._lock:
            if not task.cancel():
                return False
            self._pending -= 1
            return True

    def _finished(self) -> None:
        # before the waiter is woken, so that its next call finds the helper
        # idle
        with self._lock:
            self._pending -= 1

    def _serve(self) -> None:
        while True:
            task, fn = self._calls.get()
            if task.set_running_or_notify_cancel():  # else withdrawn
                try:
                    result = fn()
                except BaseException as exc:  # reported to the waiter
                    self._finished()
                    task.set_exception(exc)
                else:
                    self._finished()
                    task.set_result(result)
            task = fn = result = None


_helper = _Helper()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Claims:
    """Units of work, each a function of a slot, claimed one at a time in
    the order they were added by the calling thread (slot 0) and the helper
    (slot 1), so each runs once, on the first thread to claim it.

    The caller adds units and may start the helper claiming (`offer`,
    refused on a busy helper and on one CPU); the helper claims until none
    is left, and a unit added after that needs another `offer`. The units
    run numpy calls only: no op, span or tape node is ever made on the
    helper. After an error no unit is claimed. `finish` runs the units left
    on the calling thread and ends the claims, as leaving a ``with`` block
    does without running them: a helper call not yet started is withdrawn,
    so the caller never waits for a unit the helper has not started; the
    running one is waited for, and its error raised unless the block raises
    its own."""

    def __init__(self, units: Iterable[Callable[[int], object]] = ()):
        self._units = list(units)
        self._next = 0  # the next unit to claim
        self._lock = threading.Lock()
        self._open = True
        self._claiming = False  # a helper call will claim the next unit
        self._task: futures.Future | None = None

    def __enter__(self) -> "_Claims":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._lock:
            self._open = False
        # dropped here: a helper's error would hold the claims in a cycle
        task, self._task = self._task, None
        if task is None or _helper.withdraw(task):
            return
        futures.wait([task])
        if exc_type is None:
            task.result()  # the helper's error, if it had one

    def add(self, unit: Callable[[int], object]) -> None:
        with self._lock:
            self._units.append(unit)

    def claim(self, slot: int = 0) -> Callable[[int], object] | None:
        with self._lock:
            if self._open and self._next < len(self._units):
                self._next += 1
                return self._units[self._next - 1]
            if slot:
                # in the same hold as finding none left, so a unit added
                # from now on is offered again
                self._claiming = False
            return None

    def run(self, slot: int = 0) -> None:
        """Run claimed units until none is left."""
        try:
            unit = self.claim(slot)
            while unit is not None:
                unit(slot)
                unit = self.claim(slot)
        except BaseException:
            with self._lock:
                self._open = False
            raise

    def offer(self) -> bool:
        """Whether the helper claims the units left: it is claiming
        already, or it was idle and starts now."""
        with self._lock:
            if self._claiming or not self._open:
                return self._claiming
            self._claiming = True
        task = _helper.submit(lambda: self.run(1), if_idle=True)
        with self._lock:
            if task is None:
                self._claiming = False
            else:
                self._task = task
        return task is not None

    def finish(self) -> None:
        """Run the units left on the calling thread, then end the claims."""
        with self:
            self.run()


class Branch:
    """A computation on leaves only, recorded on a graph of its own and
    joined into the recording graph where a single tape would have recorded
    it, so that `backward` can replay it on the helper thread.

    Created inside a `Graph` block, it runs `fn` at once on the calling
    thread; `fn` returns a tuple of tensors computed from tensors recorded
    on no graph. `outputs` are those tensors on the recording graph, each
    that requires grad as a ``join`` node. `backward` hands the join nodes'
    gradients to the helper once its replay has passed them, and waits for
    the branch before it adds into a leaf the branch also reached and
    before it returns, so every leaf sums its gradients in the single
    tape's order; a process allowed one CPU replays it on the calling
    thread instead, where the single tape would have. Leaving the
    recording block ends the branch: a queued replay is cancelled, a
    running one waited for, and the branch's tape released. An error
    raised on the helper is raised again by `backward`.
    """

    __slots__ = ("graph", "index", "leaves", "heads", "grads", "task",
                 "outputs")

    def __init__(self, fn: Callable[[], Sequence[Tensor]]):
        owner = _active_graph()
        if owner is None:
            raise ContractError("a branch is recorded inside a Graph")
        self.graph = Graph()
        # the first join node's place on the owner's tape, once joined
        self.index: int | None = None
        self.heads: list[Node] = []
        self.grads: list[Array | None] = []
        self.task: futures.Future | None = None
        # registered first, so that leaving the block releases the tape
        # even when `fn` fails
        owner.branches.append(self)
        stack = _graph_stack()
        stack.append(self.graph)
        try:
            outs = tuple(fn())
        finally:
            stack.pop()
        self.leaves = frozenset(p for node in self.graph.nodes
                                for p in node.parents if isinstance(p, Tensor))
        if any(t.node is not None for t in self.leaves) or any(
                t.node is not None and t.node.graph is not self.graph
                for t in outs):
            raise ContractError("a branch reads only tensors recorded on no "
                                "graph")
        self.outputs = tuple(self._join(t, owner) for t in outs)

    def _join(self, t: Tensor, owner: Graph) -> Tensor:
        if t.node is None:
            return t
        out = Tensor.__new__(Tensor)
        out.data = t.data
        out.grad = None
        out.requires_grad = True
        out.node = Node("join", (), weakref.ref(out),
                        self._receiver(len(self.heads)), owner,
                        len(owner.nodes))
        if self.index is None:
            self.index = len(owner.nodes)
        owner.nodes.append(out.node)
        self.heads.append(t.node)
        self.grads.append(None)
        return out

    def _receiver(self, i: int):
        grads = self.grads

        def grad_fn(g):
            grads[i] = g
            return ()

        return grad_fn

    def _replay(self) -> None:
        pending = {node: g for node, g in zip(self.heads, self.grads)
                   if g is not None}
        self.grads.clear()
        _replay(self.graph.nodes, pending)

    def _submit_replay(self) -> bool:
        """Replay the branch on the helper from the gradients its join
        nodes received, True; False if none did, or, after replaying it on
        the calling thread, if the helper refused it."""
        if not any(g is not None for g in self.grads):
            return False
        self.task = _helper.submit(self._replay)
        if self.task is None:
            self._replay()
        return self.task is not None

    def _end(self) -> None:
        if self.task is not None:
            _helper.withdraw(self.task)
            futures.wait([self.task])
        self.graph._release()


class Tensor:
    """Dense n-dimensional float64 array with an optional gradient slot."""

    # weak-referenceable so a node need not keep its output alive
    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _ensure_finite("tensor", arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise DimensionError("tensor/tensor division is not supported; "
                                 "multiply by a reciprocal instead")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- elementwise functions ------------------------------------------

    def square(self):
        return square(self)

    def clip(self, lo=None, hi=None):
        return clip(self, lo, hi)

    # -- shape and reduction --------------------------------------------

    def sum(self, axis=None):
        return tensor_sum(self, axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis)

    def logsumexp(self, axis=None):
        return logsumexp(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)

    def slice(self, axis, start, stop):
        return narrow(self, axis, start, stop)


class Module:
    """Base of every model part that owns tensors.

    `parameters()` walks the instance's attributes in assignment order (the
    items of a list module by index) and names each tensor by its attribute
    path. A child is anything with its own `parameters`, asked through
    attribute access, so wrappers that forward attributes are walked through.
    Checkpoints store tensors in this order.
    """

    def parameters(self) -> dict[str, Tensor]:
        fields = enumerate(self) if isinstance(self, list) else vars(self).items()
        out: dict[str, Tensor] = {}
        for name, value in fields:
            if isinstance(value, Tensor):
                out[str(name)] = value
            elif hasattr(value, "parameters"):
                for sub, t in value.parameters().items():
                    out[f"{name}.{sub}"] = t
        return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def apply_op(tag: str, out_data: Array, inputs: Sequence[Tensor],
             grad_fn: Callable[[Array], Iterable]) -> Tensor:
    """Finish a forward op: check finiteness, record on the active graph.

    This is the extension point for fused operations, such as a biased
    `matmul`, `gated_dense` and the densities of `distributions`:
    `grad_fn` receives the output gradient and returns one gradient (or
    None) per input, or is a generator that yields them in input order, so
    that each can be freed once `backward` has added it. It must capture arrays and shapes
    only, never a `Tensor`, and only the arrays it reads: the tape holds
    nothing else of the forward pass, and `backward` consumes it, dropping
    `grad_fn` once it has run.
    """
    _ensure_finite(tag, out_data)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    graph = _active_graph()
    if graph is not None and any(t.requires_grad for t in inputs):
        parents = tuple(
            t.node if t.node is not None and t.node.graph is graph
            else t if t.requires_grad else None for t in inputs)
        node = Node(tag, parents, weakref.ref(out), grad_fn, graph,
                    len(graph.nodes))
        out.requires_grad = True
        out.node = node
        graph.nodes.append(node)
    else:
        out.requires_grad = False
        out.node = None
    return out


# -- broadcasting -------------------------------------------------------

def _broadcast_check(tag: str, a: Tensor, b: Tensor) -> None:
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return
    if len(sa) < len(sb) and sb[len(sb) - len(sa):] == sa:
        return
    raise DimensionError(
        f"'{tag}': shapes {sa} and {sb} neither match nor differ only by "
        "leading batch dimensions")


def _reduce_to(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the leading axes broadcast added to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad


# -- binary elementwise ops ---------------------------------------------
#
# add, sub, mul and matmul compute no gradient for an operand that does not
# require grad (a data matrix, a noise draw, a constant): it gets None.

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check("add", a, b)
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_reduce_to(g, a_shape) if a_grad else None,
                _reduce_to(g, b_shape) if b_grad else None)

    return apply_op("add", out, (a, b), grad_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check("sub", a, b)
    out = a.data - b.data
    a_shape, b_shape = a.shape, b.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_reduce_to(g, a_shape) if a_grad else None,
                _reduce_to(-g, b_shape) if b_grad else None)

    return apply_op("sub", out, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check("mul", a, b)
    out = a.data * b.data
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a.shape, b.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_reduce_to(g * b_data, a_shape) if a_grad else None,
                _reduce_to(g * a_data, b_shape) if b_grad else None)

    return apply_op("mul", out, (a, b), grad_fn)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return apply_op("neg", -a.data, (a,), lambda g: (-g,))


def _check_affine(tag: str, x: Tensor, w: Tensor, b: Tensor | None) -> None:
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"'{tag}': operands must be 2-D, got "
                             f"{x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"'{tag}': inner dimensions differ, "
                             f"{x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise DimensionError(f"'{tag}': bias {b.shape} does not match "
                             f"{w.shape[1]} outputs")


def _affine_values(x: Tensor, w: Tensor, b: Tensor | None) -> Array:
    """x @ w, plus an (N,) bias b unless it is None, in the product; the
    shapes are checked by `_check_affine`."""
    out = x.data @ w.data
    if b is not None:
        np.add(out, b.data, out=out)
    return out


def _affine_grads(x: Tensor, w: Tensor, b: Tensor | None):
    """The gradient rule of x @ w + b: a generator function of the output
    gradient g that yields ``g.sum(axis=0)`` for b, ``g @ w.T`` for x and
    ``x.T @ g`` for w, in that order, and None for an input without grad
    (b is None for a product without bias). It captures arrays and flags."""
    x_data, w_data = x.data, w.data
    x_grad, w_grad = x.requires_grad, w.requires_grad
    b_grad = b is not None and b.requires_grad

    def grads(g):
        yield g.sum(axis=0) if b_grad else None
        yield g @ w_data.T if x_grad else None
        yield x_data.T @ g if w_grad else None

    return grads


def matmul(a, b, bias=None) -> Tensor:
    """a @ b; with an (N,) `bias`, the affine map a @ b + bias as one node
    whose inputs are (bias, a, b), as the chain's add and matmul reached
    them. The rule returns its gradients at once, not one at a time."""
    a, b = _as_tensor(a), _as_tensor(b)
    biased = bias is not None
    bias = _as_tensor(bias) if biased else None
    _check_affine("matmul", a, b, bias)
    out = _affine_values(a, b, bias)
    rule = _affine_grads(a, b, bias)

    def grad_fn(g):
        grads = tuple(rule(g))
        return grads if biased else grads[1:]

    return apply_op("matmul", out, (bias, a, b) if biased else (a, b),
                    grad_fn)


# -- unary elementwise ops ----------------------------------------------

def _sigmoid_values(x: Array, out: Array | None = None) -> Array:
    """1 / (1 + exp(-x)) as negate, exp, add 1, divide, into `out` (which
    may be x itself) or a new array. exp overflows to inf for very negative
    x, and 1 / (1 + inf) = 0 is the right limit."""
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    s = _sigmoid_values(a.data)

    def grad_fn(g):
        gs = g * s
        gs *= 1.0 - s
        return (gs,)

    return apply_op("sigmoid", s, (a,), grad_fn)


def _softplus_values(x: Array, out: Array | None = None,
                     work: Array | None = None) -> Array:
    """max(x, 0) + log1p(exp(-|x|)), overflow-safe for any x, into `out` (not
    x itself) or a new array; `work`, of x's shape, takes max(x, 0)."""
    out = np.abs(x, out=np.empty_like(x) if out is None else out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(np.maximum(x, 0.0, out=work), out, out=out)


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    out = _softplus_values(x)

    def grad_fn(g):
        return (g * _sigmoid_values(x),)

    return apply_op("softplus", out, (a,), grad_fn)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    e = out

    def grad_fn(g):
        return (g * e,)

    return apply_op("exp", out, (a,), grad_fn)


def log(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    x = a.data

    def grad_fn(g):
        return (g / x,)

    return apply_op("log", out, (a,), grad_fn)


def square(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data

    def grad_fn(g):
        return (2.0 * x * g,)

    return apply_op("square", x * x, (a,), grad_fn)


def clip(a, lo=None, hi=None) -> Tensor:
    """Clamp to [lo, hi]; the gradient passes only where no clamping occurred."""
    a = _as_tensor(a)
    if lo is None and hi is None:
        raise ContractError("clip requires at least one bound")
    x = a.data
    out = np.clip(x, lo, hi)
    mask = np.ones_like(x, dtype=bool)
    if lo is not None:
        mask &= x >= lo
    if hi is not None:
        mask &= x <= hi

    def grad_fn(g):
        return (g * mask,)

    return apply_op("clip", out, (a,), grad_fn)


# -- fused gated dense layer ----------------------------------------------
#
# It runs the ufuncs of the op chain it replaces, in that chain's order, in
# place where the chain made a temporary that no gradient reads, and lists
# its inputs as the chain's reversed tape reached them.

def gated_dense(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                b2: Tensor) -> Tensor:
    """(x @ w1 + b1) * sigmoid(x @ w2 + b2) as one node.

    Both pre-activations pass the finiteness screen, so an overflow the
    sigmoid would hide still raises `NumericError`, the linear half's
    first. Inputs (b2, x, w2, b1, x, w1): the chain's tape replays the gate
    before the linear half, so x receives the gate's gradient first.
    """
    _check_affine("gated_dense", x, w1, b1)
    _check_affine("gated_dense", x, w2, b2)
    h = _affine_values(x, w1, b1)
    _ensure_finite("gated_dense", h)
    s = _affine_values(x, w2, b2)
    _ensure_finite("gated_dense", s)
    _sigmoid_values(s, out=s)
    gate = _affine_grads(x, w2, b2)
    linear = _affine_grads(x, w1, b1)

    def grad_fn(g):
        g_h = g * s
        g_s = g * h
        g_s *= s
        g_s *= 1.0 - s
        yield from gate(g_s)
        del g_s  # freed before the linear half's products
        yield from linear(g_h)

    return apply_op("gated_dense", np.multiply(h, s), (b2, x, w2, b1, x, w1),
                    grad_fn)


# -- reductions ----------------------------------------------------------

def _norm_axis(tag: str, axis, ndim: int) -> int | None:
    if axis is None:
        return None
    axis = int(axis)
    if axis < 0:
        axis += ndim
    if not 0 <= axis < ndim:
        raise DimensionError(f"'{tag}': axis {axis} out of range for "
                             f"{ndim}-D tensor")
    return axis


def _spread(g: Array, axis: int | None, shape: tuple[int, ...]) -> Array:
    """A reduction's output gradient repeated over the axis it reduced (over
    all of `shape` when `axis` is None)."""
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    return np.repeat(np.expand_dims(g, axis), shape[axis], axis=axis)


def tensor_sum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    axis = _norm_axis("sum", axis, a.ndim)
    out = a.data.sum(axis=axis)
    shape = a.shape
    return apply_op("sum", np.asarray(out), (a,),
                    lambda g: (_spread(g, axis, shape),))


def tensor_mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    axis = _norm_axis("mean", axis, a.ndim)
    n = a.size if axis is None else a.shape[axis]
    out = a.data.mean(axis=axis)
    shape = a.shape
    return apply_op("mean", np.asarray(out), (a,),
                    lambda g: (_spread(g / n, axis, shape),))


def logsumexp(a, axis=None) -> Tensor:
    """Stable log(sum(exp(x))); the reduction sums in ascending order so the
    result is exactly invariant to permutations along the reduced axis."""
    a = _as_tensor(a)
    axis = _norm_axis("logsumexp", axis, a.ndim)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    shifted_exp = np.exp(x - m)
    if axis is None:
        s = np.sort(shifted_exp.reshape(-1)).sum()
        out = np.asarray(m.reshape(()) + np.log(s))
    else:
        s = np.sort(shifted_exp, axis=axis).sum(axis=axis)
        out = np.squeeze(m, axis=axis) + np.log(s)

    def grad_fn(g):
        if axis is None:
            w = shifted_exp / s
            return (g * w,)
        gw = np.expand_dims(g, axis) * shifted_exp / np.expand_dims(s, axis)
        return (gw,)

    return apply_op("logsumexp", out, (a,), grad_fn)


# -- shape ops ------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise DimensionError(f"'reshape': cannot view {a.shape} as {shape}")
    old = a.shape

    def grad_fn(g):
        return (g.reshape(old),)

    return apply_op("reshape", a.data.reshape(shape), (a,), grad_fn)


def narrow(a, axis, start, stop) -> Tensor:
    a = _as_tensor(a)
    axis = _norm_axis("slice", axis, a.ndim)
    if not 0 <= start < stop <= a.shape[axis]:
        raise DimensionError(f"'slice': [{start}:{stop}] out of range for "
                             f"axis {axis} of {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    shape = a.shape

    def grad_fn(g):
        full = np.zeros(shape)
        full[index] = g
        return (full,)

    return apply_op("slice", a.data[index].copy(), (a,), grad_fn)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("'concat': need at least one tensor")
    ndim = tensors[0].ndim
    axis = _norm_axis("concat", axis, ndim)
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != ndim or other[:axis] != base[:axis] \
                or other[axis + 1:] != base[axis + 1:]:
            raise DimensionError(f"'concat': shape {t.shape} incompatible "
                                 f"with {tensors[0].shape} along axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def grad_fn(g):
        pieces = []
        offset = 0
        for size in sizes:
            index = [slice(None)] * ndim
            index[axis] = slice(offset, offset + size)
            pieces.append(g[tuple(index)])
            offset += size
        return tuple(pieces)

    return apply_op("concat", out, tensors, grad_fn)


# -- backward pass --------------------------------------------------------

def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into `.grad` of every requires-grad leaf.

    When the graph's `on_final` is set, each leaf that received a gradient
    is passed to it, on the calling thread, once its last gradient is in:
    after the node that last delivers to it has finished its rule, or, for
    a leaf a `Branch` reaches after every node of this tape, once the
    branch has finished. Where the process may use two or more CPUs that
    is as soon as the leaf is final, so the callback can hand its work to
    the helper thread beside the rest of the replay; with one CPU it is
    after the replay, in the same order, where interleaving the callback's
    work with the replay only measured slower.

    A process allowed one CPU replays its branches on the calling thread
    (the helper refuses them), each where a single tape would have.
    """
    if not isinstance(root, Tensor) or root.node is None:
        raise ContractError("backward root must be produced inside a Graph")
    if root.shape != ():
        raise ContractError(f"backward requires a scalar root, got shape "
                            f"{root.shape}")
    graph = root.node.graph
    on_final = graph.on_final
    nodes = graph.nodes[:root.node.index + 1]
    joins = {b.index: b for b in graph.branches
             if b.index is not None and b.index < len(nodes)}
    # where each leaf gets its last gradient: the node nearest the tape's
    # start that lists it, or the join of a branch reaching it before that
    last: dict[Tensor, int] = {}
    for node in nodes:
        for parent in node.parents:
            if isinstance(parent, Tensor):
                last.setdefault(parent, node.index)
    for index, branch in joins.items():
        for leaf in branch.leaves:
            if index < last.get(leaf, len(nodes)):
                last[leaf] = index
    finals: dict[int, list[Tensor]] = {}
    for leaf, index in last.items():
        finals.setdefault(index, []).append(leaf)
    running: list[Branch] = []  # replaying on the helper, oldest first
    shared: set[Tensor] = set()  # the leaves they reach
    held: list[Tensor] = []  # final leaves passed on after the replay
    pass_on = on_final if _usable_cpus() > 1 else held.append

    def finish(index):
        for leaf in finals.pop(index, ()):
            if on_final is not None and leaf.grad is not None:
                pass_on(leaf)

    def drain():
        for branch in running:
            branch.task.result()
            finish(branch.index)
        running.clear()
        shared.clear()

    def before_leaf(leaf):
        if leaf in shared:
            drain()

    def passed(node):
        branch = joins.get(node.index)
        if branch is not None and branch._submit_replay():
            running.append(branch)
            shared.update(branch.leaves)
            return
        if shared and not shared.isdisjoint(finals.get(node.index, ())):
            drain()
        finish(node.index)

    _replay(nodes, {root.node: np.asarray(1.0)}, before_leaf, passed)
    drain()
    for leaf in held:
        on_final(leaf)


def _replay(nodes: list[Node], pending: dict[Node, Array],
            before_leaf=None, passed=None) -> None:
    """Replay `nodes` newest first, from the output gradients in `pending`:
    each node's rule adds its input gradients into `pending` or into leaf
    `.grad`s. `before_leaf(leaf)` runs before each add into a leaf and
    `passed(node)` once the replay is past a node, whether or not a
    gradient reached it."""
    for node in reversed(nodes):
        gout = pending.pop(node, None)
        if gout is not None:
            if node.grad_fn is None:
                raise ContractError("backward already consumed this part of "
                                    "the tape; record a new graph")
            grads = node.grad_fn(gout)
            node.grad_fn = gout = None
            for parent, gin in zip(node.parents, grads):
                if gin is not None and parent is not None:
                    if before_leaf is not None and isinstance(parent, Tensor):
                        before_leaf(parent)
                    _add_grad(pending, parent,
                              np.asarray(gin, dtype=np.float64))
                # dropped before a yielding rule computes the next gradient
                gin = None
            grads = None
        if passed is not None:
            passed(node)


def _add_grad(pending: dict[Node, Array], parent, gin: Array) -> None:
    """Add one input gradient into a node's pending gradient or a leaf's
    `.grad`; a leaf's first gradient is written once, as 0.0 + gin, so a
    -0.0 arrives as +0.0 as it would on zeros."""
    if isinstance(parent, Node):
        seen = pending.get(parent)
        pending[parent] = gin if seen is None else seen + gin
    elif parent.grad is None:
        parent.grad = np.add(0.0, gin)
    else:
        parent.grad += gin


def grad_check(f: Callable[[list[Tensor]], Tensor], params: list[Tensor],
               h: float = 1e-5) -> float:
    """Max relative error between backward gradients and central differences.

    `f` maps the parameter list to a scalar Tensor and must be deterministic;
    the relative error of coordinate i is |a_i - n_i| / max(1, |a_i|, |n_i|).
    """
    if not 1e-7 <= h <= 1e-3:
        raise ContractError(f"grad_check step h={h} outside [1e-7, 1e-3]")
    for p in params:
        if not p.requires_grad:
            raise ContractError("grad_check parameters must require grad")
        p.zero_grad()
    with Graph():
        y = f(params)
        if y.shape != ():
            raise ContractError("grad_check target must return a scalar")
        backward(y)
    again = f(params)
    if again.item() != y.item():
        raise ContractError("grad_check target is not deterministic")
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            hi, lo = orig + h, orig - h
            flat[i] = hi
            fp = f(params).item()
            flat[i] = lo
            fm = f(params).item()
            flat[i] = orig
            num = (fp - fm) / (hi - lo)
            err = abs(aflat[i] - num) / max(1.0, abs(aflat[i]), abs(num))
            worst = max(worst, err)
    return worst
