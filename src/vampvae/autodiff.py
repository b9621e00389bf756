"""Reverse-mode automatic differentiation over dense float64 tensors.

A `Graph` is a tape: operations executed inside a ``with Graph():`` block
append nodes in execution order, which is already a topological order.
`backward` replays the tape in reverse, accumulating gradients into leaf
tensors, so it must run inside the block.

The tape keeps only what the gradient rules read. A node refers to its
output weakly and to its inputs as parent nodes (or as the leaf tensors
that receive gradients), and each `grad_fn` captures arrays and shapes,
never tensors. An intermediate array no rule reads, such as ``x @ w``
before its bias is added, is therefore freed as soon as the forward code
drops its tensor. `backward` consumes the tape: it drops each node's
`grad_fn`, and with it the arrays the rule captured, as it replays the
node, so a second `backward` on the same tape is a `ContractError`.
Leaving the block frees the rest: every recorded output drops its node,
which breaks the node -> graph -> nodes reference cycles, so reference
counting releases the tape at once instead of the cyclic collector some
time later.

Broadcasting is deliberately narrow: two operands are compatible when their
shapes are equal or one shape is a trailing suffix of the other (the smaller
operand is repeated over the leading batch dimensions). Python scalars are
always accepted. Nothing wider is supported.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Sequence

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

    Confined to a single thread between entry and the matching `backward`;
    the tape is released on exit.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Graph":
        _graph_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _graph_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("graph context exited out of order")
        stack.pop()
        for node in self.nodes:
            out = node.out()
            if out is not None:
                out.node = None
        self.nodes.clear()


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
             grad_fn: Callable[[Array], tuple]) -> Tensor:
    """Finish a forward op: check finiteness, record on the active graph.

    This is the extension point for fused operations, such as
    `distributions.log_normal_diag_pairwise` and
    `distributions.log_bernoulli`: `grad_fn` receives the output gradient
    and returns one gradient (or None) per input. It must capture arrays
    and shapes only, never a `Tensor`, and only the arrays it reads: the
    tape holds nothing else of the forward pass, and `backward` consumes
    it, dropping `grad_fn` once it has run.
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


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"'matmul': operands must be 2-D, got "
                             f"{a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"'matmul': inner dimensions differ, "
                             f"{a.shape} @ {b.shape}")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (g @ b_data.T if a_grad else None,
                a_data.T @ g if b_grad else None)

    return apply_op("matmul", out, (a, b), grad_fn)


# -- unary elementwise ops ----------------------------------------------

def _sigmoid_values(x: Array) -> Array:
    # exp may overflow to inf for very negative x; 1/(1+inf) -> 0 is the
    # right limit, so the expression is stable across the whole range
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    s = _sigmoid_values(a.data)

    def grad_fn(g):
        return (g * s * (1.0 - s),)

    return apply_op("sigmoid", s, (a,), grad_fn)


def softplus(a) -> Tensor:
    # max(x, 0) + log1p(exp(-|x|)): overflow-safe for any x.
    a = _as_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

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
    """Accumulate d(root)/d(leaf) into `.grad` of every requires-grad leaf."""
    if not isinstance(root, Tensor) or root.node is None:
        raise ContractError("backward root must be produced inside a Graph")
    if root.shape != ():
        raise ContractError(f"backward requires a scalar root, got shape "
                            f"{root.shape}")
    graph = root.node.graph
    pending: dict[Node, Array] = {root.node: np.asarray(1.0)}
    for node in reversed(graph.nodes[:root.node.index + 1]):
        gout = pending.pop(node, None)
        if gout is None:
            continue
        if node.grad_fn is None:
            raise ContractError("backward already consumed this part of the "
                                "tape; record a new graph")
        grads = node.grad_fn(gout)
        node.grad_fn = None
        for parent, gin in zip(node.parents, grads):
            if gin is None or parent is None:
                continue
            gin = np.asarray(gin, dtype=np.float64)
            if isinstance(parent, Node):
                seen = pending.get(parent)
                pending[parent] = gin if seen is None else seen + gin
            else:
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
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
