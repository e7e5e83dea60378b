"""Reverse-mode autodiff over dense float64 numpy arrays.

Desk-scale engine: tensors carry no batch axis, every op is explicit, and
broadcasting is restricted to bias-style addition (trailing-shape or
size-1 axes). Channels lead: `linear` maps the leading axis, so it mixes
the channels of a [C,H,W] map per pixel (a 1x1 convolution), and `conv2d`
is the same-padded spatial kernel, in the cross-correlation convention of
mainstream deep-learning frameworks (no kernel flip); each adds its bias in
place, as one graph node. Only a `Parameter` gets a grad.

The graph is made of nodes, not tensors. A `Tensor` holds its array and,
when an op recorded it, a `Node`: the parents' nodes and the vjp, but no
array. A vjp returns the whole gradient of each parent, in their order,
or None, and closes over only the arrays and shapes it reads, never over
a Tensor. So an intermediate array lives only while Python or a vjp
holds it: an output that no vjp reads is freed as soon as the caller drops
its Tensor, while the graph behind it still back-propagates. A
`checkpoint` node goes further: it saves only the arrays of its inputs and
parameters, and its vjp recomputes the block's intermediates in backward.

Inside `with no_grad():` ops record no nodes, so inference holds no
intermediates alive and `backward` has nothing to follow; values are the
same as with the graph recorded.

`backward` releases the graph as it walks it, so one graph supports one
backward pass: a second pass through it raises ValueError. Gradients from
a new graph over the same parameters add on top of the earlier ones. The
walk is one helper, which a checkpoint's vjp also runs over the sub-graph
it rebuilds.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

Array = np.ndarray

# Budget, in float64 elements with the k-1 halo rows aside, of the one
# row-shift im2col block that conv2d holds at a time: 768 KiB, within a
# 2 MiB per-core L2 cache. A conv's working set beyond its results is then
# one block, whatever the image size. Forward outputs and input and bias
# gradients are the same bit for bit under any budget; kernel gradients,
# sums over blocks, move by rounding only.
_CONV_BLOCK_ELEMS = 98_304


class DataError(ValueError):
    """Malformed file or inconsistent data."""


def check_int(value, name: str, low: int = 1) -> int:
    """value as an int; DataError naming `name` and the value unless it is
    an integer (not a bool) of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DataError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


class RandomSource:
    """Deterministic counter-based random stream (Philox).

    The same seed yields the same sample stream on every run and thread
    count. `child(*key)` derives an independent stream from (seed, key)
    only, so work split across threads stays reproducible. A seed that is
    not an integer >= 0 raises DataError naming `seed`.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = check_int(seed, "seed", low=0)
        self._key = tuple(int(k) for k in _key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def child(self, *key: int) -> "RandomSource":
        return RandomSource(self.seed, self._key + tuple(int(k) for k in key))

    def normal(self, shape=(), scale: float = 1.0) -> Array:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> Array:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int) -> np.integer:
        return self._gen.integers(low, high)


class Node:
    """A recorded op: its parents' nodes in order (None where a parent has
    no graph) and its vjp."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A float64 array and, when an op recorded it, its graph node."""

    __slots__ = ("data", "node")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """Trainable leaf, the only gradient leaf: value, name and grad buffer.

    A Parameter is its own graph node, with no parents and no vjp, into
    whose grad `backward` sums. `node` returns the Parameter itself rather
    than storing it, so a Parameter forms no reference cycle and is freed
    with its model, without waiting for the cycle collector.
    """

    __slots__ = ("grad", "name")
    parents = ()
    vjp = None
    node = property(lambda self: self)

    def __init__(self, value, name: str):
        self.data = np.asarray(value, dtype=np.float64)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"

    def reset_grad(self) -> None:
        self.grad.fill(0.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_GRAD_ENABLED: ContextVar[bool] = ContextVar("spectragen_grad_enabled", default=True)


@contextmanager
def _grad_mode(enabled: bool):
    token = _GRAD_ENABLED.set(enabled)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def no_grad():
    """Run ops without recording the graph; the previous mode returns on exit."""
    return _grad_mode(False)


def _node(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Tensor of `data`, with a node over the parents' nodes when grad mode
    is on and some parent has a graph. vjp(g) returns one entry per parent,
    in order: its whole gradient, of the parent's shape, or None."""
    out = Tensor(data)
    if not _GRAD_ENABLED.get():
        return out
    nodes = tuple(p.node for p in parents)
    if any(n is not None for n in nodes):
        out.node = Node(nodes, vjp)
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _walk(root: Node, seed: Array, leaves=()) -> list:
    """Back-propagate `seed`, the gradient of root's output, through the
    graph behind root; return the gradient that reaches each node of
    `leaves`, in order (None where none does). The walk stops at a leaf,
    and sums into its grad the gradient of any other Parameter it reaches.

    The walk releases the graph behind it: each node drops its vjp, with
    the arrays the vjp saved, and its parents once its gradient has been
    passed on, so nothing of the graph is held after the walk. Reaching a
    released node raises ValueError.

    Gradients are buffered per node, each a whole gradient of the node's
    shape. The walk owns the buffer a gradient sums into: the first
    contribution is kept as returned, and the buffer is written in place
    only once the walk has allocated it, since a vjp may hand one array to
    two parents.
    """
    # Iterative post-order topo sort; graphs can be deep.
    topo: list[Node] = []
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p is not None and p not in seen:
                stack.append((p, False))

    index = {leaf: i for i, leaf in enumerate(leaves) if leaf is not None}
    out = [None] * len(leaves)
    grads: dict[Node, Array] = {root: seed}
    owned: set[Node] = set()
    while topo:
        node = topo.pop()
        vjp, parents = node.vjp, node.parents
        if vjp is not None:
            node.vjp, node.parents = None, ()
        g = grads.pop(node, None)
        if g is None:
            continue
        if node in index:
            out[index[node]] = g
            continue
        if vjp is None:
            if not isinstance(node, Parameter):
                raise ValueError("backward reached a node whose graph an earlier backward released")
            node.grad += g
            continue
        for parent, pg in zip(parents, vjp(g)):
            if parent is None or pg is None:
                continue
            acc = grads.get(parent)
            if acc is None:
                acc = pg
            elif parent in owned:
                acc += pg  # a numpy scalar rebinds here, so acc is stored below
            else:
                acc = acc + pg
                owned.add(parent)
            grads[parent] = acc
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(p) into the grad of every reachable Parameter p.

    The walk releases the graph behind it, so a second backward through a
    released node raises ValueError. Gradients of a new graph over the same
    parameters add on top of the first, until they are reset.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss.node is not None:
        _walk(loss.node, np.ones_like(loss.data))


def checkpoint(fn, inputs, params) -> Tensor:
    """fn(*inputs, *params) as one graph node that saves only its arrays.

    fn maps Tensors to a Tensor through public ops, reading no other
    Tensor that needs a gradient. The forward runs it under `no_grad`, so
    none of its intermediates is kept; the node's parents are the inputs
    and params, and its vjp closes over their arrays only (the params' are
    the model's own, so the node keeps nothing the model does not). The
    vjp reruns fn in grad mode on fresh leaves over those arrays, a leaf
    with a node for each parent that has a graph, walks that sub-graph
    from g, and returns the whole gradient of each input and each param.
    That is gradient checkpointing: backward recomputes fn's forward once,
    which costs its time again and holds its intermediates only while the
    vjp runs. Values and gradients are those of fn's own graph; a parent
    that fn reads twice sums its parts inside the vjp, so its sum with the
    gradient from outside may round differently. The saved arrays must not
    change before backward.
    """
    parents = tuple(as_tensor(t) for t in (*inputs, *params))
    with no_grad():
        data = fn(*parents).data
    arrays = [t.data for t in parents]
    tracked = [t.node is not None for t in parents]

    def vjp(g):
        leaves = [Tensor(a) for a in arrays]
        for leaf, has_graph in zip(leaves, tracked):
            if has_graph:
                leaf.node = Node((), None)
        with _grad_mode(True):
            out = fn(*leaves)
        return _walk(out.node, g, [leaf.node for leaf in leaves])

    return _node(data, parents, vjp)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _node(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _node(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    data = x * y

    def vjp(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _node(data, (a, b), vjp)


def reshape(t: Tensor, shape) -> Tensor:
    t = as_tensor(t)
    old = t.shape
    data = t.data.reshape(shape)

    def vjp(g):
        return (g.reshape(old),)

    return _node(data, (t,), vjp)


def transpose(t: Tensor, axes) -> Tensor:
    t = as_tensor(t)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = t.data.transpose(axes)

    def vjp(g):
        return (g.transpose(inverse),)

    return _node(data, (t,), vjp)


def concat(tensors, axis: int) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    extents = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + extents)

    def vjp(g):
        out = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            out.append(g[tuple(idx)])
        return out

    return _node(data, tuple(ts), vjp)


def _scatter_vjp(shape: tuple[int, ...], idx):
    """vjp of the slice `idx` of an array of `shape`: g written into zeros."""
    def vjp(g):
        gx = np.zeros(shape)
        gx[idx] = g
        return (gx,)
    return vjp


def split(t: Tensor, sections: int, axis: int) -> list[Tensor]:
    t = as_tensor(t)
    extent = t.shape[axis]
    if extent % sections != 0:
        raise ValueError(f"axis extent {extent} not divisible into {sections} sections")
    step = extent // sections
    parts = []
    for i in range(sections):
        idx = [slice(None)] * t.ndim
        idx[axis] = slice(i * step, (i + 1) * step)
        idx = tuple(idx)
        parts.append(_node(t.data[idx], (t,), _scatter_vjp(t.shape, idx)))
    return parts


def crop2d(t: Tensor, h0: int, h1: int, w0: int, w1: int) -> Tensor:
    """Spatial crop of a [C,H,W] tensor to rows [h0,h1) and cols [w0,w1)."""
    t = as_tensor(t)
    idx = (slice(None), slice(h0, h1), slice(w0, w1))
    return _node(t.data[idx], (t,), _scatter_vjp(t.shape, idx))


def _reflect_index(n: int, before: int, after: int) -> Array:
    return np.pad(np.arange(n), (before, after), mode="reflect")


def pad_reflect2d(t: Tensor, pad_h: tuple[int, int], pad_w: tuple[int, int]) -> Tensor:
    """Reflect-pad the spatial axes of a [C,H,W] tensor."""
    t = as_tensor(t)
    c, h, w = t.shape
    rows = _reflect_index(h, *pad_h)
    cols = _reflect_index(w, *pad_w)
    data = t.data[:, rows][:, :, cols]

    def vjp(g):
        tmp = np.zeros((c, h, g.shape[2]))
        np.add.at(tmp, (slice(None), rows), g)
        gx = np.zeros((c, h, w))
        np.add.at(gx, (slice(None), slice(None), cols), tmp)
        return (gx,)

    return _node(data, (t,), vjp)


# ---------------------------------------------------------------------------
# reductions


def tsum(t: Tensor, axis=None) -> Tensor:
    t = as_tensor(t)
    shape = t.shape
    data = t.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        ge = np.expand_dims(g, tuple(a % len(shape) for a in axes))
        return (np.broadcast_to(ge, shape).copy(),)

    return _node(data, (t,), vjp)


def mean(t: Tensor, axis=None) -> Tensor:
    t = as_tensor(t)
    if axis is None:
        count = t.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([t.shape[a % t.ndim] for a in axes]))
    return mul(tsum(t, axis=axis), 1.0 / count)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(t: Tensor) -> Tensor:
    """max(t, 0), with NaN mapped to 0. The vjp masks by the output, which
    is > 0 exactly where the input is, so the input need not be kept."""
    t = as_tensor(t)
    # fmax maps NaN to 0 like the mask does; the in-place += 0.0 turns the
    # -0.0 that fmax can leave (numpy's scalar tail and strided loops) into
    # +0.0, so data is bit-identical to where(t.data > 0, t.data, 0.0).
    data = np.fmax(t.data, 0.0)
    data += 0.0

    def vjp(g):
        return (g * (data > 0),)

    return _node(data, (t,), vjp)


def sigmoid(t: Tensor) -> Tensor:
    t = as_tensor(t)
    x = t.data
    e = np.exp(-np.abs(x))
    data = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _node(data, (t,), vjp)


def absolute(t: Tensor) -> Tensor:
    t = as_tensor(t)
    x = t.data
    data = np.abs(x)

    def vjp(g):
        return (g * np.sign(x),)

    return _node(data, (t,), vjp)


def _sum_in_order(x: Array, axis: int) -> Array:
    """Sum of x along `axis`, kept as an extent-1 axis, added in index order.

    numpy's own `sum` pairs the terms of a contiguous axis (differently below
    8, from 8 to 15 and from 16 terms) but adds those of a strided axis one
    by one, so its bits depend on memory layout; these do not.
    """
    terms = np.moveaxis(x, axis, 0)
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return np.expand_dims(total, axis)


def softmax_array(x: Array, axis: int, out: Array | None = None) -> Array:
    """Max-stabilized softmax of a plain array along `axis`; rows sum to 1.

    The sum runs in index order along `axis`, so the result does not depend
    on memory layout: a softmax over a leading axis is bit-identical to the
    same softmax over a trailing one. Reducing a leading axis is the fast
    case in numpy. `out` may be x itself, for a softmax in place.
    """
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= _sum_in_order(e, axis)
    return e


def softmax(t: Tensor, axis: int) -> Tensor:
    """Max-stabilized softmax along `axis`; rows sum to 1."""
    t = as_tensor(t)
    data = softmax_array(t.data, axis)

    def vjp(g):
        dot = _sum_in_order(g * data, axis)
        return (data * (g - dot),)

    return _node(data, (t,), vjp)


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the leading axis (the channels of a [C,H,W] map, as
    `linear` maps them) with eps = 1e-5, then apply learnable scale and
    shift."""
    t, gamma, beta = as_tensor(t), as_tensor(gamma), as_tensor(beta)
    n = t.shape[0]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError("layer_norm scale/shift must match the normalized extent")
    shape = (n,) + (1,) * (t.ndim - 1)
    gb = gamma.data.reshape(shape)
    bb = beta.data.reshape(shape)

    mu = t.data.mean(axis=0, keepdims=True)
    var = t.data.var(axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (t.data - mu) * inv
    data = gb * xhat + bb

    reduce_axes = tuple(range(1, t.ndim))

    def vjp(g):
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        gg = g * gb
        m1 = gg.mean(axis=0, keepdims=True)
        m2 = (gg * xhat).mean(axis=0, keepdims=True)
        dx = inv * (gg - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return _node(data, (t, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# linear / matmul


def linear(t: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of the leading axis, y = W @ x + b with W [D_out, D_in]:
    x is [D_in] or a [D_in,H,W] map (a 1x1 convolution), y [D_out, ...]."""
    t, weight, bias = as_tensor(t), as_tensor(weight), as_tensor(bias)
    d_out, d_in = weight.shape
    if t.shape[:1] != (d_in,):
        raise ValueError(f"linear: input shape {t.shape} does not lead with weight D_in {d_in}")
    if bias.shape != (d_out,):
        raise ValueError(f"linear: bias shape {bias.shape} != ({d_out},)")
    shape, w = t.shape, weight.data
    x2 = t.data.reshape(d_in, -1)
    data = np.empty((d_out,) + shape[1:])
    y2 = data.reshape(d_out, -1)
    np.matmul(w, x2, out=y2)
    y2 += bias.data[:, None]

    def vjp(g):
        g2 = g.reshape(d_out, -1)
        return (w.T @ g2).reshape(shape), g2 @ x2.T, g2.sum(axis=1)

    return _node(data, (t, weight, bias), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product; leading (batch) dims must match exactly."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul: leading dims differ {a.shape} vs {b.shape}")
    x, y = a.data, b.data
    data = np.matmul(x, y)

    def vjp(g):
        return np.matmul(g, np.swapaxes(y, -1, -2)), np.matmul(np.swapaxes(x, -1, -2), g)

    return _node(data, (a, b), vjp)


# ---------------------------------------------------------------------------
# conv2d


def _im2col_blocks(x: Array, k: int):
    """Yield (r0, r1, buf) over blocks of output rows of a [C_in,H,W] input
    under a k x k kernel, same-padded by p = (k-1)//2, so the output is [H,W].

    buf is the row-shift im2col of output rows [r0, r1), n = r1-r0 of them:
    a [C_in*k, (n+k-1)*W] matrix whose row (c, v) holds channel c shifted
    by v-p columns, over input rows r0-p .. r1+p-1. Kernel row u's im2col,
    whose rows are ordered like a flattened [C_in,k] kernel row and whose
    columns like the flattened output rows, is the view
    buf[:, u*W : u*W + n*W]; BLAS takes it as is (row stride (n+k-1)*W,
    unit column stride). So a block holds k copies of its input rows, not
    the k*k of a full im2col. Each shift is copied straight from the
    unpadded input, and only the padding strips around it are zeroed.
    Blocks hold at most _CONV_BLOCK_ELEMS elements plus the k-1 halo rows,
    or one output row. One block is alive at a time: the generator drops its
    reference after each yield, and a caller that deletes its own before
    asking for the next leaves block i freed before block i+1 is built.
    """
    c_in, h, w = x.shape
    p = (k - 1) // 2
    block = max(1, _CONV_BLOCK_ELEMS // (c_in * k * w))
    for r0 in range(0, h, block):
        r1 = min(r0 + block, h)
        rows = r1 - r0 + k - 1
        buf = np.empty((c_in, k, rows, w))
        # Buffer row i holds input row r0 - p + i; rows [a, b) are in bounds.
        a, b = max(0, p - r0), min(rows, h + p - r0)
        buf[:, :, :a] = 0.0
        buf[:, :, b:] = 0.0
        for v in range(k):
            # Column j reads input column j + v - p; columns [j0, j1) are in bounds.
            j0 = min(max(0, p - v), w)
            j1 = max(min(w, w + p - v), j0)
            buf[:, v, a:b, :j0] = 0.0
            buf[:, v, a:b, j1:] = 0.0
            buf[:, v, a:b, j0:j1] = x[:, a + r0 - p : b + r0 - p, j0 + v - p : j1 + v - p]
        yield r0, r1, buf.reshape(c_in * k, rows * w)
        del buf


def _corr2d(x: Array, kernel: Array, pair: Array | None = None):
    """Blocked row-shift im2col same-padded cross-correlation of [C_in,H,W]
    with [C_out,C_in,k,k], giving [C_out,H,W].

    Each block's output is the sum over kernel rows u, in order, of kernel
    row u's [C_out, C_in*k] matrix times its im2col view of buf (see
    _im2col_blocks): k GEMMs with K = C_in*k, the first written into the
    output and the others added to it. Each kernel matrix is Fortran
    ordered: with that operand order BLAS sums each output in the same
    order for every block width, so a blocked `out` is bit-exact to a
    single-block one; a C-ordered kernel matrix lets OpenBLAS switch GEMM
    kernels, and summation order, with the block width.

    With `pair`, a [C_p,H,W] array, it returns (out, acc): acc[u] is the
    [C_in*k, C_p] sum over blocks of kernel row u's im2col @ pair's
    matching rows, one GEMM per kernel row with K = (r1-r0)*W; a sum over
    blocks, acc matches a single-block one only to rounding.

    Beside out and acc it holds one block, freed before the next is built,
    the kernel matrices and one GEMM product at a time. Adding a product
    into out's strided block view makes numpy buffer both operands (up to
    8192 elements each); a single block's view is contiguous and adds in
    place.
    """
    c_in, h, w = x.shape
    c_out, ck, k = kernel.shape[:3]
    if ck != c_in:
        raise ValueError(f"conv2d: kernel expects {ck} input channels, got {c_in}")
    kms = [np.asfortranarray(kernel[:, :, u].reshape(c_out, -1)) for u in range(k)]
    out = np.empty((c_out, h, w))
    flat = out.reshape(c_out, -1)
    acc = None if pair is None else np.zeros((k, c_in * k, pair.shape[0]))
    for r0, r1, buf in _im2col_blocks(x, k):
        n = (r1 - r0) * w
        o = flat[:, r0 * w : r1 * w]
        np.matmul(kms[0], buf[:, :n], out=o)
        for u in range(1, k):
            o += kms[u] @ buf[:, u * w : u * w + n]
        if pair is not None:
            rows = pair[:, r0:r1].reshape(pair.shape[0], -1).T
            for u in range(k):
                acc[u] += buf[:, u * w : u * w + n] @ rows
        del buf
    return out if pair is None else (out, acc)


def _corr2d_kernel_grad(x: Array, g: Array, k: int) -> Array:
    """Kernel gradient [C_out,C_in,k,k] of the correlation of x with g, from
    the im2col of x: one GEMM per kernel row and block."""
    (c_in, _, w), c_out = x.shape, g.shape[0]
    dk = np.zeros((k, c_out, c_in * k))
    for r0, r1, buf in _im2col_blocks(x, k):
        n = (r1 - r0) * w
        g2 = g[:, r0:r1].reshape(c_out, -1)
        for u in range(k):
            dk[u] += g2 @ buf[:, u * w : u * w + n].T
        del buf
    return dk.reshape(k, c_out, c_in, k).transpose(1, 2, 0, 3)


def conv2d(t: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """2-D cross-correlation of [C_in,H,W] with a [C_out,C_in,k,k] kernel,
    k odd and zero-padded by (k-1)//2, plus a [C_out] bias: y is [C_out,H,W].

    Every pass lowers its input to the row-shift im2col of _im2col_blocks,
    k shifted copies of the input rather than k*k, and reads kernel row u's
    im2col as a strided view of it. A pass holds one block of that im2col
    at a time, at most _CONV_BLOCK_ELEMS elements plus the k-1 halo rows
    (or one output row), so its working set beyond its inputs and results
    does not grow with the image. Blocked outputs and input and bias
    gradients are bit-exact to single-block ones, kernel gradients (sums
    over blocks) only to rounding, within about 1e-15 of their largest
    entry at the benchmark's shapes; see _corr2d.

    The kernel gradient is always computed (every kernel is a Parameter).
    The input gradient correlates g with the flipped kernel, also
    same-padded, so it builds the im2col of g; the kernel gradient is then
    read off that same im2col, since, with cols_u the im2col view of kernel
    row u of g's buffer,
    dk[co,ci,k-1-u,k-1-v] = sum_ij cols_u[(co,v), ij] * x[ci].ravel()[ij];
    each block of g covers output rows [r0, r1), the rows of x it pairs
    with. A backward pass then builds one im2col instead of two. When only
    the kernel needs a gradient, which the forward knows from the input
    having no graph (a first layer over data: the denoiser's
    conv_in and cond_in, RGAN's embed_hsi and embed_rgb), it comes from the
    im2col of x, which has C_in*k rows against C_out*k for g (9 against 96
    for the 3-band embed_rgb). Building the im2col of g there too made the
    benchmark's train_diffusion about 5% slower. The bias gradient sums g
    over rows, then columns, as a broadcast add's vjp does.
    """
    t, kernel, bias = as_tensor(t), as_tensor(kernel), as_tensor(bias)
    if t.ndim != 3 or 0 in t.shape[1:] or kernel.ndim != 4:
        raise ValueError("conv2d expects a non-empty input [C,H,W] and kernel [C_out,C_in,k,k]")
    c_out, c_in, k, kw = kernel.shape
    if k != kw or k % 2 == 0:
        raise ValueError("conv2d kernel must be square with odd extent")
    if bias.shape != (c_out,):
        raise ValueError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
    x, w = t.data, kernel.data
    x_needs_grad = t.node is not None
    data = _corr2d(x, w)
    data += bias.data[:, None, None]

    def vjp(g):
        gb = g.sum(axis=1, keepdims=True).sum(axis=2, keepdims=True).reshape(c_out)
        if not x_needs_grad:
            return None, _corr2d_kernel_grad(x, g, k), gb
        flipped = np.flip(w, axis=(2, 3)).transpose(1, 0, 2, 3)
        gx, acc = _corr2d(g, flipped, pair=x)
        gk = acc.reshape(k, c_out, k, c_in)[::-1, :, ::-1].transpose(1, 3, 0, 2)
        return gx, gk, gb

    return _node(data, (t, kernel, bias), vjp)


# ---------------------------------------------------------------------------
# resampling


def _interp_matrix(n_out: int, n_in: int) -> Array:
    """Row-stochastic 1-D linear interpolation matrix (half-pixel centers)."""
    m = np.zeros((n_out, n_in))
    pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, n_in - 1.0)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    np.add.at(m, (np.arange(n_out), lo), 1.0 - frac)
    np.add.at(m, (np.arange(n_out), hi), frac)
    return m


def bilinear_resize(t: Tensor, out_h: int, out_w: int) -> Tensor:
    """Separable bilinear resample of a [C,H,W] tensor to [C,out_h,out_w]."""
    t = as_tensor(t)
    if t.ndim != 3:
        raise ValueError("bilinear_resize expects a [C,H,W] tensor")
    _, h, w = t.shape
    rmat = _interp_matrix(out_h, h)
    cmat = _interp_matrix(out_w, w)
    data = np.matmul(np.matmul(rmat, t.data), cmat.T)

    def vjp(g):
        return (np.matmul(np.matmul(rmat.T, g), cmat),)

    return _node(data, (t,), vjp)


def bilinear_resize_array(x: Array, out_h: int, out_w: int) -> Array:
    """bilinear_resize of a plain [C,H,W] array, as an array."""
    return bilinear_resize(Tensor(x), out_h, out_w).data
