"""Reverse-mode autodiff over dense float64 numpy arrays.

Desk-scale engine: tensors carry no batch axis, every op is explicit, and
broadcasting is restricted to bias-style addition (trailing-shape or
size-1 axes). Channels lead: `linear` maps the leading axis, so it mixes
the channels of a [C,H,W] map per pixel (a 1x1 convolution), and `conv2d`
is the same-padded spatial kernel, in the cross-correlation convention of
mainstream deep-learning frameworks (no kernel flip); each adds its bias in
place, as one graph node. Only a `Parameter` gets a grad.

Inside `with no_grad():` ops record no parents or vjp closures, so
inference holds no intermediates alive and `backward` has nothing to
follow; values are the same as with the graph recorded.

`backward` releases the graph as it walks it, so one graph supports one
backward pass: a second pass through it raises ValueError. Gradients from
a new graph over the same parameters add on top of the earlier ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

Array = np.ndarray

# Block size (in float64 elements) for the im2col buffers used by conv2d.
_CONV_BLOCK_ELEMS = 4_000_000


class RandomSource:
    """Deterministic counter-based random stream (Philox).

    The same seed yields the same sample stream on every run and thread
    count. `child(*key)` derives an independent stream from (seed, key)
    only, so work split across threads stays reproducible.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def child(self, *key: int) -> "RandomSource":
        return RandomSource(self.seed, self._key + tuple(int(k) for k in key))

    def normal(self, shape=(), loc: float = 0.0, scale: float = 1.0) -> Array:
        return self._gen.normal(loc, scale, size=shape)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> Array:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=()) -> Array:
        return self._gen.integers(low, high, size=shape)


class Tensor:
    """Node of the computation graph holding a float64 array."""

    __slots__ = ("data", "_parents", "_vjp", "_needs")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._needs = False

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
    """Trainable leaf, the only gradient leaf: value, name and grad buffer."""

    __slots__ = ("grad", "name")

    def __init__(self, value, name: str):
        super().__init__(value)
        self._needs = True
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
def no_grad():
    """Run ops without recording the graph; the previous mode returns on exit."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _node(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if not _GRAD_ENABLED.get():
        return out
    needing = tuple(p for p in parents if p._needs)
    if needing:
        out._parents = needing
        out._vjp = vjp
        out._needs = True
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(p) into the grad of every reachable Parameter p.

    The walk releases the graph behind it: each node drops its vjp and
    parents once its gradient has been passed on, so intermediates are
    freed during the walk and not held after it. A second backward through
    a released node raises ValueError. Gradients of a new graph over the
    same parameters add on top of the first, until they are reset.

    A vjp returns (parent, grad) pairs, or (parent, grad, index) when grad
    covers only parent[index]. backward owns the buffer a gradient sums
    into: the first contribution is kept as returned, and the buffer is
    written in place only once backward has allocated it, since a vjp may
    hand one array to two parents.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    # Iterative post-order topo sort; graphs can be deep.
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    # Every parent a vjp names is still in topo, hence alive, so ids are unique.
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()
    while topo:
        node = topo.pop()
        vjp, node._vjp, node._parents = node._vjp, None, ()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if vjp is None:
            if isinstance(node, Parameter):
                node.grad += g
            elif node._needs:
                raise ValueError(f"backward reached {node!r}, whose graph an earlier backward released")
            continue
        for parent, pg, *index in vjp(g):
            if not parent._needs:
                continue
            key = id(parent)
            acc = grads.get(key)
            if index:
                if key not in owned:
                    acc = np.zeros_like(parent.data) if acc is None else acc.copy()
                    owned.add(key)
                acc[index[0]] += pg
            elif acc is None:
                acc = pg
            elif key in owned:
                acc += pg  # a numpy scalar rebinds here, so acc is stored below
            else:
                acc = acc + pg
                owned.add(key)
            grads[key] = acc


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _node(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

    return _node(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        return (
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        )

    return _node(data, (a, b), vjp)


def reshape(t: Tensor, shape) -> Tensor:
    t = as_tensor(t)
    old = t.shape
    data = t.data.reshape(shape)

    def vjp(g):
        return ((t, g.reshape(old)),)

    return _node(data, (t,), vjp)


def transpose(t: Tensor, axes) -> Tensor:
    t = as_tensor(t)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = t.data.transpose(axes)

    def vjp(g):
        return ((t, g.transpose(inverse)),)

    return _node(data, (t,), vjp)


def concat(tensors, axis: int) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    extents = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + extents)

    def vjp(g):
        out = []
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            out.append((t, g[tuple(idx)]))
        return out

    return _node(data, tuple(ts), vjp)


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

        def vjp(g, idx=idx):
            return ((t, g, idx),)

        parts.append(_node(t.data[idx], (t,), vjp))
    return parts


def crop2d(t: Tensor, h0: int, h1: int, w0: int, w1: int) -> Tensor:
    """Spatial crop of a [C,H,W] tensor to rows [h0,h1) and cols [w0,w1)."""
    t = as_tensor(t)
    idx = (slice(None), slice(h0, h1), slice(w0, w1))
    data = t.data[idx]

    def vjp(g):
        return ((t, g, idx),)

    return _node(data, (t,), vjp)


def _reflect_index(n: int, before: int, after: int) -> Array:
    return np.pad(np.arange(n), (before, after), mode="reflect")


def pad_reflect2d(t: Tensor, pad_h: tuple[int, int], pad_w: tuple[int, int]) -> Tensor:
    """Reflect-pad the spatial axes of a [C,H,W] tensor."""
    t = as_tensor(t)
    _, h, w = t.shape
    rows = _reflect_index(h, *pad_h)
    cols = _reflect_index(w, *pad_w)
    data = t.data[:, rows][:, :, cols]

    def vjp(g):
        tmp = np.zeros((t.shape[0], h, g.shape[2]))
        np.add.at(tmp, (slice(None), rows), g)
        gx = np.zeros_like(t.data)
        np.add.at(gx, (slice(None), slice(None), cols), tmp)
        return ((t, gx),)

    return _node(data, (t,), vjp)


# ---------------------------------------------------------------------------
# reductions


def tsum(t: Tensor, axis=None) -> Tensor:
    t = as_tensor(t)
    data = t.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return ((t, np.broadcast_to(g, t.shape).copy()),)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        ge = np.expand_dims(g, tuple(a % t.ndim for a in axes))
        return ((t, np.broadcast_to(ge, t.shape).copy()),)

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
    t = as_tensor(t)
    # fmax maps NaN to 0 like the mask does; the in-place += 0.0 turns the
    # -0.0 that fmax can leave (numpy's scalar tail and strided loops) into
    # +0.0, so data is bit-identical to where(t.data > 0, t.data, 0.0).
    data = np.fmax(t.data, 0.0)
    data += 0.0

    def vjp(g):
        return ((t, g * (t.data > 0)),)

    return _node(data, (t,), vjp)


def sigmoid(t: Tensor) -> Tensor:
    t = as_tensor(t)
    x = t.data
    e = np.exp(-np.abs(x))
    data = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def vjp(g):
        return ((t, g * data * (1.0 - data)),)

    return _node(data, (t,), vjp)


def absolute(t: Tensor) -> Tensor:
    t = as_tensor(t)
    data = np.abs(t.data)

    def vjp(g):
        return ((t, g * np.sign(t.data)),)

    return _node(data, (t,), vjp)


def softmax_array(x: Array, axis: int) -> Array:
    """Max-stabilized softmax of a plain array along `axis`; rows sum to 1."""
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(t: Tensor, axis: int) -> Tensor:
    """Max-stabilized softmax along `axis`; rows sum to 1."""
    t = as_tensor(t)
    data = softmax_array(t.data, axis)

    def vjp(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return ((t, data * (g - dot)),)

    return _node(data, (t,), vjp)


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize over one axis, then apply learnable scale and shift."""
    t, gamma, beta = as_tensor(t), as_tensor(gamma), as_tensor(beta)
    ax = axis % t.ndim
    n = t.shape[ax]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError("layer_norm scale/shift must match the normalized extent")
    shape = [1] * t.ndim
    shape[ax] = n
    gb = gamma.data.reshape(shape)
    bb = beta.data.reshape(shape)

    mu = t.data.mean(axis=ax, keepdims=True)
    var = t.data.var(axis=ax, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (t.data - mu) * inv
    data = gb * xhat + bb

    reduce_axes = tuple(i for i in range(t.ndim) if i != ax)

    def vjp(g):
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        gg = g * gb
        m1 = gg.mean(axis=ax, keepdims=True)
        m2 = (gg * xhat).mean(axis=ax, keepdims=True)
        dx = inv * (gg - m1 - xhat * m2)
        return ((t, dx), (gamma, dgamma), (beta, dbeta))

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
    x2 = t.data.reshape(d_in, -1)
    data = np.empty((d_out,) + t.shape[1:])
    y2 = data.reshape(d_out, -1)
    np.matmul(weight.data, x2, out=y2)
    y2 += bias.data[:, None]

    def vjp(g):
        g2 = g.reshape(d_out, -1)
        return ((t, (weight.data.T @ g2).reshape(t.shape)), (weight, g2 @ x2.T),
                (bias, g2.sum(axis=1)))

    return _node(data, (t, weight, bias), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product; leading (batch) dims must match exactly."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul: leading dims differ {a.shape} vs {b.shape}")
    data = np.matmul(a.data, b.data)

    def vjp(g):
        return (
            (a, np.matmul(g, np.swapaxes(b.data, -1, -2))),
            (b, np.matmul(np.swapaxes(a.data, -1, -2), g)),
        )

    return _node(data, (a, b), vjp)


# ---------------------------------------------------------------------------
# conv2d


def _im2col_blocks(x: Array, k: int):
    """Yield (r0, r1, cols) over blocks of output rows of a [C_in,H,W] input
    under a k x k kernel, same-padded by p = (k-1)//2, so the output is [H,W].

    cols is the [C_in*k*k, (r1-r0)*W] im2col matrix of output rows [r0, r1):
    its rows are ordered like a flattened [C_in,k,k] kernel and its columns
    like the flattened output rows. Each block is one zeroed [C_in,k,k,rows,W]
    buffer into which every tap copies its in-bounds rectangle straight from
    the unpadded input, so the zeros stand for the padding and no padded copy
    of x is made; a tap whose rectangle is empty (an edge tap of an edge
    block, or input, of at most p rows) is skipped.
    Blocks hold at most _CONV_BLOCK_ELEMS elements, or one output row.

    _corr2d multiplies cols by a Fortran-ordered [C_out, C_in*k*k] kernel
    matrix. With that operand order BLAS sums each output in the same order
    for every block width, so a blocked result is bit-exact to a
    single-block one; a C-ordered kernel matrix lets OpenBLAS switch GEMM
    kernels, and summation order, with the block width.
    """
    c_in, h, w = x.shape
    p = (k - 1) // 2
    block = max(1, _CONV_BLOCK_ELEMS // (c_in * k * k * w))
    for r0 in range(0, h, block):
        r1 = min(r0 + block, h)
        buf = np.zeros((c_in, k, k, r1 - r0, w))
        for u in range(k):
            # Output rows i in [i0, i1) read input rows i + u - p.
            i0, i1 = max(r0, p - u), min(r1, h + p - u)
            if i0 >= i1:
                continue
            for v in range(k):
                j0, j1 = max(0, p - v), min(w, w + p - v)
                if j0 < j1:
                    buf[:, u, v, i0 - r0 : i1 - r0, j0:j1] = x[
                        :, i0 + u - p : i1 + u - p, j0 + v - p : j1 + v - p
                    ]
        yield r0, r1, buf.reshape(-1, (r1 - r0) * w)


def _corr2d(x: Array, kernel: Array, pair: Array | None = None):
    """Blocked im2col same-padded cross-correlation of [C_in,H,W] with
    [C_out,C_in,k,k], giving [C_out,H,W].

    With `pair`, a [C_p,H,W] array, it returns (out, acc): acc is the
    [C_in*k*k, C_p] sum over blocks of cols @ pair's matching rows.
    """
    c_in, h, w = x.shape
    c_out, ck = kernel.shape[:2]
    if ck != c_in:
        raise ValueError(f"conv2d: kernel expects {ck} input channels, got {c_in}")
    # Fortran order keeps blocked results bit-exact; see _im2col_blocks.
    km = np.asfortranarray(kernel.reshape(c_out, -1))
    out = np.empty((c_out, h, w))
    flat = out.reshape(c_out, -1)
    acc = None
    for r0, r1, cols in _im2col_blocks(x, kernel.shape[2]):
        np.matmul(km, cols, out=flat[:, r0 * w : r1 * w])
        if pair is not None:
            part = cols @ pair[:, r0:r1].reshape(pair.shape[0], -1).T
            if acc is None:
                acc = part
            else:
                acc += part
    return out if pair is None else (out, acc)


def _corr2d_kernel_grad(x: Array, g: Array, k: int) -> Array:
    c_out = g.shape[0]
    dk = None
    for r0, r1, cols in _im2col_blocks(x, k):
        part = g[:, r0:r1].reshape(c_out, -1) @ cols.T
        if dk is None:
            dk = part
        else:
            dk += part
    return dk.reshape(c_out, x.shape[0], k, k)


def conv2d(t: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """2-D cross-correlation of [C_in,H,W] with a [C_out,C_in,k,k] kernel,
    k odd and zero-padded by (k-1)//2, plus a [C_out] bias: y is [C_out,H,W].

    The kernel gradient is always computed (every kernel is a Parameter).
    The input gradient correlates g with the flipped kernel, also
    same-padded, so it builds the im2col of g; the kernel gradient is then
    read off that same im2col, since
    dk[co,ci,u,v] = sum_ij cols_g[(co,k-1-u,k-1-v), ij] * x[ci].ravel()[ij];
    each block of cols_g covers input rows [r0, r1), the rows of x it pairs
    with. A backward pass then builds one im2col instead of two. When only
    the kernel needs a gradient (a first layer over data: the denoiser's
    conv_in and cond_in, RGAN's embed_hsi and embed_rgb), it comes from the
    im2col of x, which has C_in*k*k rows against C_out*k*k for g (27
    against 288 for the 3-band embed_rgb). Building the im2col of g there
    too made the benchmark's train_diffusion about 5% slower. The bias
    gradient sums g over rows, then columns, as a broadcast add's vjp does.
    """
    t, kernel, bias = as_tensor(t), as_tensor(kernel), as_tensor(bias)
    if t.ndim != 3 or 0 in t.shape[1:] or kernel.ndim != 4:
        raise ValueError("conv2d expects a non-empty input [C,H,W] and kernel [C_out,C_in,k,k]")
    c_out, c_in, k, kw = kernel.shape
    if k != kw or k % 2 == 0:
        raise ValueError("conv2d kernel must be square with odd extent")
    if bias.shape != (c_out,):
        raise ValueError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
    data = _corr2d(t.data, kernel.data)
    data += bias.data[:, None, None]

    def vjp(g):
        gb = g.sum(axis=1, keepdims=True).sum(axis=2, keepdims=True).reshape(c_out)
        if not t._needs:
            return ((kernel, _corr2d_kernel_grad(t.data, g, k)), (bias, gb))
        flipped = np.flip(kernel.data, axis=(2, 3)).transpose(1, 0, 2, 3)
        gx, acc = _corr2d(g, flipped, pair=t.data)
        gk = acc.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        return ((t, gx), (kernel, gk), (bias, gb))

    return _node(data, (t, kernel, bias), vjp)


# ---------------------------------------------------------------------------
# resampling


def _interp_matrix(n_out: int, n_in: int) -> Array:
    """Row-stochastic 1-D linear interpolation matrix (half-pixel centers)."""
    m = np.zeros((n_out, n_in))
    if n_in == 1:
        m[:, 0] = 1.0
        return m
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
        return ((t, np.matmul(np.matmul(rmat.T, g), cmat)),)

    return _node(data, (t,), vjp)


def bilinear_resize_array(x: Array, out_h: int, out_w: int) -> Array:
    """Non-graph variant of bilinear_resize for plain arrays."""
    rmat = _interp_matrix(out_h, x.shape[1])
    cmat = _interp_matrix(out_w, x.shape[2])
    return np.matmul(np.matmul(rmat, x), cmat.T)
