"""Rectangular guided attention network for RGB-guided HSI super-resolution.

Two feature streams (HSI and RGB) pass through a stack of guided attention
layers. Each layer runs windowed self-attention per stream and windowed
cross-attention between streams, each one `Rca(zq, zkv)` call (zq's
queries over zkv's keys and values; zq is zkv for self-attention), then a
channel gate and a feed-forward block, with a residual around every
sub-layer. Attention is computed inside non-overlapping rectangular
windows: the first half of the channels uses wide (horizontal) windows,
the second half tall (vertical) windows. In training the graph holds the
feature maps between sub-layers, and the intermediates of one sub-layer
only while its vjp runs: backward rebuilds an attention's q/k/v and maps
from its streams (`window_attention`), and reruns each per-pixel block
from its input (`ad.checkpoint`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import DataError, Parameter, RandomSource, Tensor
from .hsi import HsiCube, as_list, check_int, chw_array


@dataclass(frozen=True)
class AttentionConfig:
    channels: int
    heads: int = 1
    window_h: tuple[int, int] = (2, 8)  # wide: w >= h
    window_v: tuple[int, int] = (8, 2)  # tall: h >= w
    layers: int = 2

    def __post_init__(self):
        # Fields keep the Python ints check_int returns, so that a numpy
        # integer argument still fits a checkpoint's JSON config.
        for name in ("channels", "heads", "layers"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        for name in ("window_h", "window_v"):
            window = getattr(self, name)
            if not (isinstance(window, tuple) and len(window) == 2):
                raise ValueError(f"{name} must be a pair of integers, got {window!r}")
            object.__setattr__(self, name, tuple(check_int(e, f"{name} extent") for e in window))
        if self.channels % (2 * self.heads):
            raise ValueError("channels must be divisible by 2*heads (two spectral halves)")
        if self.window_h[1] < self.window_h[0]:
            raise ValueError(f"horizontal window must be wide, got {self.window_h}")
        if self.window_v[0] < self.window_v[1]:
            raise ValueError(f"vertical window must be tall, got {self.window_v}")

    @property
    def row_divisor(self) -> int:
        return math.lcm(self.window_h[0], self.window_v[0])

    @property
    def col_divisor(self) -> int:
        return math.lcm(self.window_h[1], self.window_v[1])


@dataclass(frozen=True)
class RganConfig:
    bands: int
    scale: int = 2
    attention: AttentionConfig = field(default_factory=lambda: AttentionConfig(16))

    def __post_init__(self):
        object.__setattr__(self, "bands", check_int(self.bands, "bands"))
        object.__setattr__(self, "scale", check_int(self.scale, "scale"))
        if self.scale not in (2, 4):
            raise ValueError("scale must be 2 or 4")


# ---------------------------------------------------------------------------
# window attention


def window_heads(x: np.ndarray, window: tuple[int, int], heads: int) -> np.ndarray:
    """[C,H,W] -> contiguous [n_windows, heads, h*w, C/heads], in one copy:
    non-overlapping h x w windows in row-major order, tokens row-major
    inside each window."""
    c, height, width = x.shape
    h, w = window
    if height % h or width % w:
        raise ValueError(f"extents {height}x{width} not divisible by window {window}")
    g = x.reshape(heads, c // heads, height // h, h, width // w, w).transpose(2, 4, 0, 3, 5, 1)
    return np.ascontiguousarray(g).reshape(-1, heads, h * w, c // heads)


def merge_window_heads(x: np.ndarray, window: tuple[int, int], out: np.ndarray) -> np.ndarray:
    """Inverse of window_heads: writes [n_windows, heads, h*w, d] into the
    C-contiguous [heads*d, H, W] array `out`, in one copy, and returns it."""
    if not out.flags.c_contiguous:
        raise ValueError("merge_window_heads writes into a C-contiguous array")
    _, heads, _, d = x.shape
    h, w = window
    _, height, width = out.shape
    g = x.reshape(height // h, width // w, heads, h, w, d).transpose(2, 5, 0, 3, 1, 4)
    out.reshape(heads, d, height // h, h, width // w, w)[...] = g
    return out


def _key_major_attention(q: np.ndarray, k: np.ndarray, pos: np.ndarray,
                         scale: float) -> np.ndarray:
    """Attention map of windowed q and k ([n_windows, heads, t, d]) under the
    per-head bias pos [heads, t, t], laid out key-major: [t_j, n_windows*heads,
    t_i], softmaxed over its leading (key) axis."""
    n, heads, t, d = q.shape
    logits = np.empty((t, n * heads, t))
    np.matmul(k.reshape(-1, t, d), q.reshape(-1, t, d).transpose(0, 2, 1),
              out=logits.transpose(1, 0, 2))
    logits *= scale
    biased = logits.reshape(t, n, heads, t)
    biased += pos.transpose(2, 0, 1)[:, None]
    return ad.softmax_array(logits, axis=0, out=logits)


def _half_qkv(zq: np.ndarray, zkv: np.ndarray, weight: np.ndarray, bias: np.ndarray,
              rows: slice) -> np.ndarray:
    """One half's query, key and value rows `rows`, as [3, len(rows), H, W]:
    the query rows of `weight @ zq + bias` and the key and value rows of
    `weight @ zkv + bias` (weight [3C,C], bias [3C], mapping channels per
    pixel as `ad.linear` does), one product per stream."""
    c, height, width = zq.shape
    w3, b3 = weight.reshape(3, c, c)[:, rows], bias.reshape(3, c)[:, rows]
    qkv = np.empty((3, rows.stop - rows.start, height, width))
    for thirds, z in ((slice(0, 1), zq), (slice(1, 3), zkv)):
        y = qkv[thirds].reshape(-1, height * width)
        np.matmul(w3[thirds].reshape(-1, c), z.reshape(c, -1), out=y)
        y += b3[thirds].reshape(-1, 1)
    return qkv


def _attend(zq: np.ndarray, zkv: np.ndarray, weight: np.ndarray, bias: np.ndarray, halves,
            heads: int, scale: float) -> np.ndarray:
    """Both halves of the attention, into one [C,H,W] output; each half is
    projected, windowed, attended and merged before the next one starts."""
    out = np.empty(zq.shape)
    for rows, window, pos in halves:
        q, k, v = (window_heads(x, window, heads)
                   for x in _half_qkv(zq, zkv, weight, bias, rows))
        n, _, t, d = v.shape
        attn = _key_major_attention(q, k, pos, scale)
        mixed = np.matmul(attn.transpose(1, 2, 0), v.reshape(-1, t, d))
        merge_window_heads(mixed.reshape(n, heads, t, d), window, out[rows])
        del q, k, v, attn, mixed  # free this half's arrays before the next runs
    return out


def _attend_vjp(zq: np.ndarray, zkv: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                g: np.ndarray, halves, heads: int,
                scale: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """(d q|k|v as [3, C, H, W], [d pos of each half]) of `_attend` at output
    gradient g. Each half's q, k, v and map are rebuilt through the
    forward's helpers, bit-identical to the forward's."""
    dqkv = np.empty((3,) + g.shape)  # query, key, value
    dpos = []
    for rows, window, pos in halves:
        q, k, v, dout = (window_heads(x, window, heads)
                         for x in (*_half_qkv(zq, zkv, weight, bias, rows), g[rows]))
        attn = _key_major_attention(q, k, pos, scale)
        n, _, t, d = q.shape
        q, k, v, dout = (x.reshape(-1, t, d) for x in (q, k, v, dout))
        dattn = np.empty_like(attn)  # key-major, as attn
        np.matmul(v, dout.transpose(0, 2, 1), out=dattn.transpose(1, 0, 2))
        dv = np.matmul(attn.transpose(1, 0, 2), dout)
        dattn -= ad._sum_in_order(dattn * attn, axis=0)
        dattn *= attn
        dpos.append(dattn.reshape(t, n, heads, t).sum(axis=1).transpose(1, 2, 0))
        dattn *= scale
        dlogits = dattn.transpose(1, 2, 0)
        dk = np.matmul(q.transpose(0, 2, 1), dlogits).transpose(0, 2, 1)
        for grad, part in zip(dqkv, (np.matmul(dlogits, k), dk, dv)):
            merge_window_heads(part.reshape(n, heads, t, d), window, grad[rows])
    return dqkv, dpos


def window_attention(zq: Tensor, zkv: Tensor, weight: Tensor, bias: Tensor,
                     cfg: AttentionConfig, pos_h: Tensor, pos_v: Tensor) -> Tensor:
    """Rectangular windowed multi-head attention of the queries of one
    [C,H,W] stream over the keys and values of another, with its q/k/v
    projection; self-attention passes one stream as both.

    The queries are rows [0,C) of `weight @ zq + bias`, and the keys and
    values rows [C,3C) of `weight @ zkv + bias` (weight [3C,C], bias [3C],
    mapping channels per pixel as `ad.linear` does). Channels [:C/2] attend
    inside wide cfg.window_h windows with bias pos_h and channels [C/2:]
    inside tall cfg.window_v windows with pos_v, each bias a per-head
    [heads, h*w, h*w] map shared across windows. The halves run one after
    the other, each projecting only its own q, k and v rows (one product
    per stream) and merging into one [C,H,W] output, so only one half's
    q/k/v is alive at a time and no [3C,H,W] array is ever built.

    Each half's attention map is laid out key-major, [t_j, windows*heads,
    t_i]: k q^T is written into it through a transposed view, so the
    softmax max and sum reduce its leading axis (the fast case in numpy),
    and the product with v reads it as a column-major view. Every element
    still sees the op order of the composed chain (query and key/value
    projections, split, windows, heads, q k^T, scale, + pos, softmax, @ v,
    merge), the softmax sums in index order, and the closed-form vjp keeps
    that chain's matmul operand order. So values and gradients are
    bit-exact to it.

    One graph node with parents (zq, zkv, weight, bias, pos_h, pos_v); when
    zq is zkv, backward sums that stream's two gradients as it sums those of
    any shared parent. The vjp saves no projection and no attention map: it
    closes over the arrays of the streams, weight, bias, pos_h and pos_v
    only. Half by half, it rebuilds that half's q, k, v and map through the
    forward's helpers, bit-identical to the forward's, and runs the
    attention's vjp into that half's rows of one [3C,H,W] q/k/v gradient.
    The projection's vjp then takes W[:C]^T dq for zq and W[C:]^T dkv for
    zkv. It holds no Tensor, so the output is freed once the caller drops
    it. The saved arrays must not change before backward.
    """
    if zkv.shape != zq.shape:
        raise ValueError(f"stream shapes differ: {zq.shape} vs {zkv.shape}")
    c = zq.shape[0]
    xq, xkv, w, b = zq.data, zkv.data, weight.data, bias.data
    halves = ((slice(0, c // 2), cfg.window_h, pos_h.data),
              (slice(c // 2, c), cfg.window_v, pos_v.data))
    scale = 1.0 / np.sqrt(c // (2 * cfg.heads))
    out = _attend(xq, xkv, w, b, halves, cfg.heads, scale)

    def vjp(g):
        dqkv, dpos = _attend_vjp(xq, xkv, w, b, g, halves, cfg.heads, scale)
        d2 = dqkv.reshape(3 * c, -1)
        dw = np.empty(w.shape)
        np.matmul(d2[:c], xq.reshape(c, -1).T, out=dw[:c])
        np.matmul(d2[c:], xkv.reshape(c, -1).T, out=dw[c:])
        return ((w[:c].T @ d2[:c]).reshape(xq.shape), (w[c:].T @ d2[c:]).reshape(xkv.shape),
                dw, d2.sum(axis=1), *dpos)

    return ad._node(out, (zq, zkv, weight, bias, pos_h, pos_v), vjp)


# ---------------------------------------------------------------------------
# modules


class Rca(nn.Module):
    """Rectangular window attention of one stream's queries over another's
    keys and values: `Rca(zq, zkv)` is one `window_attention` node, which
    projects zq's queries and zkv's keys and values through the `qkv`
    weights, and carries zkv's content. Self-attention is `Rca(z, z)`, the
    same node with one stream as both. Cross-attention in both directions
    is two calls with the streams swapped, which share `qkv`.
    """

    def __init__(self, cfg: AttentionConfig, rng: RandomSource, name: str):
        self.cfg = cfg
        c = cfg.channels
        self.qkv = nn.Linear(c, 3 * c, rng.child(0), f"{name}.qkv")
        th = cfg.window_h[0] * cfg.window_h[1]
        tv = cfg.window_v[0] * cfg.window_v[1]
        self.pos_h = Parameter(np.zeros((cfg.heads, th, th)), name=f"{name}.pos_h")
        self.pos_v = Parameter(np.zeros((cfg.heads, tv, tv)), name=f"{name}.pos_v")

    def __call__(self, zq: Tensor, zkv: Tensor) -> Tensor:
        return window_attention(zq, zkv, self.qkv.weight, self.qkv.bias, self.cfg,
                                self.pos_h, self.pos_v)


class SpectralGate(nn.Module):
    """Channel attention: spatial mean -> two linear layers -> sigmoid gate.

    The gate scales the channels of a linear value map, so zeroed weights
    contribute exactly nothing through the surrounding residual.

    One `ad.checkpoint` node: the graph keeps only the input map (and the
    parameters), not the [C,H,W] value map or the gate; backward
    recomputes them. The input's gradient from the mean and from the value
    map is summed inside the node, so its sum with the residual's rounds
    otherwise than the three summed in one walk would. `fc1`, `fc2` and
    `value` hold the parameters, which `_spectral_gate` applies.
    """

    def __init__(self, channels: int, rng: RandomSource, name: str):
        hidden = max(channels // 2, 1)
        self.fc1 = nn.Linear(channels, hidden, rng.child(0), f"{name}.fc1")
        self.fc2 = nn.Linear(hidden, channels, rng.child(1), f"{name}.fc2")
        self.value = nn.Linear(channels, channels, rng.child(2), f"{name}.value")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.checkpoint(_spectral_gate, (x,), self.parameters())


def _spectral_gate(x, w1, b1, w2, b2, wv, bv):
    pooled = ad.relu(ad.linear(ad.mean(x, axis=(1, 2)), w1, b1))
    gate = ad.sigmoid(ad.linear(pooled, w2, b2))
    return ad.mul(ad.linear(x, wv, bv), ad.reshape(gate, (x.shape[0], 1, 1)))


class Ffd(nn.Module):
    """Feed-forward block mixing the channels of a [C,H,W] map per pixel:
    layer norm, then two linears with a ReLU; hidden width is 2C.

    One `ad.checkpoint` node: the graph keeps only the input map (and the
    parameters), not the normalized map or the [2C,H,W] hidden one;
    backward recomputes them, bit-exact to the forward's. `norm`, `fc1`
    and `fc2` hold the parameters, which `_ffd` applies.
    """

    def __init__(self, channels: int, rng: RandomSource, name: str):
        self.norm = nn.LayerNorm(channels, f"{name}.norm")
        self.fc1 = nn.Linear(channels, 2 * channels, rng.child(0), f"{name}.fc1")
        self.fc2 = nn.Linear(2 * channels, channels, rng.child(1), f"{name}.fc2")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.checkpoint(_ffd, (x,), self.parameters())


def _ffd(x, gamma, beta, w1, b1, w2, b2):
    return ad.linear(ad.relu(ad.linear(ad.layer_norm(x, gamma, beta), w1, b1)), w2, b2)


class Gal(nn.Module):
    """Guided attention layer: SAL, CAL, SpecAL, FFD, residual each. CAL
    is one `Rca` called once per direction, `cal(rgb, hsi)` then `cal(hsi, rgb)`.

    With `rgb_out=False` the RGB stream stops after its SAL, which feeds
    the CAL queries of the HSI stream, and None is returned in its place:
    RganModel's last layer, whose RGB output its head never reads. That
    layer's spec_rgb and ffd_rgb then get no gradient, so Adam leaves them
    bit-identical; they stay so that every parameter keeps its name, shape
    and checkpoint order.
    """

    def __init__(self, cfg: AttentionConfig, rng: RandomSource, name: str):
        self.sal_hsi = Rca(cfg, rng.child(0), f"{name}.sal_hsi")
        self.sal_rgb = Rca(cfg, rng.child(1), f"{name}.sal_rgb")
        self.cal = Rca(cfg, rng.child(2), f"{name}.cal")
        self.spec_hsi = SpectralGate(cfg.channels, rng.child(3), f"{name}.spec_hsi")
        self.spec_rgb = SpectralGate(cfg.channels, rng.child(4), f"{name}.spec_rgb")
        self.ffd_hsi = Ffd(cfg.channels, rng.child(5), f"{name}.ffd_hsi")
        self.ffd_rgb = Ffd(cfg.channels, rng.child(6), f"{name}.ffd_rgb")

    def __call__(self, hsi_feat: Tensor, rgb_feat: Tensor, *,
                 rgb_out: bool = True) -> tuple[Tensor, Tensor | None]:
        hsi_feat = ad.add(hsi_feat, self.sal_hsi(hsi_feat, hsi_feat))
        rgb_feat = ad.add(rgb_feat, self.sal_rgb(rgb_feat, rgb_feat))
        d_hsi = self.cal(rgb_feat, hsi_feat)
        d_rgb = self.cal(hsi_feat, rgb_feat) if rgb_out else None
        hsi_feat = ad.add(hsi_feat, d_hsi)
        hsi_feat = ad.add(hsi_feat, self.spec_hsi(hsi_feat))
        hsi_feat = ad.add(hsi_feat, self.ffd_hsi(hsi_feat))
        if not rgb_out:
            return hsi_feat, None
        rgb_feat = ad.add(rgb_feat, d_rgb)
        rgb_feat = ad.add(rgb_feat, self.spec_rgb(rgb_feat))
        rgb_feat = ad.add(rgb_feat, self.ffd_rgb(rgb_feat))
        return hsi_feat, rgb_feat


class RganModel(nn.Module):
    """Guided SR model: shallow embeds, GAL stack, zero-init head, global
    bilinear residual. At initialization the output equals the bilinear
    upsample of the input."""

    def __init__(self, config: RganConfig, seed: int = 0):
        self.config = config
        rng = RandomSource(seed)
        c = config.attention.channels
        self.embed_hsi = nn.Conv2d(config.bands, c, rng.child(0), "embed_hsi")
        self.embed_rgb = nn.Conv2d(3, c, rng.child(1), "embed_rgb")
        self.gals = [Gal(config.attention, rng.child(10 + i), f"gal{i}")
                     for i in range(config.attention.layers)]
        self.head = nn.Conv2d(c, config.bands, rng.child(2), "head", zero_init=True)

    def forward(self, lr: Tensor, rgb: Tensor) -> Tensor:
        bands, h, w = lr.shape
        if bands != self.config.bands:
            raise ValueError(f"input has {bands} bands, config.bands is {self.config.bands}")
        scale = self.config.scale
        if rgb.shape != (3, h * scale, w * scale):
            raise ValueError(
                f"guide shape {rgb.shape} does not match lr {lr.shape} at scale {scale}"
            )
        att = self.config.attention
        hh, ww = h * scale, w * scale
        if hh % att.row_divisor or ww % att.col_divisor:
            raise ValueError(
                f"output extents {hh}x{ww} not divisible by windows "
                f"({att.row_divisor}x{att.col_divisor}); pad before the model"
            )
        hsi_feat = ad.bilinear_resize(self.embed_hsi(lr), hh, ww)
        rgb_feat = self.embed_rgb(rgb)
        for i, gal in enumerate(self.gals, 1):
            hsi_feat, rgb_feat = gal(hsi_feat, rgb_feat, rgb_out=i < len(self.gals))
        # the residual is made last: held through the GALs it would raise
        # the inference peak by its [bands,H,W] size
        return ad.add(self.head(hsi_feat), ad.bilinear_resize(lr, hh, ww))


# ---------------------------------------------------------------------------
# pipeline ops


def _pad_amount(extent: int, divisor: int) -> int:
    return (-extent) % divisor


def rgan_forward(lr_cube: HsiCube, hr_rgb: np.ndarray, model: RganModel) -> HsiCube:
    """Guided super-resolution of a cube with an RGB image as guidance.

    Pads reflectively to window-divisible extents, runs the model without
    recording the graph, crops back, and clamps to [0,1] (inference
    behaviour). A non-finite model output raises NumericalFailure.
    """
    scale = model.config.scale
    hr_rgb = chw_array(hr_rgb, "hr_rgb")
    if hr_rgb.shape != (3, lr_cube.height * scale, lr_cube.width * scale):
        raise ValueError(
            f"guide shape {hr_rgb.shape} does not match cube "
            f"{lr_cube.height}x{lr_cube.width} at scale {scale}"
        )
    att = model.config.attention
    lr_div = math.lcm(att.row_divisor, scale) // scale
    lc_div = math.lcm(att.col_divisor, scale) // scale
    ph = _pad_amount(lr_cube.height, lr_div)
    pw = _pad_amount(lr_cube.width, lc_div)
    lr_t = Tensor(lr_cube.values)
    rgb_t = Tensor(hr_rgb)
    if ph or pw:
        lr_t = ad.pad_reflect2d(lr_t, (0, ph), (0, pw))
        rgb_t = ad.pad_reflect2d(rgb_t, (0, ph * scale), (0, pw * scale))
    with ad.no_grad():
        out = model.forward(lr_t, rgb_t)
    if ph or pw:
        out = ad.crop2d(out, 0, lr_cube.height * scale, 0, lr_cube.width * scale)
    if not np.all(np.isfinite(out.data)):
        raise nn.NumericalFailure("rgan_forward: the RGAN model produced non-finite values")
    return HsiCube(np.clip(out.data, 0.0, 1.0), lr_cube.wavelengths)


def train_rgan(pairs, model: RganModel, steps: int, lr: float = 5e-3,
               seed: int = 0) -> list[float]:
    """Minimize mean absolute error over (lr_cube, hr_rgb, target) pairs.

    Schedule: 5% warmup, flat plateau, cosine tail to zero over the last
    35%. Position embeddings get a 30x learning rate: they start at zero and
    gate all spatial detail transfer, so they are the slow path at a
    200-step budget.
    Each pair is an (HsiCube, [C,H,W] array, HsiCube) tuple or list;
    DataError names `pairs[i]` of another form.
    Deterministic under a fixed seed; raises NumericalFailure on NaN loss.
    Returns the per-step loss trace.
    """
    pairs = as_list(pairs, "pairs", "(lr_cube, hr_rgb, target) tuples")
    if not pairs:
        raise ValueError("empty training pair set")
    rng = RandomSource(seed)
    params = model.parameters()
    mults = [30.0 if ".pos_" in p.name else 1.0 for p in params]
    opt = nn.Adam(params, lr=lr, betas=(0.9, 0.99), lr_mults=mults)
    tensors = []
    for i, pair in enumerate(pairs):
        if not isinstance(pair, (tuple, list)) or len(pair) != 3:
            raise DataError(f"pairs[{i}] must be an (lr_cube, hr_rgb, target) tuple, "
                            f"got {type(pair).__name__}")
        lr_cube, hr_rgb, target = pair
        for name, cube in (("lr_cube", lr_cube), ("target", target)):
            if not isinstance(cube, HsiCube):
                raise DataError(f"pairs[{i}] {name} must be an HsiCube, "
                                f"got {type(cube).__name__}")
        tensors.append((Tensor(lr_cube.values), Tensor(chw_array(hr_rgb, f"pairs[{i}] hr_rgb")),
                        Tensor(target.values)))

    # The previous prediction stays alive until the next forward has made its
    # own. It sits near the top of the heap, so glibc does not trim the
    # memory `backward` frees and the next forward does not fault it back in
    # (benchmark train_rgan on a 2-vCPU Xeon with glibc 2.36 and numpy 2.4.6,
    # median of 12 in-process ops, two copies of the tree at paths of one
    # length: about 6.7k minor faults per 2-step op with it, 13.7k without).
    pred = None

    def step_loss(step):
        nonlocal pred
        lr_t, rgb_t, target = tensors[int(rng.integers(0, len(tensors)))]
        pred = model.forward(lr_t, rgb_t)
        yield nn.l1_loss(pred, target)

    return nn.fit(opt, steps, step_loss, warmup_frac=0.05, tail_frac=0.35)


def save_rgan(model: RganModel, path) -> None:
    nn.save_checkpoint(path, "rgan", asdict(model.config), model.parameters())


def load_rgan(path) -> RganModel:
    kind, config, values = nn.load_checkpoint(path)
    if kind != "rgan":
        raise ValueError(f"{path}: checkpoint kind {kind!r}, expected 'rgan'")
    model = RganModel(nn.read_config(path, config, RganConfig))
    nn.assign_parameters(model.parameters(), values)
    return model
