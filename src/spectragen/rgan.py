"""Rectangular guided attention network for RGB-guided HSI super-resolution.

Two feature streams (HSI and RGB) pass through a stack of guided attention
layers. Each layer runs windowed self-attention per stream, windowed
cross-attention between streams, a channel gate, and a feed-forward block,
with a residual around every sub-layer. Attention is computed inside
non-overlapping rectangular windows: the first half of the channels uses
wide (horizontal) windows, the second half tall (vertical) windows, and one
node writes both halves into one output.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Parameter, RandomSource, Tensor
from .hsi import HsiCube


@dataclass(frozen=True)
class AttentionConfig:
    channels: int
    heads: int = 1
    window_h: tuple[int, int] = (2, 8)  # wide: w >= h
    window_v: tuple[int, int] = (8, 2)  # tall: h >= w
    layers: int = 2

    def __post_init__(self):
        for name, extents in (("channels", (self.channels,)), ("heads", (self.heads,)),
                              ("window_h", self.window_h), ("window_v", self.window_v)):
            if min(extents) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.channels % 2:
            raise ValueError("channels must be even (spectral split into halves)")
        if self.channels % (2 * self.heads):
            raise ValueError("channels must be divisible by 2*heads")
        if self.window_h[1] < self.window_h[0]:
            raise ValueError(f"horizontal window must be wide, got {self.window_h}")
        if self.window_v[0] < self.window_v[1]:
            raise ValueError(f"vertical window must be tall, got {self.window_v}")
        if self.layers < 1:
            raise ValueError("need at least one layer")

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
        if self.scale not in (2, 4):
            raise ValueError("scale must be 2 or 4")


# ---------------------------------------------------------------------------
# window attention


def window_heads(x: np.ndarray, window: tuple[int, int], heads: int) -> np.ndarray:
    """[C,H,W] -> [n_windows, heads, h*w, C/heads]: non-overlapping h x w
    windows in row-major order, tokens row-major inside each window."""
    c, height, width = x.shape
    h, w = window
    if height % h or width % w:
        raise ValueError(f"extents {height}x{width} not divisible by window {window}")
    g = x.reshape(c, height // h, h, width // w, w).transpose(1, 3, 2, 4, 0)
    return g.reshape(-1, h * w, c).reshape(-1, h * w, heads, c // heads).transpose(0, 2, 1, 3)


def merge_window_heads(x: np.ndarray, window: tuple[int, int], height: int,
                       width: int) -> np.ndarray:
    """Inverse of window_heads: [n_windows, heads, h*w, d] -> [heads*d, H, W]."""
    _, heads, _, d = x.shape
    h, w = window
    g = x.reshape(height // h, width // w, heads, h, w, d).transpose(2, 5, 0, 3, 1, 4)
    return g.reshape(heads * d, height, width)


def window_attention(query: Tensor, key: Tensor, value: Tensor, cfg: AttentionConfig,
                     pos_h: Tensor, pos_v: Tensor) -> Tensor:
    """Rectangular windowed multi-head attention on [C,H,W] feature maps.

    Channels [:C/2] attend inside wide cfg.window_h windows with bias pos_h
    and channels [C/2:] inside tall cfg.window_v windows with pos_v, each
    bias a per-head [heads, h*w, h*w] map shared across windows; both
    halves are written into one [C,H,W] output.

    One graph node with parents (query, key, value, pos_h, pos_v). Per
    half, the forward keeps the op order of the composed chain (windows,
    heads, q k^T, scale, + pos, softmax, @ v, merge) and the closed-form vjp
    keeps that chain's matmul operand order, so values and gradients are
    bit-exact to it. The vjp keeps both attention maps and re-windows q, k,
    v from the parents, which must not change before backward.
    """
    c, height, width = query.shape
    halves = ((slice(0, c // 2), cfg.window_h, pos_h), (slice(c // 2, c), cfg.window_v, pos_v))
    scale = 1.0 / np.sqrt(c // (2 * cfg.heads))
    out = np.empty(query.shape)
    maps = []  # for the vjp; none is kept when no graph is recorded
    for rows, window, pos in halves:
        q, k, v = (window_heads(t.data[rows], window, cfg.heads) for t in (query, key, value))
        logits = np.matmul(q, k.transpose(0, 1, 3, 2))
        logits *= scale
        logits += pos.data
        attn = ad.softmax_array(logits, axis=-1)
        out[rows] = merge_window_heads(np.matmul(attn, v), window, height, width)
        if ad._GRAD_ENABLED.get():
            maps.append(attn)
        del q, k, v, logits, attn  # free this half's arrays before the next runs

    def vjp(g):
        grads = [np.empty(query.shape) for _ in range(3)]  # query, key, value
        dpos = []
        for (rows, window, _), attn in zip(halves, maps):
            q, k, v = (window_heads(t.data[rows], window, cfg.heads) for t in (query, key, value))
            dout = window_heads(g[rows], window, cfg.heads)
            dattn = np.matmul(dout, np.swapaxes(v, -1, -2))
            dv = np.matmul(np.swapaxes(attn, -1, -2), dout)
            dattn -= (dattn * attn).sum(axis=-1, keepdims=True)
            dattn *= attn
            dpos.append(dattn.sum(axis=0))
            dattn *= scale
            dk = np.matmul(np.swapaxes(q, -1, -2), dattn).transpose(0, 1, 3, 2)
            for grad, part in zip(grads, (np.matmul(dattn, k), dk, dv)):
                grad[rows] = merge_window_heads(part, window, height, width)
        return (*zip((query, key, value), grads), (pos_h, dpos[0]), (pos_v, dpos[1]))

    return ad._node(out, (query, key, value, pos_h, pos_v), vjp)


# ---------------------------------------------------------------------------
# modules


class Rca(nn.Module):
    """Rectangular cross-attention between two same-shape streams.

    Returns (z1_hat, z2_hat): z1_hat attends stream-2 queries against
    stream-1 keys/values (so it carries stream-1 content), and vice versa.
    Each stream's [q|k|v] projection is split once, and each output is one
    `window_attention` node. The projection is shared by both streams,
    which makes the module exactly equivariant to swapping its inputs; with
    both inputs equal it degenerates to windowed self-attention. When both
    inputs are the same tensor (`Rca(z, z)`), the projection and the
    attention run once and the one map is returned for both streams: equal
    inputs give equal streams, so the values are those of the two-stream
    path.
    """

    def __init__(self, cfg: AttentionConfig, rng: RandomSource, name: str):
        self.cfg = cfg
        c = cfg.channels
        self.qkv = nn.Linear(c, 3 * c, rng.child(0), f"{name}.qkv")
        th = cfg.window_h[0] * cfg.window_h[1]
        tv = cfg.window_v[0] * cfg.window_v[1]
        self.pos_h = Parameter(np.zeros((cfg.heads, th, th)), name=f"{name}.pos_h")
        self.pos_v = Parameter(np.zeros((cfg.heads, tv, tv)), name=f"{name}.pos_v")

    def __call__(self, z1: Tensor, z2: Tensor) -> tuple[Tensor, Tensor]:
        if z1.shape != z2.shape:
            raise ValueError(f"stream shapes differ: {z1.shape} vs {z2.shape}")
        shared = (self.cfg, self.pos_h, self.pos_v)
        q1, k1, v1 = ad.split(self.qkv(z1), 3, axis=0)
        if z1 is z2:
            z_hat = window_attention(q1, k1, v1, *shared)
            return z_hat, z_hat
        q2, k2, v2 = ad.split(self.qkv(z2), 3, axis=0)
        return window_attention(q2, k1, v1, *shared), window_attention(q1, k2, v2, *shared)


class SpectralGate(nn.Module):
    """Channel attention: spatial mean -> two linear layers -> sigmoid gate.

    The gate scales the channels of a linear value map, so zeroed weights
    contribute exactly nothing through the surrounding residual.
    """

    def __init__(self, channels: int, rng: RandomSource, name: str):
        hidden = max(channels // 2, 1)
        self.channels = channels
        self.fc1 = nn.Linear(channels, hidden, rng.child(0), f"{name}.fc1")
        self.fc2 = nn.Linear(hidden, channels, rng.child(1), f"{name}.fc2")
        self.value = nn.Linear(channels, channels, rng.child(2), f"{name}.value")

    def __call__(self, x: Tensor) -> Tensor:
        gate = ad.sigmoid(self.fc2(ad.relu(self.fc1(ad.mean(x, axis=(1, 2))))))
        return ad.mul(self.value(x), ad.reshape(gate, (self.channels, 1, 1)))


class Ffd(nn.Module):
    """Feed-forward block mixing the channels of a [C,H,W] map per pixel:
    layer norm, then two linears with a ReLU; hidden width is 2C."""

    def __init__(self, channels: int, rng: RandomSource, name: str):
        self.norm = nn.LayerNorm(channels, f"{name}.norm")
        self.fc1 = nn.Linear(channels, 2 * channels, rng.child(0), f"{name}.fc1")
        self.fc2 = nn.Linear(2 * channels, channels, rng.child(1), f"{name}.fc2")

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.relu(self.fc1(self.norm(x))))


class Gal(nn.Module):
    """Guided attention layer: SAL, CAL, SpecAL, FFD, residual each."""

    def __init__(self, cfg: AttentionConfig, rng: RandomSource, name: str):
        self.sal_hsi = Rca(cfg, rng.child(0), f"{name}.sal_hsi")
        self.sal_rgb = Rca(cfg, rng.child(1), f"{name}.sal_rgb")
        self.cal = Rca(cfg, rng.child(2), f"{name}.cal")
        self.spec_hsi = SpectralGate(cfg.channels, rng.child(3), f"{name}.spec_hsi")
        self.spec_rgb = SpectralGate(cfg.channels, rng.child(4), f"{name}.spec_rgb")
        self.ffd_hsi = Ffd(cfg.channels, rng.child(5), f"{name}.ffd_hsi")
        self.ffd_rgb = Ffd(cfg.channels, rng.child(6), f"{name}.ffd_rgb")

    def __call__(self, hsi_feat: Tensor, rgb_feat: Tensor) -> tuple[Tensor, Tensor]:
        hsi_feat = ad.add(hsi_feat, self.sal_hsi(hsi_feat, hsi_feat)[0])
        rgb_feat = ad.add(rgb_feat, self.sal_rgb(rgb_feat, rgb_feat)[0])
        d_hsi, d_rgb = self.cal(hsi_feat, rgb_feat)
        hsi_feat = ad.add(hsi_feat, d_hsi)
        rgb_feat = ad.add(rgb_feat, d_rgb)
        hsi_feat = ad.add(hsi_feat, self.spec_hsi(hsi_feat))
        rgb_feat = ad.add(rgb_feat, self.spec_rgb(rgb_feat))
        hsi_feat = ad.add(hsi_feat, self.ffd_hsi(hsi_feat))
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
        upsampled = ad.bilinear_resize(lr, hh, ww)
        hsi_feat = ad.bilinear_resize(self.embed_hsi(lr), hh, ww)
        rgb_feat = self.embed_rgb(rgb)
        for gal in self.gals:
            hsi_feat, rgb_feat = gal(hsi_feat, rgb_feat)
        return ad.add(self.head(hsi_feat), upsampled)


# ---------------------------------------------------------------------------
# pipeline ops


def _pad_amount(extent: int, divisor: int) -> int:
    return (-extent) % divisor


def rgan_forward(lr_cube: HsiCube, hr_rgb: np.ndarray, model: RganModel) -> HsiCube:
    """Guided super-resolution of a cube with an RGB image as guidance.

    Pads reflectively to window-divisible extents, runs the model without
    recording the graph, crops back, and clamps to [0,1] (inference
    behaviour).
    """
    scale = model.config.scale
    hr_rgb = np.asarray(hr_rgb, dtype=np.float64)
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
    return HsiCube(np.clip(out.data, 0.0, 1.0), lr_cube.wavelengths)


def train_rgan(pairs, model: RganModel, steps: int, lr: float = 5e-3,
               seed: int = 0) -> list[float]:
    """Minimize mean absolute error over (lr_cube, hr_rgb, target) pairs.

    Schedule: 5% warmup, flat plateau, cosine tail to zero over the last
    35%. Position embeddings get a 30x learning rate: they start at zero and
    gate all spatial detail transfer, so they are the slow path at a
    200-step budget.
    Deterministic under a fixed seed; raises NumericalFailure on NaN loss.
    Returns the per-step loss trace.
    """
    if not pairs:
        raise ValueError("empty training pair set")
    rng = RandomSource(seed)
    params = model.parameters()
    mults = [30.0 if ".pos_" in p.name else 1.0 for p in params]
    opt = nn.Adam(params, lr=lr, betas=(0.9, 0.99), lr_mults=mults)
    tensors = [
        (Tensor(p[0].values), Tensor(np.asarray(p[1], dtype=np.float64)), Tensor(p[2].values))
        for p in pairs
    ]

    # The previous prediction stays alive until the next forward has made its
    # own. It sits near the top of the heap, so glibc does not trim the
    # memory `backward` frees and the next forward does not fault it back in
    # (benchmark train_rgan on a 2-vCPU Xeon with glibc 2.36: 39k minor
    # faults per 2-step op with it, 67k without).
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
