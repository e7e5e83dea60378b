"""Latent-diffusion machinery: noise schedule, DDIM sampling, a toy
conditional denoiser with zero-convolution condition injection, pluggable
latent codecs, and the two-stage super-resolution augmentation pipeline.

The denoiser is a small 3-level convolutional encoder-decoder with skip
connections and a sinusoidal timestep embedding added per level. Spatial
conditions pass through a convolutional feature extractor whose per-scale
outputs go through zero convolutions (zero-initialized channel maps,
`nn.Linear`) before being added to the matching denoiser scale, so
conditioning contributes exactly nothing at initialization.

The denoiser is conditioned one way: `condition_features(stack, h, w)`
turns a stack into everything it adds, the projected global embedding
and the spatial features. None of it depends on the timestep or the latent,
so `sample` builds it once per call and `diffusion_loss` once per
training sample, and `forward` takes only that result.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import DataError, RandomSource, Tensor
from .hsi import (HsiCube, as_list, check_int, chw_array, crop_patches, extract_rgb,
                  iter_patches, vector_array)
from .rgan import RganModel, rgan_forward

CONDITION_TAGS = ("hed", "seg", "sketch", "mlsd", "lowres")


# ---------------------------------------------------------------------------
# noise schedule and the two diffusion primitives


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step retention alpha[t] and its running product alpha_bar[t].

    Arrays are indexed by t-1 for t in 1..T; t = 0 means "no noise" and
    alpha_bar_at(0) == 1 by convention.
    """

    alpha: np.ndarray
    alpha_bar: np.ndarray
    beta_start: float
    beta_end: float

    @property
    def timesteps(self) -> int:
        return len(self.alpha)

    def alpha_bar_at(self, t: int) -> float:
        if check_int(t, "timestep", low=0) > self.timesteps:
            raise ValueError(f"timestep {t} outside [0, {self.timesteps}]")
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])


def make_schedule(timesteps: int = 1000, beta_start: float = 1e-4,
                  beta_end: float = 2e-2) -> NoiseSchedule:
    """Linear beta schedule; alpha_t = 1 - beta_t, alpha_bar by product.
    The betas are finite reals, 0 < beta_start <= beta_end < 1 (ValueError)."""
    timesteps = check_int(timesteps, "timesteps")
    for name, beta in (("beta_start", beta_start), ("beta_end", beta_end)):
        if isinstance(beta, bool) or not isinstance(beta, numbers.Real) or not np.isfinite(beta):
            raise ValueError(f"{name} must be a finite real number, got {beta!r}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(f"invalid beta range [{beta_start}, {beta_end}]")
    beta = np.linspace(beta_start, beta_end, timesteps)
    alpha = 1.0 - beta
    return NoiseSchedule(alpha, np.cumprod(alpha), beta_start, beta_end)


def forward_noise(z0: np.ndarray, t: int, eps: np.ndarray,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form noising: z_t = sqrt(ab_t) z0 + sqrt(1 - ab_t) eps."""
    if eps.shape != z0.shape:
        raise ValueError(f"noise shape {eps.shape} != latent shape {z0.shape}")
    ab = schedule.alpha_bar_at(t)
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def ddim_step(z_t: np.ndarray, eps_hat: np.ndarray, t: int, t_prev: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """Deterministic reverse update from t to t_prev (no stochastic term)."""
    ab_t = schedule.alpha_bar_at(t)
    ab_p = schedule.alpha_bar_at(t_prev)
    if not t_prev < t:
        raise ValueError(f"t_prev {t_prev} must be below t {t}")
    z0_hat = (z_t - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
    return np.sqrt(ab_p) * z0_hat + np.sqrt(1.0 - ab_p) * eps_hat


def timestep_subsequence(timesteps: int, steps: int) -> np.ndarray:
    """Evenly spaced t values from T down to 0, inclusive (steps+1 points);
    steps <= T keeps them 1 apart or more, so they round strictly decreasing."""
    if check_int(steps, "steps") > check_int(timesteps, "timesteps"):
        raise ValueError(f"steps {steps} outside [1, {timesteps}]")
    return np.rint(np.linspace(timesteps, 0, steps + 1)).astype(int)


def _chw_shape(shape, name: str) -> tuple[int, int, int]:
    """shape as (C, H, W); ValueError naming `name` and the shape unless it
    has three axes."""
    if len(shape) != 3:
        raise ValueError(f"{name} must be a [C,H,W] array, got shape {tuple(shape)}")
    return tuple(shape)


def _check_channels(array: np.ndarray, channels: int, name: str) -> None:
    """ValueError naming `name` unless array is [C,H,W] with C == channels."""
    c, _, _ = _chw_shape(np.shape(array), name)
    if c != channels:
        raise ValueError(f"{name} has {c} channels, the codec expects {channels}")


def _packed_shape(shape, factor: int, name: str) -> tuple[int, int, int]:
    """(C, H/factor, W/factor) of a [C,H,W] shape; ValueError naming `name`
    and the factor unless the factor divides both extents."""
    c, h, w = _chw_shape(shape, name)
    if h % factor or w % factor:
        raise ValueError(f"{name} extents {h}x{w} not divisible by factor {factor}")
    return c, h // factor, w // factor


# ---------------------------------------------------------------------------
# latent codecs


class IdentityCodec:
    kind = "identity"

    def encode(self, image: np.ndarray) -> np.ndarray:
        return image

    def decode(self, latent: np.ndarray) -> np.ndarray:
        return latent

    def latent_shape(self, image_shape):
        return tuple(image_shape)


class SpaceToDepthCodec:
    """Lossless rearrangement: (C,H,W) <-> (C*r*r, H/r, W/r)."""

    kind = "space_to_depth"

    def __init__(self, factor: int = 2):
        self.factor = check_int(factor, "factor")

    def encode(self, image: np.ndarray) -> np.ndarray:
        r = self.factor
        c, h, w = _packed_shape(image.shape, r, "image")
        return (
            image.reshape(c, h, r, w, r)
            .transpose(0, 2, 4, 1, 3)
            .reshape(c * r * r, h, w)
        )

    def decode(self, latent: np.ndarray) -> np.ndarray:
        cr, h, w = _chw_shape(latent.shape, "latent")
        r = self.factor
        if cr % (r * r):
            raise ValueError(f"latent has {cr} channels, not a multiple of factor**2 = {r * r}")
        c = cr // (r * r)
        return (
            latent.reshape(c, r, r, h, w)
            .transpose(0, 3, 1, 4, 2)
            .reshape(c, h * r, w * r)
        )

    def latent_shape(self, image_shape):
        c, h, w = _packed_shape(image_shape, self.factor, "image_shape")
        return (c * self.factor**2, h, w)


class TinyAutoencoder(nn.Module):
    """Small trained codec: space-to-depth plus learned channel maps."""

    kind = "trained_tiny_ae"

    def __init__(self, image_channels: int, latent_channels: int,
                 factor: int = 2, seed: int = 0):
        self.image_channels = check_int(image_channels, "image_channels")
        self.latent_channels = check_int(latent_channels, "latent_channels")
        self._s2d = SpaceToDepthCodec(factor)
        self.factor = self._s2d.factor
        rng = RandomSource(seed)
        packed = self.image_channels * self.factor**2
        self.enc = nn.Linear(packed, latent_channels, rng.child(0), "codec.enc")
        self.dec = nn.Linear(latent_channels, packed, rng.child(1), "codec.dec")

    def encode(self, image: np.ndarray) -> np.ndarray:
        _check_channels(image, self.image_channels, "image")
        with ad.no_grad():
            return self.enc(Tensor(self._s2d.encode(image))).data

    def decode(self, latent: np.ndarray) -> np.ndarray:
        _check_channels(latent, self.latent_channels, "latent")
        with ad.no_grad():
            return self._s2d.decode(self.dec(Tensor(latent)).data)

    def latent_shape(self, image_shape):
        _, h, w = _packed_shape(image_shape, self.factor, "image_shape")
        return (self.latent_channels, h, w)

    def train(self, images, steps: int = 200, lr: float = 1e-2, seed: int = 0) -> list[float]:
        """Fit the channel maps to reconstruct `images` (mean squared error) at a
        constant learning rate; returns the per-step loss trace."""
        images = as_list(images, "images", "[C,H,W] arrays")
        if len(images) == 0:
            raise ValueError("empty training image set")
        for i, img in enumerate(images):
            _check_channels(img, self.image_channels, f"images[{i}]")
        rng = RandomSource(seed)
        packed = [Tensor(self._s2d.encode(img)) for img in images]

        def step_loss(step):
            x = packed[int(rng.integers(0, len(packed)))]
            yield nn.mse_loss(self.dec(self.enc(x)), x)

        return nn.fit(nn.Adam(self.parameters(), lr=lr), steps, step_loss)


def make_codec(kind: str, factor: int = 2, image_channels: int = 3,
               latent_channels: int = 4):
    if kind == "identity":
        return IdentityCodec()
    if kind == "space_to_depth":
        return SpaceToDepthCodec(factor)
    if kind == "trained_tiny_ae":
        return TinyAutoencoder(image_channels, latent_channels, factor)
    raise ValueError(f"unknown codec kind {kind!r}")


# ---------------------------------------------------------------------------
# conditions


@dataclass
class ConditionStack:
    """Zero or more spatial condition maps plus an optional global vector.

    Both are stored as float64. ValueError names the tag (or
    `global_embedding`) of a value that is ragged, not numeric, not finite
    or of the wrong rank: a spatial map is (channels, H, W), the global
    embedding a non-empty 1-D vector.
    """

    spatial: dict[str, np.ndarray] = field(default_factory=dict)
    global_embedding: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.spatial, dict):
            raise ValueError(f"condition spatial must be a dict, got {type(self.spatial).__name__}")
        self.spatial = {tag: chw_array(cmap, f"condition {tag}")
                        for tag, cmap in self.spatial.items()}
        extents = None
        for tag, cmap in self.spatial.items():
            if tag not in CONDITION_TAGS:
                raise ValueError(f"unknown condition tag {tag!r}")
            if extents is None:
                extents = cmap.shape[1:]
            elif cmap.shape[1:] != extents:
                raise ValueError("all spatial condition maps must share extents")
        if self.global_embedding is not None:
            self.global_embedding = vector_array(self.global_embedding,
                                                 "condition global_embedding")


# Built-in proxies so tests need no pretrained extractors.

_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])


def _gray(image: np.ndarray) -> np.ndarray:
    """Channel mean of a [C,H,W] image; ValueError naming `image` otherwise."""
    return chw_array(image, "image").mean(axis=0)


def _gradient_magnitude(image: np.ndarray) -> np.ndarray:
    gray = _gray(image)
    padded = np.pad(gray, 1, mode="edge")
    gx = np.zeros_like(gray)
    gy = np.zeros_like(gray)
    for u in range(3):
        for v in range(3):
            shifted = padded[u : u + gray.shape[0], v : v + gray.shape[1]]
            gx += _SOBEL_X[u, v] * shifted
            gy += _SOBEL_X[v, u] * shifted
    return np.sqrt(gx * gx + gy * gy)


def edge_proxy(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude, scaled to [0,1]; stands in for HED maps."""
    mag = _gradient_magnitude(image)
    top = mag.max()
    return (mag / top if top > 0 else mag)[None]


def sketch_proxy(image: np.ndarray) -> np.ndarray:
    """Binary line map: `edge_proxy` thresholded at 0.25."""
    return (edge_proxy(image) >= 0.25).astype(np.float64)


def segmentation_proxy(image: np.ndarray, levels: int = 4) -> np.ndarray:
    """Label map from intensity quantization + connected components.

    Components are 4-connected regions of equal quantized level, numbered
    0..n-1 in raster order of their first pixel and divided by max(n - 1, 1).
    Roots hook onto the smaller label and pointers jump until no equal-level
    edge joins two roots (Shiloach-Vishkin), so each root ends as its
    component's smallest raster index."""
    levels = check_int(levels, "levels")
    gray = _gray(image)
    lo, hi = gray.min(), gray.max()
    quant = np.zeros_like(gray, dtype=int) if hi == lo else \
        np.minimum((levels * (gray - lo) / (hi - lo)).astype(int), levels - 1)
    h, w = quant.shape
    idx = np.arange(h * w).reshape(h, w)
    same_h = quant[:, 1:] == quant[:, :-1]
    same_v = quant[1:] == quant[:-1]
    a = np.concatenate([idx[:, :-1][same_h], idx[:-1][same_v]])
    b = np.concatenate([idx[:, 1:][same_h], idx[1:][same_v]])
    lab = np.arange(h * w)
    while True:
        ra, rb = lab[a], lab[b]
        live = ra != rb
        if not live.any():
            break
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        np.minimum.at(lab, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
    roots, labels = np.unique(lab, return_inverse=True)
    return (labels.reshape(h, w) / max(len(roots) - 1, 1))[None]


# ---------------------------------------------------------------------------
# denoiser


@dataclass(frozen=True)
class DenoiserConfig:
    latent_channels: int
    base_channels: int = 16
    levels: int = 3
    time_dim: int = 32
    cond_slots: tuple[tuple[str, int], ...] = ()
    global_dim: int = 0

    def __post_init__(self):
        # Fields keep the Python ints check_int returns, so that a numpy
        # integer argument still fits a checkpoint's JSON config.
        for name in ("latent_channels", "base_channels", "levels"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        object.__setattr__(self, "global_dim", check_int(self.global_dim, "global_dim", low=0))
        object.__setattr__(self, "time_dim", _check_time_dim(self.time_dim))
        slots = []
        for tag, ch in self.cond_slots:
            if tag not in CONDITION_TAGS:
                raise ValueError(f"unknown condition tag {tag!r}")
            slots.append((tag, check_int(ch, f"condition slot {tag} channels")))
        object.__setattr__(self, "cond_slots", tuple(slots))
        tags = [t for t, _ in self.cond_slots]
        if len(tags) != len(set(tags)):
            raise ValueError("duplicate condition tags")

    @property
    def level_channels(self) -> tuple[int, ...]:
        return tuple(self.base_channels * 2**i for i in range(self.levels))


def _check_time_dim(dim) -> int:
    # The embedding is a sin half and a cos half.
    dim = check_int(dim, "time_dim", low=2)
    if dim % 2:
        raise ValueError(f"time_dim must be even, got {dim!r}")
    return dim


def sinusoidal_embedding(t: int, dim: int) -> np.ndarray:
    _check_time_dim(dim)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


class _ConvBlock(nn.Module):
    def __init__(self, c_in, c_out, rng, name):
        self.conv1 = nn.Conv2d(c_in, c_out, rng.child(0), f"{name}.conv1")
        self.conv2 = nn.Conv2d(c_out, c_out, rng.child(1), f"{name}.conv2")

    def __call__(self, x, bias=None, extra=None):
        h = self.conv1(x)
        if bias is not None:
            h = ad.add(h, bias)
        if extra is not None:
            h = ad.add(h, extra)
        return ad.relu(self.conv2(ad.relu(h)))


class ConditionalDenoiser(nn.Module):
    """Noise predictor: 3-level UNet plus a zero-convolution condition branch.

    A stack goes through `condition_features` once; `forward` then runs per
    step on that result, or on None for no conditions.
    """

    def __init__(self, config: DenoiserConfig, seed: int = 0):
        self.config = config
        rng = RandomSource(seed)
        chans = config.level_channels
        td = config.time_dim
        self.time_fc1 = nn.Linear(td, td, rng.child(0), "time.fc1")
        self.time_fc2 = nn.Linear(td, td, rng.child(1), "time.fc2")
        self.time_proj = [nn.Linear(td, chans[i], rng.child(2 + i), f"time.level{i}")
                          for i in range(config.levels)]
        if config.global_dim:
            # zero-init keeps conditional == unconditional at initialization
            self.global_proj = nn.Linear(config.global_dim, td, rng.child(9),
                                         "global.proj", zero_init=True)
        else:
            self.global_proj = None

        self.conv_in = nn.Conv2d(config.latent_channels, chans[0], rng.child(10), "conv_in")
        self.enc = [_ConvBlock(chans[max(i - 1, 0)], chans[i], rng.child(20 + i), f"enc{i}")
                    for i in range(config.levels)]
        self.dec = []
        for i in range(config.levels - 2, -1, -1):
            self.dec.append(_ConvBlock(chans[i] + chans[i + 1], chans[i],
                                       rng.child(40 + i), f"dec{i}"))
        self.head = nn.Conv2d(chans[0], config.latent_channels, rng.child(60), "head",
                              zero_init=True)

        self.cond_channels = sum(ch for _, ch in config.cond_slots)
        if self.cond_channels:
            self.cond_in = nn.Conv2d(self.cond_channels, chans[0], rng.child(70), "cond_in")
            self.cond_blocks = [
                _ConvBlock(chans[max(i - 1, 0)], chans[i], rng.child(80 + i), f"cond{i}")
                for i in range(config.levels)
            ]
            # one zero-conv per encoder scale plus one at the pre-head scale,
            # so conditioning has a direct route to the output
            self.zero_convs = [
                nn.Linear(chans[i], chans[i], rng.child(90 + i), f"zero{i}", zero_init=True)
                for i in range(config.levels)
            ]
            self.zero_out = nn.Linear(chans[0], chans[0], rng.child(99), "zero_out",
                                      zero_init=True)
        else:
            self.cond_in = None
            self.cond_blocks = []
            self.zero_convs = []
            self.zero_out = None

    def _stack_condition_input(self, stack: ConditionStack, h: int, w: int) -> np.ndarray | None:
        """Fixed slot layout; absent tags become zero maps, maps of other
        extents are bilinearly resized to h x w.

        None for a stack without spatial maps. A stack with a tag that is not
        a slot raises ValueError, so no map is dropped unseen.
        """
        if not stack.spatial:
            return None
        slots = [tag for tag, _ in self.config.cond_slots]
        if unslotted := sorted(set(stack.spatial) - set(slots)):
            raise ValueError(f"condition stack tags {unslotted} match none of the "
                             f"denoiser's slots {slots}")
        parts = []
        for tag, ch in self.config.cond_slots:
            cmap = stack.spatial.get(tag)
            if cmap is None:
                cmap = np.zeros((ch, h, w))
            elif cmap.shape[0] != ch:
                raise ValueError(
                    f"condition {tag} has {cmap.shape[0]} channels, slot expects {ch}"
                )
            elif cmap.shape[1:] != (h, w):
                cmap = ad.bilinear_resize_array(cmap, h, w)
            parts.append(cmap)
        return np.concatenate(parts, axis=0)

    def condition_features(self, stack: ConditionStack | None, h: int, w: int):
        """Everything `stack` adds at latent extents h x w, None for no stack:
        (global, level_feats, top_feat), the projected global embedding as a
        [time_dim,1,1] term of the time embedding and the zero-convolved
        spatial maps per encoder scale and pre-head, None where the stack has
        no such part. All are exactly zero at initialization and independent
        of the timestep and the latent. ValueError for a global embedding
        whose length is not global_dim."""
        if stack is None:
            return None
        glob = None
        if stack.global_embedding is not None:
            if (n := len(stack.global_embedding)) != self.config.global_dim:
                raise ValueError(f"condition global_embedding has length {n} but the "
                                 f"denoiser has global_dim {self.config.global_dim}")
            glob = self.global_proj(Tensor(stack.global_embedding[:, None, None]))
        cond_input = self._stack_condition_input(stack, h, w)
        if cond_input is None:
            return glob, None, None
        feat = ad.relu(self.cond_in(Tensor(cond_input)))
        outs = []
        top_feat = None
        for i, (block, zc) in enumerate(zip(self.cond_blocks, self.zero_convs)):
            feat = block(feat)
            if i == 0:
                top_feat = feat
            outs.append(zc(feat))
            if i + 1 < len(self.cond_blocks):
                feat = ad.bilinear_resize(feat, max(feat.shape[1] // 2, 1),
                                          max(feat.shape[2] // 2, 1))
        return glob, outs, self.zero_out(top_feat)

    def forward(self, z_t, t: int, features=None) -> Tensor:
        """Predicted noise for the [C,H,W] latent z_t at timestep t.

        `features` is `condition_features(stack, H, W)` of the stack that
        conditions this call, or None for an unconditional call. A latent
        that is not 3-D, or whose extents the levels cannot halve, raises
        ValueError.
        """
        z_t = ad.as_tensor(z_t)
        _, h, w = _chw_shape(z_t.shape, "latent")
        div = 2 ** (self.config.levels - 1)
        if h % div or w % div:
            raise ValueError(f"latent extents {h}x{w} must be divisible by {div}")
        glob, level_feats, top_feat = features if features is not None else (None,) * 3

        # [td,1,1], so each time_proj[i] maps it to a [C,1,1] bias
        emb = Tensor(sinusoidal_embedding(t, self.config.time_dim)[:, None, None])
        if glob is not None:
            emb = ad.add(emb, glob)
        emb = self.time_fc2(ad.relu(self.time_fc1(emb)))

        feat = ad.relu(self.conv_in(z_t))
        skips = []
        for i, block in enumerate(self.enc):
            extra = level_feats[i] if level_feats is not None else None
            feat = block(feat, bias=self.time_proj[i](emb), extra=extra)
            if i + 1 < len(self.enc):
                skips.append(feat)
                feat = ad.bilinear_resize(feat, feat.shape[1] // 2, feat.shape[2] // 2)
        for block, skip in zip(self.dec, reversed(skips)):
            # No local holds the upsampled map, and no vjp reads it, so it
            # is freed once concatenated, before the block's convs run.
            feat = block(ad.concat([ad.bilinear_resize(feat, skip.shape[1], skip.shape[2]),
                                    skip], axis=0))
        if top_feat is not None:
            feat = ad.add(feat, top_feat)
        return self.head(feat)


# ---------------------------------------------------------------------------
# loss, training, sampling


def diffusion_loss(model: ConditionalDenoiser, schedule: NoiseSchedule,
                   z0: np.ndarray, t: int, eps: np.ndarray,
                   conditions: ConditionStack | None = None) -> Tensor:
    """Squared error between true and predicted noise (differentiable)."""
    _, h, w = _chw_shape(np.shape(z0), "latent")
    z_t = forward_noise(z0, t, eps, schedule)
    eps_hat = model.forward(z_t, t, model.condition_features(conditions, h, w))
    return nn.mse_loss(eps_hat, Tensor(eps))


def train_diffusion(latents, model: ConditionalDenoiser, schedule: NoiseSchedule,
                    steps: int, batch_size: int = 4, lr: float = 2e-3,
                    seed: int = 0, conditions=None) -> list[float]:
    """Train the noise predictor on a fixed set of latents.

    Schedule: 2% warmup, flat plateau, cosine tail to zero over the last 30%.
    latents is a list of [C,H,W] numpy arrays and conditions, when given,
    one ConditionStack per latent (ValueError otherwise; DataError naming
    `latents[i]` or `conditions[i]` for an item of the wrong type). Each
    sample's loss is back-propagated before the next sample's forward runs,
    so one sample's graph is alive at a time and memory does not grow with
    batch_size. Deterministic under a fixed seed; raises NumericalFailure
    on a non-finite loss; returns the per-step batch loss trace.
    """
    latents = as_list(latents, "latents", "[C,H,W] arrays")
    if len(latents) == 0:
        raise ValueError("empty training set")
    for i, z in enumerate(latents):
        if not isinstance(z, np.ndarray):
            raise DataError(f"latents[{i}] must be a [C,H,W] array, got {type(z).__name__}")
    check_int(batch_size, "batch_size")
    if conditions is not None:
        conditions = as_list(conditions, "conditions", "ConditionStack")
        if len(conditions) != len(latents):
            raise ValueError(f"{len(conditions)} condition stacks for {len(latents)} "
                             "latents; need one per latent")
        for i, stack in enumerate(conditions):
            if not isinstance(stack, ConditionStack):
                raise DataError(f"conditions[{i}] must be a ConditionStack, "
                                f"got {type(stack).__name__}")
    rng = RandomSource(seed)
    t_max = schedule.timesteps

    def step_loss(step):
        srng = rng.child(step)
        for _ in range(batch_size):
            idx = int(srng.integers(0, len(latents)))
            t = int(srng.integers(1, t_max + 1))
            eps = srng.normal(latents[idx].shape)
            cond = conditions[idx] if conditions is not None else None
            yield ad.mul(diffusion_loss(model, schedule, latents[idx], t, eps, cond),
                         1.0 / batch_size)

    opt = nn.Adam(model.parameters(), lr=lr, betas=(0.9, 0.99))
    return nn.fit(opt, steps, step_loss, warmup_frac=0.02, tail_frac=0.3)


def sample(model: ConditionalDenoiser, schedule: NoiseSchedule, steps: int,
           conditions: ConditionStack | None, codec, seed: int,
           image_shape) -> np.ndarray:
    """DDIM sampling from seeded Gaussian noise, decoded to an image.

    Records no graph. The stack's features are built once, for all steps.
    image_shape is three integers >= 1 (ValueError otherwise). Raises
    NumericalFailure when a step leaves a non-finite latent.
    """
    if not isinstance(image_shape, (tuple, list)) or len(image_shape) != 3:
        raise ValueError(f"image_shape must be three integers, got {image_shape!r}")
    image_shape = tuple(check_int(n, "image_shape entry") for n in image_shape)
    with ad.no_grad():
        latent_shape = codec.latent_shape(image_shape)
        z = RandomSource(seed).normal(latent_shape)
        _, h, w = latent_shape
        features = model.condition_features(conditions, h, w)
        ts = timestep_subsequence(schedule.timesteps, steps)
        for t, t_prev in zip(ts[:-1], ts[1:]):
            eps_hat = model.forward(z, int(t), features).data
            z = ddim_step(z, eps_hat, int(t), int(t_prev), schedule)
            if not np.all(np.isfinite(z)):
                raise nn.NumericalFailure(f"non-finite latent after DDIM step {t} -> {t_prev}")
        return codec.decode(z)


def dsrnet_super_resolve(lr_rgb: np.ndarray, model: ConditionalDenoiser,
                         schedule: NoiseSchedule, steps: int, seed: int,
                         scale: int, codec=None) -> np.ndarray:
    """RGB super-resolution: bilinear-upsampled input enters as `lowres`
    condition and sampling runs at the high-resolution extents."""
    if check_int(scale, "scale") not in (2, 4):
        raise ValueError("scale must be 2 or 4")
    codec = codec if codec is not None else IdentityCodec()
    lr_rgb = chw_array(lr_rgb, "lr_rgb")
    _, h, w = lr_rgb.shape
    upsampled = ad.bilinear_resize_array(lr_rgb, h * scale, w * scale)
    cond = ConditionStack({"lowres": upsampled})
    out = sample(model, schedule, steps, cond, codec, seed,
                 (lr_rgb.shape[0], h * scale, w * scale))
    return np.clip(out, 0.0, 1.0)


def augment_two_stage(cubes, dsrnet: ConditionalDenoiser, schedule: NoiseSchedule,
                      rgan_model: RganModel, scale: int, patch_size: int,
                      stride: int | None = None, steps: int = 8, seed: int = 0,
                      codec=None):
    """Two-stage augmentation: RGB SR first, then guided cube SR, then crop.

    Returns (patches, manifest_rows); each row records provenance: source
    cube index, patch origin in the upscaled cube, and the scale. A scale
    other than the RGAN's, cubes that is not a list, an item of it that is
    not an HsiCube or does not cover the RGB bands, or a patch_size larger
    than an upscaled cube raises before any sampling.
    """
    scale = check_int(scale, "scale")
    if scale != rgan_model.config.scale:
        raise ValueError(f"scale {scale} != rgan_model.config.scale {rgan_model.config.scale}")
    check_int(patch_size, "patch_size")
    stride = check_int(stride, "stride") if stride is not None else patch_size // 2
    cubes = as_list(cubes, "cubes", "HsiCube")
    rgbs = []
    for ci, cube in enumerate(cubes):
        if not isinstance(cube, HsiCube):
            raise DataError(f"cubes[{ci}] must be an HsiCube, got {type(cube).__name__}")
        if patch_size > scale * min(cube.height, cube.width):
            raise DataError(f"patch_size {patch_size} exceeds cubes[{ci}] extents "
                            f"{cube.height * scale}x{cube.width * scale} at scale {scale}")
        try:
            rgbs.append(extract_rgb(cube))
        except DataError as err:
            raise DataError(f"cubes[{ci}]: {err}") from None
    patches: list[HsiCube] = []
    manifest: list[dict] = []
    for ci, (cube, rgb) in enumerate(zip(cubes, rgbs)):
        hr_rgb = dsrnet_super_resolve(rgb.values, dsrnet, schedule, steps,
                                      seed=int(RandomSource(seed).child(ci).integers(0, 2**31)),
                                      scale=scale, codec=codec)
        hr_cube = rgan_forward(cube, hr_rgb, rgan_model)
        grid = crop_patches(hr_cube, patch_size, stride)
        for pi, (patch, origin) in enumerate(zip(iter_patches(hr_cube, grid), grid.origins)):
            patches.append(patch)
            manifest.append({
                "source": ci,
                "patch": pi,
                "origin": [int(origin[0]), int(origin[1])],
                "scale": scale,
                "patch_size": patch_size,
                "stride": stride,
            })
    return patches, manifest


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_parameters(model: ConditionalDenoiser, codec) -> list:
    """The denoiser's parameters, then a trained codec's."""
    codec_params = codec.parameters() if isinstance(codec, nn.Module) else []
    return model.parameters() + codec_params


def save_diffusion(path, model: ConditionalDenoiser, schedule: NoiseSchedule,
                   codec) -> None:
    config = {
        "denoiser": asdict(model.config),
        "schedule": {
            "timesteps": schedule.timesteps,
            "beta_start": schedule.beta_start,
            "beta_end": schedule.beta_end,
        },
        "codec": {
            "kind": codec.kind,
            "factor": getattr(codec, "factor", 1),
            "image_channels": getattr(codec, "image_channels", 0),
            "latent_channels": getattr(codec, "latent_channels", 0),
        },
    }
    nn.save_checkpoint(path, "diffusion", config, _checkpoint_parameters(model, codec))


# Layout of the config that save_diffusion writes; see nn.read_config.
_CHECKPOINT_CONFIG = {"denoiser": DenoiserConfig, "schedule": make_schedule, "codec": make_codec}


def load_diffusion(path):
    kind, config, values = nn.load_checkpoint(path)
    if kind != "diffusion":
        raise ValueError(f"{path}: checkpoint kind {kind!r}, expected 'diffusion'")
    config = nn.read_config(path, config, _CHECKPOINT_CONFIG)
    model = ConditionalDenoiser(config["denoiser"])
    sched, codec = config["schedule"], config["codec"]
    nn.assign_parameters(_checkpoint_parameters(model, codec), values)
    return model, sched, codec
