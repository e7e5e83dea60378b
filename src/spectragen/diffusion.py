"""Latent-diffusion machinery: noise schedule, DDIM sampling, a toy
conditional denoiser with zero-convolution condition injection, pluggable
latent codecs, and the two-stage super-resolution augmentation pipeline.

The denoiser is a small 3-level convolutional encoder-decoder with skip
connections and a sinusoidal timestep embedding added per level. Spatial
conditions pass through a convolutional feature extractor whose per-scale
outputs go through zero convolutions (zero-initialized channel maps,
`nn.Linear`) before being added to the matching denoiser scale, so
conditioning contributes exactly nothing at initialization.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import RandomSource, Tensor
from .hsi import HsiCube, crop_patches, extract_rgb, iter_patches
from .rgan import RganModel, rgan_forward

CONDITION_TAGS = ("hed", "seg", "sketch", "mlsd", "lowres", "custom")


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
        if not 0 <= t <= self.timesteps:
            raise ValueError(f"timestep {t} outside [0, {self.timesteps}]")
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])


def make_schedule(timesteps: int = 1000, beta_start: float = 1e-4,
                  beta_end: float = 2e-2) -> NoiseSchedule:
    """Linear beta schedule; alpha_t = 1 - beta_t, alpha_bar by product."""
    if timesteps < 1:
        raise ValueError("need at least one timestep")
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
    if not t_prev < t:
        raise ValueError(f"t_prev {t_prev} must be below t {t}")
    ab_t = schedule.alpha_bar_at(t)
    ab_p = schedule.alpha_bar_at(t_prev)
    z0_hat = (z_t - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
    return np.sqrt(ab_p) * z0_hat + np.sqrt(1.0 - ab_p) * eps_hat


def timestep_subsequence(timesteps: int, steps: int) -> np.ndarray:
    """Evenly spaced t values from T down to 0, inclusive (steps+1 points)."""
    if not 1 <= steps <= timesteps:
        raise ValueError(f"steps {steps} outside [1, {timesteps}]")
    ts = np.rint(np.linspace(timesteps, 0, steps + 1)).astype(int)
    if np.any(np.diff(ts) >= 0):
        raise ValueError("subsequence is not strictly decreasing")
    return ts


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
        if factor < 1:
            raise ValueError("factor must be positive")
        self.factor = factor

    def encode(self, image: np.ndarray) -> np.ndarray:
        c, h, w = image.shape
        r = self.factor
        if h % r or w % r:
            raise ValueError(f"extents {h}x{w} not divisible by factor {r}")
        return (
            image.reshape(c, h // r, r, w // r, r)
            .transpose(0, 2, 4, 1, 3)
            .reshape(c * r * r, h // r, w // r)
        )

    def decode(self, latent: np.ndarray) -> np.ndarray:
        cr, h, w = latent.shape
        r = self.factor
        c = cr // (r * r)
        return (
            latent.reshape(c, r, r, h, w)
            .transpose(0, 3, 1, 4, 2)
            .reshape(c, h * r, w * r)
        )

    def latent_shape(self, image_shape):
        c, h, w = image_shape
        r = self.factor
        return (c * r * r, h // r, w // r)


class TinyAutoencoder(nn.Module):
    """Small trained codec: space-to-depth plus learned channel maps."""

    kind = "trained_tiny_ae"

    def __init__(self, image_channels: int, latent_channels: int,
                 factor: int = 2, seed: int = 0):
        self.image_channels = image_channels
        self.latent_channels = latent_channels
        self.factor = factor
        self._s2d = SpaceToDepthCodec(factor)
        rng = RandomSource(seed)
        packed = image_channels * factor * factor
        self.enc = nn.Linear(packed, latent_channels, rng.child(0), "codec.enc")
        self.dec = nn.Linear(latent_channels, packed, rng.child(1), "codec.dec")

    def encode(self, image: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self.enc(Tensor(self._s2d.encode(image))).data

    def decode(self, latent: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self._s2d.decode(self.dec(Tensor(latent)).data)

    def latent_shape(self, image_shape):
        c, h, w = image_shape
        r = self.factor
        return (self.latent_channels, h // r, w // r)

    def train(self, images, steps: int = 200, lr: float = 1e-2, seed: int = 0) -> list[float]:
        """Fit the channel maps to reconstruct `images` (mean squared error) at a
        constant learning rate; returns the per-step loss trace."""
        if len(images) == 0:
            raise ValueError("empty training image set")
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
        self.spatial = {tag: _float_array(cmap, f"condition {tag}")
                        for tag, cmap in self.spatial.items()}
        extents = None
        for tag, cmap in self.spatial.items():
            if tag not in CONDITION_TAGS:
                raise ValueError(f"unknown condition tag {tag!r}")
            if cmap.ndim != 3 or 0 in cmap.shape:
                raise ValueError(f"condition {tag} must be a non-empty (channels, H, W) map")
            if not np.all(np.isfinite(cmap)):
                raise ValueError(f"condition {tag} contains non-finite values")
            if extents is None:
                extents = cmap.shape[1:]
            elif cmap.shape[1:] != extents:
                raise ValueError("all spatial condition maps must share extents")
        if self.global_embedding is not None:
            g = _float_array(self.global_embedding, "condition global_embedding")
            if g.ndim != 1 or g.size == 0:
                raise ValueError("condition global_embedding must be a non-empty 1-D vector, "
                                 f"got shape {g.shape}")
            if not np.all(np.isfinite(g)):
                raise ValueError("condition global_embedding contains non-finite values")
            self.global_embedding = g


def _float_array(value, what: str) -> np.ndarray:
    """value as a float64 array; ValueError naming `what` when it is ragged
    or not numeric."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{what} is not a numeric array: {err}") from err


# Built-in proxies so tests need no pretrained extractors.

_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])


def _gradient_magnitude(image: np.ndarray) -> np.ndarray:
    gray = image.mean(axis=0)
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
    """Binary line map: gradient magnitude thresholded at 0.25 of its max."""
    mag = _gradient_magnitude(image)
    top = mag.max()
    if top == 0:
        return np.zeros((1,) + mag.shape)
    return (mag / top >= 0.25).astype(np.float64)[None]


def segmentation_proxy(image: np.ndarray, levels: int = 4) -> np.ndarray:
    """Label map from intensity quantization + 4-connected components."""
    gray = image.mean(axis=0)
    lo, hi = gray.min(), gray.max()
    quant = np.zeros_like(gray, dtype=int) if hi == lo else \
        np.minimum((levels * (gray - lo) / (hi - lo)).astype(int), levels - 1)
    h, w = quant.shape
    labels = np.full((h, w), -1, dtype=int)
    current = 0
    for si in range(h):
        for sj in range(w):
            if labels[si, sj] >= 0:
                continue
            stack = [(si, sj)]
            labels[si, sj] = current
            while stack:
                i, j = stack.pop()
                for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    if 0 <= ni < h and 0 <= nj < w and labels[ni, nj] < 0 \
                            and quant[ni, nj] == quant[i, j]:
                        labels[ni, nj] = current
                        stack.append((ni, nj))
            current += 1
    return (labels / max(current - 1, 1))[None]


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
        if self.levels < 1:
            raise ValueError("need at least one level")
        for tag, ch in self.cond_slots:
            if tag not in CONDITION_TAGS:
                raise ValueError(f"unknown condition tag {tag!r}")
            if ch < 1:
                raise ValueError("condition slot needs at least one channel")
        tags = [t for t, _ in self.cond_slots]
        if len(tags) != len(set(tags)):
            raise ValueError("duplicate condition tags")

    @property
    def level_channels(self) -> tuple[int, ...]:
        return tuple(self.base_channels * 2**i for i in range(self.levels))


def sinusoidal_embedding(t: int, dim: int) -> np.ndarray:
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
            h = ad.add(h, ad.reshape(bias, (bias.shape[0], 1, 1)))
        if extra is not None:
            h = ad.add(h, extra)
        return ad.relu(self.conv2(ad.relu(h)))


class ConditionalDenoiser(nn.Module):
    """Noise predictor: 3-level UNet plus a zero-convolution condition branch."""

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

    def _stack_condition_input(self, stack: ConditionStack | None,
                               h: int, w: int) -> np.ndarray | None:
        """Fixed slot layout; absent tags become zero maps, maps of other
        extents are bilinearly resized to h x w.

        None for an absent stack or one without spatial maps. A non-empty
        stack that fills none of the slots raises ValueError.
        """
        if stack is None or not stack.spatial:
            return None
        slots = [tag for tag, _ in self.config.cond_slots]
        if not any(tag in stack.spatial for tag in slots):
            raise ValueError(
                f"condition stack tags {sorted(stack.spatial)} match none of the "
                f"denoiser's slots {slots}"
            )
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
        """Zero-convolved condition features: (per-encoder-scale, pre-head).

        Returns None when the stack carries no spatial maps; every returned
        map is exactly zero at initialization. The result depends on the
        stack and the extents only, not on the timestep or the latent.
        """
        cond_input = self._stack_condition_input(stack, h, w)
        if cond_input is None:
            return None
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
        return outs, self.zero_out(top_feat)

    def forward(self, z_t, t: int, conditions: ConditionStack | None = None,
                cond_features=None) -> Tensor:
        """Predicted noise for latent z_t at timestep t.

        `cond_features` takes a `condition_features` result for these
        conditions and extents, computed once for many calls; None computes
        it here. A stack's global embedding must have length global_dim;
        otherwise ValueError.
        """
        z_t = z_t if isinstance(z_t, Tensor) else Tensor(z_t)
        _, h, w = z_t.shape
        div = 2 ** (self.config.levels - 1)
        if h % div or w % div:
            raise ValueError(f"latent extents {h}x{w} must be divisible by {div}")

        emb = Tensor(sinusoidal_embedding(t, self.config.time_dim))
        if conditions is not None and conditions.global_embedding is not None:
            if (n := len(conditions.global_embedding)) != self.config.global_dim:
                raise ValueError(f"condition global_embedding has length {n} but the "
                                 f"denoiser has global_dim {self.config.global_dim}")
            emb = ad.add(emb, self.global_proj(Tensor(conditions.global_embedding)))
        emb = self.time_fc2(ad.relu(self.time_fc1(emb)))

        if cond_features is None:
            cond_features = self.condition_features(conditions, h, w)
        level_feats, top_feat = cond_features if cond_features is not None else (None, None)

        feat = ad.relu(self.conv_in(z_t))
        skips = []
        for i, block in enumerate(self.enc):
            extra = level_feats[i] if level_feats is not None else None
            feat = block(feat, bias=self.time_proj[i](emb), extra=extra)
            if i + 1 < len(self.enc):
                skips.append(feat)
                feat = ad.bilinear_resize(feat, feat.shape[1] // 2, feat.shape[2] // 2)
        for block, skip in zip(self.dec, reversed(skips)):
            feat = ad.bilinear_resize(feat, skip.shape[1], skip.shape[2])
            feat = block(ad.concat([feat, skip], axis=0))
        if top_feat is not None:
            feat = ad.add(feat, top_feat)
        return self.head(feat)

    def predict(self, z_t: np.ndarray, t: int, conditions: ConditionStack | None = None,
                cond_features=None) -> np.ndarray:
        return self.forward(z_t, t, conditions, cond_features).data


# ---------------------------------------------------------------------------
# loss, training, sampling


def diffusion_loss(model: ConditionalDenoiser, schedule: NoiseSchedule,
                   z0: np.ndarray, t: int, eps: np.ndarray,
                   conditions: ConditionStack | None = None) -> Tensor:
    """Squared error between true and predicted noise (differentiable)."""
    z_t = forward_noise(z0, t, eps, schedule)
    eps_hat = model.forward(z_t, t, conditions)
    return nn.mse_loss(eps_hat, Tensor(eps))


def train_diffusion(latents, model: ConditionalDenoiser, schedule: NoiseSchedule,
                    steps: int, batch_size: int = 4, lr: float = 2e-3,
                    seed: int = 0, conditions=None) -> list[float]:
    """Train the noise predictor on a fixed set of latents.

    Schedule: 2% warmup, flat plateau, cosine tail to zero over the last 30%.
    conditions, when given, is one ConditionStack per latent (ValueError
    otherwise). Each sample's loss is back-propagated before the next
    sample's forward runs, so one sample's graph is alive at a time and
    memory does not grow with batch_size. Deterministic under a fixed seed;
    raises NumericalFailure on a non-finite loss; returns the per-step batch
    loss trace.
    """
    if len(latents) == 0:
        raise ValueError("empty training set")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if conditions is not None and len(conditions) != len(latents):
        raise ValueError(f"{len(conditions)} condition stacks for {len(latents)} latents; "
                         "need one per latent")
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

    Records no graph. The condition features are computed once for all
    steps. Raises NumericalFailure when a step leaves a non-finite latent.
    """
    with ad.no_grad():
        latent_shape = codec.latent_shape(image_shape)
        z = RandomSource(seed).normal(latent_shape)
        _, h, w = latent_shape
        features = model.condition_features(conditions, h, w)
        ts = timestep_subsequence(schedule.timesteps, steps)
        for t, t_prev in zip(ts[:-1], ts[1:]):
            eps_hat = model.predict(z, int(t), conditions, cond_features=features)
            z = ddim_step(z, eps_hat, int(t), int(t_prev), schedule)
            if not np.all(np.isfinite(z)):
                raise nn.NumericalFailure(f"non-finite latent after DDIM step {t} -> {t_prev}")
        return codec.decode(z)


def dsrnet_super_resolve(lr_rgb: np.ndarray, model: ConditionalDenoiser,
                         schedule: NoiseSchedule, steps: int, seed: int,
                         scale: int, codec=None) -> np.ndarray:
    """RGB super-resolution: bilinear-upsampled input enters as `lowres`
    condition and sampling runs at the high-resolution extents."""
    if scale not in (2, 4):
        raise ValueError("scale must be 2 or 4")
    codec = codec if codec is not None else IdentityCodec()
    lr_rgb = np.asarray(lr_rgb, dtype=np.float64)
    if lr_rgb.ndim != 3 or 0 in lr_rgb.shape:
        raise ValueError("lr_rgb must be a non-empty (channels, H, W) array, "
                         f"got shape {lr_rgb.shape}")
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
    other than the RGAN's raises ValueError before any sampling.
    """
    if scale != rgan_model.config.scale:
        raise ValueError(f"scale {scale} != rgan_model.config.scale {rgan_model.config.scale}")
    stride = stride if stride is not None else patch_size // 2
    patches: list[HsiCube] = []
    manifest: list[dict] = []
    for ci, cube in enumerate(cubes):
        rgb = extract_rgb(cube)
        hr_rgb = dsrnet_super_resolve(rgb.values, dsrnet, schedule, steps,
                                      seed=RandomSource(seed).child(ci).integers(0, 2**31),
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
