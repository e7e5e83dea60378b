"""Property-based sweep of the argument contracts of the public API.

Every integer argument that counts, sizes or seeds something, every
[C,H,W] or 1-D array argument and every shape or pair argument, of the
public functions, layers and config dataclasses of `hsi`, `nn`, `rgan`,
`diffusion` and `synth` is fed generated bad values: a str, float, bool,
None or list in place of an int, an int below the bound, the wrong ndim or
length, an empty extent, NaN and inf, ragged nested lists and strings.
Every generated value breaks the contract, so each call must raise
ValueError (DataError is one) or NumericalFailure, with a message that
names the argument.

The latents of `train_diffusion` and the images of `TinyAutoencoder.train`
are swept for their rank only: the training loop reports their non-finite
values as NumericalFailure naming the step.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectragen import diffusion as df
from spectragen import hsi, nn, rgan, synth
from spectragen.autodiff import DataError, Parameter, RandomSource
from spectragen.diffusion import ConditionalDenoiser, ConditionStack, DenoiserConfig
from spectragen.rgan import AttentionConfig, RganConfig, RganModel

# ---------------------------------------------------------------------------
# bad values


def bad_ints(low: int = 1, also=st.nothing()):
    """Values check_int(value, name, low) rejects; `also` adds ints that a
    domain rule rejects. Magnitudes stay small, so a size that slipped
    through would allocate little."""
    return st.one_of(
        st.integers(-2**70, low - 1), also,
        st.floats(-64.0, 64.0), st.sampled_from([math.nan, math.inf, -math.inf]),
        st.booleans(), st.none(), st.text(max_size=3), st.lists(st.integers(1, 4), max_size=3),
    )


def _with_bad_value(bad, flat_index, shape=(2, 2, 2)):
    array = np.ones(shape)
    array.flat[flat_index] = bad
    return array


def wrong_ndim(ndims):
    return st.sampled_from(ndims).flatmap(
        lambda n: st.lists(st.integers(1, 3), min_size=n, max_size=n)).map(np.ones)


def tuples_with_one_bad(bad, good, n):
    """n-tuples of `good` values with one `bad` value among them."""
    return st.integers(0, n - 1).flatmap(lambda i: st.tuples(
        *[bad if j == i else good for j in range(n)]))


BAD_SHAPE = st.one_of(
    tuples_with_one_bad(bad_ints(), st.integers(1, 4), 3),
    st.lists(st.integers(1, 4), max_size=5).filter(lambda s: len(s) != 3).map(tuple),
    st.none(), st.integers(1, 4), st.text(max_size=3),
)

BAD_BETA = st.one_of(st.floats(1.0, 64.0), st.floats(-64.0, 0.0, exclude_max=True),
                     st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(),
                     st.none(), st.text(max_size=2))
BAD_BETAS = st.one_of(
    tuples_with_one_bad(BAD_BETA, st.floats(0.0, 0.99), 2),
    st.lists(st.floats(0.0, 0.99), max_size=4).filter(lambda b: len(b) != 2),
    st.none(), st.floats(0.0, 0.99), st.text(max_size=3),
)

BAD_VECTOR = st.one_of(
    wrong_ndim([0, 2, 3]), st.just(np.zeros(0)),
    st.builds(_with_bad_value, st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2),
              st.just((3,))),
    st.sampled_from([[[500.0, 600.0], [700.0]], [500.0, [600.0]], ["a", 600.0]]),
    st.text(max_size=3),
)

BAD_CHW = st.one_of(
    wrong_ndim([0, 1, 2, 4]),
    st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(lambda s: 0 in s).map(np.zeros),
    st.builds(_with_bad_value, st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 7)),
    st.sampled_from([[[[0.0, 1.0], [1.0]]], [[[0.0]], [[0.0, 1.0]]], [[[0.0], 1.0]]]),
    st.text(max_size=3), st.just(np.array([[["a", "b"]]])), st.none(),
)

KINDS = {
    "int": bad_ints(),
    "int0": bad_ints(low=0),
    "optional_int": bad_ints().filter(lambda v: v is not None),
    "scale": bad_ints(also=st.integers(3, 64).filter(lambda v: v != 4)),
    "time_dim": bad_ints(low=2, also=st.integers(1, 32).map(lambda v: 2 * v + 1)),
    "window": st.one_of(
        st.tuples(bad_ints(), st.integers(1, 8)), st.tuples(st.integers(1, 8), bad_ints()),
        st.lists(st.integers(1, 8), max_size=3), st.tuples(st.integers(1, 8)),
        st.tuples(*[st.integers(1, 8)] * 3), bad_ints(),
    ),
    "chw": BAD_CHW,
    "latent": wrong_ndim([0, 1, 2, 4]),
    "vector": BAD_VECTOR,
    "shape": BAD_SHAPE,
    "betas": BAD_BETAS,
    "lr": st.one_of(st.floats(-64.0, 0.0), st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.booleans(), st.none(), st.text(max_size=3),
                    st.lists(st.floats(0.1, 1.0), max_size=2)),
}

# ---------------------------------------------------------------------------
# small valid fixtures, built once

CUBE = synth.synthetic_cube(1, bands=4, height=8, width=8)
LR_CUBE = hsi.HsiCube(hsi.area_downsample(CUBE.values, 2), CUBE.wavelengths)
GUIDE = hsi.extract_rgb(CUBE).values
ATTENTION = AttentionConfig(4, window_h=(2, 4), window_v=(4, 2), layers=1)
RGAN = RganModel(RganConfig(bands=4, attention=ATTENTION), seed=1)
DENOISER = ConditionalDenoiser(DenoiserConfig(3, base_channels=4, levels=2, time_dim=4,
                                              cond_slots=(("lowres", 3),)), seed=2)
SCHEDULE = df.make_schedule(10)
LATENT = np.zeros((3, 4, 4))


def fit(steps):
    p = Parameter(np.zeros(2), "p")
    return nn.fit(nn.Adam([p]), steps, lambda step: iter([nn.mse_loss(p, p)]))


def augment(**kwargs):
    args = dict(scale=2, patch_size=4, stride=None, steps=2) | kwargs
    return df.augment_two_stage([CUBE], DENOISER, SCHEDULE, RGAN, **args)


def dsrnet(lr_rgb=GUIDE[:, :4, :4], steps=2, scale=2, seed=0):
    return df.dsrnet_super_resolve(lr_rgb, DENOISER, SCHEDULE, steps, seed=seed, scale=scale)


def sample(steps=2, seed=0, image_shape=(3, 4, 4), codec=df.IdentityCodec()):
    return df.sample(DENOISER, SCHEDULE, steps, None, codec, seed, image_shape)


# (id, call with the bad value, text the message must contain, kind)
CASES = [
    # hsi
    ("HsiCube.values", lambda v: hsi.HsiCube(v, [500.0, 600.0]), "values", "chw"),
    ("HsiCube.wavelengths", lambda v: hsi.HsiCube(np.ones((3, 2, 2)), v), "wavelengths",
     "vector"),
    ("patch_grid.height", lambda v: hsi.patch_grid(v, 8, 2, 1), "height", "int"),
    ("patch_grid.width", lambda v: hsi.patch_grid(8, v, 2, 1), "width", "int"),
    ("patch_grid.size", lambda v: hsi.patch_grid(8, 8, v, 1), "size", "int"),
    ("patch_grid.stride", lambda v: hsi.patch_grid(8, 8, 2, v), "stride", "int"),
    ("crop_patches.size", lambda v: hsi.crop_patches(CUBE, v, 1), "size", "int"),
    ("crop_patches.stride", lambda v: hsi.crop_patches(CUBE, 2, v), "stride", "int"),
    ("area_downsample.values", lambda v: hsi.area_downsample(v, 1), "values", "chw"),
    ("area_downsample.factor", lambda v: hsi.area_downsample(CUBE.values, v), "factor", "int"),
    ("DegradationSpec.factor", lambda v: hsi.DegradationSpec("downsample", factor=v), "factor",
     "scale"),
    ("DegradationSpec.seed", lambda v: hsi.DegradationSpec("gaussian_noise", 0.1, seed=v), "seed",
     "int0"),
    ("align_wavelengths.target", lambda v: hsi.align_wavelengths(CUBE, v), "target", "vector"),
    # synth
    ("synthetic_cube.bands", lambda v: synth.synthetic_cube(0, bands=v), "bands", "int"),
    ("synthetic_cube.height", lambda v: synth.synthetic_cube(0, 2, v, 4), "height", "int"),
    ("synthetic_cube.width", lambda v: synth.synthetic_cube(0, 2, 4, v), "width", "int"),
    ("synthetic_rgb.height", lambda v: synth.synthetic_rgb(0, v, 4), "height", "int"),
    ("synthetic_rgb.width", lambda v: synth.synthetic_rgb(0, 4, v), "width", "int"),
    ("synthetic_cube.seed", lambda v: synth.synthetic_cube(v, 2, 4, 4), "seed", "int0"),
    ("synthetic_rgb.seed", lambda v: synth.synthetic_rgb(v, 4, 4), "seed", "int0"),
    # autodiff
    ("RandomSource.seed", RandomSource, "seed", "int0"),
    # nn
    ("fit.steps", fit, "steps", "int0"),
    ("Linear.d_in", lambda v: nn.Linear(v, 3, RandomSource(0), "l"), "d_in", "int"),
    ("Linear.d_out", lambda v: nn.Linear(3, v, RandomSource(0), "l"), "d_out", "int"),
    ("Conv2d.c_in", lambda v: nn.Conv2d(v, 3, RandomSource(0), "c"), "c_in", "int"),
    ("Conv2d.c_out", lambda v: nn.Conv2d(3, v, RandomSource(0), "c"), "c_out", "int"),
    ("LayerNorm.dim", lambda v: nn.LayerNorm(v, "n"), "dim", "int"),
    ("Adam.betas", lambda v: nn.Adam([Parameter(np.zeros(2), "p")], betas=v), "betas", "betas"),
    ("Adam.lr", lambda v: nn.Adam([Parameter(np.zeros(2), "p")], lr=v), "lr", "lr"),
    # rgan
    ("AttentionConfig.channels", lambda v: AttentionConfig(v), "channels", "int"),
    ("AttentionConfig.heads", lambda v: AttentionConfig(8, heads=v), "heads", "int"),
    ("AttentionConfig.layers", lambda v: AttentionConfig(8, layers=v), "layers", "int"),
    ("AttentionConfig.window_h", lambda v: AttentionConfig(8, window_h=v), "window_h", "window"),
    ("AttentionConfig.window_v", lambda v: AttentionConfig(8, window_v=v), "window_v", "window"),
    ("RganConfig.bands", lambda v: RganConfig(bands=v), "bands", "int"),
    ("RganConfig.scale", lambda v: RganConfig(bands=4, scale=v), "scale", "scale"),
    ("RganModel.seed", lambda v: RganModel(RganConfig(bands=4, attention=ATTENTION), seed=v),
     "seed", "int0"),
    ("rgan_forward.hr_rgb", lambda v: rgan.rgan_forward(LR_CUBE, v, RGAN), "hr_rgb", "chw"),
    ("train_rgan.steps", lambda v: rgan.train_rgan([(LR_CUBE, GUIDE, CUBE)], RGAN, v), "steps",
     "int0"),
    ("train_rgan.hr_rgb", lambda v: rgan.train_rgan([(LR_CUBE, v, CUBE)], RGAN, 1), "hr_rgb",
     "chw"),
    ("train_rgan.seed", lambda v: rgan.train_rgan([(LR_CUBE, GUIDE, CUBE)], RGAN, 1, seed=v),
     "seed", "int0"),
    # diffusion
    ("make_schedule.timesteps", lambda v: df.make_schedule(v), "timesteps", "int"),
    ("timestep_subsequence.timesteps", lambda v: df.timestep_subsequence(v, 1), "timesteps",
     "int"),
    ("timestep_subsequence.steps", lambda v: df.timestep_subsequence(10, v), "steps", "int"),
    ("forward_noise.t", lambda v: df.forward_noise(LATENT, v, LATENT, SCHEDULE), "timestep",
     "int0"),
    ("ddim_step.t", lambda v: df.ddim_step(LATENT, LATENT, v, 0, SCHEDULE), "timestep", "int0"),
    ("ddim_step.t_prev", lambda v: df.ddim_step(LATENT, LATENT, 5, v, SCHEDULE), "timestep",
     "int0"),
    ("SpaceToDepthCodec.factor", lambda v: df.SpaceToDepthCodec(v), "factor", "int"),
    ("SpaceToDepthCodec.decode.latent", lambda v: df.SpaceToDepthCodec(2).decode(v), "latent",
     "latent"),
    ("make_codec.factor", lambda v: df.make_codec("space_to_depth", factor=v), "factor", "int"),
    ("TinyAutoencoder.image_channels", lambda v: df.TinyAutoencoder(v, 4), "image_channels",
     "int"),
    ("TinyAutoencoder.latent_channels", lambda v: df.TinyAutoencoder(3, v), "latent_channels",
     "int"),
    ("TinyAutoencoder.factor", lambda v: df.TinyAutoencoder(3, 4, factor=v), "factor", "int"),
    ("TinyAutoencoder.seed", lambda v: df.TinyAutoencoder(3, 4, seed=v), "seed", "int0"),
    ("TinyAutoencoder.train.steps", lambda v: df.TinyAutoencoder(3, 4).train([GUIDE], steps=v),
     "steps", "int0"),
    ("TinyAutoencoder.train.seed",
     lambda v: df.TinyAutoencoder(3, 4).train([GUIDE], steps=1, seed=v), "seed", "int0"),
    ("TinyAutoencoder.train.images", lambda v: df.TinyAutoencoder(3, 4).train([v], steps=1),
     "image", "latent"),
    ("ConditionStack.spatial", lambda v: ConditionStack({"hed": v}), "hed", "chw"),
    ("edge_proxy.image", df.edge_proxy, "image", "chw"),
    ("sketch_proxy.image", df.sketch_proxy, "image", "chw"),
    ("segmentation_proxy.image", df.segmentation_proxy, "image", "chw"),
    ("segmentation_proxy.levels", lambda v: df.segmentation_proxy(GUIDE, v), "levels", "int"),
    ("DenoiserConfig.latent_channels", lambda v: DenoiserConfig(v), "latent_channels", "int"),
    ("DenoiserConfig.base_channels", lambda v: DenoiserConfig(3, base_channels=v),
     "base_channels", "int"),
    ("DenoiserConfig.levels", lambda v: DenoiserConfig(3, levels=v), "levels", "int"),
    ("DenoiserConfig.time_dim", lambda v: DenoiserConfig(3, time_dim=v), "time_dim", "time_dim"),
    ("DenoiserConfig.global_dim", lambda v: DenoiserConfig(3, global_dim=v), "global_dim",
     "int0"),
    ("DenoiserConfig.cond_slots", lambda v: DenoiserConfig(3, cond_slots=(("hed", v),)),
     "condition slot hed", "int"),
    ("sinusoidal_embedding.dim", lambda v: df.sinusoidal_embedding(5, v), "dim", "time_dim"),
    ("ConditionalDenoiser.seed", lambda v: ConditionalDenoiser(DenoiserConfig(3), seed=v), "seed",
     "int0"),
    ("ConditionalDenoiser.forward.z_t", lambda v: DENOISER.forward(v, 1), "latent", "latent"),
    ("train_diffusion.steps", lambda v: df.train_diffusion([LATENT], DENOISER, SCHEDULE, v),
     "steps", "int0"),
    ("train_diffusion.batch_size",
     lambda v: df.train_diffusion([LATENT], DENOISER, SCHEDULE, 1, batch_size=v), "batch_size",
     "int"),
    ("train_diffusion.seed", lambda v: df.train_diffusion([LATENT], DENOISER, SCHEDULE, 1, seed=v),
     "seed", "int0"),
    ("train_diffusion.latents", lambda v: df.train_diffusion([v], DENOISER, SCHEDULE, 1),
     "latent", "latent"),
    ("sample.steps", lambda v: sample(steps=v), "steps", "int"),
    ("sample.seed", lambda v: sample(seed=v), "seed", "int0"),
    ("sample.image_shape", lambda v: sample(image_shape=v), "image_shape", "shape"),
    ("dsrnet_super_resolve.lr_rgb", lambda v: dsrnet(lr_rgb=v), "lr_rgb", "chw"),
    ("dsrnet_super_resolve.steps", lambda v: dsrnet(steps=v), "steps", "int"),
    ("dsrnet_super_resolve.scale", lambda v: dsrnet(scale=v), "scale", "scale"),
    ("dsrnet_super_resolve.seed", lambda v: dsrnet(seed=v), "seed", "int0"),
    ("augment_two_stage.scale", lambda v: augment(scale=v), "scale", "scale"),
    ("augment_two_stage.patch_size", lambda v: augment(patch_size=v), "patch_size", "int"),
    ("augment_two_stage.stride", lambda v: augment(stride=v), "stride", "optional_int"),
    ("augment_two_stage.steps", lambda v: augment(steps=v), "steps", "int"),
    ("augment_two_stage.seed", lambda v: augment(seed=v), "seed", "int0"),
]


@pytest.mark.parametrize("call, name, kind", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_bad_argument_raises_naming_it(call, name, kind, data):
    value = data.draw(KINDS[kind], label="value")
    with pytest.raises((ValueError, nn.NumericalFailure)) as err:
        call(value)
    assert name in str(err.value), f"{type(err.value).__name__}: {err.value}"


# Values that escaped as TypeError, ZeroDivisionError or IndexError, as a
# ValueError that named no argument or the wrong rule, or that were
# accepted silently.
STRAY = [
    ("AttentionConfig('8')", lambda: AttentionConfig("8"), "channels"),
    ("AttentionConfig(layers='2')", lambda: AttentionConfig(8, layers="2"), "layers"),
    ("RganModel(bands=0)", lambda: RganModel(RganConfig(bands=0)), "bands"),
    ("RganConfig(bands=1.5)", lambda: RganConfig(bands=1.5), "bands"),
    ("ConditionalDenoiser(latent_channels=0)",
     lambda: ConditionalDenoiser(DenoiserConfig(latent_channels=0)), "latent_channels"),
    ("ConditionalDenoiser(base_channels=0)",
     lambda: ConditionalDenoiser(DenoiserConfig(3, base_channels=0)), "base_channels"),
    ("DenoiserConfig(levels=2.0)", lambda: DenoiserConfig(3, levels=2.0), "levels"),
    ("RganConfig(scale=2.0)", lambda: RganConfig(bands=4, scale=2.0), "scale"),
    ("dsrnet_super_resolve(scale=2.0)",
     lambda: df.dsrnet_super_resolve(GUIDE, DENOISER, SCHEDULE, 2, 0, scale=2.0), "scale"),
    ("augment_two_stage(scale=2.0)", lambda: augment(scale=2.0), "scale"),
    ("DegradationSpec(sigma=True)", lambda: hsi.DegradationSpec("gaussian_noise", sigma=True),
     "sigma"),
    ("TinyAutoencoder(3, 0)", lambda: df.TinyAutoencoder(3, 0), "latent_channels"),
    ("make_schedule(2.5)", lambda: df.make_schedule(2.5), "timesteps"),
    ("make_schedule(10, None)", lambda: df.make_schedule(10, None), "beta_start"),
    ("make_schedule(10, True)", lambda: df.make_schedule(10, True), "beta_start"),
    ("make_schedule(10, nan)", lambda: df.make_schedule(10, math.nan), "beta_start"),
    ("make_schedule(10, beta_end='0.1')", lambda: df.make_schedule(10, beta_end="0.1"),
     "beta_end"),
    ("make_schedule(10, beta_end=inf)", lambda: df.make_schedule(10, beta_end=math.inf),
     "beta_end"),
    ("timestep_subsequence(10, 2.5)", lambda: df.timestep_subsequence(10, 2.5), "steps"),
    ("train_rgan(steps=1.5)",
     lambda: rgan.train_rgan([(LR_CUBE, GUIDE, CUBE)], RGAN, steps=1.5), "steps"),
    ("train_diffusion(batch_size=2.5)",
     lambda: df.train_diffusion([LATENT], DENOISER, SCHEDULE, 1, batch_size=2.5), "batch_size"),
    ("patch_grid(size=2.5)", lambda: hsi.patch_grid(8, 8, 2.5, 1), "size"),
    ("patch_grid(stride=1.5)", lambda: hsi.patch_grid(8, 8, 2, 1.5), "stride"),
    ("synthetic_cube(bands=0)", lambda: synth.synthetic_cube(0, bands=0), "bands"),
    ("synthetic_rgb(0, 0, 8)", lambda: synth.synthetic_rgb(0, 0, 8), "height"),
    ("SpaceToDepthCodec(0.5)", lambda: df.SpaceToDepthCodec(0.5),
     "factor must be an integer >= 1, got 0.5"),
    ("RandomSource(1.5)", lambda: RandomSource(1.5), "seed"),
    ("RandomSource(True)", lambda: RandomSource(True), "seed"),
    ("sample(image_shape=(3, 4.5, 4))", lambda: sample(image_shape=(3, 4.5, 4)), "image_shape"),
    ("sample(image_shape=(3, 4))", lambda: sample(image_shape=(3, 4)), "image_shape"),
    ("train_diffusion(2-D latent)",
     lambda: df.train_diffusion([np.zeros((4, 4))], DENOISER, SCHEDULE, 1), r"latent.*\(4, 4\)"),
    ("Linear(0, 3)", lambda: nn.Linear(0, 3, RandomSource(0), "l"), "d_in"),
    ("Conv2d(0, 3)", lambda: nn.Conv2d(0, 3, RandomSource(0), "c"), "c_in"),
    ("Adam(betas=(1.5, 0.9))",
     lambda: nn.Adam([Parameter(np.zeros(2), "p")], betas=(1.5, 0.9)), "betas"),
    ("Adam(betas='ab')", lambda: nn.Adam([Parameter(np.zeros(2), "p")], betas="ab"), "betas"),
    ("Adam(lr='a')", lambda: nn.Adam([Parameter(np.zeros(2), "p")], lr="a"), "lr"),
    ("Adam(lr_mults='a')",
     lambda: nn.Adam([Parameter(np.zeros(2), "p")], lr_mults="a"), "lr_mults"),
    ("Adam(lr_mults=[None])",
     lambda: nn.Adam([Parameter(np.zeros(2), "p")], lr_mults=[None]), "lr_mults"),
    ("Adam(lr_mults=[nan])",
     lambda: nn.Adam([Parameter(np.zeros(2), "p")], lr_mults=[math.nan]), "lr_mults"),
    ("Adam(lr_mults=[-1.0])",
     lambda: nn.Adam([Parameter(np.zeros(2), "p")], lr_mults=[-1.0]), "lr_mults"),
    ("HsiCube(wavelengths=[nan])", lambda: hsi.HsiCube(np.ones((1, 2, 2)), [math.nan]),
     "wavelengths"),
    ("HsiCube(wavelengths=[400, inf])",
     lambda: hsi.HsiCube(np.ones((2, 2, 2)), [400.0, math.inf]), "wavelengths"),
    ("HsiCube(wavelengths=[450, 550, inf])",
     lambda: hsi.HsiCube(np.ones((3, 2, 2)), [450.0, 550.0, math.inf]), "wavelengths"),
    ("SpaceToDepthCodec(2).latent_shape((3, 5, 5))",
     lambda: df.SpaceToDepthCodec(2).latent_shape((3, 5, 5)), r"image_shape.*factor 2"),
    ("TinyAutoencoder(factor=2).latent_shape((3, 4, 5))",
     lambda: df.TinyAutoencoder(3, 4).latent_shape((3, 4, 5)), r"image_shape.*factor 2"),
    ("sample(TinyAutoencoder(factor=2), image_shape=(3, 5, 5))",
     lambda: sample(image_shape=(3, 5, 5), codec=df.TinyAutoencoder(3, 3)),
     r"image_shape.*factor 2"),
    ("SpaceToDepthCodec.decode(2-D latent)",
     lambda: df.SpaceToDepthCodec(2).decode(np.zeros((4, 4))), r"latent.*\(4, 4\)"),
    ("SpaceToDepthCodec(2).decode(6 channels)",
     lambda: df.SpaceToDepthCodec(2).decode(np.zeros((6, 2, 2))), "latent has 6 channels"),
    ("TinyAutoencoder.decode(2-D latent)",
     lambda: df.TinyAutoencoder(3, 4).decode(np.zeros((4, 4))), r"latent.*\(4, 4\)"),
    ("TinyAutoencoder(latent_channels=4).decode(5 channels)",
     lambda: df.TinyAutoencoder(3, 4).decode(np.zeros((5, 2, 2))), "latent has 5 channels"),
    ("TinyAutoencoder(image_channels=3).encode(2 channels)",
     lambda: df.TinyAutoencoder(3, 4).encode(np.zeros((2, 4, 4))), "image has 2 channels"),
    ("TinyAutoencoder(image_channels=3).train(5 channels)",
     lambda: df.TinyAutoencoder(3, 4).train([GUIDE, np.zeros((5, 4, 4))], steps=1),
     re.escape("images[1] has 5 channels, the codec expects 3")),
    ("align_wavelengths(ragged target)",
     lambda: hsi.align_wavelengths(CUBE, [[500.0, 600.0], [700.0]]), "target"),
]


@pytest.mark.parametrize("call, name", [c[1:] for c in STRAY], ids=[c[0] for c in STRAY])
def test_values_that_used_to_escape_as_stray_exceptions(call, name):
    with pytest.raises(ValueError, match=name):
        call()


NOT_ITERABLE = [
    ("train_diffusion(5)", lambda: df.train_diffusion(5, DENOISER, SCHEDULE, 1), "latents"),
    ("train_diffusion(conditions=5)",
     lambda: df.train_diffusion([LATENT], DENOISER, SCHEDULE, 1, conditions=5), "conditions"),
    ("TinyAutoencoder.train(5)", lambda: df.TinyAutoencoder(3, 4).train(5, steps=1), "images"),
    ("train_rgan(5)", lambda: rgan.train_rgan(5, RGAN, steps=1), "pairs"),
]


@pytest.mark.parametrize("call, name", [c[1:] for c in NOT_ITERABLE],
                         ids=[c[0] for c in NOT_ITERABLE])
def test_a_collection_that_is_not_iterable_raises_data_error_naming_it(call, name):
    with pytest.raises(DataError, match=f"{name} must be a list of .*, got int"):
        call()


# An item of the right collection but of the wrong type escaped as
# AttributeError or TypeError from inside the training loop.
WRONG_ITEM = [
    ("train_diffusion([5])", lambda: df.train_diffusion([5], DENOISER, SCHEDULE, 1),
     r"latents\[0\] must be a \[C,H,W\] array, got int"),
    ("train_diffusion(conditions=[5])",
     lambda: df.train_diffusion([LATENT], DENOISER, SCHEDULE, 1, conditions=[5]),
     r"conditions\[0\] must be a ConditionStack, got int"),
    ("train_rgan([5])", lambda: rgan.train_rgan([5], RGAN, steps=1),
     r"pairs\[0\] must be an \(lr_cube, hr_rgb, target\) tuple, got int"),
    ("train_rgan([(1, 2)])", lambda: rgan.train_rgan([(1, 2)], RGAN, steps=1),
     r"pairs\[0\] must be an \(lr_cube, hr_rgb, target\) tuple, got tuple"),
    ("train_rgan([(1, hr_rgb, target)])",
     lambda: rgan.train_rgan([(1, GUIDE, CUBE)], RGAN, steps=1),
     r"pairs\[0\] lr_cube must be an HsiCube, got int"),
]


@pytest.mark.parametrize("call, match", [c[1:] for c in WRONG_ITEM],
                         ids=[c[0] for c in WRONG_ITEM])
def test_an_item_of_the_wrong_type_raises_data_error_naming_it(call, match):
    with pytest.raises(DataError, match=match):
        call()
