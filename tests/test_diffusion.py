import re
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectragen import autodiff as ad
from spectragen import diffusion as df
from spectragen import nn
from spectragen.autodiff import DataError, RandomSource, Tensor
from spectragen.diffusion import (ConditionalDenoiser, ConditionStack, DenoiserConfig,
                                  IdentityCodec, SpaceToDepthCodec, TinyAutoencoder,
                                  ddim_step, forward_noise, make_schedule,
                                  timestep_subsequence)
from spectragen.hsi import extract_rgb, iter_patches, patch_grid
from spectragen.rgan import AttentionConfig, RganConfig, RganModel, rgan_forward
from spectragen.synth import synthetic_cube, synthetic_rgb

import oracles
from memory import traced_bytes


def tiny_config(**kw):
    base = dict(latent_channels=2, base_channels=4, levels=2, time_dim=8)
    base.update(kw)
    return DenoiserConfig(**base)


def predict(model, z, t, stack=None):
    """The model's noise prediction for latent z under `stack`, as an array."""
    return model.forward(z, t, model.condition_features(stack, *z.shape[1:])).data


def randomize(params, seed, scale=0.3):
    """Noise on every weight, so zero-init heads and zero-convs are live."""
    rng = RandomSource(seed)
    for i, p in enumerate(params):
        p.data = rng.child(i).normal(p.shape) * scale


# ---------------------------------------------------------------------------
# schedule


def test_make_schedule_single_step():
    s = make_schedule(1, 0.5, 0.5)
    np.testing.assert_allclose(s.alpha_bar, [0.5])
    assert s.alpha_bar_at(0) == 1.0
    assert s.alpha_bar_at(1) == 0.5


def test_make_schedule_defaults_match_product_oracle():
    s = make_schedule()
    assert s.timesteps == 1000
    prod = 1.0
    for t in range(1, 1001):
        prod *= s.alpha[t - 1]
        assert abs(s.alpha_bar_at(t) - prod) < 1e-12
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert 0.0 < s.alpha_bar_at(1000) < 0.01


def test_make_schedule_constant_beta_closed_form():
    b = 0.03
    s = make_schedule(50, b, b)
    for t in (1, 10, 50):
        assert abs(s.alpha_bar_at(t) - (1 - b) ** t) < 1e-12


def test_make_schedule_rejects_bad_range():
    with pytest.raises(ValueError):
        make_schedule(10, 0.0, 0.1)
    with pytest.raises(ValueError):
        make_schedule(10, 0.2, 0.1)
    with pytest.raises(ValueError):
        make_schedule(0)


# ---------------------------------------------------------------------------
# forward noising


def test_forward_noise_t0_is_identity():
    s = make_schedule(10)
    z0 = RandomSource(0).normal((2, 4, 4))
    out = forward_noise(z0, 0, np.zeros_like(z0), s)
    np.testing.assert_array_equal(out, z0)


def test_forward_noise_zero_eps():
    s = make_schedule(10)
    z0 = RandomSource(1).normal((2, 4, 4))
    t = 7
    out = forward_noise(z0, t, np.zeros_like(z0), s)
    np.testing.assert_allclose(out, np.sqrt(s.alpha_bar_at(t)) * z0, atol=1e-14)


def test_forward_noise_statistics():
    # 1e5 seeded draws: mean within 4 sigma/sqrt(n), variance within 2%.
    s = make_schedule(100)
    t = 60
    z0 = np.full((10, 10, 10), 0.4)
    n = 100_000
    rng = RandomSource(2)
    ab = s.alpha_bar_at(t)
    samples = np.empty((100, 1000))
    for i in range(100):
        eps = rng.normal((10, 10, 10))
        samples[i] = forward_noise(z0, t, eps, s).reshape(-1)
    flat = samples.reshape(-1)
    sigma = np.sqrt(1 - ab)
    assert abs(flat.mean() - np.sqrt(ab) * 0.4) < 4 * sigma / np.sqrt(n)
    assert abs(flat.var() - (1 - ab)) < 0.02 * (1 - ab)


def test_forward_noise_shape_mismatch():
    s = make_schedule(10)
    with pytest.raises(ValueError):
        forward_noise(np.zeros((2, 4, 4)), 5, np.zeros((2, 4, 5)), s)
    with pytest.raises(ValueError):
        forward_noise(np.zeros((2, 4, 4)), 11, np.zeros((2, 4, 4)), s)


# ---------------------------------------------------------------------------
# DDIM step


def test_ddim_inverts_forward_noise_to_zero():
    s = make_schedule(40)
    rng = RandomSource(3)
    z0 = rng.normal((3, 4, 4))
    for t in range(1, 41, 4):
        eps = rng.normal((3, 4, 4))
        z_t = forward_noise(z0, t, eps, s)
        back = ddim_step(z_t, eps, t, 0, s)
        np.testing.assert_allclose(back, z0, atol=1e-10)


def test_ddim_zero_inputs():
    s = make_schedule(10)
    out = ddim_step(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), 5, 2, s)
    np.testing.assert_array_equal(out, np.zeros((1, 2, 2)))


def test_ddim_deterministic():
    s = make_schedule(10)
    rng = RandomSource(4)
    z = rng.normal((2, 4, 4))
    e = rng.normal((2, 4, 4))
    a = ddim_step(z, e, 8, 3, s)
    b = ddim_step(z, e, 8, 3, s)
    np.testing.assert_array_equal(a, b)


def test_ddim_requires_decreasing_t():
    s = make_schedule(10)
    z = np.zeros((1, 2, 2))
    with pytest.raises(ValueError):
        ddim_step(z, z, 3, 3, s)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 5000), t=st.integers(1, 30))
def test_ddim_inversion_property(seed, t):
    s = make_schedule(30)
    rng = RandomSource(seed)
    z0 = rng.normal((2, 3, 3))
    eps = rng.normal((2, 3, 3))
    back = ddim_step(forward_noise(z0, t, eps, s), eps, t, 0, s)
    np.testing.assert_allclose(back, z0, atol=1e-10)


def test_timestep_subsequence():
    ts = timestep_subsequence(10, 10)
    np.testing.assert_array_equal(ts, np.arange(10, -1, -1))
    ts = timestep_subsequence(100, 4)
    assert ts[0] == 100 and ts[-1] == 0 and len(ts) == 5
    assert np.all(np.diff(ts) < 0)


@given(st.integers(1, 1000).flatmap(lambda t: st.tuples(st.just(t), st.integers(1, t))))
@example((1000, 1000))
@example((1000, 999))
@example((999, 500))
def test_timestep_subsequence_strictly_decreases_from_t_to_zero(timesteps_and_steps):
    timesteps, steps = timesteps_and_steps
    ts = timestep_subsequence(timesteps, steps)
    assert len(ts) == steps + 1 and ts[0] == timesteps and ts[-1] == 0
    assert np.all(np.diff(ts) < 0)


# ---------------------------------------------------------------------------
# codecs


def test_identity_codec_round_trip():
    x = RandomSource(5).normal((3, 8, 8))
    c = IdentityCodec()
    np.testing.assert_array_equal(c.decode(c.encode(x)), x)


def test_space_to_depth_round_trip_bit_exact():
    x = RandomSource(6).normal((3, 8, 12))
    c = SpaceToDepthCodec(2)
    lat = c.encode(x)
    assert lat.shape == (12, 4, 6)
    np.testing.assert_array_equal(c.decode(lat), x)


def test_space_to_depth_latent_shape():
    c = SpaceToDepthCodec(4)
    assert c.latent_shape((3, 16, 16)) == (48, 4, 4)
    with pytest.raises(ValueError):
        c.encode(np.zeros((3, 9, 8)))


def test_tiny_autoencoder_trains():
    images = [synthetic_rgb(i, 8, 8) for i in range(4)]
    codec = TinyAutoencoder(3, 6, factor=2, seed=0)
    trace = codec.train(images, steps=150, lr=2e-2, seed=1)
    assert trace[-1] < 0.5 * trace[0]
    recon = codec.decode(codec.encode(images[0]))
    assert recon.shape == images[0].shape


def test_tiny_autoencoder_nan_image_names_the_step():
    image = synthetic_rgb(0, 8, 8)
    image[0, 3, 3] = np.nan
    codec = TinyAutoencoder(3, 6, factor=2, seed=0)
    with pytest.raises(nn.NumericalFailure, match="loss.*step 0"):
        codec.train([image], steps=5, seed=0)


def test_tiny_autoencoder_rejects_an_empty_image_set():
    codec = TinyAutoencoder(3, 6, factor=2, seed=0)
    with pytest.raises(ValueError, match="empty training image set"):
        codec.train([], steps=5, seed=0)


# ---------------------------------------------------------------------------
# conditions


@pytest.mark.parametrize("spatial, match", [
    ({"bogus": np.zeros((1, 4, 4))}, "bogus"),
    ({"custom": np.zeros((1, 4, 4))}, "unknown condition tag 'custom'"),
    ({"hed": np.zeros((1, 4, 4)), "seg": np.zeros((1, 8, 8))}, "extents"),
    ({"hed": [[0.0, 1.0], [1.0, 0.0]]}, "hed"),
    ([("hed", np.zeros((1, 4, 4)))], "spatial"),
    ({"hed": np.zeros((1, 0, 8))}, "hed"),
    ({"hed": [[[0.0, 1.0], [1.0]]]}, "condition hed is not a numeric array"),
    ({"seg": np.array([[["a", "b"]]])}, "condition seg is not a numeric array"),
], ids=["unknown-tag", "custom-tag", "mixed-extents", "nested-list-2d", "not-a-dict",
        "empty-extent", "ragged", "strings"])
def test_condition_stack_validation(spatial, match):
    with pytest.raises(ValueError, match=match):
        ConditionStack(spatial)


@pytest.mark.parametrize("embedding, match", [
    ([[1.0, 2.0], [3.0]], "global_embedding is not a numeric array"),
    ("abc", "global_embedding is not a numeric array"),
    (np.ones((1, 3)), r"global_embedding must be a non-empty 1-D vector, got shape \(1, 3\)"),
    (np.float64(0.5), r"global_embedding must be a non-empty 1-D vector, got shape \(\)"),
], ids=["ragged", "string", "row-matrix", "scalar"])
def test_condition_stack_rejects_a_malformed_global_embedding(embedding, match):
    with pytest.raises(ValueError, match=match):
        ConditionStack(global_embedding=embedding)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_condition_stack_rejects_non_finite_values(bad):
    cmap = np.zeros((1, 8, 8))
    cmap[0, 2, 3] = bad
    with pytest.raises(ValueError, match="hed"):
        ConditionStack({"lowres": np.zeros((3, 8, 8)), "hed": cmap})
    with pytest.raises(ValueError, match="global_embedding"):
        ConditionStack(global_embedding=np.array([0.5, bad]))


def test_condition_proxies_shapes_and_ranges():
    img = synthetic_rgb(7, 16, 16)
    edge = df.edge_proxy(img)
    sketch = df.sketch_proxy(img)
    seg = df.segmentation_proxy(img)
    for cmap in (edge, sketch, seg):
        assert cmap.shape == (1, 16, 16)
        assert cmap.min() >= 0.0 and cmap.max() <= 1.0
    assert set(np.unique(sketch)) <= {0.0, 1.0}
    np.testing.assert_array_equal(sketch, edge >= 0.25)


def test_segmentation_proxy_labels_connected_regions():
    img = np.zeros((1, 4, 4))
    img[0, :, 2:] = 1.0
    seg = df.segmentation_proxy(img, levels=2)
    assert seg[0, 0, 0] == seg[0, 3, 1]
    assert seg[0, 0, 3] == seg[0, 3, 2]
    assert seg[0, 0, 0] != seg[0, 0, 3]


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=40)
@given(h=st.integers(1, 12), w=st.integers(1, 12), levels=st.integers(1, 6),
       spread=st.integers(0, 4), seed=st.integers(0, 2**16))
@example(h=1, w=12, levels=3, spread=4, seed=0)
@example(h=12, w=1, levels=3, spread=4, seed=0)
@example(h=5, w=7, levels=4, spread=0, seed=0)
def test_segmentation_proxy_matches_the_flood_fill(h, w, levels, spread, seed):
    """Small integer values leave many equal neighbours; spread 0 gives a
    constant image (hi == lo)."""
    img = np.random.default_rng(seed).integers(0, spread + 1, (3, h, w)).astype(float)
    _assert_same_bytes(df.segmentation_proxy(img, levels),
                       oracles.segmentation_proxy_loops(img, levels))


def _checkerboard(n):
    return np.indices((n, n)).sum(axis=0) % 2


def _serpentine(n):
    """Every other row full, joined at alternate ends: one winding path of
    ones whose raster-first pixel is its start."""
    grid = np.zeros((n, n))
    grid[::2] = 1
    grid[1::4, -1] = 1
    grid[3::4, 0] = 1
    return grid


def _comb(n):
    """Teeth down every other column, joined only by the bottom row."""
    grid = np.zeros((n, n))
    grid[:, ::2] = 1
    grid[-1] = 1
    return grid


@pytest.mark.parametrize("image, levels", [
    (np.repeat(_checkerboard(64)[None], 3, axis=0).astype(float), 2),
    (np.repeat(_serpentine(64)[None], 3, axis=0), 2),
    (np.repeat(_comb(64)[None], 3, axis=0), 2),
    (synthetic_rgb(3, 256, 256), 4),
], ids=["checkerboard", "serpentine", "comb", "synthetic_rgb-256"])
def test_segmentation_proxy_matches_the_flood_fill_on_hard_cases(image, levels):
    _assert_same_bytes(df.segmentation_proxy(image, levels),
                       oracles.segmentation_proxy_loops(image, levels))


def test_segmentation_proxy_numbers_components_in_raster_order_of_first_pixel():
    img = np.array([[0, 1, 0, 0],
                    [0, 1, 0, 1],
                    [0, 0, 0, 1],
                    [1, 1, 0, 1]], dtype=float)
    want = np.array([[0, 1, 0, 0],
                     [0, 1, 0, 2],
                     [0, 0, 0, 2],
                     [3, 3, 0, 2]]) / 3
    np.testing.assert_array_equal(df.segmentation_proxy(np.stack([img] * 3), levels=2)[0], want)


@pytest.mark.parametrize("proxy", [df.edge_proxy, df.sketch_proxy, df.segmentation_proxy])
@pytest.mark.parametrize("shape", [(8, 8), (3, 0, 8)])
def test_condition_proxies_reject_an_image_that_is_not_a_cube(proxy, shape):
    with pytest.raises(ValueError, match="image"):
        proxy(np.zeros(shape))


@pytest.mark.parametrize("levels", [0, -1])
def test_segmentation_proxy_rejects_levels_below_one(levels):
    with pytest.raises(ValueError, match="levels"):
        df.segmentation_proxy(synthetic_rgb(7, 8, 8), levels=levels)


# ---------------------------------------------------------------------------
# denoiser + zero-convolution contract


def test_zero_conv_conditional_equals_unconditional_at_init():
    cfg = tiny_config(cond_slots=(("hed", 1), ("lowres", 3)), global_dim=5)
    model = ConditionalDenoiser(cfg, seed=8)
    z = RandomSource(9).normal((2, 8, 8))
    stack = ConditionStack(
        {"hed": np.abs(synthetic_rgb(10, 8, 8))[:1], "lowres": synthetic_rgb(11, 8, 8)},
        global_embedding=RandomSource(12).normal((5,)),
    )
    uncond = predict(model, z, 3)
    cond = predict(model, z, 3, stack)
    np.testing.assert_array_equal(cond, uncond)


def test_condition_features_exactly_zero_at_init():
    cfg = tiny_config(cond_slots=(("seg", 1),))
    model = ConditionalDenoiser(cfg, seed=13)
    stack = ConditionStack({"seg": np.ones((1, 8, 8))})
    _, level_feats, top = model.condition_features(stack, 8, 8)
    for f in list(level_feats) + [top]:
        np.testing.assert_array_equal(f.data, np.zeros_like(f.data))


def test_empty_condition_stack_runs_unconditionally():
    cfg = tiny_config(cond_slots=(("hed", 1),))
    model = ConditionalDenoiser(cfg, seed=14)
    z = RandomSource(15).normal((2, 8, 8))
    a = predict(model, z, 2)
    b = predict(model, z, 2, ConditionStack())
    np.testing.assert_array_equal(a, b)


def test_condition_channel_mismatch_rejected():
    cfg = tiny_config(cond_slots=(("hed", 1),))
    model = ConditionalDenoiser(cfg, seed=16)
    stack = ConditionStack({"hed": np.zeros((2, 8, 8))})
    with pytest.raises(ValueError):
        predict(model, np.zeros((2, 8, 8)), 1, stack)


def test_condition_stack_matching_no_slot_rejected():
    z = np.zeros((2, 8, 8))
    stack = ConditionStack({"seg": np.zeros((1, 8, 8)), "lowres": np.zeros((3, 8, 8))})
    hed_only = ConditionalDenoiser(tiny_config(cond_slots=(("hed", 1),)), seed=16)
    with pytest.raises(ValueError, match=r"\['lowres', 'seg'\].*\['hed'\]"):
        predict(hed_only, z, 1, stack)
    with pytest.raises(ValueError, match="match none"):
        predict(ConditionalDenoiser(tiny_config(), seed=16), z, 1, stack)


def test_condition_stack_with_a_tag_beyond_the_slots_rejected():
    # A `hed` map on a `lowres`-only denoiser would otherwise be dropped.
    model = ConditionalDenoiser(tiny_config(cond_slots=(("lowres", 3),)), seed=16)
    stack = ConditionStack({"lowres": np.ones((3, 8, 8)), "hed": np.ones((1, 8, 8))})
    with pytest.raises(ValueError, match=re.escape(
            "condition stack tags ['hed'] match none of the denoiser's slots ['lowres']")):
        predict(model, np.zeros((2, 8, 8)), 1, stack)


def test_denoiser_config_rejects_an_unknown_slot_tag():
    with pytest.raises(ValueError, match="unknown condition tag 'custom'"):
        tiny_config(cond_slots=(("custom", 1),))


@pytest.mark.parametrize("cond_slots", [(), (("hed", 1),)])
def test_global_embedding_without_global_dim_rejected(cond_slots):
    model = ConditionalDenoiser(tiny_config(cond_slots=cond_slots), seed=16)
    stack = ConditionStack(global_embedding=np.ones(5))
    with pytest.raises(ValueError, match="global_dim"):
        predict(model, np.zeros((2, 8, 8)), 1, stack)


@pytest.mark.parametrize("length", [3, 6])
def test_global_embedding_of_the_wrong_length_rejected(length):
    model = ConditionalDenoiser(tiny_config(global_dim=5), seed=16)
    stack = ConditionStack(global_embedding=np.ones(length))
    with pytest.raises(ValueError, match=f"global_embedding has length {length}.*global_dim 5"):
        predict(model, np.zeros((2, 8, 8)), 1, stack)


@pytest.mark.parametrize("time_dim", [3, 1, 0])
def test_time_dim_must_be_even_and_at_least_two(time_dim):
    with pytest.raises(ValueError, match="time_dim"):
        df.sinusoidal_embedding(5, time_dim)
    with pytest.raises(ValueError, match="time_dim"):
        tiny_config(time_dim=time_dim)


def test_denoiser_rejects_bad_extents():
    model = ConditionalDenoiser(tiny_config(), seed=17)
    with pytest.raises(ValueError):
        predict(model, np.zeros((2, 7, 8)), 1)


def test_diffusion_loss_zero_for_perfect_model():
    cfg = tiny_config()
    model = ConditionalDenoiser(cfg, seed=18)
    s = make_schedule(10)
    rng = RandomSource(19)
    z0 = rng.normal((2, 8, 8))
    eps = rng.normal((2, 8, 8))

    class Exact:
        def condition_features(self, stack, h, w):
            return None

        def forward(self, z_t, t, features=None):
            return Tensor(eps)

    loss = df.diffusion_loss(Exact(), s, z0, 4, eps)
    assert float(loss.data) == 0.0


def test_diffusion_loss_zero_model_gives_mean_square():
    s = make_schedule(10)
    rng = RandomSource(20)
    z0 = rng.normal((2, 8, 8))
    eps = rng.normal((2, 8, 8))

    class Zero:
        def condition_features(self, stack, h, w):
            return None

        def forward(self, z_t, t, features=None):
            return Tensor(np.zeros_like(eps))

    loss = df.diffusion_loss(Zero(), s, z0, 4, eps)
    assert abs(float(loss.data) - np.mean(eps**2)) < 1e-12


def test_diffusion_loss_gradcheck():
    cfg = tiny_config(latent_channels=1, base_channels=3, levels=2, time_dim=6)
    model = ConditionalDenoiser(cfg, seed=21)
    params = model.parameters()
    init = RandomSource(22)
    for p in params:
        p.data = init.child(zlib.crc32(p.name.encode())).normal(p.shape) * 0.3
    s = make_schedule(10)
    rng = RandomSource(23)
    z0 = rng.normal((1, 4, 4))
    eps = rng.normal((1, 4, 4))

    def forward():
        return df.diffusion_loss(model, s, z0, 5, eps)

    loss = forward()
    ad.backward(loss)
    oracles.gradcheck(forward, params, RandomSource(24), n_coords=20)


# ---------------------------------------------------------------------------
# training


def conditioned_training_set(n, seed, size=8):
    latents = [RandomSource(seed).child(i).normal((2, size, size)) for i in range(n)]
    stacks = [ConditionStack({"hed": np.abs(synthetic_rgb(seed + i, size, size))[:1]})
              for i in range(n)]
    return latents, stacks


def test_train_diffusion_seeded_trace_is_deterministic_finite_positive():
    latents, stacks = conditioned_training_set(3, 70)

    def run():
        model = ConditionalDenoiser(tiny_config(cond_slots=(("hed", 1),)), seed=71)
        trace = df.train_diffusion(latents, model, make_schedule(20), steps=4, batch_size=2,
                                   seed=72, conditions=stacks)
        return trace, [p.data for p in model.parameters()]

    (t1, p1), (t2, p2) = run(), run()
    assert t1 == t2 and len(t1) == 4
    assert all(np.isfinite(v) and v > 0.0 for v in t1)
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("batch_size", [1, 2, 3, 4])
def test_train_diffusion_matches_the_one_graph_oracle(batch_size):
    latents, stacks = conditioned_training_set(3, 81)
    runs = []
    for train in (df.train_diffusion, oracles.train_diffusion_one_graph):
        model = ConditionalDenoiser(tiny_config(cond_slots=(("hed", 1),)), seed=82)
        randomize(model.parameters(), 83)
        trace = train(latents, model, make_schedule(20), steps=3, batch_size=batch_size,
                      seed=84, conditions=stacks)
        runs.append((trace, model.parameters()))
    (trace, params), (want_trace, want_params) = runs
    for p, q in zip(params, want_params):
        np.testing.assert_array_equal(p.data, q.data, err_msg=p.name)
    if batch_size in (1, 2, 4):
        assert trace == want_trace
    else:
        # a sum of parts scaled by 1/3 rounds apart from a scaled sum
        assert all(abs(a - b) <= np.spacing(b) for a, b in zip(trace, want_trace))


def test_train_diffusion_peak_memory_does_not_grow_with_the_batch():
    latents, stacks = conditioned_training_set(4, 85, size=16)

    def peak(batch_size):
        model = ConditionalDenoiser(tiny_config(base_channels=8, cond_slots=(("hed", 1),)),
                                    seed=86)
        return traced_bytes(lambda: df.train_diffusion(
            latents, model, make_schedule(20), steps=1, batch_size=batch_size, seed=87,
            conditions=stacks))[1]

    assert peak(4) <= 1.1 * peak(1)


# The benchmark's DSRNet at a 64x64 latent. Its peak is in the decoder conv
# over the concat of the upsampled map and the skip. With conv2d's im2col
# held one cache-sized block at a time and the upsampled map freed before
# that conv runs, a no-grad forward peaks at 6.9 MB and a training sample's
# loss and backward at 12.9 MB; with a whole image per im2col block they
# peaked at 10.8 and 16.9 MB.
def dsrnet_at_64():
    model = ConditionalDenoiser(DenoiserConfig(latent_channels=3, base_channels=16, levels=3,
                                               cond_slots=(("lowres", 3),)), seed=88)
    rng = RandomSource(89)
    return model, rng.normal((3, 64, 64)), ConditionStack({"lowres": rng.uniform((3, 64, 64))})


def test_dsrnet_no_grad_forward_peak_memory():
    model, z, stack = dsrnet_at_64()

    def forward():
        with ad.no_grad():
            return predict(model, z, 50, stack)

    assert traced_bytes(forward)[1] <= 8.5e6


def test_dsrnet_training_sample_peak_memory():
    model, z, stack = dsrnet_at_64()
    eps = RandomSource(90).normal(z.shape)
    schedule = make_schedule(100)
    _, peak = traced_bytes(
        lambda: ad.backward(df.diffusion_loss(model, schedule, z, 50, eps, stack)))
    assert peak <= 14.5e6


def test_train_diffusion_moves_the_zero_convolutions():
    latents, stacks = conditioned_training_set(2, 73)
    model = ConditionalDenoiser(tiny_config(cond_slots=(("hed", 1),)), seed=74)
    zero = model.zero_convs + [model.zero_out]
    for zc in zero:
        assert not np.any(zc.weight.data)
    df.train_diffusion(latents, model, make_schedule(20), steps=4, batch_size=2, seed=75,
                       conditions=stacks)
    for zc in zero:
        assert np.any(zc.weight.data), zc.weight.name


def test_train_diffusion_nan_latent_names_the_step():
    # relu maps NaN to 0, so the loss stays finite; the NaN reaches the
    # conv_in weight gradient and fails the update.
    latents = [np.full((2, 8, 8), np.nan)]
    model = ConditionalDenoiser(tiny_config(), seed=76)
    with pytest.raises(nn.NumericalFailure, match="conv_in.weight at step 0"):
        df.train_diffusion(latents, model, make_schedule(10), steps=3, batch_size=1)


@pytest.mark.parametrize("n_stacks, n_latents", [(5, 2), (1, 4)])
def test_train_diffusion_needs_one_condition_stack_per_latent(n_stacks, n_latents):
    latents, _ = conditioned_training_set(n_latents, 77)
    _, stacks = conditioned_training_set(n_stacks, 77)
    model = ConditionalDenoiser(tiny_config(cond_slots=(("hed", 1),)), seed=78)
    with pytest.raises(ValueError, match=f"{n_stacks} condition stacks for {n_latents}"):
        df.train_diffusion(latents, model, make_schedule(10), steps=3, batch_size=2,
                           conditions=stacks)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_train_diffusion_rejects_batch_size_below_one(batch_size):
    latents, _ = conditioned_training_set(2, 79)
    model = ConditionalDenoiser(tiny_config(), seed=80)
    with pytest.raises(ValueError, match=f"batch_size must be an integer >= 1, got {batch_size}"):
        df.train_diffusion(latents, model, make_schedule(10), steps=3, batch_size=batch_size)


# ---------------------------------------------------------------------------
# sampling


def test_sample_eps_zero_matches_analytic_rollout():
    # Freshly initialized model has a zero head, so eps_hat = 0 throughout;
    # the chain then collapses to z0 = z_T / sqrt(alpha_bar_T).
    cfg = tiny_config(latent_channels=3)
    model = ConditionalDenoiser(cfg, seed=25)
    s = make_schedule(20)
    codec = IdentityCodec()
    out = df.sample(model, s, steps=5, conditions=None, codec=codec, seed=77,
                    image_shape=(3, 8, 8))
    z_t = RandomSource(77).normal((3, 8, 8))
    want = z_t / np.sqrt(s.alpha_bar_at(20))
    np.testing.assert_allclose(out, want, atol=1e-10)


def test_sample_deterministic():
    cfg = tiny_config()
    model = ConditionalDenoiser(cfg, seed=26)
    s = make_schedule(12)
    a = df.sample(model, s, 4, None, IdentityCodec(), seed=5, image_shape=(2, 8, 8))
    b = df.sample(model, s, 4, None, IdentityCodec(), seed=5, image_shape=(2, 8, 8))
    np.testing.assert_array_equal(a, b)


def test_sample_matches_reference_loop_and_computes_features_once(monkeypatch):
    cfg = tiny_config(latent_channels=3, cond_slots=(("lowres", 3),), global_dim=4)
    model = ConditionalDenoiser(cfg, seed=60)
    randomize(model.parameters(), 61)
    s = make_schedule(12)
    stack = ConditionStack({"lowres": synthetic_rgb(62, 8, 8)},
                           global_embedding=RandomSource(63).normal((4,)))
    calls = []
    original = model.condition_features

    def counting(stack, h, w):
        calls.append((h, w))
        return original(stack, h, w)

    projections = []
    linear = nn.Linear.__call__

    def counting_linear(layer, x):
        if layer is model.global_proj:
            projections.append(x.shape)
        return linear(layer, x)

    model.condition_features = counting
    monkeypatch.setattr(nn.Linear, "__call__", counting_linear)
    out = df.sample(model, s, 4, stack, IdentityCodec(), seed=64, image_shape=(3, 8, 8))
    assert calls == [(8, 8)]
    assert len(projections) == 1
    del model.condition_features

    z = RandomSource(64).normal((3, 8, 8))
    ts = timestep_subsequence(12, 4)
    for t, t_prev in zip(ts[:-1], ts[1:]):
        z = ddim_step(z, predict(model, z, int(t), stack), int(t), int(t_prev), s)
    np.testing.assert_array_equal(out, z)
    # the conditioning is live, so dropping it would change the samples
    uncond = df.sample(model, s, 4, None, IdentityCodec(), seed=64, image_shape=(3, 8, 8))
    assert not np.array_equal(out, uncond)


def test_sample_raises_on_non_finite_latent():
    model = ConditionalDenoiser(tiny_config(), seed=65)
    model.head.bias.data[0] = np.nan
    with pytest.raises(nn.NumericalFailure, match="non-finite"):
        df.sample(model, make_schedule(10), 3, None, IdentityCodec(), seed=1,
                  image_shape=(2, 8, 8))


def test_sample_dense_schedule_runs_every_step():
    cfg = tiny_config()
    model = ConditionalDenoiser(cfg, seed=27)
    s = make_schedule(6)
    calls = []
    original = model.forward

    def spy(z, t, features=None):
        calls.append(t)
        return original(z, t, features)

    model.forward = spy
    df.sample(model, s, 6, None, IdentityCodec(), seed=1, image_shape=(2, 8, 8))
    assert calls == [6, 5, 4, 3, 2, 1]


# ---------------------------------------------------------------------------
# pipeline: DSRNet RGB super-resolution and two-stage augmentation


def pipeline_denoiser():
    model = ConditionalDenoiser(tiny_config(latent_channels=3, cond_slots=(("lowres", 3),)),
                                seed=70)
    randomize(model.parameters(), 71, scale=0.1)
    return model


def pipeline_rgan(scale, live=True):
    att = AttentionConfig(channels=8, heads=1, window_h=(2, 4), window_v=(4, 2), layers=1)
    model = RganModel(RganConfig(bands=6, scale=scale, attention=att), seed=72)
    if live:
        randomize(model.parameters(), 73, scale=0.1)
    return model


def pipeline_cubes():
    return [synthetic_cube(74, bands=6, height=8, width=8),
            synthetic_cube(75, bands=6, height=8, width=12)]


@pytest.mark.parametrize("scale", [2, 4])
def test_dsrnet_super_resolve_extents_and_determinism(scale):
    model = pipeline_denoiser()
    s = make_schedule(10)
    lr = synthetic_rgb(76, 8, 6)
    a = df.dsrnet_super_resolve(lr, model, s, 3, seed=4, scale=scale)
    b = df.dsrnet_super_resolve(lr, model, s, 3, seed=4, scale=scale)
    assert a.shape == (3, 8 * scale, 6 * scale)
    assert a.min() >= 0.0 and a.max() <= 1.0
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, df.dsrnet_super_resolve(lr, model, s, 3, seed=5, scale=scale))
    with pytest.raises(ValueError):
        df.dsrnet_super_resolve(lr, model, s, 3, seed=4, scale=3)


@pytest.mark.parametrize("shape", [(8, 6), (1, 3, 8, 6), (3, 0, 6)])
def test_dsrnet_super_resolve_rejects_lr_rgb_that_is_not_a_cube(shape):
    lr = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(
            f"lr_rgb must be a [C,H,W] array with non-empty extents, got shape {shape}")):
        df.dsrnet_super_resolve(lr, pipeline_denoiser(), make_schedule(10), 3, seed=4, scale=2)


def test_dsrnet_super_resolve_takes_a_nested_list():
    model, s, lr = pipeline_denoiser(), make_schedule(10), synthetic_rgb(76, 8, 6)
    np.testing.assert_array_equal(
        df.dsrnet_super_resolve(lr.tolist(), model, s, 3, seed=4, scale=2),
        df.dsrnet_super_resolve(lr, model, s, 3, seed=4, scale=2))


@pytest.mark.parametrize("scale", [2, 4])
def test_dsrnet_super_resolve_is_sampling_on_the_upsampled_input(scale):
    # Oracle: DDIM sampling at the high-resolution extents, conditioned on
    # the bilinear upsample of lr_rgb in the `lowres` slot, clipped to [0, 1].
    model, s = pipeline_denoiser(), make_schedule(10)
    lr = synthetic_rgb(76, 8, 6)
    h, w = 8 * scale, 6 * scale
    got = df.dsrnet_super_resolve(lr, model, s, 3, seed=4, scale=scale)
    cond = ConditionStack({"lowres": ad.bilinear_resize_array(lr, h, w)})
    want = np.clip(df.sample(model, s, 3, cond, IdentityCodec(), 4, (3, h, w)), 0.0, 1.0)
    np.testing.assert_array_equal(got, want)
    other = synthetic_rgb(77, 8, 6)
    assert not np.array_equal(got, df.dsrnet_super_resolve(other, model, s, 3, seed=4,
                                                           scale=scale))


@pytest.mark.parametrize("scale", [2, 4])
def test_augment_two_stage_extents_manifest_and_determinism(scale):
    model, rgan_model, cubes = pipeline_denoiser(), pipeline_rgan(scale), pipeline_cubes()
    s = make_schedule(10)

    def run():
        return df.augment_two_stage(cubes, model, s, rgan_model, scale=scale,
                                    patch_size=8, steps=2, seed=3)

    patches, manifest = run()
    again, manifest_again = run()
    assert manifest == manifest_again
    for a, b in zip(patches, again):
        np.testing.assert_array_equal(a.values, b.values)

    want = []
    for ci, cube in enumerate(cubes):
        grid = patch_grid(cube.height * scale, cube.width * scale, 8, 4)
        want += [(ci, pi, [r, c]) for pi, (r, c) in enumerate(grid.origins)]
    assert [(row["source"], row["patch"], row["origin"]) for row in manifest] == want
    assert all(row["scale"] == scale and row["patch_size"] == 8 and row["stride"] == 4
               for row in manifest)
    assert len(patches) == len(want)
    for p in patches:
        assert p.values.shape == (6, 8, 8)
        assert p.values.min() >= 0.0 and p.values.max() <= 1.0


def test_augment_two_stage_rejects_a_scale_the_rgan_lacks(monkeypatch):
    def sample(*args, **kwargs):
        raise AssertionError("sampled before checking the scale")

    monkeypatch.setattr(df, "dsrnet_super_resolve", sample)
    with pytest.raises(ValueError, match=re.escape("scale 4 != rgan_model.config.scale 2")):
        df.augment_two_stage(pipeline_cubes(), pipeline_denoiser(), make_schedule(10),
                             pipeline_rgan(2), scale=4, patch_size=8, steps=2)


@pytest.mark.parametrize("cubes, patch_size, message", [
    (pipeline_cubes() + [np.zeros((6, 8, 8))], 8, "cubes[2] must be an HsiCube, got ndarray"),
    ([synthetic_cube(74, bands=6, height=12, width=12)] + pipeline_cubes()[1:], 17,
     "patch_size 17 exceeds cubes[1] extents 16x24 at scale 2"),
    (pipeline_cubes() + [synthetic_cube(76, bands=6, height=8, width=8,
                                        wavelengths=np.linspace(700.0, 950.0, 6))], 8,
     "cubes[2]: cube range [700.0, 950.0] nm does not cover the 450-650 nm RGB targets"),
    (pipeline_cubes()[0], 8, "cubes must be a list of HsiCube, got HsiCube"),
], ids=["not-a-cube", "patch-too-large", "rgb-uncovered", "single-cube"])
def test_augment_two_stage_checks_every_cube_before_sampling(monkeypatch, cubes, patch_size,
                                                            message):
    real, calls = df.dsrnet_super_resolve, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(df, "dsrnet_super_resolve", spy)
    with pytest.raises(DataError, match=re.escape(message)):
        df.augment_two_stage(cubes, pipeline_denoiser(), make_schedule(10), pipeline_rgan(2),
                             scale=2, patch_size=patch_size, steps=2)
    assert calls == []


def test_augment_two_stage_zero_rgan_patches_are_bilinear_crops():
    # The zero-init RGAN head makes stage two the bilinear upsample,
    # whatever guide stage one produced.
    cube = pipeline_cubes()[1]
    patches, manifest = df.augment_two_stage(
        [cube], pipeline_denoiser(), make_schedule(10), pipeline_rgan(2, live=False),
        scale=2, patch_size=8, stride=4, steps=2, seed=3)
    upsampled = np.clip(ad.bilinear_resize_array(cube.values, 16, 24), 0.0, 1.0)
    assert len(patches) == 15
    for p, row in zip(patches, manifest):
        r, c = row["origin"]
        np.testing.assert_array_equal(p.values, upsampled[:, r : r + 8, c : c + 8])


def test_augment_two_stage_is_its_stages_composed():
    # Oracle: DSRNet on each cube's RGB bands, with the seed the pipeline
    # derives for that cube; RGAN guided by the result; the patch grid of
    # the upscaled cube.
    model, rgan_model, cubes = pipeline_denoiser(), pipeline_rgan(2), pipeline_cubes()
    s = make_schedule(10)

    def run():
        return df.augment_two_stage(cubes, model, s, rgan_model, scale=2, patch_size=8,
                                    stride=4, steps=2, seed=5)

    want, want_rows = [], []
    for ci, cube in enumerate(cubes):
        seed = int(RandomSource(5).child(ci).integers(0, 2**31))
        hr_rgb = df.dsrnet_super_resolve(extract_rgb(cube).values, model, s, 2, seed=seed,
                                         scale=2)
        hr_cube = rgan_forward(cube, hr_rgb, rgan_model)
        grid = patch_grid(hr_cube.height, hr_cube.width, 8, 4)
        want += [p.values for p in iter_patches(hr_cube, grid)]
        want_rows += [{"source": ci, "patch": pi, "origin": [r, c], "scale": 2,
                       "patch_size": 8, "stride": 4} for pi, (r, c) in enumerate(grid.origins)]
    patches, manifest = run()
    again, manifest_again = run()
    assert manifest == manifest_again == want_rows
    assert len(patches) == len(again) == len(want) == 9 + 15
    for p, q, w in zip(patches, again, want):
        np.testing.assert_array_equal(p.values, w)
        np.testing.assert_array_equal(q.values, w)


def test_generator_chain_at_toy_scale():
    # The paper's generator end to end: augmented patches train a 48-band
    # codec and a denoiser conditioned on each patch's HED and segmentation
    # proxies (maps at patch extents, which the denoiser resizes to the
    # latent's); the denoiser then samples under a held-out patch's maps.
    cubes = [synthetic_cube(80 + i, bands=48, height=16, width=16) for i in range(2)]
    att = AttentionConfig(channels=8, heads=1, window_h=(2, 4), window_v=(4, 2), layers=1)
    rgan_model = RganModel(RganConfig(bands=48, scale=2, attention=att), seed=82)
    randomize(rgan_model.parameters(), 83, scale=0.1)
    s = make_schedule(20)

    def run(seed):
        patches, _ = df.augment_two_stage(cubes, pipeline_denoiser(), s, rgan_model, scale=2,
                                          patch_size=16, steps=2, seed=seed)
        images = [p.values for p in patches]
        stacks = []
        for p in patches:
            rgb = extract_rgb(p).values
            stacks.append(ConditionStack({"hed": df.edge_proxy(rgb),
                                          "seg": df.segmentation_proxy(rgb)}))
        codec = TinyAutoencoder(48, 4, seed=seed)
        codec_trace = codec.train(images[:-1], steps=5, seed=seed)
        model = ConditionalDenoiser(
            tiny_config(latent_channels=4, cond_slots=(("hed", 1), ("seg", 1))), seed=seed)
        trace = df.train_diffusion([codec.encode(x) for x in images[:-1]], model, s, steps=3,
                                   batch_size=2, seed=seed, conditions=stacks[:-1])
        out = df.sample(model, s, 4, stacks[-1], codec, seed, (48, 16, 16))
        return codec_trace + trace, out

    trace, out = run(7)
    assert out.shape == (48, 16, 16)
    assert np.all(np.isfinite(trace)) and np.all(np.isfinite(out))
    trace_again, out_again = run(7)
    assert trace_again == trace
    np.testing.assert_array_equal(out_again, out)


def test_inference_entry_points_record_no_graph(monkeypatch):
    outputs = []  # (layer, output) of every Conv2d and Linear call

    for cls in (nn.Conv2d, nn.Linear):
        def recording(self, x, original=cls.__call__):
            out = original(self, x)
            outputs.append((self, out))
            return out

        monkeypatch.setattr(cls, "__call__", recording)
    codec = TinyAutoencoder(3, 4, factor=2, seed=0)
    codec.encode(synthetic_rgb(77, 8, 8))
    model = ConditionalDenoiser(tiny_config(latent_channels=4), seed=78)
    df.sample(model, make_schedule(10), 2, None, codec, seed=1, image_shape=(3, 8, 8))
    cube = pipeline_cubes()[0]
    rgan_forward(cube, np.zeros((3, 16, 16)), pipeline_rgan(2))
    layers = [layer for layer, _ in outputs]
    assert sum(isinstance(layer, nn.Conv2d) for layer in layers) > 10
    assert any(layer is codec.enc for layer in layers)
    assert any(layer is codec.dec for layer in layers)
    assert all(out.node is None for _, out in outputs)
    # outside those entry points the same layers do record their graph
    model.conv_in(Tensor(np.zeros((4, 4, 4))))
    assert outputs[-1][1].node.parents
    codec.enc(Tensor(np.zeros((12, 4, 4))))
    assert outputs[-1][1].node.parents


# ---------------------------------------------------------------------------
# checkpoints


def _with(section, **fields):
    return lambda c: {**c, section: {**c[section], **fields}}


def _without(section, name=None):
    if name is None:
        return lambda c: {k: v for k, v in c.items() if k != section}
    return lambda c: {**c, section: {k: v for k, v in c[section].items() if k != name}}


@pytest.mark.parametrize("edit, key", [
    (_without("schedule"), "config.schedule"),
    (_without("denoiser", "levels"), "config.denoiser.levels"),
    (_with("denoiser", dropout=0.1), "config.denoiser.dropout"),
    (_with("denoiser", cond_slots=3), "config.denoiser.cond_slots"),
    (_with("denoiser", cond_slots=[["lowres"]]), "config.denoiser.cond_slots[0]"),
    (_with("denoiser", cond_slots=[["lowres", "3"]]), "config.denoiser.cond_slots[0][1]"),
    (_with("denoiser", levels=0), "config.denoiser"),
    (_with("schedule", timesteps="16"), "config.schedule.timesteps"),
    (_with("schedule", beta_start=True), "config.schedule.beta_start"),
    (_with("codec", kind=5), "config.codec.kind"),
    (_with("codec", kind="jpeg"), "config.codec"),
    (_with("schedule", timesteps=0), "config.schedule"),
    (lambda c: {**c, "codec": None}, "config.codec"),
    (lambda c: [c], "config"),
], ids=["no-schedule", "no-levels", "unknown-key", "int-slots", "short-slot", "str-slot-channels",
        "zero-levels", "str-timesteps", "bool-beta", "int-codec-kind", "unknown-codec-kind",
        "zero-timesteps", "null-codec", "list-config"])
def test_load_diffusion_rejects_malformed_config(tmp_path, edit, key):
    model = ConditionalDenoiser(tiny_config(cond_slots=(("lowres", 3),)), seed=28)
    good = tmp_path / "good.ckpt"
    df.save_diffusion(good, model, make_schedule(16), SpaceToDepthCodec(2))
    kind, config, _ = nn.load_checkpoint(good)
    path = tmp_path / "diff.ckpt"
    nn.save_checkpoint(path, kind, edit(config), model.parameters())
    with pytest.raises(ValueError) as err:
        df.load_diffusion(path)
    assert str(path) in str(err.value) and f"'{key}'" in str(err.value)


def test_diffusion_checkpoint_round_trip(tmp_path):
    cfg = tiny_config(cond_slots=(("lowres", 3),))
    model = ConditionalDenoiser(cfg, seed=28)
    s = make_schedule(16)
    path = tmp_path / "diff.ckpt"
    df.save_diffusion(path, model, s, SpaceToDepthCodec(2))
    back, s2, codec = df.load_diffusion(path)
    assert back.config == cfg
    assert s2.timesteps == 16
    assert codec.kind == "space_to_depth" and codec.factor == 2
    z = RandomSource(29).normal((2, 8, 8))
    a = predict(df.load_diffusion(path)[0], z, 3)
    np.testing.assert_array_equal(predict(back, z, 3), a)


def test_diffusion_checkpoint_reproduces_a_trained_model(tmp_path):
    # every weight live (zero-convs would hide the condition branch), a
    # trained codec's parameters too, and values that float32 cannot hold
    model = ConditionalDenoiser(tiny_config(latent_channels=4, cond_slots=(("lowres", 3),)),
                                seed=28)
    codec = TinyAutoencoder(3, 4, factor=2, seed=30)
    randomize(model.parameters() + codec.parameters(), 31, scale=0.1)
    path = tmp_path / "diff.ckpt"
    df.save_diffusion(path, model, make_schedule(16), codec)
    back, schedule, back_codec = df.load_diffusion(path)
    for p, q in zip(model.parameters() + codec.parameters(),
                    back.parameters() + back_codec.parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=p.name)
    cond = ConditionStack({"lowres": synthetic_rgb(32, 8, 8)})
    np.testing.assert_array_equal(
        df.sample(back, schedule, 3, cond, back_codec, seed=1, image_shape=(3, 8, 8)),
        df.sample(model, make_schedule(16), 3, cond, codec, seed=1, image_shape=(3, 8, 8)))
