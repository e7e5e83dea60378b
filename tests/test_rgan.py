import json
import tracemalloc
import weakref
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectragen import autodiff as ad
from spectragen import nn, rgan
from spectragen.autodiff import Parameter, RandomSource, Tensor
from spectragen.hsi import DegradationSpec, HsiCube, degrade, extract_rgb
from spectragen.rgan import AttentionConfig, Gal, Rca, RganConfig, RganModel
from spectragen.synth import synthetic_cube

import oracles


def small_cfg(channels=8, heads=1, wh=(2, 4), wv=(4, 2), layers=1):
    return AttentionConfig(channels=channels, heads=heads, window_h=wh,
                           window_v=wv, layers=layers)


# ---------------------------------------------------------------------------
# window partitioning


def partition(x, window):
    """Single-head windows [n_windows, h*w, C] of a [C,H,W] array."""
    return rgan.window_heads(x, window, 1)[:, 0]


def reverse(windows, window, shape):
    return rgan.merge_window_heads(windows[:, None], window, *shape[1:])


def test_partition_counts():
    x = RandomSource(0).normal((4, 8, 8))
    windows = partition(x, (2, 4))
    assert windows.shape == (8, 8, 4)


def test_partition_reverse_round_trip():
    x = RandomSource(1).normal((6, 8, 12))
    windows = partition(x, (2, 4))
    np.testing.assert_array_equal(reverse(windows, (2, 4), x.shape), x)


def test_partition_singleton_windows():
    x = RandomSource(2).normal((2, 4, 4))
    windows = partition(x, (1, 1))
    assert windows.shape == (16, 1, 2)
    np.testing.assert_array_equal(reverse(windows, (1, 1), x.shape), x)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 5000),
    h=st.sampled_from([1, 2, 4]),
    w=st.sampled_from([1, 2, 4]),
    c=st.integers(1, 6),
)
def test_partition_round_trip_property(seed, h, w, c):
    x = RandomSource(seed).normal((c, 8, 8))
    windows = partition(x, (h, w))
    assert windows.shape == ((8 // h) * (8 // w), h * w, c)
    np.testing.assert_array_equal(reverse(windows, (h, w), x.shape), x)


def test_partition_rejects_non_divisible():
    with pytest.raises(ValueError):
        partition(np.zeros((2, 7, 8)), (2, 4))


def test_partition_row_major_order():
    # Token (window, position) layout must follow row-major window origins.
    h, w = 4, 8
    x = np.arange(h * w, dtype=float).reshape(1, h, w)
    windows = partition(x, (2, 4))
    first = windows[0, :, 0]
    np.testing.assert_array_equal(first, [0, 1, 2, 3, 8, 9, 10, 11])
    second = windows[1, :, 0]
    np.testing.assert_array_equal(second, [4, 5, 6, 7, 12, 13, 14, 15])


def test_window_heads_split_channels_into_heads():
    x = RandomSource(3).normal((6, 4, 8))
    heads = rgan.window_heads(x, (2, 4), 2)
    assert heads.shape == (4, 2, 8, 3)
    for head in range(2):
        np.testing.assert_array_equal(heads[:, head], partition(x[3 * head : 3 * head + 3], (2, 4)))
    np.testing.assert_array_equal(rgan.merge_window_heads(heads, (2, 4), 4, 8), x)


# ---------------------------------------------------------------------------
# fused window attention


def attention_inputs(seed, heads, windows, extents, channels=8):
    rng = RandomSource(seed)
    cfg = small_cfg(channels, heads, *windows)
    qkv = [Parameter(rng.normal((channels,) + extents), name=n) for n in "qkv"]
    pos = [Parameter(rng.normal((heads, h * w, h * w)) * 0.3, name=f"pos_{n}")
           for n, (h, w) in zip("hv", windows)]
    weight = rng.normal((channels,) + extents)
    return cfg, qkv + pos, weight


ATTENTION_CASES = [  # heads, (wide window, tall window), extents
    (1, ((2, 4), (4, 2)), (4, 12)),
    (2, ((2, 4), (2, 2)), (6, 8)),
    (1, ((1, 2), (4, 2)), (12, 4)),
    (2, ((2, 3), (4, 2)), (8, 6)),
    (2, ((1, 5), (3, 1)), (6, 5)),
]


@pytest.mark.parametrize("heads, window, extents", ATTENTION_CASES)
def test_window_attention_matches_composed_ops(heads, window, extents):
    cfg, params, weight = attention_inputs(60, heads, window, extents)

    def run(attend):
        for p in params:
            p.reset_grad()
        out = attend(*params[:3], cfg, *params[3:])
        parents = out._parents
        ad.backward(ad.tsum(ad.mul(out, weight)))
        return out, parents, [p.grad.copy() for p in params]

    fused, parents, fused_grads = run(rgan.window_attention)
    composed, _, composed_grads = run(oracles.composed_rectangular_attention)
    assert parents == tuple(params)  # one node over query, key, value, pos_h, pos_v
    np.testing.assert_array_equal(fused.data, composed.data)
    for p, a, b in zip(params, fused_grads, composed_grads):
        np.testing.assert_array_equal(a, b, err_msg=p.name)
    with ad.no_grad():  # the path that keeps no attention maps
        plain = rgan.window_attention(*params[:3], cfg, *params[3:])
    np.testing.assert_array_equal(plain.data, fused.data)


@pytest.mark.parametrize("heads, window, extents", ATTENTION_CASES[1:4])
def test_window_attention_gradcheck(heads, window, extents):
    cfg, params, weight = attention_inputs(61, heads, window, extents)

    def forward():
        out = rgan.window_attention(*params[:3], cfg, *params[3:])
        return ad.mean(ad.mul(out, weight))

    ad.backward(forward())
    oracles.gradcheck(forward, params, RandomSource(62), n_coords=20)


def test_window_attention_backward_releases_saved_arrays():
    cfg, params, weight = attention_inputs(63, 2, ((2, 4), (4, 2)), (4, 8))
    out = rgan.window_attention(*params[:3], cfg, *params[3:])
    maps, = (c.cell_contents for c in out._vjp.__closure__
             if isinstance(c.cell_contents, list))
    assert [m.shape for m in maps] == [(4, 2, 8, 8), (4, 2, 8, 8)]
    refs = [weakref.ref(m) for m in maps]
    del maps
    ad.backward(ad.tsum(ad.mul(out, weight)))
    assert all(ref() is None for ref in refs)
    assert out._vjp is None and out._parents == ()


# ---------------------------------------------------------------------------
# qkv projection


def attention_operands(monkeypatch, rca, z1, z2):
    """(query, key, value) arrays of each window_attention call of rca(z1, z2)."""
    calls = []
    attend = rgan.window_attention

    def capture(query, key, value, *rest):
        calls.append((query.data, key.data, value.data))
        return attend(query, key, value, *rest)

    monkeypatch.setattr(rgan, "window_attention", capture)
    rca(z1, z2)
    return calls


def test_project_qkv_zero_weights(monkeypatch):
    cfg = small_cfg()
    rca = Rca(cfg, RandomSource(3), "rca")
    rca.qkv.weight.data[:] = 0.0
    z = Tensor(RandomSource(4).normal((8, 4, 4)))
    calls = attention_operands(monkeypatch, rca, z, z)
    assert len(calls) == 1
    for part in calls[0]:
        np.testing.assert_array_equal(part, np.zeros((8, 4, 4)))


def test_project_qkv_identity_kernel(monkeypatch):
    cfg = small_cfg()
    rca = Rca(cfg, RandomSource(5), "rca")
    c = cfg.channels
    w = np.zeros((3 * c, c))
    for i in range(c):
        w[i, i] = 1.0
        w[i + c, i] = 1.0
        w[i + 2 * c, i] = 1.0
    rca.qkv.weight.data = w
    rca.qkv.bias.data[:] = 0.0
    z = Tensor(RandomSource(6).normal((c, 4, 4)))
    (operands,) = attention_operands(monkeypatch, rca, z, z)
    for part in operands:
        np.testing.assert_array_equal(part, z.data)


def test_project_qkv_matches_conv_then_slice(monkeypatch):
    # Each output stream attends the other stream's queries against its own
    # keys and values: [q|k|v] are the thirds of the qkv conv output.
    cfg = small_cfg()
    rca = Rca(cfg, RandomSource(7), "rca")
    rng = RandomSource(8)
    z1 = Tensor(rng.normal((8, 4, 4)))
    z2 = Tensor(rng.normal((8, 4, 4)))
    q1, k1, v1 = np.split(rca.qkv(z1).data, 3)
    q2, k2, v2 = np.split(rca.qkv(z2).data, 3)
    calls = attention_operands(monkeypatch, rca, z1, z2)
    assert len(calls) == 2
    for got, want in zip(calls, ((q2, k1, v1), (q1, k2, v2))):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# rectangular cross-attention


def _zero_v_rows(rca):
    c = rca.cfg.channels
    rca.qkv.weight.data[2 * c :] = 0.0
    rca.qkv.bias.data[2 * c :] = 0.0


def test_rca_zero_values_give_zero_outputs():
    cfg = small_cfg()
    rca = Rca(cfg, RandomSource(9), "rca")
    _zero_v_rows(rca)
    rng = RandomSource(10)
    z1 = Tensor(rng.normal((8, 4, 4)))
    z2 = Tensor(rng.normal((8, 4, 4)))
    o1, o2 = rca(z1, z2)
    np.testing.assert_array_equal(o1.data, np.zeros((8, 4, 4)))
    np.testing.assert_array_equal(o2.data, np.zeros((8, 4, 4)))


def test_rca_singleton_window_returns_values():
    cfg = small_cfg(wh=(1, 1), wv=(1, 1))
    rca = Rca(cfg, RandomSource(11), "rca")
    rng = RandomSource(12)
    z1 = Tensor(rng.normal((8, 4, 4)))
    z2 = Tensor(rng.normal((8, 4, 4)))
    v1 = np.split(rca.qkv(z1).data, 3)[2]
    v2 = np.split(rca.qkv(z2).data, 3)[2]
    o1, o2 = rca(z1, z2)
    np.testing.assert_allclose(o1.data, v1, atol=1e-14)
    np.testing.assert_allclose(o2.data, v2, atol=1e-14)


def _dense_rca_oracle(rca, z1, z2):
    """Dense per-window attention with explicit matrices (loops)."""
    cfg = rca.cfg
    q1, k1, v1 = np.split(rca.qkv(z1).data, 3)
    q2, k2, v2 = np.split(rca.qkv(z2).data, 3)
    half = cfg.channels // 2
    scale = 1.0 / np.sqrt(cfg.channels // (2 * cfg.heads))

    def windowize(x, window):
        c, height, width = x.shape
        h, w = window
        gr, gc = height // h, width // w
        wins = np.zeros((gr * gc, h * w, c))
        for r in range(gr):
            for col in range(gc):
                block = x[:, r * h : (r + 1) * h, col * w : (col + 1) * w]
                wins[r * gc + col] = block.reshape(c, h * w).T
        return wins

    def unwindow(wins, window, shape):
        c, height, width = shape
        h, w = window
        gr, gc = height // h, width // w
        out = np.zeros(shape)
        for r in range(gr):
            for col in range(gc):
                out[:, r * h : (r + 1) * h, col * w : (col + 1) * w] = (
                    wins[r * gc + col].T.reshape(c, h, w)
                )
        return out

    def heads_view(wins):
        n, t, c = wins.shape
        return wins.reshape(n, t, cfg.heads, c // cfg.heads).transpose(0, 2, 1, 3)

    def branch(q, k, v, window, pos):
        qw, kw, vw = (heads_view(windowize(x, window)) for x in (q, k, v))
        out = oracles.dense_window_attention(qw, kw, vw, pos, scale)
        n, heads, t, d = out.shape
        merged = out.transpose(0, 2, 1, 3).reshape(n, t, heads * d)
        return unwindow(merged, window, (q.shape[0],) + q.shape[1:])

    def full(qo, ks, vs):
        hpart = branch(qo[:half], ks[:half], vs[:half], cfg.window_h, rca.pos_h.data)
        vpart = branch(qo[half:], ks[half:], vs[half:], cfg.window_v, rca.pos_v.data)
        return np.concatenate([hpart, vpart], axis=0)

    return full(q2, k1, v1), full(q1, k2, v2)


def test_rca_matches_dense_oracle():
    cfg = small_cfg(channels=8, heads=1, wh=(2, 4), wv=(4, 2))
    rca = Rca(cfg, RandomSource(13), "rca")
    rca.pos_h.data = RandomSource(14).normal(rca.pos_h.shape) * 0.3
    rca.pos_v.data = RandomSource(15).normal(rca.pos_v.shape) * 0.3
    rng = RandomSource(16)
    z1 = Tensor(rng.normal((8, 8, 8)))
    z2 = Tensor(rng.normal((8, 8, 8)))
    o1, o2 = rca(z1, z2)
    want1, want2 = _dense_rca_oracle(rca, z1, z2)
    np.testing.assert_allclose(o1.data, want1, atol=1e-10)
    np.testing.assert_allclose(o2.data, want2, atol=1e-10)


def test_rca_swap_equivariance():
    cfg = small_cfg()
    rca = Rca(cfg, RandomSource(17), "rca")
    rng = RandomSource(18)
    z1 = Tensor(rng.normal((8, 4, 4)))
    z2 = Tensor(rng.normal((8, 4, 4)))
    o1, o2 = rca(z1, z2)
    s1, s2 = rca(z2, z1)
    np.testing.assert_array_equal(o1.data, s2.data)
    np.testing.assert_array_equal(o2.data, s1.data)


def test_rca_same_tensor_matches_two_stream_path():
    # Rca(z, z) runs one stream; an equal copy forces the two-stream path.
    cfg = small_cfg(channels=8, heads=2)
    rca = Rca(cfg, RandomSource(50), "rca")
    rca.pos_h.data = RandomSource(51).normal(rca.pos_h.shape) * 0.3
    rca.pos_v.data = RandomSource(52).normal(rca.pos_v.shape) * 0.3
    z = Tensor(RandomSource(53).normal((8, 8, 8)))
    weight = RandomSource(54).normal((8, 8, 8))

    def run(z2):
        for p in rca.parameters():
            p.reset_grad()
        o1, o2 = rca(z, z2)
        ad.backward(ad.tsum(ad.mul(o1, weight)))
        return o1.data, o2.data, [p.grad.copy() for p in rca.parameters()]

    one1, one2, one_grads = run(z)
    two1, two2, two_grads = run(Tensor(z.data.copy()))
    np.testing.assert_array_equal(one1, two1)
    np.testing.assert_array_equal(one2, two2)
    for p, a, b in zip(rca.parameters(), one_grads, two_grads):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), p.name


def test_rca_splits_each_projection_once(monkeypatch):
    # The qkv conv output is cut into query, key and value in one split;
    # Rca(z, z) projects once, Rca(z1, z2) once per stream.
    rca = Rca(small_cfg(), RandomSource(55), "rca")
    rng = RandomSource(56)
    z1 = Tensor(rng.normal((8, 4, 4)))
    z2 = Tensor(rng.normal((8, 4, 4)))
    calls = []
    split = ad.split

    def count(t, sections, axis):
        calls.append(sections)
        return split(t, sections, axis)

    monkeypatch.setattr(ad, "split", count)
    rca(z1, z1)
    assert calls == [3]
    calls.clear()
    rca(z1, z2)
    assert calls == [3, 3]


def test_rca_attention_rows_sum_to_one(monkeypatch):
    cfg = small_cfg(heads=2, channels=8)
    rca = Rca(cfg, RandomSource(19), "rca")
    rng = RandomSource(20)
    z1 = Tensor(rng.normal((8, 8, 8)))
    z2 = Tensor(rng.normal((8, 8, 8)))
    probe: list = []
    softmax = ad.softmax_array

    def capture(x, axis):
        out = softmax(x, axis=axis)
        probe.append(out)
        return out

    monkeypatch.setattr(ad, "softmax_array", capture)
    rca(z1, z2)
    assert probe
    for attn in probe:
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)


def test_rca_rejects_shape_mismatch():
    cfg = small_cfg()
    rca = Rca(cfg, RandomSource(21), "rca")
    with pytest.raises(ValueError):
        rca(Tensor(np.zeros((8, 4, 4))), Tensor(np.zeros((8, 8, 8))))


def test_attention_config_validation():
    with pytest.raises(ValueError):
        AttentionConfig(channels=7)
    with pytest.raises(ValueError):
        AttentionConfig(channels=8, heads=3)
    with pytest.raises(ValueError):
        AttentionConfig(channels=8, window_h=(4, 2))
    with pytest.raises(ValueError):
        AttentionConfig(channels=8, window_v=(2, 4))


@pytest.mark.parametrize("field, value", [
    ("heads", 0), ("heads", -1), ("channels", 0), ("channels", -2),
    ("window_h", (0, 0)), ("window_h", (0, 8)), ("window_v", (2, 0)), ("window_v", (-8, -2)),
])
def test_attention_config_rejects_non_positive_extents(field, value):
    with pytest.raises(ValueError, match=field):
        AttentionConfig(**{"channels": 8, field: value})


# ---------------------------------------------------------------------------
# guided attention layer


def _zero_all(params):
    for p in params:
        p.data[:] = 0.0


def test_gal_zero_weights_is_identity():
    cfg = small_cfg()
    gal = Gal(cfg, RandomSource(22), "gal")
    _zero_all(gal.parameters())
    rng = RandomSource(23)
    a = rng.normal((8, 4, 4))
    b = rng.normal((8, 4, 4))
    oa, ob = gal(Tensor(a), Tensor(b))
    np.testing.assert_array_equal(oa.data, a)
    np.testing.assert_array_equal(ob.data, b)


def test_gal_preserves_shape():
    cfg = small_cfg(channels=12, heads=2, wh=(2, 8), wv=(8, 2))
    gal = Gal(cfg, RandomSource(24), "gal")
    rng = RandomSource(25)
    a = Tensor(rng.normal((12, 8, 8)))
    b = Tensor(rng.normal((12, 8, 8)))
    oa, ob = gal(a, b)
    assert oa.shape == (12, 8, 8) and ob.shape == (12, 8, 8)


def test_gal_stack_gradcheck():
    cfg = small_cfg(channels=4, heads=1, wh=(2, 4), wv=(4, 2), layers=2)
    rng = RandomSource(26)
    gals = [Gal(cfg, rng.child(i), f"gal{i}") for i in range(2)]
    params = [p for g in gals for p in g.parameters()]
    # Random init everywhere (position embeddings included) so sampled
    # coordinates have generic nonzero gradients.
    init = RandomSource(27)
    for p in params:
        p.data = init.child(zlib.crc32(p.name.encode())).normal(p.shape) * 0.3
    a0 = Tensor(RandomSource(28).normal((4, 4, 8)))
    b0 = Tensor(RandomSource(29).normal((4, 4, 8)))

    def forward():
        a, b = a0, b0
        for gal in gals:
            a, b = gal(a, b)
        return ad.mean(ad.mul(a, b))

    loss = forward()
    ad.backward(loss)
    oracles.gradcheck(forward, params, RandomSource(30), n_coords=20)


def test_ffd_matches_the_token_layout_oracle():
    ffd = rgan.Ffd(6, RandomSource(61), "ffd")
    init = RandomSource(62)
    for p in ffd.parameters():
        p.data = p.data + init.child(zlib.crc32(p.name.encode())).normal(p.shape) * 0.3
    x = RandomSource(63).normal((6, 4, 5))
    got = ffd(Tensor(x)).data
    want = oracles.ffd_tokens(x, ffd.norm.gamma.data, ffd.norm.beta.data, ffd.fc1.weight.data,
                              ffd.fc1.bias.data, ffd.fc2.weight.data, ffd.fc2.bias.data)
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_ffd_makes_no_structural_nodes(monkeypatch):
    calls = []
    for name in ("reshape", "transpose"):
        def counting(*args, real=getattr(ad, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(ad, name, counting)
    rgan.Ffd(4, RandomSource(64), "ffd")(Tensor(np.ones((4, 2, 3))))
    assert calls == []


# ---------------------------------------------------------------------------
# full model


def test_rgan_initial_output_is_bilinear_upsample():
    config = RganConfig(bands=5, scale=2, attention=small_cfg())
    model = RganModel(config, seed=31)
    cube = synthetic_cube(32, bands=5, height=8, width=8)
    rgb = extract_rgb(synthetic_cube(33, bands=5, height=16, width=16,
                                     wavelengths=np.linspace(420, 700, 5))).values
    out = rgan.rgan_forward(cube, rgb, model)
    want = ad.bilinear_resize(Tensor(cube.values), 16, 16).data
    np.testing.assert_allclose(out.values, want, atol=1e-12)


def test_rgan_output_extents_scale():
    config = RganConfig(bands=4, scale=4, attention=small_cfg())
    model = RganModel(config, seed=34)
    cube = synthetic_cube(35, bands=4, height=6, width=5)
    rgb = np.zeros((3, 24, 20))
    out = rgan.rgan_forward(cube, rgb, model)
    assert out.values.shape == (4, 24, 20)
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0


def test_rgan_scale_mismatch_errors():
    config = RganConfig(bands=4, scale=2, attention=small_cfg())
    model = RganModel(config, seed=36)
    cube = synthetic_cube(37, bands=4, height=8, width=8)
    with pytest.raises(ValueError):
        rgan.rgan_forward(cube, np.zeros((3, 8, 8)), model)


def test_rgan_model_rejects_non_divisible():
    config = RganConfig(bands=2, scale=2, attention=small_cfg(wh=(2, 8), wv=(8, 2)))
    model = RganModel(config, seed=38)
    with pytest.raises(ValueError):
        model.forward(Tensor(np.zeros((2, 5, 5))), Tensor(np.zeros((3, 10, 10))))


def test_rgan_checkpoint_round_trip(tmp_path):
    config = RganConfig(bands=3, scale=2, attention=small_cfg())
    model = RganModel(config, seed=39)
    path = tmp_path / "model.ckpt"
    rgan.save_rgan(model, path)
    back = rgan.load_rgan(path)
    assert back.config == config
    cube = synthetic_cube(40, bands=3, height=8, width=8)
    rgb = np.zeros((3, 16, 16))
    a = rgan.rgan_forward(cube, rgb, model).values
    b = rgan.rgan_forward(cube, rgb, back).values
    # two loads of the same file agree bit-exactly; float32 storage keeps
    # the reloaded model within rounding of the original
    c = rgan.rgan_forward(cube, rgb, rgan.load_rgan(path)).values
    np.testing.assert_array_equal(b, c)
    np.testing.assert_allclose(a, b, atol=1e-5)


def _with(section, **fields):
    return lambda c: {**c, section: {**c[section], **fields}}


@pytest.mark.parametrize("edit, key", [
    (lambda c: {k: v for k, v in c.items() if k != "attention"}, "config.attention"),
    (_with("attention", dropout=0.1), "config.attention.dropout"),
    (lambda c: {**c, "bands": "4"}, "config.bands"),
    (lambda c: {**c, "scale": 2.0}, "config.scale"),
    (_with("attention", window_h=2), "config.attention.window_h"),
    (_with("attention", window_h=[2, 4, 1]), "config.attention.window_h"),
    (_with("attention", layers=True), "config.attention.layers"),
    (_with("attention", heads=0), "config.attention"),
    (lambda c: {**c, "attention": [8]}, "config.attention"),
    (lambda c: [c], "config"),
], ids=["no-attention", "unknown-key", "str-bands", "float-scale", "int-window",
        "long-window", "bool-layers", "zero-heads", "list-attention", "list-config"])
def test_load_rgan_rejects_malformed_config(tmp_path, edit, key):
    model = RganModel(RganConfig(bands=3, scale=2, attention=small_cfg()), seed=39)
    config = json.loads(json.dumps(asdict(model.config)))
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, "rgan", edit(config), model.parameters())
    with pytest.raises(ValueError) as err:
        rgan.load_rgan(path)
    assert str(path) in str(err.value) and f"'{key}'" in str(err.value)


def test_load_rgan_rejects_a_1x1_conv_qkv_weight(tmp_path):
    # A qkv projection stored as a [3C, C, 1, 1] conv kernel, the layout
    # before qkv became a linear map, does not load into a [3C, C] weight.
    model = RganModel(RganConfig(bands=3, scale=2, attention=small_cfg()), seed=39)
    c = model.config.attention.channels
    name = "gal0.sal_hsi.qkv.weight"
    params = [Parameter(p.data.reshape(3 * c, c, 1, 1), name) if p.name == name else p
              for p in model.parameters()]
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, "rgan", asdict(model.config), params)
    with pytest.raises(ValueError) as err:
        rgan.load_rgan(path)
    message = str(err.value)
    assert name in message
    assert str((3 * c, c, 1, 1)) in message and str((3 * c, c)) in message


# ---------------------------------------------------------------------------
# training


def make_pair(seed, bands=4, hr_size=16, scale=2):
    hr = synthetic_cube(seed, bands=bands, height=hr_size, width=hr_size,
                        wavelengths=np.linspace(430, 990, bands))
    lr = degrade(hr, DegradationSpec("downsample", factor=scale))
    rgb = extract_rgb(hr).values
    return lr, rgb, hr


def test_train_rgan_perfect_model_zero_loss():
    # Target equal to the bilinear upsample makes the zero-init model exact.
    config = RganConfig(bands=4, scale=2, attention=small_cfg())
    model = RganModel(config, seed=41)
    cube = synthetic_cube(42, bands=4, height=8, width=8)
    target = HsiCube(ad.bilinear_resize(Tensor(cube.values), 16, 16).data,
                     cube.wavelengths)
    rgb = np.zeros((3, 16, 16))
    trace = rgan.train_rgan([(cube, rgb, target)], model, steps=3, lr=0.0)
    assert all(v == 0.0 for v in trace)


def test_train_rgan_deterministic():
    config = RganConfig(bands=4, scale=2, attention=small_cfg())
    pair = make_pair(43)
    t1 = rgan.train_rgan([pair], RganModel(config, seed=44), steps=5, lr=1e-3, seed=7)
    t2 = rgan.train_rgan([pair], RganModel(config, seed=44), steps=5, lr=1e-3, seed=7)
    assert t1 == t2


def test_train_rgan_empty_pairs():
    config = RganConfig(bands=4, scale=2, attention=small_cfg())
    with pytest.raises(ValueError):
        rgan.train_rgan([], RganModel(config, seed=45), steps=1)


@pytest.mark.parametrize("target_size", [(1, 16, 16), (8, 1, 16)])
def test_train_rgan_rejects_a_target_of_another_shape(target_size):
    # An 8-band model against a 1-band or 1-row target cube.
    config = RganConfig(bands=8, scale=2, attention=small_cfg())
    lr, rgb, _ = make_pair(52, bands=8)
    target = HsiCube(np.zeros(target_size), np.linspace(430, 990, target_size[0]))
    with pytest.raises(ValueError, match="target shape"):
        rgan.train_rgan([(lr, rgb, target)], RganModel(config, seed=53), steps=1)


def test_rgan_forward_names_a_band_count_mismatch():
    model = RganModel(RganConfig(bands=8, scale=2, attention=small_cfg()), seed=54)
    with pytest.raises(ValueError, match="5 bands, config.bands is 8"):
        model.forward(Tensor(np.zeros((5, 8, 8))), Tensor(np.zeros((3, 16, 16))))


def test_train_rgan_nan_aborts():
    config = RganConfig(bands=4, scale=2, attention=small_cfg())
    model = RganModel(config, seed=46)
    model.head.bias.data[:] = np.inf
    pair = make_pair(47)
    with pytest.raises(Exception) as err:
        rgan.train_rgan([pair], model, steps=2, lr=1e-3)
    assert "loss" in str(err.value)


def test_train_rgan_overfit_reduces_loss():
    config = RganConfig(bands=4, scale=2, attention=small_cfg(channels=48))
    model = RganModel(config, seed=48)
    pair = make_pair(49, hr_size=16)
    trace = rgan.train_rgan([pair], model, steps=200, seed=1)
    assert trace[-1] < 0.1 * trace[0]
    # smoothed trace decreases on the overfit fixture
    smoothed = np.convolve(trace, np.ones(25) / 25, mode="valid")
    quarters = np.array_split(smoothed, 4)
    means = [float(q.mean()) for q in quarters]
    assert all(b < a for a, b in zip(means, means[1:]))


def test_train_rgan_peak_memory_does_not_grow_with_steps():
    # backward releases each step's graph, so later steps reuse the memory
    # of the first instead of holding the previous graph through a forward.
    config = RganConfig(bands=8, scale=2, attention=small_cfg(channels=8))
    pair = make_pair(50, bands=8, hr_size=16)

    def peak(steps):
        model = RganModel(config, seed=51)
        tracemalloc.start()
        try:
            rgan.train_rgan([pair], model, steps=steps, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(1), peak(3)
    assert three <= 1.1 * one, (one, three)
