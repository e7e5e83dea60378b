import contextlib
import gc
import json
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
from memory import largest_traced_block, traced_bytes


def small_cfg(channels=8, heads=1, wh=(2, 4), wv=(4, 2), layers=1):
    return AttentionConfig(channels=channels, heads=heads, window_h=wh,
                           window_v=wv, layers=layers)


# ---------------------------------------------------------------------------
# window partitioning


def partition(x, window):
    """Single-head windows [n_windows, h*w, C] of a [C,H,W] array."""
    return rgan.window_heads(x, window, 1)[:, 0]


def reverse(windows, window, shape):
    return rgan.merge_window_heads(windows[:, None], window, np.empty(shape))


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
    np.testing.assert_array_equal(rgan.merge_window_heads(heads, (2, 4), np.empty(x.shape)), x)


# ---------------------------------------------------------------------------
# fused window attention


def attention_inputs(seed, heads, windows, extents, channels=8):
    """(cfg, [zq, zkv, qkv weight, qkv bias, pos_h, pos_v], output probe)."""
    rng = RandomSource(seed)
    cfg = small_cfg(channels, heads, *windows)
    streams = [Parameter(rng.normal((channels,) + extents), name=n) for n in ("zq", "zkv")]
    weight = Parameter(rng.normal((3 * channels, channels)) / np.sqrt(channels), name="weight")
    bias = Parameter(rng.normal(3 * channels) * 0.3, name="bias")
    pos = [Parameter(rng.normal((heads, h * w, h * w)) * 0.3, name=f"pos_{n}")
           for n, (h, w) in zip("hv", windows)]
    probe = rng.normal((channels,) + extents)
    return cfg, streams + [weight, bias] + pos, probe


def attend(op, cfg, params, two_streams=True):
    """op(zq, zkv, weight, bias, cfg, pos_h, pos_v) on attention_inputs'
    params; with two_streams=False zq stands in for zkv."""
    zq, zkv, weight, bias, pos_h, pos_v = params
    return op(zq, zkv if two_streams else zq, weight, bias, cfg, pos_h, pos_v)


def graph_overhead(call) -> int:
    """Bytes that call() still holds, output kept, with the graph recorded
    beyond without it."""
    def retained(grad):
        def run():
            with contextlib.nullcontext() if grad else ad.no_grad():
                return call()

        return traced_bytes(run)[0]

    return retained(True) - retained(False)


ATTENTION_CASES = [  # heads, (wide window, tall window), extents
    (1, ((2, 4), (4, 2)), (4, 12)),
    (2, ((2, 4), (2, 2)), (6, 8)),
    (1, ((1, 2), (4, 2)), (12, 4)),
    (2, ((2, 3), (4, 2)), (8, 6)),
    (2, ((1, 5), (3, 1)), (6, 5)),
]


@pytest.mark.parametrize("heads, window, extents", ATTENTION_CASES)
def test_window_attention_matches_composed_ops(heads, window, extents):
    # Bit-exact to split -> linear -> composed attention, gradients
    # included, with one stream and with two: each takes one path.
    cfg, params, probe = attention_inputs(60, heads, window, extents)

    def run(op, two_streams):
        for p in params:
            p.reset_grad()
        out = attend(op, cfg, params, two_streams)
        parents = out.node.parents
        ad.backward(ad.tsum(ad.mul(out, probe)))
        return out, parents, [p.grad.copy() for p in params]

    for two_streams in (False, True):
        fused, parents, fused_grads = run(rgan.window_attention, two_streams)
        composed, _, composed_grads = run(oracles.projected_rectangular_attention, two_streams)
        # one node over the streams, the qkv weight and bias, pos_h and pos_v
        zkv = params[1] if two_streams else params[0]
        assert parents == tuple(p.node for p in [params[0], zkv] + params[2:])
        np.testing.assert_array_equal(fused.data, composed.data)
        for p, a, b in zip(params, fused_grads, composed_grads):
            np.testing.assert_array_equal(a, b, err_msg=p.name)
        with ad.no_grad():  # the path that keeps no attention maps
            plain = attend(rgan.window_attention, cfg, params, two_streams)
        np.testing.assert_array_equal(plain.data, fused.data)


@pytest.mark.parametrize("heads, window, extents", ATTENTION_CASES[1:4])
def test_window_attention_gradcheck(heads, window, extents):
    cfg, params, probe = attention_inputs(61, heads, window, extents)
    for two_streams in (False, True):
        def forward():
            return ad.mean(ad.mul(attend(rgan.window_attention, cfg, params, two_streams), probe))

        for p in params:
            p.reset_grad()
        ad.backward(forward())
        used = params if two_streams else [params[0]] + params[2:]
        oracles.gradcheck(forward, used, RandomSource(62), n_coords=20)


def test_window_attention_backward_releases_saved_arrays():
    cfg, params, probe = attention_inputs(63, 2, ((2, 4), (4, 2)), (4, 8))
    streams = [ad.mul(p, 1.0) for p in params[:2]]  # arrays that only the graph keeps
    refs = [weakref.ref(t.data) for t in streams]
    out = attend(rgan.window_attention, cfg, streams + params[2:])
    del streams
    map_size = 4 * 2 * 8 * 8  # windows * heads * tokens^2 of either half
    projection_size = 3 * 8 * 4 * 8  # [3C,H,W]
    held = {a.size for a in oracles.held_by_vjp(out.node, np.ndarray)}
    assert map_size not in held and projection_size not in held
    assert all(ref() is not None for ref in refs)
    ad.backward(ad.tsum(ad.mul(out, probe)))
    assert all(ref() is None for ref in refs)
    assert out.node.vjp is None and out.node.parents == ()


def test_window_attention_graph_keeps_no_attention_map():
    # at C=32, 2 heads, 64x64 each half's map is 1 MB and the projection
    # 3 MB; the vjp recomputes both
    rng = RandomSource(68)
    cfg = AttentionConfig(32, heads=2)
    streams = [Parameter(rng.normal((32, 64, 64)), name=n) for n in ("zq", "zkv")]
    weight = Parameter(rng.normal((96, 32)) / np.sqrt(32), name="weight")
    bias = Parameter(rng.normal(96), name="bias")
    pos = [Parameter(rng.normal((2, 16, 16)), name=n) for n in ("pos_h", "pos_v")]
    params = streams + [weight, bias] + pos
    overhead = graph_overhead(lambda: attend(rgan.window_attention, cfg, params))
    assert overhead <= 4096, overhead


def test_window_attention_vjp_holds_no_tensor():
    cfg, params, _ = attention_inputs(64, 2, ((2, 4), (4, 2)), (4, 8))
    for two_streams in (False, True):
        out = attend(rgan.window_attention, cfg, params, two_streams)
        assert oracles.held_by_vjp(out.node) == []


def test_window_attention_output_is_freed_once_dropped():
    cfg, params, probe = attention_inputs(65, 2, ((2, 4), (4, 2)), (4, 8))

    def grads(keep_output):
        for p in params:
            p.reset_grad()
        out = attend(rgan.window_attention, cfg, params)
        ref = weakref.ref(out.data)
        y = ad.add(out, params[0])  # a residual, as around each attention sub-layer
        if not keep_output:
            del out
            assert ref() is None
        ad.backward(ad.tsum(ad.mul(y, probe)))
        return [p.grad.copy() for p in params]

    for p, a, b in zip(params, grads(False), grads(True)):
        np.testing.assert_array_equal(a, b, err_msg=p.name)


def test_deleted_model_frees_its_parameters_without_the_cycle_collector():
    model = RganModel(RganConfig(bands=3, scale=2, attention=small_cfg()), seed=66)
    rng = RandomSource(67)
    lr, rgb = Tensor(rng.uniform((3, 4, 4))), Tensor(rng.uniform((3, 8, 8)))
    gc.disable()
    try:
        ad.backward(ad.tsum(model.forward(lr, rgb)))
        refs = [weakref.ref(model)] + [weakref.ref(p.data) for p in model.parameters()]
        del model
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# qkv projection


def attention_operands(monkeypatch, rca, *pairs):
    """(rows, (query, key, value)) of each half that rca(zq, zkv), for each
    (zq, zkv) of pairs, projects and attends with, in call order."""
    calls = []
    half_qkv = rgan._half_qkv

    def capture(zq, zkv, weight, bias, rows):
        qkv = half_qkv(zq, zkv, weight, bias, rows)
        calls.append((rows, tuple(qkv)))
        return qkv

    monkeypatch.setattr(rgan, "_half_qkv", capture)
    for zq, zkv in pairs:
        rca(zq, zkv)
    return calls


def halves_of(cfg):
    c = cfg.channels
    return [slice(0, c // 2), slice(c // 2, c)]


def test_project_qkv_zero_weights(monkeypatch):
    cfg = small_cfg()
    rca = Rca(cfg, RandomSource(3), "rca")
    rca.qkv.weight.data[:] = 0.0
    z = Tensor(RandomSource(4).normal((8, 4, 4)))
    calls = attention_operands(monkeypatch, rca, (z, z))
    assert [rows for rows, _ in calls] == halves_of(cfg)
    for _, parts in calls:
        for part in parts:
            np.testing.assert_array_equal(part, np.zeros((4, 4, 4)))


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
    calls = attention_operands(monkeypatch, rca, (z, z))
    assert [rows for rows, _ in calls] == halves_of(cfg)
    for rows, parts in calls:
        for part in parts:
            np.testing.assert_array_equal(part, z.data[rows])


def test_project_qkv_matches_conv_then_slice(monkeypatch):
    # rca(zq, zkv) attends zq's queries against zkv's keys and values: each
    # half's [q|k|v] are that half's rows of the thirds of the qkv conv
    # output.
    cfg = small_cfg()
    rca = Rca(cfg, RandomSource(7), "rca")
    rng = RandomSource(8)
    z1 = Tensor(rng.normal((8, 4, 4)))
    z2 = Tensor(rng.normal((8, 4, 4)))
    q1, k1, v1 = np.split(rca.qkv(z1).data, 3)
    q2, k2, v2 = np.split(rca.qkv(z2).data, 3)
    calls = attention_operands(monkeypatch, rca, (z2, z1), (z1, z2))
    assert [rows for rows, _ in calls] == 2 * halves_of(cfg)
    for (rows, got), want in zip(calls, 2 * [(q2, k1, v1)] + 2 * [(q1, k2, v2)]):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b[rows])


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
    o1, o2 = rca(z2, z1), rca(z1, z2)
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
    o1, o2 = rca(z2, z1), rca(z1, z2)
    np.testing.assert_allclose(o1.data, v1, atol=1e-14)
    np.testing.assert_allclose(o2.data, v2, atol=1e-14)


def _dense_rca_oracle(rca, z1, z2):
    """rca(z2, z1) and rca(z1, z2) as dense per-window attention with
    explicit matrices (loops)."""
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
    o1, o2 = rca(z2, z1), rca(z1, z2)
    want1, want2 = _dense_rca_oracle(rca, z1, z2)
    np.testing.assert_allclose(o1.data, want1, atol=1e-10)
    np.testing.assert_allclose(o2.data, want2, atol=1e-10)


def test_rca_same_tensor_matches_two_stream_path():
    # Rca(z, z) and Rca(z, copy of z) take one path, so they agree exactly.
    cfg = small_cfg(channels=8, heads=2)
    rca = Rca(cfg, RandomSource(50), "rca")
    rca.pos_h.data = RandomSource(51).normal(rca.pos_h.shape) * 0.3
    rca.pos_v.data = RandomSource(52).normal(rca.pos_v.shape) * 0.3
    z = Tensor(RandomSource(53).normal((8, 8, 8)))
    weight = RandomSource(54).normal((8, 8, 8))

    def run(z2):
        for p in rca.parameters():
            p.reset_grad()
        o1, o2 = rca(z2, z), rca(z, z2)
        ad.backward(ad.tsum(ad.mul(o1, weight)))
        return o1.data, o2.data, [p.grad.copy() for p in rca.parameters()]

    one1, one2, one_grads = run(z)
    two1, two2, two_grads = run(Tensor(z.data.copy()))
    np.testing.assert_array_equal(one1, two1)
    np.testing.assert_array_equal(one2, two2)
    for p, a, b in zip(rca.parameters(), one_grads, two_grads):
        np.testing.assert_array_equal(a, b, err_msg=p.name)


def test_rca_splits_each_projection_once(monkeypatch):
    # Each window_attention node projects the rows it reads, each once, half
    # by half and with no split node: the query rows of zq and the key/value
    # rows of zkv, so Rca(z, z) all 3C rows of z.
    rca = Rca(small_cfg(), RandomSource(55), "rca")
    rng = RandomSource(56)
    z1 = Tensor(rng.normal((8, 4, 4)))
    z2 = Tensor(rng.normal((8, 4, 4)))
    calls = []  # per window_attention node, the (q|k|v row, stream) pairs it projects
    half_qkv = rgan._half_qkv

    def record(zq, zkv, weight, bias, rows):
        c = weight.shape[1]
        if rows.start == 0:  # a node's first half
            calls.append([])
        streams = ((range(c), zq), (range(c, 3 * c), zkv))  # q rows; k and v rows
        calls[-1] += [(row, 1 if z is z1.data else 2) for span, z in streams
                      for row in span if rows.start <= row % c < rows.stop]
        return half_qkv(zq, zkv, weight, bias, rows)

    def split(*args):
        raise AssertionError("Rca made a split node")

    def node(query_stream, kv_stream):
        return [(row, query_stream) for row in range(8)] + [(row, kv_stream) for row in range(8, 24)]

    monkeypatch.setattr(rgan, "_half_qkv", record)
    monkeypatch.setattr(ad, "split", split)
    rca(z1, z1)
    assert [sorted(rows) for rows in calls] == [node(1, 1)]
    calls.clear()
    rca(z2, z1), rca(z1, z2)
    assert [sorted(rows) for rows in calls] == [node(2, 1), node(1, 2)]
    calls.clear()
    rca(z2, z1)
    assert [sorted(rows) for rows in calls] == [node(2, 1)]


def test_rca_graph_keeps_no_projection():
    # at C=32, 2 heads, 64x64 a stream's [q|k|v] projection is 3 MB; the
    # graph keeps only the streams, which their caller holds anyway
    rca = Rca(AttentionConfig(32, heads=2), RandomSource(74), "rca")
    rng = RandomSource(75)
    z1 = Tensor(rng.normal((32, 64, 64)))
    z2 = Tensor(rng.normal((32, 64, 64)))
    for calls in (((z1, z1),), ((z2, z1), (z1, z2))):
        overhead = graph_overhead(lambda: [rca(*streams) for streams in calls])
        assert overhead <= 4096, overhead


def test_rca_inference_never_holds_a_whole_projection(monkeypatch):
    # at C=32, 2 heads, 64x64 a [3C,H,W] q|k|v array is 3 MB; each half
    # projects, attends and drops its own q, k and v rows before the next
    c, size = 32, 64
    rca = Rca(AttentionConfig(c, heads=2), RandomSource(74), "rca")
    rng = RandomSource(75)
    z1 = Tensor(rng.normal((c, size, size)))
    z2 = Tensor(rng.normal((c, size, size)))
    largest = []  # largest traced block before and after each attention step

    for name in ("window_heads", "_key_major_attention", "merge_window_heads"):
        def watched(*args, step=getattr(rgan, name)):
            largest.append(largest_traced_block())
            out = step(*args)
            largest.append(largest_traced_block())
            return out

        monkeypatch.setattr(rgan, name, watched)

    def run():
        with ad.no_grad():
            return rca(z2, z1), rca(z1, z2)

    traced_bytes(run)
    assert len(largest) == 40  # 2 nodes x 2 halves x (3 windowings, 1 map, 1 merge) x 2
    assert max(largest) < 3 * c * size * size * 8, max(largest)


def test_rca_attention_rows_sum_to_one(monkeypatch):
    cfg = small_cfg(heads=2, channels=8)
    rca = Rca(cfg, RandomSource(19), "rca")
    rng = RandomSource(20)
    z1 = Tensor(rng.normal((8, 8, 8)))
    z2 = Tensor(rng.normal((8, 8, 8)))
    probe: list = []
    softmax = ad.softmax_array

    def capture(x, axis, **kwargs):
        out = softmax(x, axis=axis, **kwargs)
        probe.append((out, axis))
        return out

    monkeypatch.setattr(ad, "softmax_array", capture)
    rca(z1, z2)
    assert probe
    for attn, axis in probe:
        np.testing.assert_allclose(attn.sum(axis=axis), 1.0, atol=1e-9)


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


@pytest.mark.parametrize("channels, heads", [(7, 1), (9, 1), (12, 4)])
def test_attention_config_channels_must_split_into_halves_of_heads(channels, heads):
    with pytest.raises(ValueError, match=r"channels must be divisible by 2\*heads"):
        AttentionConfig(channels, heads=heads)


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


def tail_case(layers):
    """A model with every parameter randomized, so no gradient is zero by
    initialization, and one (lr, rgb) input."""
    model = RganModel(RganConfig(bands=4, attention=small_cfg(layers=layers)), seed=70)
    init = RandomSource(71)
    for p in model.parameters():
        p.data = p.data + init.child(zlib.crc32(p.name.encode())).normal(p.shape) * 0.3
    rng = RandomSource(72)
    return model, Tensor(rng.normal((4, 4, 4))), Tensor(rng.normal((3, 8, 8)))


@pytest.mark.parametrize("layers", [1, 2])
def test_forward_matches_the_full_two_stream_stack(layers):
    model, lr, rgb = tail_case(layers)
    params = model.parameters()
    weight = RandomSource(73).normal((4, 8, 8))

    def run(forward):
        for p in params:
            p.reset_grad()
        out = forward(lr, rgb)
        ad.backward(ad.tsum(ad.mul(out, weight)))
        return out.data, [p.grad.copy() for p in params]

    got, got_grads = run(model.forward)
    want, want_grads = run(lambda a, b: oracles.full_gal_stack(model, a, b))
    np.testing.assert_array_equal(got, want)
    for p, a, b in zip(params, got_grads, want_grads):
        np.testing.assert_array_equal(a, b, err_msg=p.name)
    last = model.gals[-1]
    assert not any(p.grad.any() for p in last.spec_rgb.parameters() + last.ffd_rgb.parameters())


@pytest.mark.parametrize("layers", [1, 2])
def test_last_gal_skips_its_rgb_tail(monkeypatch, layers):
    model, lr, rgb = tail_case(layers)
    called, attention = [], []
    for cls in (rgan.SpectralGate, rgan.Ffd):
        def spy(self, x, real=cls.__call__):
            called.append(self)
            return real(self, x)

        monkeypatch.setattr(cls, "__call__", spy)
    real_attention = rgan.window_attention

    def count(*args):
        attention.append(args)
        return real_attention(*args)

    monkeypatch.setattr(rgan, "window_attention", count)
    model.forward(lr, rgb)
    last = model.gals[-1]
    assert not any(m is last.spec_rgb or m is last.ffd_rgb for m in called)
    assert len(called) == 4 * layers - 2
    assert len(attention) == 4 * layers - 1


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


def per_pixel_case(cls, seed, channels=6, extents=(4, 5)):
    """A module of cls with every parameter randomized, an input map that
    is a Parameter, and an output probe."""
    module = cls(channels, RandomSource(seed), "m")
    init = RandomSource(seed + 1)
    for p in module.parameters():
        p.data = p.data + init.child(zlib.crc32(p.name.encode())).normal(p.shape) * 0.3
    rng = RandomSource(seed + 2)
    x = Parameter(rng.normal((channels,) + extents), name="x")
    return module, x, rng.normal((channels,) + extents)


@pytest.mark.parametrize("cls", [rgan.Ffd, rgan.SpectralGate])
def test_per_pixel_block_gradcheck(cls):
    module, x, probe = per_pixel_case(cls, 80)
    params = [x] + module.parameters()

    def forward():
        return ad.mean(ad.mul(ad.add(x, module(x)), probe))

    ad.backward(forward())
    oracles.gradcheck(forward, params, RandomSource(83), n_coords=20)


@pytest.mark.parametrize("cls, body", [(rgan.Ffd, rgan._ffd),
                                       (rgan.SpectralGate, rgan._spectral_gate)])
def test_per_pixel_block_matches_its_body(cls, body):
    # Ffd reads its input once, so the input's two gradient parts (block
    # and residual) sum bit-exactly in either order. SpectralGate reads it
    # twice (mean and value map); those parts are summed inside the node,
    # then the residual's is added, so the input's gradient is held to
    # rounding. The parameters' gradients are the body's, bit for bit.
    module, x, probe = per_pixel_case(cls, 84)
    params = module.parameters()

    def run(block):
        for p in [x] + params:
            p.reset_grad()
        y = ad.add(x, block(x))
        ad.backward(ad.tsum(ad.mul(y, probe)))
        return y.data, x.grad.copy(), [p.grad.copy() for p in params]

    got, got_dx, got_grads = run(module)
    want, want_dx, want_grads = run(lambda t: body(t, *params))
    np.testing.assert_array_equal(got, want)
    if cls is rgan.Ffd:
        np.testing.assert_array_equal(got_dx, want_dx)
    else:
        np.testing.assert_allclose(got_dx, want_dx, rtol=0, atol=1e-14 * np.abs(want_dx).max())
    for p, a, b in zip(params, got_grads, want_grads):
        np.testing.assert_array_equal(a, b, err_msg=p.name)


@pytest.mark.parametrize("cls", [rgan.Ffd, rgan.SpectralGate])
def test_per_pixel_block_graph_keeps_only_its_input(cls):
    # at C=32, 64x64 the graph of the composed ops kept Ffd's normalized
    # map, layer-norm output (1 MB each) and ReLU output (2 MB), and
    # SpectralGate's value map (1 MB); the checkpoint node keeps only
    # arrays that exist without it
    module = cls(32, RandomSource(85), "m")
    x = Parameter(RandomSource(86).normal((32, 64, 64)), name="x")
    overhead = graph_overhead(lambda: module(x))
    assert overhead <= 4096, overhead


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
    # two loads of the same file agree bit-exactly, and float64 storage
    # makes the reloaded model the original
    c = rgan.rgan_forward(cube, rgb, rgan.load_rgan(path)).values
    np.testing.assert_array_equal(b, c)
    np.testing.assert_array_equal(a, b)


def test_rgan_checkpoint_reproduces_a_trained_model(tmp_path):
    # every parameter live (the zero-init head would hide the trunk), and
    # values that float32 cannot hold
    model = RganModel(RganConfig(bands=3, scale=2, attention=small_cfg()), seed=39)
    rng = RandomSource(41)
    for i, p in enumerate(model.parameters()):
        p.data = rng.child(i).normal(p.shape) * 0.1
    path = tmp_path / "model.ckpt"
    rgan.save_rgan(model, path)
    back = rgan.load_rgan(path)
    for p, q in zip(model.parameters(), back.parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=p.name)
    cube = synthetic_cube(40, bands=3, height=8, width=8)
    rgb = RandomSource(42).uniform((3, 16, 16))
    np.testing.assert_array_equal(rgan.rgan_forward(cube, rgb, model).values,
                                  rgan.rgan_forward(cube, rgb, back).values)


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


def test_load_rgan_rejects_a_non_finite_parameter(tmp_path):
    model = RganModel(RganConfig(bands=3, scale=2, attention=small_cfg()), seed=39)
    model.gals[0].cal.qkv.weight.data[1, 2] = np.nan
    path = tmp_path / "model.ckpt"
    rgan.save_rgan(model, path)
    with pytest.raises(ad.DataError, match="'gal0.cal.qkv.weight' has non-finite values") as err:
        rgan.load_rgan(path)
    assert str(path) in str(err.value)


def test_load_rgan_rejects_a_flipped_payload_byte(tmp_path):
    # the lowest mantissa bit of the last parameter value: finite, and a
    # loadable model, but not the one saved
    model = RganModel(RganConfig(bands=3, scale=2, attention=small_cfg()), seed=39)
    path = tmp_path / "model.ckpt"
    rgan.save_rgan(model, path)
    blob = bytearray(path.read_bytes())
    blob[-8] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(ad.DataError, match="payload checksum") as err:
        rgan.load_rgan(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# training


def make_pair(seed, bands=4, hr_size=16, scale=2):
    hr = synthetic_cube(seed, bands=bands, height=hr_size, width=hr_size,
                        wavelengths=np.linspace(430, 990, bands))
    lr = degrade(hr, DegradationSpec("downsample", factor=scale))
    rgb = extract_rgb(hr).values
    return lr, rgb, hr


def test_train_rgan_perfect_model_zero_loss():
    # Target equal to the bilinear upsample makes the zero-init model exact;
    # there every gradient is zero, so Adam moves nothing.
    config = RganConfig(bands=4, scale=2, attention=small_cfg())
    model = RganModel(config, seed=41)
    cube = synthetic_cube(42, bands=4, height=8, width=8)
    target = HsiCube(ad.bilinear_resize(Tensor(cube.values), 16, 16).data,
                     cube.wavelengths)
    rgb = np.zeros((3, 16, 16))
    trace = rgan.train_rgan([(cube, rgb, target)], model, steps=3, lr=1e-3)
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


def test_rgan_forward_blames_the_model_for_non_finite_values():
    # a NaN weight makes a NaN output; the cube built from it would blame
    # the cube's values instead
    model = RganModel(RganConfig(bands=4, scale=2, attention=small_cfg()), seed=55)
    model.gals[0].sal_hsi.qkv.weight.data[0, 0] = np.nan
    cube = synthetic_cube(56, bands=4, height=8, width=8)
    with pytest.raises(nn.NumericalFailure, match="RGAN model produced non-finite values"):
        rgan.rgan_forward(cube, np.zeros((3, 16, 16)), model)


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


def test_train_rgan_names_a_nan_weight_that_relu_hides():
    # relu maps the NaN channel to 0, so the loss stays finite and the
    # first non-finite gradient is another parameter's (embed_hsi.weight);
    # Adam's check of the values names the parameter that holds the NaN
    config = RganConfig(bands=4, scale=2, attention=small_cfg())
    model = RganModel(config, seed=48)
    model.gals[0].ffd_hsi.fc1.weight.data[0, 0] = np.nan
    with pytest.raises(nn.NumericalFailure,
                       match=r"non-finite value in parameter gal0\.ffd_hsi\.fc1\.weight at step 0"):
        rgan.train_rgan([make_pair(49)], model, steps=2, seed=1)


def test_train_rgan_peak_memory_does_not_grow_with_steps():
    # backward releases each step's graph, so later steps reuse the memory
    # of the first instead of holding the previous graph through a forward.
    config = RganConfig(bands=8, scale=2, attention=small_cfg(channels=8))
    pair = make_pair(50, bands=8, hr_size=16)

    def peak(steps):
        model = RganModel(config, seed=51)
        return traced_bytes(lambda: rgan.train_rgan([pair], model, steps=steps, seed=2))[1]

    one, three = peak(1), peak(3)
    assert three <= 1.1 * one, (one, three)


def test_rgan_forward_peak_memory_at_benchmark_size():
    # 48 bands, 32x32 -> 64x64, C=32, 2 heads, 2 layers. The inference peak
    # was 14.2 MB while each attention built its whole [3C,H,W] q|k|v array
    # and the bilinear residual was held through the GALs; about 10.5 MB
    # with one half's q/k/v at a time and the residual made last.
    config = RganConfig(bands=48, scale=2, attention=AttentionConfig(32, heads=2, layers=2))
    model = RganModel(config, seed=69)
    lr, rgb, _ = make_pair(70, bands=48, hr_size=64)
    _, peak = traced_bytes(lambda: rgan.rgan_forward(lr, rgb, model))
    assert peak <= 12e6, peak


def test_train_rgan_step_peak_memory_at_benchmark_size():
    # 48 bands, 32x32 -> 64x64, C=32, 2 heads, 2 layers. The graph keeps no
    # attention map, no q/k/v projection and no intermediate of an Ffd or
    # SpectralGate; with its 14 maps of 1 MB each the step peaked at 80 MB,
    # with its 8 projections of 3 MB at 65 MB, and with the per-pixel
    # blocks' intermediates (12.7 MB more) at 40 MB. About 29 MB now.
    config = RganConfig(bands=48, scale=2, attention=AttentionConfig(32, heads=2, layers=2))
    model = RganModel(config, seed=69)
    pair = make_pair(70, bands=48, hr_size=64)
    _, peak = traced_bytes(lambda: rgan.train_rgan([pair], model, steps=1))
    assert peak <= 34e6, peak
