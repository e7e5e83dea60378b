import inspect
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectragen import autodiff as ad
from spectragen.autodiff import Parameter, RandomSource, Tensor

import oracles
from memory import traced_bytes


def rand(rng, *shape):
    return rng.normal(shape)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    rng = RandomSource(1)
    x = rand(rng, 1, 6, 7)
    kernel = np.ones((1, 1, 1, 1))
    y = ad.conv2d(Tensor(x), Tensor(kernel), Tensor(np.zeros(1)))
    np.testing.assert_array_equal(y.data, x)


def test_conv2d_constant_field():
    c = 0.7
    x = np.full((1, 8, 8), c)
    kernel = np.ones((1, 1, 3, 3))
    y = ad.conv2d(Tensor(x), Tensor(kernel), Tensor([0.25])).data
    np.testing.assert_allclose(y[0, 1:-1, 1:-1], 9 * c + 0.25, atol=1e-14)


def test_conv2d_matches_loop_oracle():
    rng = RandomSource(2)
    x = rand(rng, 2, 3, 5)
    kernel = rand(rng, 4, 2, 5, 5)
    bias = rand(rng, 4)
    got = ad.conv2d(Tensor(x), Tensor(kernel), Tensor(bias)).data
    want = oracles.conv2d_loops(x, kernel, padding=2) + bias[:, None, None]
    np.testing.assert_allclose(got, want, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(
    c_in=st.integers(1, 4),
    c_out=st.integers(1, 4),
    h=st.integers(3, 8),
    w=st.integers(3, 8),
    k=st.sampled_from([1, 3, 5]),
    seed=st.integers(0, 10_000),
)
def test_conv2d_oracle_property(c_in, c_out, h, w, k, seed):
    rng = RandomSource(seed)
    x = rand(rng, c_in, h, w)
    kernel = rand(rng, c_out, c_in, k, k)
    bias = rand(rng, c_out)
    got = ad.conv2d(Tensor(x), Tensor(kernel), Tensor(bias)).data
    want = oracles.conv2d_loops(x, kernel, (k - 1) // 2) + bias[:, None, None]
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert got.shape == (c_out, h, w)


@settings(deadline=None, max_examples=25)
@given(
    c_in=st.integers(1, 4),
    c_out=st.integers(1, 4),
    h=st.integers(3, 8),
    w=st.integers(3, 8),
    k=st.sampled_from([1, 3, 5]),
    seed=st.integers(0, 10_000),
)
def test_conv2d_grads_oracle_property(c_in, c_out, h, w, k, seed):
    # Unequal channel counts and extents catch a gradient that transposes
    # the kernel's channel axes or the image axes.
    assume(c_in != c_out and h != w)
    rng = RandomSource(seed)
    x = rand(rng, c_in, h, w)
    kernel = rand(rng, c_out, c_in, k, k)
    g = rand(rng, c_out, h, w)
    xt, kt = Parameter(x, "x"), Parameter(kernel, "kernel")
    bt = Parameter(rand(rng, c_out), "bias")
    ad.backward(ad.tsum(ad.mul(ad.conv2d(xt, kt, bt), g)))
    want_gx, want_gk = oracles.conv2d_grads_loops(x, kernel, g, (k - 1) // 2)
    np.testing.assert_allclose(xt.grad, want_gx, atol=1e-12)
    np.testing.assert_allclose(kt.grad, want_gk, atol=1e-12)
    np.testing.assert_allclose(bt.grad, g.sum(axis=(1, 2)), atol=1e-12)


# The kernel is 2*padding+1 wide: conv2d pads (k-1)//2 on each side.
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("rows_per_block", [1, 2])
def test_conv2d_blocked_matches_single_block(monkeypatch, padding, rows_per_block):
    rng = RandomSource(3)
    k = 2 * padding + 1
    x = rand(rng, 3, 7, 6)
    kernel = rand(rng, 3, 3, k, k)
    bias = rand(rng, 3)
    g = rand(rng, 3, 7, 6)

    def run():
        xt, kt, bt = Parameter(x, "x"), Parameter(kernel, "kernel"), Parameter(bias, "bias")
        y = ad.conv2d(xt, kt, bt)
        ad.backward(ad.tsum(ad.mul(y, g)))
        return y.data, xt.grad, kt.grad, bt.grad

    y1, gx1, gk1, gb1 = run()
    # C_in = C_out, so the forward pass, the input gradient and the kernel
    # gradient all see C*k*W buffer elements per output row.
    monkeypatch.setattr(ad, "_CONV_BLOCK_ELEMS", rows_per_block * 3 * k * 6)
    y, gx, gk, gb = run()
    np.testing.assert_array_equal(y, y1)
    np.testing.assert_array_equal(gx, gx1)
    np.testing.assert_array_equal(gb, gb1)
    assert np.max(np.abs(gk - gk1)) <= 1e-12 * np.max(np.abs(gk1))
    want_gx, want_gk = oracles.conv2d_grads_loops(x, kernel, g, padding)
    want_y = oracles.conv2d_loops(x, kernel, padding) + bias[:, None, None]
    np.testing.assert_allclose(y, want_y, atol=1e-12)
    np.testing.assert_allclose(gx, want_gx, atol=1e-12)
    np.testing.assert_allclose(gk, want_gk, atol=1e-12)


# A k = 2*padding+1 kernel over an input of h rows: on a 1-row input
# (h < k), or in 1-row blocks, a block's k-1 halo rows (2 on each side for
# k = 5) lie partly or wholly in the padding.
@pytest.mark.parametrize("h", [1, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("rows_per_block", [1, 2, None])
def test_im2col_blocks_match_the_padded_copy_oracle(monkeypatch, h, padding, rows_per_block):
    rng = RandomSource(5)
    c_in, w, k = 2, 4, 2 * padding + 1
    x = rand(rng, c_in, h, w)
    if rows_per_block is not None:
        monkeypatch.setattr(ad, "_CONV_BLOCK_ELEMS", rows_per_block * c_in * k * w)
    want = oracles.im2col_reference(x, k, k, padding).reshape(c_in, k, k, h * w)
    blocks = list(ad._im2col_blocks(x, k))
    assert [r0 for r0, _, _ in blocks] == list(range(0, h, rows_per_block or h))
    assert blocks[-1][1] == h
    for r0, r1, buf in blocks:
        n = (r1 - r0) * w
        assert buf.shape == (c_in * k, (r1 - r0 + k - 1) * w)
        # Kernel row u's im2col is the view of buf u rows down; together the
        # views cover every buffer row.
        for u in range(k):
            np.testing.assert_array_equal(buf[:, u * w : u * w + n],
                                          want[:, u, :, r0 * w : r1 * w].reshape(c_in * k, n))
    y = ad.conv2d(Tensor(x), Tensor(rand(rng, 3, c_in, k, k)), Tensor(rand(rng, 3))).data
    assert y.flags.c_contiguous and y.flags.owndata


def _record_im2col_blocks(monkeypatch):
    """Replace ad._im2col_blocks by a wrapper; returns, per call, the
    (output rows, buffer shape) of each block it yielded."""
    real = ad._im2col_blocks
    calls = []

    def recording(x, k):
        blocks = []
        calls.append(blocks)
        for r0, r1, buf in real(x, k):
            blocks.append((r1 - r0, buf.shape))
            yield r0, r1, buf
            del buf  # so that one block is alive at a time, as without the wrapper

    monkeypatch.setattr(ad, "_im2col_blocks", recording)
    return calls


# A Parameter input reads the kernel gradient off the im2col of g that its
# input gradient builds; a plain Tensor input takes it from the im2col of x.
# A tall input and a wide one split into different block counts.
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("tall", [False, True])
@pytest.mark.parametrize("rows_per_block", [1, 2, None])
def test_conv2d_kernel_grad_paths_match_the_oracle_and_each_other(monkeypatch, k, tall,
                                                                 rows_per_block):
    rng = RandomSource(18)
    c_in, c_out = 2, 3
    h, w = (7, 5) if tall else (5, 7)
    x = rand(rng, c_in, h, w)
    kernel = rand(rng, c_out, c_in, k, k)
    g = rand(rng, c_out, h, w)
    calls = _record_im2col_blocks(monkeypatch)

    def kernel_grad(inp, channels):
        if rows_per_block is not None:
            monkeypatch.setattr(ad, "_CONV_BLOCK_ELEMS", rows_per_block * channels * k * w)
        kt = Parameter(kernel, "kernel")
        ad.backward(ad.tsum(ad.mul(ad.conv2d(inp, kt, Tensor(np.zeros(c_out))), g)))
        # The last im2col built is the one the kernel gradient came from:
        # [channels*k, (rows+k-1)*W] per block.
        n = rows_per_block or h
        rows = [min(n, h - r0) for r0 in range(0, h, n)]
        assert calls[-1] == [(r, (channels * k, (r + k - 1) * w)) for r in rows]
        return kt.grad

    # The im2col of g has C_out*k rows, that of x C_in*k.
    from_g = kernel_grad(Parameter(x, "x"), c_out)
    from_x = kernel_grad(Tensor(x), c_in)
    _, want = oracles.conv2d_grads_loops(x, kernel, g, (k - 1) // 2)
    np.testing.assert_allclose(from_g, want, atol=1e-12)
    np.testing.assert_allclose(from_x, want, atol=1e-12)
    assert np.max(np.abs(from_g - from_x)) <= 1e-12 * np.max(np.abs(from_x))


@pytest.mark.parametrize("make_input", [lambda x: Parameter(x, "x"), Tensor],
                         ids=["parameter", "tensor"])
def test_conv2d_forward_and_backward_build_two_im2cols(monkeypatch, make_input):
    rng = RandomSource(19)
    x = rand(rng, 2, 6, 5)
    kt = Parameter(rand(rng, 3, 2, 3, 3), "kernel")
    bt = Parameter(rand(rng, 3), "bias")
    calls = _record_im2col_blocks(monkeypatch)
    y = ad.conv2d(make_input(x), kt, bt)
    ad.backward(ad.tsum(ad.mul(y, rand(rng, *y.shape))))
    assert len(calls) == 2


def _one_block_bytes(results, c_im, k, w, rows, temporaries):
    """Bytes a blocked conv may hold at once, from float64 element counts:
    its results, one im2col block of `rows` output rows over c_im channels
    with its k-1 halo rows, the temporaries of one block's GEMMs, and 4 KiB
    for Python objects."""
    return 8 * (results + c_im * k * (rows + k - 1) * w + temporaries) + 4096


# The benchmark's largest denoiser conv, 48 -> 16 channels at 64x64: its
# full [C_in*k*k, H*W] im2col would take 14.2 MB.
def test_conv2d_peak_memory_is_under_half_the_full_im2col(monkeypatch):
    rng = RandomSource(22)
    c_in, c_out, h, w, k = 48, 16, 64, 64, 3
    x, kernel, bias = rand(rng, c_in, h, w), rand(rng, c_out, c_in, k, k), rand(rng, c_out)
    calls = _record_im2col_blocks(monkeypatch)
    def conv():
        with ad.no_grad():
            return ad.conv2d(Tensor(x), Tensor(kernel), Tensor(bias))

    _, peak = traced_bytes(conv)
    # The default budget gives 10-row blocks, one alive at a time: 1.7 MB,
    # an eighth of the full im2col. Beside the block, the kernel's per-row
    # copies and one [C_out, n] product are alive, and the product's
    # in-place add into a strided view of the output copies both operands.
    rows = ad._CONV_BLOCK_ELEMS // (c_in * k * w)
    assert rows == 10
    assert peak <= _one_block_bytes(c_out * h * w, c_in, k, w, rows,
                                    kernel.size + 3 * c_out * rows * w)
    # Each block buffer holds at most _CONV_BLOCK_ELEMS elements plus the
    # k-1 halo rows, here and with the rows split into smaller blocks.
    limits = [ad._CONV_BLOCK_ELEMS, 4 * c_in * k * w + 1]
    monkeypatch.setattr(ad, "_CONV_BLOCK_ELEMS", limits[1])
    ad.conv2d(Tensor(x), Tensor(kernel), Tensor(bias))
    assert [len(blocks) for blocks in calls] == [7, 16]
    halo = c_in * k * (k - 1) * w
    for limit, blocks in zip(limits, calls):
        for _, shape in blocks:
            assert shape[0] * shape[1] <= limit + halo


# Each block's im2col is freed before the next is built, on every path that
# builds one: the forward, the input gradient with its kernel gradient
# (`pair`), and the kernel gradient from the im2col of x. The im2col is over
# 32 channels and the product over 4, so a second block alive (147 KB)
# would exceed the bound by more than 100 KB.
@pytest.mark.parametrize("path", ["forward", "pair", "kernel_grad"])
def test_conv2d_holds_one_im2col_block_at_a_time(monkeypatch, path):
    rng = RandomSource(23)
    wide, narrow, h, w, k, rows = 32, 4, 32, 32, 3, 4
    # The pair path's im2col is of g, so its conv maps narrow to wide.
    c_in, c_out = (narrow, wide) if path == "pair" else (wide, narrow)
    x, kernel, g = rand(rng, c_in, h, w), rand(rng, c_out, c_in, k, k), rand(rng, c_out, h, w)
    flipped = np.flip(kernel, axis=(2, 3)).transpose(1, 0, 2, 3)
    # An output block's [narrow, n] product and the two copies its in-place
    # add into a strided view of the output makes; the kernel's per-row
    # copies; a [C_out*k, C_in] or [C_in*k, C_out] kernel gradient product.
    out_product, kernel_grad_product = 3 * narrow * rows * w, kernel.size // k
    call, results, temporaries = {
        "forward": (lambda: ad._corr2d(x, k, kernel), c_out * h * w, out_product + kernel.size),
        "pair": (lambda: ad._corr2d(g, k, flipped, pair=x), c_in * h * w + kernel.size,
                 out_product + kernel.size + kernel_grad_product),
        "kernel_grad": (lambda: ad._corr2d(x, k, pair=g), kernel.size, kernel_grad_product),
    }[path]
    monkeypatch.setattr(ad, "_CONV_BLOCK_ELEMS", rows * wide * k * w)
    assert len(list(ad._im2col_blocks(g if path == "pair" else x, k))) == h // rows
    _, peak = traced_bytes(call)
    assert peak <= _one_block_bytes(results, wide, k, w, rows, temporaries)


# The benchmark's widest convs: the denoiser's dec0.conv1 and dec1.conv1 and
# the RGAN head. At the default budget the im2col of each input splits into
# blocks; the forward pass and the input gradient equal a single-block run
# bit for bit, and the kernel gradient moves by rounding only (at most
# 9.1e-16 of its largest entry, measured on these inputs).
@pytest.mark.parametrize("c_in, c_out, size", [(48, 16, 64), (96, 32, 32), (32, 48, 64)])
@pytest.mark.parametrize("make_input", [lambda x: Parameter(x, "x"), Tensor],
                         ids=["parameter", "tensor"])
def test_conv2d_at_the_benchmark_shapes_matches_one_block(monkeypatch, c_in, c_out, size,
                                                          make_input):
    rng = RandomSource(24)
    x, kernel = rand(rng, c_in, size, size), rand(rng, c_out, c_in, 3, 3)
    bias, g = rand(rng, c_out), rand(rng, c_out, size, size)

    def run():
        xt, kt = make_input(x), Parameter(kernel, "kernel")
        y = ad.conv2d(xt, kt, Tensor(bias))
        ad.backward(ad.tsum(ad.mul(y, g)))
        return y.data, getattr(xt, "grad", None), kt.grad

    assert ad._CONV_BLOCK_ELEMS // (c_in * 3 * size) < size
    y, gx, gk = run()
    monkeypatch.setattr(ad, "_CONV_BLOCK_ELEMS", max(c_in, c_out) * 3 * size * size)
    y1, gx1, gk1 = run()
    np.testing.assert_array_equal(y, y1)
    if gx1 is not None:
        np.testing.assert_array_equal(gx, gx1)
    assert np.max(np.abs(gk - gk1)) <= 1e-14 * np.max(np.abs(gk1))


# The bias was once a separate broadcast add of the reshaped bias; the
# fused one sums its gradient in the same order, on both vjp paths.
@pytest.mark.parametrize("make_input", [lambda x: Parameter(x, "x"), Tensor],
                         ids=["parameter", "tensor"])
def test_conv2d_bias_matches_the_add_chain(make_input):
    rng = RandomSource(20)
    x, kernel, bias = rand(rng, 2, 6, 5), rand(rng, 3, 2, 3, 3), rand(rng, 3)
    g = rand(rng, 3, 6, 5)

    def run(op):
        xt, kt, bt = make_input(x), Parameter(kernel, "kernel"), Parameter(bias, "bias")
        y = op(xt, kt, bt)
        ad.backward(ad.tsum(ad.mul(y, g)))
        return y.data, kt.grad, bt.grad, getattr(xt, "grad", None)

    got = run(ad.conv2d)
    want = run(lambda xt, kt, bt: ad.add(ad.conv2d(xt, kt, Tensor(np.zeros(3))),
                                         ad.reshape(bt, (3, 1, 1))))
    for a, e in zip(got, want):
        np.testing.assert_array_equal(a, e)


def test_conv2d_rejects_bad_shapes():
    bias = Tensor(np.zeros(1))
    with pytest.raises(ValueError):
        ad.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), bias)
    with pytest.raises(ValueError):
        ad.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 2, 2))), bias)
    with pytest.raises(ValueError):
        ad.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 3, 1))), bias)
    with pytest.raises(ValueError, match="non-empty"):
        ad.conv2d(Tensor(np.zeros((2, 0, 4))), Tensor(np.zeros((1, 2, 3, 3))), bias)


def test_conv2d_rejects_a_kernel_of_other_input_channels():
    bias = Tensor(np.zeros(3))
    with pytest.raises(ValueError, match="kernel expects 4 input channels, got 2"):
        ad.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 4, 3, 3))), bias)


def test_conv2d_rejects_a_wrong_bias_shape():
    x, kernel = Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ValueError, match=r"\(2,\) != \(3,\)"):
        ad.conv2d(x, kernel, Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match=r"\(3, 1, 1\) != \(3,\)"):
        ad.conv2d(x, kernel, Tensor(np.zeros((3, 1, 1))))


# ---------------------------------------------------------------------------
# linear


def test_linear_identity_and_zero():
    x = np.arange(12.0).reshape(4, 3)
    eye = np.eye(4)
    zero_b = np.zeros(4)
    y = ad.linear(Tensor(x), Tensor(eye), Tensor(zero_b))
    np.testing.assert_array_equal(y.data, x)

    b = np.array([1.0, -2.0, 3.0])
    y = ad.linear(Tensor(x), Tensor(np.zeros((3, 4))), Tensor(b))
    np.testing.assert_array_equal(y.data, np.broadcast_to(b[:, None], (3, 3)))


def test_linear_matches_loop_oracle():
    rng = RandomSource(3)
    x = rand(rng, 5, 2, 3)
    w = rand(rng, 4, 5)
    b = rand(rng, 4)
    got = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
    want = oracles.linear_loops(x, w, b)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_linear_extent_mismatch():
    with pytest.raises(ValueError):
        ad.linear(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))
    with pytest.raises(ValueError):
        ad.linear(Tensor(np.zeros((5, 2))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


def test_linear_on_a_map_matches_a_1x1_conv2d():
    # Channel mixing of a [C,H,W] map: values and the input, weight and
    # bias gradients of linear match a 1x1 conv2d.
    rng = RandomSource(21)
    x, w, b = rand(rng, 5, 4, 6), rand(rng, 3, 5), rand(rng, 3)
    g = rand(rng, 3, 4, 6)

    def run(op):
        xt, wt, bt = Parameter(x, "x"), Parameter(w, "w"), Parameter(b, "b")
        y = op(xt, wt, bt)
        ad.backward(ad.tsum(ad.mul(y, g)))
        return y.data, xt.grad, wt.grad, bt.grad

    got = run(ad.linear)
    want = run(lambda xt, wt, bt: ad.conv2d(xt, ad.reshape(wt, (3, 5, 1, 1)), bt))
    for a, e in zip(got, want):
        assert a.shape == e.shape
        np.testing.assert_allclose(a, e, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    y = ad.softmax(Tensor(np.zeros(7)), axis=0).data
    np.testing.assert_allclose(y, np.full(7, 1 / 7), atol=1e-15)


def test_softmax_closed_form():
    y = ad.softmax(Tensor(np.array([0.0, np.log(2.0)])), axis=0).data
    np.testing.assert_allclose(y, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_shift_invariance():
    rng = RandomSource(4)
    x = rand(rng, 5, 6)
    a = ad.softmax(Tensor(x), axis=1).data
    b = ad.softmax(Tensor(x + 123.456), axis=1).data
    np.testing.assert_allclose(a, b, atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 10_000),
    axis=st.integers(0, 2),
    scale=st.floats(0.1, 50.0),
)
def test_softmax_rows_sum_to_one(seed, axis, scale):
    rng = RandomSource(seed)
    x = rand(rng, 3, 4, 5) * scale
    y = ad.softmax(Tensor(x), axis=axis).data
    np.testing.assert_allclose(y.sum(axis=axis), 1.0, atol=1e-9)
    assert (y >= 0).all()


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("extent", range(1, 21))
def test_softmax_does_not_depend_on_layout(extent, axis):
    # numpy's own sum pairs the terms of a contiguous axis differently below
    # 8, from 8 to 15 and from 16 terms; softmax adds them in index order.
    rng = RandomSource(100 + extent)
    x, weight = rand(rng, extent, 3, 5), rand(rng, extent, 3, 5)

    def run(axis):
        p = Parameter(np.ascontiguousarray(np.moveaxis(x, 0, axis)), "x")
        y = ad.softmax(p, axis=axis)
        ad.backward(ad.tsum(ad.mul(y, np.moveaxis(weight, 0, axis))))
        plain = ad.softmax_array(p.data, axis)
        return [np.moveaxis(a, axis, 0) for a in (plain, y.data, p.grad)]

    for moved, leading in zip(run(axis), run(0)):
        np.testing.assert_array_equal(moved, leading)


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_of_squares():
    rng = RandomSource(5)
    p = Parameter(rand(rng, 3, 4), name="p")
    loss = ad.tsum(ad.mul(p, p))
    ad.backward(loss)
    np.testing.assert_allclose(p.grad, 2 * p.data, atol=1e-12)


def test_backward_accumulates_without_reset():
    p = Parameter(np.array([1.0, 2.0]), name="p")
    loss = ad.tsum(ad.mul(p, p))
    ad.backward(loss)
    first = p.grad.copy()
    loss2 = ad.tsum(ad.mul(p, p))
    ad.backward(loss2)
    np.testing.assert_allclose(p.grad, 2 * first)
    p.reset_grad()
    np.testing.assert_array_equal(p.grad, np.zeros_like(p.data))


def test_backward_constant_loss_zero_grads():
    p = Parameter(np.ones((2, 2)), name="p")
    loss = ad.mean(ad.mul(Tensor(np.ones((2, 2))), 3.0))
    ad.backward(loss)  # p unreachable
    np.testing.assert_array_equal(p.grad, np.zeros((2, 2)))


def test_backward_rejects_non_scalar():
    p = Parameter(np.ones(3), name="p")
    with pytest.raises(ValueError):
        ad.backward(ad.mul(p, 2.0))


def test_backward_twice_on_one_loss_raises():
    p = Parameter(np.array([1.0, 2.0]), name="p")
    loss = ad.tsum(ad.mul(p, p))
    ad.backward(loss)
    with pytest.raises(ValueError, match="released"):
        ad.backward(loss)
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])


def test_backward_through_released_shared_subgraph_raises():
    p = Parameter(np.array([1.0, -2.0]), name="p")
    h = ad.relu(ad.mul(p, 3.0))
    ad.backward(ad.tsum(h))
    with pytest.raises(ValueError, match="released"):
        ad.backward(ad.tsum(ad.mul(h, h)))


def test_backward_releases_intermediates():
    x = np.array([1.0, -2.0, 3.0])
    p = Parameter(np.array([1.0, 2.0, 3.0]), name="p")
    y = ad.layer_norm(Tensor(x), p, Tensor(np.zeros(3)))
    cells = dict(zip(y.node.vjp.__code__.co_freevars, y.node.vjp.__closure__))
    ref = weakref.ref(cells.pop("xhat").cell_contents)
    del cells
    loss = ad.tsum(ad.mul(y, y))
    ad.backward(loss)
    assert ref() is None
    assert y.node.vjp is None and y.node.parents == () and loss.node.parents == ()
    xhat = (x - x.mean()) / np.sqrt(x.var() + 1e-5)
    np.testing.assert_allclose(p.grad, 2.0 * p.data * xhat**2, rtol=1e-12)


def test_an_output_no_vjp_reads_is_freed_while_its_graph_backpropagates():
    p = Parameter(np.array([1.0, -2.0, 3.0]), name="p")
    h = ad.mul(p, 2.0)
    ref = weakref.ref(h.data)
    y = ad.add(h, p)  # add's vjp reads only the shapes of its operands
    del h
    assert ref() is None
    ad.backward(ad.tsum(ad.mul(y, y)))
    np.testing.assert_array_equal(p.grad, 18.0 * p.data)


def test_mul_keeps_both_operands_until_backward():
    p = Parameter(np.array([1.0, -2.0, 3.0]), name="p")
    a, b = ad.mul(p, 2.0), ad.mul(p, 3.0)
    refs = [weakref.ref(a.data), weakref.ref(b.data)]
    y = ad.mul(a, b)
    del a, b
    assert all(ref() is not None for ref in refs)
    ad.backward(ad.tsum(y))
    assert all(ref() is None for ref in refs)
    np.testing.assert_array_equal(p.grad, 12.0 * p.data)


# ---------------------------------------------------------------------------
# checkpoint


def _block(x, gamma, beta, weight, bias):
    return ad.linear(ad.relu(ad.layer_norm(x, gamma, beta)), weight, bias)


def checkpoint_case(seed):
    """(input map, [gamma, beta, weight, bias] of _block, output probe)."""
    rng = RandomSource(seed)
    x = Parameter(rand(rng, 3, 4, 5), name="x")
    params = [Parameter(rand(rng, 3), name="gamma"), Parameter(rand(rng, 3), name="beta"),
              Parameter(rand(rng, 3, 3), name="weight"), Parameter(rand(rng, 3), name="bias")]
    return x, params, rand(rng, 3, 4, 5)


def residual_grads(block, x, params, probe):
    """Output and gradients of sum(probe * (x + block(x, *params)))."""
    for p in [x] + params:
        p.reset_grad()
    y = ad.add(x, block(x, *params))
    ad.backward(ad.tsum(ad.mul(y, probe)))
    return y.data, [p.grad.copy() for p in [x] + params]


def test_checkpoint_is_bit_exact_to_its_body():
    # x reads the block once, so its two gradient parts sum in either order
    x, params, probe = checkpoint_case(70)
    got, got_grads = residual_grads(
        lambda *args: ad.checkpoint(_block, args[:1], args[1:]), x, params, probe)
    want, want_grads = residual_grads(_block, x, params, probe)
    np.testing.assert_array_equal(got, want)
    for a, b in zip(got_grads, want_grads):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_saves_only_its_parents_arrays():
    # no intermediate of the block: the input's array and the parameters'
    x, params, _ = checkpoint_case(71)
    h = ad.mul(x, 2.0)
    y = ad.checkpoint(_block, (h,), params)
    assert y.node.parents == (h.node, *params)
    held = oracles.held_by_vjp(y.node, np.ndarray)
    assert sorted(map(id, held)) == sorted(id(t.data) for t in [h] + params)


def test_checkpoint_under_no_grad_records_no_node():
    x, params, _ = checkpoint_case(72)
    with ad.no_grad():
        y = ad.checkpoint(_block, (x,), params)
    assert y.node is None
    np.testing.assert_array_equal(y.data, _block(x, *params).data)


def test_checkpoint_recomputes_in_grad_mode_when_backward_runs_under_no_grad():
    x, params, probe = checkpoint_case(73)
    loss = ad.tsum(ad.mul(ad.checkpoint(_block, (x,), params), probe))
    with ad.no_grad():
        ad.backward(loss)
    want = [p.grad.copy() for p in [x] + params]
    for p in [x] + params:
        p.reset_grad()
    ad.backward(ad.tsum(ad.mul(_block(x, *params), probe)))
    for p, g in zip([x] + params, want):
        np.testing.assert_array_equal(p.grad, g)


def test_backward_through_a_released_checkpoint_raises():
    x, params, _ = checkpoint_case(74)
    h = ad.checkpoint(_block, (x,), params)
    ad.backward(ad.tsum(h))
    assert h.node.vjp is None and h.node.parents == ()
    with pytest.raises(ValueError, match="released"):
        ad.backward(ad.tsum(ad.mul(h, h)))


def test_checkpoint_gives_parameters_gradients_when_its_input_has_no_graph():
    # the node's parents are the parameters as well as the input, so it is
    # recorded, and back-propagated, over an input without a graph
    x, params, probe = checkpoint_case(75)
    data = Tensor(x.data)
    y = ad.checkpoint(_block, (data,), params)
    assert y.node.parents[0] is None
    ad.backward(ad.tsum(ad.mul(y, probe)))
    got = [p.grad.copy() for p in params]
    for p in params:
        p.reset_grad()
    ad.backward(ad.tsum(ad.mul(_block(data, *params), probe)))
    for p, g in zip(params, got):
        assert p.grad.any()
        np.testing.assert_array_equal(g, p.grad)


_rng = RandomSource(40)
_MAP = Parameter(rand(_rng, 2, 4, 6), name="map")  # [C,H,W]
_MAT = Parameter(rand(_rng, 3, 2), name="mat")
_VEC = Parameter(rand(_rng, 2), name="vec")
_KERNEL = Parameter(rand(_rng, 3, 2, 3, 3), name="kernel")
_BIAS = Parameter(rand(_rng, 3), name="bias")
OP_CASES = {  # one recorded node of each public op
    "add": lambda: ad.add(_MAP, 1.0),
    "sub": lambda: ad.sub(_MAP, _MAP),
    "mul": lambda: ad.mul(_MAP, _MAP),
    "reshape": lambda: ad.reshape(_MAP, (2, 24)),
    "transpose": lambda: ad.transpose(_MAP, (1, 2, 0)),
    "concat": lambda: ad.concat([_MAP, _MAP], axis=0),
    "split": lambda: ad.split(_MAP, 2, axis=0)[1],
    "crop2d": lambda: ad.crop2d(_MAP, 1, 3, 2, 5),
    "pad_reflect2d": lambda: ad.pad_reflect2d(_MAP, (1, 1), (2, 0)),
    "tsum": lambda: ad.tsum(_MAP, axis=(1, 2)),
    "mean": lambda: ad.mean(_MAP, axis=0),
    "relu": lambda: ad.relu(_MAP),
    "sigmoid": lambda: ad.sigmoid(_MAP),
    "absolute": lambda: ad.absolute(_MAP),
    "softmax": lambda: ad.softmax(_MAP, axis=-1),
    "layer_norm": lambda: ad.layer_norm(_MAP, _VEC, _VEC),
    "linear": lambda: ad.linear(_MAP, _MAT, _BIAS),
    "matmul": lambda: ad.matmul(_MAP, ad.transpose(_MAP, (0, 2, 1))),
    "conv2d": lambda: ad.conv2d(_MAP, _KERNEL, _BIAS),
    "bilinear_resize": lambda: ad.bilinear_resize(_MAP, 8, 3),
    "checkpoint": lambda: ad.checkpoint(lambda x, w, b: ad.relu(ad.linear(x, w, b)),
                                        (_MAP,), (_MAT, _BIAS)),
}


def test_op_cases_cover_every_public_op():
    helpers = {"as_tensor", "backward", "bilinear_resize_array", "check_int", "no_grad",
               "softmax_array"}
    public = {name for name, f in vars(ad).items() if inspect.isfunction(f)
              and f.__module__ == ad.__name__ and not name.startswith("_")}
    assert public - helpers == set(OP_CASES)


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_no_vjp_holds_a_tensor(op):
    out = OP_CASES[op]()
    assert out.node is not None
    assert oracles.held_by_vjp(out.node) == []


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_every_vjp_returns_whole_gradients(monkeypatch, op):
    # backward sums what a vjp returns as is: each entry is None or the
    # whole gradient of its parent, never a piece of it
    shapes = {}  # id of each recorded output -> its parents' shapes
    real = ad._node

    def record(data, parents, vjp):
        out = real(data, parents, vjp)
        shapes[id(out)] = [p.shape for p in parents]
        return out

    monkeypatch.setattr(ad, "_node", record)
    out = OP_CASES[op]()
    grads = out.node.vjp(RandomSource(41).normal(out.shape))
    assert len(grads) == len(shapes[id(out)])
    for pg, shape in zip(grads, shapes[id(out)]):
        assert pg is None or (isinstance(pg, (np.ndarray, np.generic)) and pg.shape == shape)


@pytest.mark.parametrize("uses", [2, 3, 4])
def test_backward_never_writes_into_a_vjp_result(uses):
    # add hands one array to both parents. x collects it `uses` times and y
    # once, so accumulating x in place into that array would double y.
    rng = RandomSource(15)
    x = Parameter(rand(rng, 3, 4), name="x")
    y = Parameter(rand(rng, 3, 4), name="y")
    w = rand(rng, 3, 4)
    h = ad.add(x, y)
    for _ in range(uses - 1):
        h = ad.add(h, x)
    ad.backward(ad.tsum(ad.mul(h, w)))
    np.testing.assert_array_equal(y.grad, w)
    np.testing.assert_array_equal(x.grad, uses * w)


def test_split_grad_with_an_unused_section():
    rng = RandomSource(16)
    p = Parameter(rand(rng, 6, 3), name="p")
    w = rand(rng, 2, 3)
    a, _, c = ad.split(p, 3, axis=0)
    ad.backward(ad.tsum(ad.add(ad.mul(a, w), ad.mul(c, 2.0 * w))))
    want = np.zeros((6, 3))
    want[0:2] = w
    want[4:6] = 2.0 * w
    np.testing.assert_allclose(p.grad, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("slices_first", [True, False])
def test_split_grad_mixed_with_a_direct_use(slices_first):
    # h feeds two split sections and a direct use; the order of the add
    # operands decides whether the slice or the full gradients reach h first.
    rng = RandomSource(17)
    p = Parameter(rand(rng, 4, 6), name="p")
    w_full = rand(rng, 4, 6)
    w_a, w_b = rand(rng, 4, 3), rand(rng, 4, 3)
    h = ad.mul(p, 3.0)
    a, b = ad.split(h, 2, axis=1)
    sliced = ad.tsum(ad.add(ad.mul(a, w_a), ad.mul(b, w_b)))
    full = ad.tsum(ad.mul(h, w_full))
    ad.backward(ad.add(sliced, full) if slices_first else ad.add(full, sliced))
    want = w_full + np.concatenate([w_a, w_b], axis=1)
    np.testing.assert_allclose(p.grad, 3.0 * want, atol=1e-12, rtol=0)


def test_crop2d_grad_matches_dense_reference():
    rng = RandomSource(18)
    p = Parameter(rand(rng, 2, 5, 6), name="p")
    w_crop = rand(rng, 2, 3, 2)
    w_full = rand(rng, 2, 5, 6)
    h = ad.mul(p, 1.0)
    loss = ad.add(ad.tsum(ad.mul(ad.crop2d(h, 1, 4, 3, 5), w_crop)),
                  ad.tsum(ad.mul(h, w_full)))
    ad.backward(loss)
    want = w_full.copy()
    want[:, 1:4, 3:5] += w_crop
    np.testing.assert_allclose(p.grad, want, atol=1e-12, rtol=0)


def test_no_grad_records_no_graph():
    p = Parameter(np.array([1.0, -2.0]), name="p")
    with ad.no_grad():
        y = ad.tsum(ad.mul(ad.relu(p), p))
    assert y.node is None
    assert float(y.data) == 1.0


def test_no_grad_restores_mode_after_exception():
    p = Parameter(np.array([3.0]), name="p")
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.mul(p, p).node is None
            raise RuntimeError("boom")
    loss = ad.tsum(ad.mul(p, p))
    assert loss.node.parents
    ad.backward(loss)
    np.testing.assert_array_equal(p.grad, [6.0])


def test_gradcheck_composed_ops():
    rng = RandomSource(6)
    w1 = Parameter(rand(rng, 4, 2, 3, 3) * 0.3, name="w1")
    w2 = Parameter(rand(rng, 3, 4) * 0.3, name="w2")
    b2 = Parameter(rand(rng, 3) * 0.1, name="b2")
    gamma = Parameter(np.ones(4) + 0.1 * rand(rng, 4), name="gamma")
    beta = Parameter(0.1 * rand(rng, 4), name="beta")
    x = Tensor(rand(rng, 2, 6, 6))
    b1 = Parameter(rand(rng, 4) * 0.1, name="b1")

    def forward():
        h = ad.conv2d(x, w1, b1)
        h = ad.relu(h)
        h = ad.bilinear_resize(h, 3, 3)
        h = ad.layer_norm(h, gamma, beta)
        h = ad.linear(h, w2, b2)
        h = ad.sigmoid(h)
        att = ad.softmax(h, axis=0)
        return ad.mean(ad.mul(att, h))

    params = [w1, w2, b2, gamma, beta, b1]
    loss = forward()
    ad.backward(loss)
    oracles.gradcheck(forward, params, RandomSource(7), n_coords=25)


def test_gradcheck_attention_shaped_ops():
    rng = RandomSource(8)
    q = Parameter(rand(rng, 2, 1, 4, 3), name="q")
    k = Parameter(rand(rng, 2, 1, 4, 3), name="k")
    v = Parameter(rand(rng, 2, 1, 4, 3), name="v")
    pos = Parameter(rand(rng, 1, 4, 4) * 0.2, name="pos")

    def forward():
        logits = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1 / np.sqrt(3))
        logits = ad.add(logits, pos)
        attn = ad.softmax(logits, axis=-1)
        out = ad.matmul(attn, v)
        return ad.mean(ad.absolute(out))

    loss = forward()
    ad.backward(loss)
    oracles.gradcheck(forward, [q, k, v, pos], RandomSource(9), n_coords=20)


def test_gradcheck_pad_crop_concat_split():
    rng = RandomSource(10)
    p = Parameter(rand(rng, 2, 4, 4), name="p")

    def forward():
        padded = ad.pad_reflect2d(p, (1, 2), (2, 1))
        cropped = ad.crop2d(padded, 1, 5, 0, 5)
        a, b = ad.split(cropped, 2, axis=0)
        joined = ad.concat([ad.mul(a, 2.0), b], axis=0)
        return ad.mean(ad.mul(joined, joined))

    loss = forward()
    ad.backward(loss)
    oracles.gradcheck(forward, [p], RandomSource(11), n_coords=20)


def test_gradcheck_split_with_unused_section():
    rng = RandomSource(19)
    p = Parameter(rand(rng, 6, 3, 4), name="p")

    def forward():
        h = ad.mul(p, p)
        a, _, c = ad.split(h, 3, axis=0)
        joined = ad.concat([ad.mul(a, 2.0), ad.crop2d(c, 0, 3, 1, 3)], axis=2)
        return ad.add(ad.mean(ad.mul(joined, joined)), ad.mean(h))

    loss = forward()
    ad.backward(loss)
    oracles.gradcheck(forward, [p], RandomSource(20), n_coords=20)


# ---------------------------------------------------------------------------
# resize, misc ops


def test_bilinear_resize_identity_and_constant():
    rng = RandomSource(12)
    x = rand(rng, 3, 5, 7)
    same = ad.bilinear_resize(Tensor(x), 5, 7).data
    np.testing.assert_allclose(same, x, atol=1e-12)
    const = ad.bilinear_resize(Tensor(np.full((1, 4, 4), 0.25)), 8, 8).data
    np.testing.assert_allclose(const, 0.25, atol=1e-12)


def test_bilinear_resize_of_a_single_pixel_is_constant():
    for n in range(1, 40):
        np.testing.assert_array_equal(ad._interp_matrix(n, 1), np.ones((n, 1)))
    x = np.array([0.3, -1.7]).reshape(2, 1, 1)
    got = ad.bilinear_resize(Tensor(x), 5, 7).data
    np.testing.assert_array_equal(got, np.broadcast_to(x, (2, 5, 7)))


def test_bilinear_resize_array_is_bilinear_resize_of_the_array():
    x = rand(RandomSource(14), 3, 5, 7)
    for h, w in ((5, 7), (10, 14), (3, 2), (1, 1)):
        np.testing.assert_array_equal(ad.bilinear_resize_array(x, h, w),
                                      ad.bilinear_resize(Tensor(x), h, w).data)
    with pytest.raises(ValueError, match=re.escape("bilinear_resize expects a [C,H,W] tensor")):
        ad.bilinear_resize_array(x[0], 10, 14)


def test_bilinear_resize_doubling_is_linear_exact():
    # Resizing a bilinear ramp reproduces the ramp at interior pixels.
    h, w = 8, 8
    rows = np.arange(h)[:, None] * np.ones((1, w))
    x = rows[None]
    up = ad.bilinear_resize(Tensor(x), 2 * h, 2 * w).data
    expect = (np.arange(2 * h) + 0.5) * 0.5 - 0.5
    expect = np.clip(expect, 0, h - 1)
    np.testing.assert_allclose(up[0, :, 0], expect, atol=1e-12)


def test_pad_reflect_matches_numpy():
    rng = RandomSource(13)
    x = rand(rng, 2, 4, 5)
    got = ad.pad_reflect2d(Tensor(x), (2, 1), (1, 3)).data
    want = np.pad(x, ((0, 0), (2, 1), (1, 3)), mode="reflect")
    np.testing.assert_array_equal(got, want)


def test_relu_sigmoid_values():
    x = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(ad.relu(Tensor(x)).data, [0.0, 0.0, 3.0])
    np.testing.assert_allclose(ad.sigmoid(Tensor(x)).data, 1 / (1 + np.exp(-x)), atol=1e-12)


def test_relu_edge_values_and_gradient():
    # 17 elements, so -0.0 lands in both the vectorised body and the scalar
    # tail of numpy's elementwise loops.
    x = np.full(17, -0.0)
    x[:9] = [np.nan, -0.0, 0.0, np.inf, -np.inf, 2.5, -1.0, 1e-300, -1e-300]
    want = np.zeros(17)
    want[[3, 5, 7]] = [np.inf, 2.5, 1e-300]
    for data, expected in ((x, want), (x[::2], want[::2])):
        y = ad.relu(Tensor(data)).data
        np.testing.assert_array_equal(y, expected)
        assert not np.signbit(y).any()
    p = Parameter(x, name="p")
    ad.backward(ad.tsum(ad.mul(ad.relu(p), np.ones_like(x))))
    # Zero at NaN, -0.0 and 0.0.
    np.testing.assert_array_equal(p.grad, x > 0)


@pytest.mark.parametrize("stride", [1, 2])
def test_relu_grad_at_signed_zeros_and_nan_is_the_input_mask(stride):
    # The vjp masks by the output; that mask must be the input's x > 0.
    x = np.full(17, -0.0)
    x[:8] = [np.nan, -0.0, 0.0, -np.nan, 1e-300, -1e-300, 2.0, -2.0]
    x = x[::stride]
    g = RandomSource(41).normal(x.shape)
    p = Parameter(x, name="p")
    ad.backward(ad.tsum(ad.mul(ad.relu(p), g)))
    np.testing.assert_array_equal(p.grad, g * (x > 0))


def test_layer_norm_normalizes():
    rng = RandomSource(14)
    x = rand(rng, 6, 8) * 3 + 1
    y = ad.layer_norm(Tensor(x.T), Tensor(np.ones(8)), Tensor(np.zeros(8))).data.T
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)


# ---------------------------------------------------------------------------
# RandomSource


def test_random_source_repeatable():
    a = RandomSource(42).normal((1000,))
    b = RandomSource(42).normal((1000,))
    np.testing.assert_array_equal(a, b)


def test_random_source_children_independent_of_order():
    base = RandomSource(7)
    c1 = base.child(3).normal((10,))
    base2 = RandomSource(7)
    _ = base2.child(5).normal((10,))
    c1_again = base2.child(3).normal((10,))
    np.testing.assert_array_equal(c1, c1_again)
