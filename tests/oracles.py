"""Independent brute-force oracles used to check the fast implementations.

Everything here is deliberately written as plain loops / direct formulas so
a bug in the library code cannot hide in a shared code path.
"""

from __future__ import annotations

import numpy as np

from spectragen import autodiff as ad
from spectragen import nn
from spectragen.diffusion import diffusion_loss


def conv2d_loops(x: np.ndarray, kernel: np.ndarray, padding: int) -> np.ndarray:
    """Quadruple-loop 2-D cross-correlation."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = h + 2 * padding - kh + 1
    wo = w + 2 * padding - kw + 1
    out = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(c_in):
                    for u in range(kh):
                        for v in range(kw):
                            acc += kernel[co, ci, u, v] * xp[ci, i + u, j + v]
                out[co, i, j] = acc
    return out


def conv2d_grads_loops(x: np.ndarray, kernel: np.ndarray, g: np.ndarray,
                       padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Input and kernel gradients of sum(g * conv2d(x, kernel)), scattered
    from each output position in turn."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for co in range(c_out):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                for ci in range(c_in):
                    for u in range(kh):
                        for v in range(kw):
                            gxp[ci, i + u, j + v] += kernel[co, ci, u, v] * g[co, i, j]
                            gk[co, ci, u, v] += xp[ci, i + u, j + v] * g[co, i, j]
    return gxp[:, padding : padding + h, padding : padding + w], gk


def im2col_reference(x: np.ndarray, kh: int, kw: int, padding: int) -> np.ndarray:
    """Whole [C_in*kh*kw, H_out*W_out] im2col matrix of a [C_in,H,W] input,
    read through a sliding-window view of a zero-padded copy."""
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return windows.transpose(0, 3, 4, 1, 2).reshape(x.shape[0] * kh * kw, -1)


def linear_loops(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Explicit dot-product affine map over the leading axis, one trailing
    position at a time."""
    d_out, d_in = weight.shape
    x2 = x.reshape(d_in, -1)
    out = np.zeros((d_out, x2.shape[1]))
    for r in range(x2.shape[1]):
        for o in range(d_out):
            acc = bias[o]
            for i in range(d_in):
                acc += weight[o, i] * x2[i, r]
            out[o, r] = acc
    return out.reshape((d_out,) + x.shape[1:])


def ffd_tokens(x: np.ndarray, gamma, beta, w1, b1, w2, b2, eps: float = 1e-5) -> np.ndarray:
    """rgan.Ffd in the token layout: the [C,H,W] map as [H*W, C] tokens,
    each token layer-normed over its channels, then x @ W.T + b, ReLU,
    x @ W.T + b, and the tokens laid back out as [C,H,W]."""
    c, h, w = x.shape
    tokens = x.reshape(c, h * w).T
    mu = tokens.mean(axis=1, keepdims=True)
    var = ((tokens - mu) ** 2).mean(axis=1, keepdims=True)
    normed = (tokens - mu) / np.sqrt(var + eps) * gamma + beta
    hidden = np.maximum(normed @ w1.T + b1, 0.0)
    return (hidden @ w2.T + b2).T.reshape(c, h, w)


def central_difference(f, params, coords, step: float = 1e-5):
    """Central finite differences of scalar f() at sampled parameter coords.

    `coords` is a list of (param, flat_index). Returns one derivative per
    coordinate; f must re-run the full forward pass on each call.
    """
    out = []
    for p, idx in coords:
        flat = p.data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + step
        f_plus = f()
        flat[idx] = orig - step
        f_minus = f()
        flat[idx] = orig
        out.append((f_plus - f_minus) / (2.0 * step))
    return out


def gradcheck(f, params, rng, n_coords: int = 20, step: float = 1e-5,
              rtol: float = 1e-4, atol: float = 1e-8):
    """Compare reverse-mode gradients against central differences.

    f() must run the forward pass and return the scalar loss Tensor.
    Gradients must already be accumulated in params (caller runs backward).
    Raises AssertionError with the worst offending coordinate.
    """
    coords = []
    for _ in range(n_coords):
        p = params[int(rng.integers(0, len(params)))]
        idx = int(rng.integers(0, p.data.size))
        coords.append((p, idx))
    fd = central_difference(lambda: float(f().data), params, coords, step)
    for (p, idx), d_num in zip(coords, fd):
        d_ad = p.grad.reshape(-1)[idx]
        err = abs(d_ad - d_num)
        tol = atol + rtol * max(abs(d_ad), abs(d_num))
        assert err <= tol, (
            f"gradient mismatch at {p.name}[{idx}]: "
            f"autodiff {d_ad:.10g} vs finite-diff {d_num:.10g} (err {err:.3g})"
        )


def held_by_vjp(node, kind=ad.Tensor) -> list:
    """Every object of `kind` that a graph node's vjp holds: in its closure
    cells and default arguments, and in the lists and tuples among them, at
    any depth."""
    def held(value):
        yield value
        if isinstance(value, (list, tuple)):
            for item in value:
                yield from held(item)

    vjp = node.vjp
    values = [c.cell_contents for c in vjp.__closure__ or ()] + list(vjp.__defaults__ or ())
    return [v for value in values for v in held(value) if isinstance(v, kind)]


def dense_window_attention(q, k, v, pos, scale):
    """Per-window attention with explicit loop-built matrices.

    q, k, v: [n_windows, heads, tokens, d]; pos: [heads, tokens, tokens].
    """
    n, heads, t, d = q.shape
    out = np.zeros_like(v)
    for wi in range(n):
        for h in range(heads):
            logits = np.zeros((t, t))
            for i in range(t):
                for j in range(t):
                    logits[i, j] = float(np.dot(q[wi, h, i], k[wi, h, j])) * scale + pos[h, i, j]
            for i in range(t):
                row = logits[i] - logits[i].max()
                e = np.exp(row)
                attn = e / e.sum()
                out[wi, h, i] = attn @ v[wi, h]
    return out


def composed_window_attention(query, key, value, window, pos, heads):
    """Window attention as a chain of public autodiff ops, one graph node
    per step: the unfused reference for rgan.window_attention, in the same
    op order (partition, split heads, q k^T, scale, + pos, softmax, @ v,
    merge heads, reverse the partition).

    query/key/value are [C,H,W] tensors; pos is [heads, h*w, h*w].
    """
    c, height, width = query.shape
    h, w = window
    gr, gc = height // h, width // w
    d = c // heads

    def to_heads(t):
        g = ad.transpose(ad.reshape(t, (c, gr, h, gc, w)), (1, 3, 2, 4, 0))
        g = ad.reshape(ad.reshape(g, (gr * gc, h * w, c)), (gr * gc, h * w, heads, d))
        return ad.transpose(g, (0, 2, 1, 3))

    q, k, v = to_heads(query), to_heads(key), to_heads(value)
    logits = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(d))
    attn = ad.softmax(ad.add(logits, pos), axis=-1)
    out = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (gr * gc, h * w, c))
    out = ad.transpose(ad.reshape(out, (gr, gc, h, w, c)), (4, 0, 2, 1, 3))
    return ad.reshape(out, (c, height, width))


def composed_rectangular_attention(query, key, value, cfg, pos_h, pos_v):
    """rgan.window_attention as composed ops: query, key and value split
    into channel halves, the first half through wide cfg.window_h windows
    with pos_h and the second through tall cfg.window_v windows with pos_v,
    each by composed_window_attention, and the halves joined by a concat."""
    (qh, qv), (kh, kv), (vh, vv) = (ad.split(t, 2, axis=0) for t in (query, key, value))
    return ad.concat([
        composed_window_attention(qh, kh, vh, cfg.window_h, pos_h, cfg.heads),
        composed_window_attention(qv, kv, vv, cfg.window_v, pos_v, cfg.heads),
    ], axis=0)


def projected_rectangular_attention(zq, zkv, weight, bias, cfg, pos_h, pos_v):
    """rgan.window_attention as composed ops: the qkv weight and bias cut
    into thirds by ad.split; zq projected by ad.linear through the query
    third, and zkv through the key and value thirds joined by ad.concat
    (one product, as in the op), then split into keys and values; then
    composed_rectangular_attention of the queries against the keys and
    values. zq may be zkv."""
    (wq, *wkv), (bq, *bkv) = (ad.split(t, 3, axis=0) for t in (weight, bias))
    q = ad.linear(zq, wq, bq)
    kv = ad.linear(zkv, ad.concat(wkv, axis=0), ad.concat(bkv, axis=0))
    return composed_rectangular_attention(q, *ad.split(kv, 2, axis=0), cfg, pos_h, pos_v)


def full_gal_stack(model, lr, rgb):
    """rgan.RganModel.forward with every GAL running both streams to the
    end: the two-stream loop, in which the last layer also computes the RGB
    stream its head never reads (CAL's second attention, spec_rgb and
    ffd_rgb, each with its residual add). lr and rgb are Tensors."""
    scale = model.config.scale
    hh, ww = lr.shape[1] * scale, lr.shape[2] * scale
    upsampled = ad.bilinear_resize(lr, hh, ww)
    hsi_feat = ad.bilinear_resize(model.embed_hsi(lr), hh, ww)
    rgb_feat = model.embed_rgb(rgb)
    for gal in model.gals:
        hsi_feat = ad.add(hsi_feat, gal.sal_hsi(hsi_feat, hsi_feat))
        rgb_feat = ad.add(rgb_feat, gal.sal_rgb(rgb_feat, rgb_feat))
        d_hsi, d_rgb = gal.cal(rgb_feat, hsi_feat), gal.cal(hsi_feat, rgb_feat)
        hsi_feat = ad.add(hsi_feat, d_hsi)
        rgb_feat = ad.add(rgb_feat, d_rgb)
        hsi_feat = ad.add(hsi_feat, gal.spec_hsi(hsi_feat))
        rgb_feat = ad.add(rgb_feat, gal.spec_rgb(rgb_feat))
        hsi_feat = ad.add(hsi_feat, gal.ffd_hsi(hsi_feat))
        rgb_feat = ad.add(rgb_feat, gal.ffd_rgb(rgb_feat))
    return ad.add(model.head(hsi_feat), upsampled)


def segmentation_proxy_loops(image, levels: int = 4) -> np.ndarray:
    """segmentation_proxy by a per-pixel flood fill: components are labelled
    in the raster order of their first pixel."""
    gray = np.asarray(image, dtype=np.float64).mean(axis=0)
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


def train_diffusion_one_graph(latents, model, schedule, steps: int, batch_size: int,
                              lr: float = 2e-3, seed: int = 0, conditions=None) -> list[float]:
    """train_diffusion with each step's batch in one graph: the per-sample
    losses summed into one node, scaled by 1/batch_size and back-propagated
    once. Same sampling, schedule and optimizer as the library loop."""
    rng = ad.RandomSource(seed)
    opt = nn.Adam(model.parameters(), lr=lr, betas=(0.9, 0.99))
    warmup = max(int(steps * 0.02), 1)
    tail_start = int(steps * (1.0 - 0.3))
    trace = []
    for step in range(steps):
        opt.lr = lr * nn.warmup_flat_cosine(step, steps, warmup, tail_start)
        srng = rng.child(step)
        total = None
        for _ in range(batch_size):
            idx = int(srng.integers(0, len(latents)))
            t = int(srng.integers(1, schedule.timesteps + 1))
            eps = srng.normal(latents[idx].shape)
            cond = conditions[idx] if conditions is not None else None
            loss = diffusion_loss(model, schedule, latents[idx], t, eps, cond)
            total = loss if total is None else ad.add(total, loss)
        loss = ad.mul(total, 1.0 / batch_size)
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
        trace.append(float(loss.data))
    return trace
