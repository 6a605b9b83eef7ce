"""Explicit-loop reference implementations used as independent test oracles.

Everything here recomputes results with plain Python loops and numpy scalars,
no shared code paths with the library internals beyond parameter containers
and the bilinear sampler.
"""

import numpy as np

from mvmatch.attention import grid_token_centers
from mvmatch.grids import bilinear_sample
from mvmatch.kernels import bilinear_gather_numpy
from mvmatch.matcher import MVFuseParams


def oracle_softmax(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


def oracle_queries(params, coords, hw):
    h, w = hw
    out = []
    for cx, cy in np.atleast_2d(coords):
        x = np.array([cx / max(w - 1, 1), cy / max(h - 1, 1)])
        hidden = np.maximum(x @ params.w1 + params.b1, 0.0)
        out.append(hidden @ params.w2 + params.b2)
    return np.array(out)


def oracle_sampling(grid, coords, params):
    h, w = grid.height, grid.width
    feats = grid.data.reshape(-1, params.dim)
    queries = oracle_queries(params, coords, (h, w))
    out = np.zeros((len(coords), params.dim))
    for t, (q, (cx, cy)) in enumerate(zip(queries, np.atleast_2d(coords))):
        logits = np.zeros(h * w)
        for j in range(h * w):
            jx, jy = j % w, j // w
            bias = -((cx - jx) ** 2 + (cy - jy) ** 2) / (2 * params.sigma ** 2)
            logits[j] = q @ (feats[j] @ params.wk) / np.sqrt(params.dim) + bias
        attn = oracle_softmax(logits)
        for j in range(h * w):
            out[t] += attn[j] * (feats[j] @ params.wv)
    return out


def oracle_transformer(values, visibility, params):
    v, t, d = values.shape
    out = np.zeros_like(values)
    for ti in range(t):
        vis = np.nonzero(visibility[ti])[0]
        z = np.where(visibility[ti][:, None], values[:, ti, :], 0.0)
        for vi in vis:
            q = z[vi] @ params.wk
            logits = np.full(v, -np.inf)
            for ui in vis:
                logits[ui] = q @ (z[ui] @ params.wk) / np.sqrt(d)
            attn = np.zeros(v)
            attn[vis] = oracle_softmax(logits[vis])
            mix = np.zeros(d)
            for ui in vis:
                mix += attn[ui] * (z[ui] @ params.wv)
            out[vi, ti] = z[vi] + mix @ params.wout
    return out


def oracle_splatting(grid, track_feats, coords, visibility, params):
    h, w = grid.height, grid.width
    if not visibility.any():
        return grid.data.copy()
    feats = np.where(visibility[:, None], track_feats, 0.0)
    queries = oracle_queries(params, grid_token_centers(h, w), (h, w))
    out = grid.data.reshape(-1, params.dim).copy()
    vis = np.nonzero(visibility)[0]
    for j in range(h * w):
        jx, jy = j % w, j // w
        logits = np.full(len(coords), -np.inf)
        for t in vis:
            bias = -((coords[t, 0] - jx) ** 2 + (coords[t, 1] - jy) ** 2) \
                / (2 * params.sigma ** 2)
            logits[t] = queries[j] @ (feats[t] @ params.wk) / np.sqrt(params.dim) + bias
        attn = np.zeros(len(coords))
        attn[vis] = oracle_softmax(logits[vis])
        upd = np.zeros(params.dim)
        for t in vis:
            upd += attn[t] * (feats[t] @ params.wv)
        out[j] += upd @ params.wout
    return out.reshape(h, w, params.dim)


def oracle_mvfuse(grids, p, iterations):
    stack = np.stack([g.data for g in grids]).astype(float)
    v, h, w, d = stack.shape
    for _ in range(iterations):
        new = stack.copy()
        for y in range(h):
            for x in range(w):
                toks = stack[:, y, x, :]
                q = toks @ p.wq
                k = toks @ p.wk
                val = toks @ p.wv
                for vi in range(v):
                    logits = np.array([q[vi] @ k[ui] / np.sqrt(d) for ui in range(v)])
                    attn = oracle_softmax(logits)
                    fused = sum(attn[ui] * val[ui] for ui in range(v))
                    new[vi, y, x] += (fused - val[vi]) @ p.wo
        stack = new
        mixed = stack.copy()
        for vi in range(v):
            dwout = np.zeros((h, w, d))
            for y in range(h):
                for x in range(w):
                    for ky in range(7):
                        for kx in range(7):
                            iy, ix = y + ky - 3, x + kx - 3
                            if 0 <= iy < h and 0 <= ix < w:
                                dwout[y, x] += stack[vi, iy, ix] * p.dw[ky, kx]
            dwout += p.dwb
            t = np.maximum(dwout @ p.pw1 + p.pb1, 0.0)
            mixed[vi] = stack[vi] + t @ p.pw2 + p.pb2
        stack = mixed
    return stack


def random_fuse_params(rng, d, dff=None):
    dff = dff or 2 * d
    s = 1.0 / np.sqrt(d)
    return MVFuseParams(
        wq=rng.normal(0, s, (d, d)), wk=rng.normal(0, s, (d, d)),
        wv=rng.normal(0, s, (d, d)), wo=rng.normal(0, s, (d, d)),
        dw=rng.normal(0, 0.2, (7, 7, d)), dwb=rng.normal(0, 0.1, d),
        pw1=rng.normal(0, s, (d, dff)), pb1=rng.normal(0, 0.1, dff),
        pw2=rng.normal(0, 1 / np.sqrt(dff), (dff, d)), pb2=rng.normal(0, 0.1, d))


def brute_force_conv2d(inp, weights, bias):
    """Same-size k x k convolution with zero padding, one output pixel at a time."""
    h, w, _ = inp.shape
    k = weights.shape[0]
    r = (k - 1) // 2
    out = np.zeros((h, w, weights.shape[3]))
    for y in range(h):
        for x in range(w):
            out[y, x] = bias
            for ky in range(k):
                for kx in range(k):
                    iy, ix = y + ky - r, x + kx - r
                    if 0 <= iy < h and 0 <= ix < w:
                        out[y, x] += inp[iy, ix] @ weights[ky, kx]
    return out


def brute_force_depthwise_conv2d(inp, weights, bias):
    """Same-size per-channel k x k convolution with zero padding, pixel by pixel."""
    h, w, _ = inp.shape
    k = weights.shape[0]
    r = (k - 1) // 2
    out = np.zeros(inp.shape)
    for y in range(h):
        for x in range(w):
            out[y, x] = bias
            for ky in range(k):
                for kx in range(k):
                    iy, ix = y + ky - r, x + kx - r
                    if 0 <= iy < h and 0 <= ix < w:
                        out[y, x] += inp[iy, ix] * weights[ky, kx]
    return out


def per_offset_local_corr(src, tgt, targets, window):
    """Local correlation one window offset at a time: a full bilinear gather of
    the target per offset, blended per channel, then the channel sum. Only
    ``bilinear_gather_numpy`` is shared with the library's kernel."""
    h, w, c = src.shape
    r = (window - 1) // 2
    out = np.empty((h, w, window, window))
    inv = 1.0 / np.sqrt(c)
    for j, dy in enumerate(range(-r, r + 1)):
        for i, dx in enumerate(range(-r, r + 1)):
            sampled = bilinear_gather_numpy(tgt, targets[..., 0] + dx, targets[..., 1] + dy)
            out[:, :, j, i] = np.einsum("ywc,ywc->yw", src, sampled) * inv
    return out


def brute_force_correlation(src, tgt, warp, window):
    h, w, c = src.data.shape
    r = (window - 1) // 2
    out = np.zeros((h, w, window, window))
    for y in range(h):
        for x in range(w):
            for j, dy in enumerate(range(-r, r + 1)):
                for i, dx in enumerate(range(-r, r + 1)):
                    pos = warp.targets[y, x] + (dx, dy)
                    sample = bilinear_sample(tgt, pos)
                    out[y, x, j, i] = float(src.data[y, x] @ sample) / np.sqrt(c)
    return out


def brute_force_nms(scores, radius, max_keypoints=None):
    h, w = scores.shape
    order = sorted(((-scores[y, x], y * w + x) for y in range(h) for x in range(w)))
    picked = []
    for neg, idx in order:
        if -neg <= 0:
            break
        y, x = divmod(idx, w)
        if all(max(abs(y - py), abs(x - px)) > radius for px, py in picked):
            picked.append((x, y))
            if max_keypoints and len(picked) == max_keypoints:
                break
    return np.array(picked, dtype=np.int64).reshape(-1, 2)
