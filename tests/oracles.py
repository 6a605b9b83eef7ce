"""Explicit-loop reference implementations used as independent test oracles.

Everything here recomputes results with plain Python loops and numpy scalars,
no shared code paths with the library internals beyond parameter containers;
``identity_warp`` and ``global_view_columns`` only build test inputs, and
``band_volume`` only collects the library's correlation bands. The
``dense_*`` functions are the exception: they keep the full-matrix
formulations that the row-blocked global match and the windowed exchange
attention replaced, so the library's outputs can be checked against the full
softmax, each to a named tolerance.
The ``loop_*`` track-building references share the library's ground-truth
warps, k-means++ seeding and cluster allocation, which they do not test, and
keep the per-sample and per-cluster loops that the array code replaced.
``choice_kmeans_pp_init`` keeps the k-means++ seeding that drew each centre
with ``Generator.choice``. ``loop_triangulate`` keeps the
one-SVD-per-track triangulation that the batched solve replaced.
``whole_grid_gt_warp`` keeps the ground truth that transferred a level's
pixels in one product, through full-grid pixel centres, and
``dstack_upsample_warp`` the upsampling that interpolated the stacked
(x, y, confidence) channels in one call; both share the library's transfer
homography, z-buffers and interpolation kernel.
``verify_every_level_refine`` keeps the zero-gain refinement step that
verified whole-cell moves too and read every pixel, zero feature or not,
off the whole volume (built by ``band_volume``), and ``grid_corr_readout``
the readout it runs, which indexes the (H, W, window, window) volume
through full index grids.
"""

import math

import numpy as np

from mvmatch import kernels
from mvmatch.attention import _softmax_, coordinate_queries
from mvmatch.geometry import apply_homography
from mvmatch.grids import (MISSING, DenseWarpField, FeatureGrid, in_image, local_correlation,
                           pixel_centers, upsample_warp)
from mvmatch.matcher import (CONF_BLEND, CORR_GATE_MARGIN, SUBPIXEL_LEVELS, VERIFY_MARGIN,
                             MVFuseParams)
from mvmatch.oracle import (DEPTH_TOLERANCE, _check_view_pair, _level_size,
                            _point_cloud_buffers, gt_warp, planar_transfer)
from mvmatch.tracks import (KMEANS_MAX_ITERS, KMEANS_TOL, VisibilityPartition,
                            _kmeans_pp_init, allocate_clusters)


def identity_warp(height, width, source_view=0, target_view=1, confidence=1.0):
    """Warp mapping every pixel to itself."""
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    return DenseWarpField(np.stack([xs, ys], axis=-1), np.full((height, width), float(confidence)),
                          source_view, target_view)


def band_volume(correlate, src, tgt, targets, window):
    """The (H, W, window, window) scores that ``correlate``, ``kernels.local_corr``
    or ``grids.local_correlation`` (whose ``targets`` is a DenseWarpField),
    hands to its band callback. Each band must hold contiguous (n, window^2)
    rows of pixels handed over for the first time, and the call must return
    None. Pixels that reach no band read +0.0, the scores of a zero row."""
    shape = np.shape(getattr(targets, "targets", targets))[:2]
    cells = window * window
    out = np.zeros((shape[0] * shape[1], cells))
    seen = np.zeros(len(out), dtype=bool)

    def band(pix, scores, score_at):
        assert scores.flags.c_contiguous and scores.shape == (pix.size, cells)
        assert not seen[pix].any()
        seen[pix] = True
        out[pix] = scores

    assert correlate(src, tgt, targets, window, band) is None
    return out.reshape(*shape, window, window)


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
    queries = oracle_queries(params, pixel_centers(h, w), (h, w))
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


def _clamped_taps(p, size):
    """Linear taps (i0, i1, frac) of one position on an axis of ``size`` cells,
    clamped to the border: p is clipped to [0, size - 1] and i0 to size - 2."""
    if p < 0.0:
        p = 0.0
    if p > size - 1.0:
        p = size - 1.0
    i0 = math.floor(p)
    if i0 > size - 2:
        i0 = size - 2
    if i0 < 0:
        i0 = 0
    i1 = i0 + 1
    if i1 > size - 1:
        i1 = size - 1
    return i0, i1, p - i0


def brute_force_gather(data, xs, ys):
    """Border-clamped bilinear samples of ``data`` (H, W, C) at (xs, ys), as
    (N, C): the taps of each point in a scalar loop, then the blend."""
    h, w, _ = data.shape
    taps = [_clamped_taps(x, w) + _clamped_taps(y, h)
            for x, y in zip(np.ravel(xs).tolist(), np.ravel(ys).tolist())]
    x0, x1, fx, y0, y1, fy = np.array(taps).reshape(-1, 6).T
    x0, x1, y0, y1 = (a.astype(np.int64) for a in (x0, x1, y0, y1))
    fx, fy = fx[:, None], fy[:, None]
    top = data[y0, x0] * (1.0 - fx) + data[y0, x1] * fx
    bot = data[y1, x0] * (1.0 - fx) + data[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def brute_force_upsample(field, factor):
    """Integer-aligned linear upsampling by ``factor``, one output cell and one
    channel at a time; output X reads the input at X / factor, extrapolating
    past the last sample."""
    h, w, c = field.shape
    out = np.empty((h * factor, w * factor, c))
    for oy in range(h * factor):
        py = oy / factor
        if h == 1:
            y0, y1, ty = 0, 0, 0.0
        else:
            y0 = min(max(math.floor(py), 0), h - 2)
            y1, ty = y0 + 1, py - y0
        for ox in range(w * factor):
            px = ox / factor
            if w == 1:
                x0, x1, tx = 0, 0, 0.0
            else:
                x0 = min(max(math.floor(px), 0), w - 2)
                x1, tx = x0 + 1, px - x0
            for k in range(c):
                top = field[y0, x0, k] * (1.0 - tx) + field[y0, x1, k] * tx
                bot = field[y1, x0, k] * (1.0 - tx) + field[y1, x1, k] * tx
                out[oy, ox, k] = top * (1.0 - ty) + bot * ty
    return out


def brute_force_zbuffer(px, py, depth, h, w):
    """Minimum-depth splat, one point at a time; equal depths go to the lowest
    point index. Returns the (h, w) depth and index buffers (inf / -1 empty)."""
    zbuf = np.full((h, w), np.inf)
    ibuf = np.full((h, w), -1, dtype=np.int64)
    for i in range(len(px)):
        x, y, d = px[i], py[i], depth[i]
        if d < zbuf[y, x] or (d == zbuf[y, x] and (ibuf[y, x] < 0 or i < ibuf[y, x])):
            zbuf[y, x] = d
            ibuf[y, x] = i
    return zbuf, ibuf


def per_offset_local_corr(src, tgt, targets, window):
    """Local correlation one window offset at a time: a full bilinear gather of
    the target per offset with ``brute_force_gather``, blended per channel,
    then the channel sum."""
    h, w, c = src.shape
    r = (window - 1) // 2
    out = np.empty((h, w, window, window))
    inv = 1.0 / np.sqrt(c)
    for j, dy in enumerate(range(-r, r + 1)):
        for i, dx in enumerate(range(-r, r + 1)):
            sampled = brute_force_gather(tgt, targets[..., 0] + dx, targets[..., 1] + dy)
            out[:, :, j, i] = np.einsum("ywc,ywc->yw", src,
                                        sampled.reshape(h, w, c)) * inv
    return out


def brute_force_candidate_scores(src, tgt, cand):
    """(n,) score of each source pixel of ``src`` (H, W, C) against the
    ``brute_force_gather`` sample of ``tgt`` at its (n, 2) position ``cand``,
    one pixel at a time."""
    h, w, c = src.shape
    flat = src.reshape(h * w, c)
    out = np.empty(h * w)
    for i, (x, y) in enumerate(np.asarray(cand).tolist()):
        out[i] = float(flat[i] @ brute_force_gather(tgt, [x], [y])[0]) / math.sqrt(c)
    return out


def brute_force_correlation(src, tgt, warp, window):
    h, w, c = src.data.shape
    r = (window - 1) // 2
    out = np.zeros((h, w, window, window))
    for y in range(h):
        for x in range(w):
            for j, dy in enumerate(range(-r, r + 1)):
                for i, dx in enumerate(range(-r, r + 1)):
                    px, py = warp.targets[y, x] + (dx, dy)
                    sample = brute_force_gather(tgt.data, [px], [py])[0]
                    out[y, x, j, i] = float(src.data[y, x] @ sample) / np.sqrt(c)
    return out


def grid_corr_readout(corr_scores: np.ndarray, channels: int, temperature: float,
                      subpixel: bool):
    """Residual warp update read off the correlation window.

    The integer part moves to the window argmax only when it beats the center
    cell by ``CORR_GATE_MARGIN`` (cosine units); ties and small leads keep the
    current estimate, so a correct warp is a fixed point and, with similarity
    decreasing in distance, the update never moves away from the truth. When
    ``subpixel`` is set, a parabolic fit through the argmax and its axis
    neighbours adds a sub-cell correction. The confidence proxy is the
    softmax peak over the window (sharpness).
    """
    h, w, window, _ = corr_scores.shape
    r = (window - 1) // 2
    flat = corr_scores.reshape(h, w, -1)
    center = window * r + r
    amax = flat.argmax(axis=-1)
    margin = CORR_GATE_MARGIN / np.sqrt(channels)
    keep = flat[..., center] >= np.take_along_axis(flat, amax[..., None], -1)[..., 0] - margin
    amax = np.where(keep, center, amax)
    jj, ii = np.divmod(amax, window)
    delta = np.stack([ii - r, jj - r], axis=-1).astype(np.float64)
    if subpixel:
        yy, xx = np.mgrid[0:h, 0:w]

        def axis_fit(idx_lo, idx_hi, interior):
            lo = corr_scores[yy, xx, idx_lo[0], idx_lo[1]]
            hi = corr_scores[yy, xx, idx_hi[0], idx_hi[1]]
            c = corr_scores[yy, xx, jj, ii]
            denom = lo - 2.0 * c + hi
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.where(np.abs(denom) > 1e-12, 0.5 * (lo - hi) / denom, 0.0)
            return np.where(interior, np.clip(d, -0.5, 0.5), 0.0)

        dx = axis_fit((jj, np.maximum(ii - 1, 0)), (jj, np.minimum(ii + 1, window - 1)),
                      (ii > 0) & (ii < window - 1))
        dy = axis_fit((np.maximum(jj - 1, 0), ii), (np.minimum(jj + 1, window - 1), ii),
                      (jj > 0) & (jj < window - 1))
        delta[..., 0] += dx
        delta[..., 1] += dy
    sums = _softmax_(flat * (np.sqrt(channels) / temperature))
    return delta, 1.0 / sums.reshape(h, w)


def verify_every_level_refine(state, provider, params):
    """``refine_level`` at zero gain with the verify step at every level:
    a move is kept only where the correlation at the moved position beats
    the window centre by ``VERIFY_MARGIN``. Every pixel, zero feature or
    not, goes through the readout and the verify. Returns warps by target."""
    out_level = state.level - 1
    lp = params.levels[out_level]
    factor = params.level_stride(state.level) // lp.stride
    r = (lp.window - 1) // 2
    out = {}
    for tgt, warp in sorted(state.warps.items()):
        up = upsample_warp(warp, factor) if factor > 1 else warp
        src = provider.features(up.source_view, lp.stride)
        phi_tgt = provider.features(tgt, lp.stride)
        d = src.channels
        corr = band_volume(local_correlation, src, phi_tgt, up, lp.window)
        delta, peak = grid_corr_readout(corr, d, params.softargmax_temperature,
                                        out_level in SUBPIXEL_LEVELS)
        cand = up.targets + delta
        sampled = kernels.bilinear_gather(phi_tgt.data, cand[..., 0].ravel(),
                                          cand[..., 1].ravel())
        score = np.einsum("nc,nc->n", src.data.reshape(-1, d),
                          sampled).reshape(cand.shape[:2]) / np.sqrt(d)
        improved = score > corr[:, :, r, r] + VERIFY_MARGIN / np.sqrt(d)
        delta = np.where(improved[..., None], delta, 0.0)
        conf = np.clip(up.confidence + CONF_BLEND * (peak - up.confidence), 0.0, 1.0)
        out[tgt] = DenseWarpField(up.targets + delta, conf, up.source_view, tgt)
    return out


def brute_force_nms(scores, radius, max_keypoints=0):
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


def dense_masked_softmax(logits, mask):
    """-1e9 on masked logits, then re-zero the masked weights and renormalize."""
    shifted = np.where(mask, logits, logits - 1e9)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    expd = np.where(mask, expd, 0.0)
    denom = expd.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0, expd / np.where(denom > 0, denom, 1.0), 0.0)
    return out


def dense_spatial_bias(track_coords, grid_size, sigma):
    centers = pixel_centers(*grid_size)
    coords = np.atleast_2d(np.asarray(track_coords, dtype=np.float64))
    d2 = np.sum((coords[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return -d2 / (2.0 * sigma * sigma)


def dense_global_match(src_feat, tgt_feat, anchors, temperature=0.01,
                       source_view=0, target_view=1):
    d = src_feat.channels
    keys = kernels.bilinear_gather(tgt_feat.data, anchors.centers[:, 0],
                                   anchors.centers[:, 1])
    logits = src_feat.data.reshape(-1, d) @ keys.T / (np.sqrt(d) * temperature)
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    coords = probs @ anchors.centers
    conf = probs.max(axis=1)
    h, w = src_feat.height, src_feat.width
    return DenseWarpField(coords.reshape(h, w, 2), conf.reshape(h, w),
                          source_view, target_view)


def dense_attentional_sampling(grid, track_coords, params):
    hw = (grid.height, grid.width)
    feats = grid.data.reshape(-1, params.dim)
    queries = coordinate_queries(params, track_coords, hw)
    keys = feats @ params.wk
    values = feats @ params.wv
    logits = queries @ keys.T / np.sqrt(params.dim)
    logits = logits + dense_spatial_bias(track_coords, hw, params.sigma)
    attn = dense_masked_softmax(logits, np.ones_like(logits, dtype=bool))
    return attn @ values


def dense_attentional_splatting(grid, track_feats, track_coords, visibility, params):
    visibility = np.asarray(visibility, dtype=bool)
    if not visibility.any():
        return grid
    hw = (grid.height, grid.width)
    feats = np.where(visibility[:, None], track_feats, 0.0)
    queries = coordinate_queries(params, pixel_centers(*hw), hw)
    keys = feats @ params.wk
    values = feats @ params.wv
    logits = queries @ keys.T / np.sqrt(params.dim)
    logits = logits + dense_spatial_bias(track_coords, hw, params.sigma).T
    mask = np.broadcast_to(visibility[None, :], logits.shape)
    attn = dense_masked_softmax(logits, mask)
    update = (attn @ values) @ params.wout
    return FeatureGrid(grid.data + update.reshape(grid.data.shape), stride=grid.stride)


# ---------------------------------------------------------------------------
# track building, one sample and one cluster at a time
# ---------------------------------------------------------------------------

def loop_simulate_matcher(oracle, group, n, noise_sigma=0.0, outlier_rate=0.0, seed=None):
    """``simulate_matcher`` with one Python iteration per sample and target;
    it draws the same random numbers in the same order."""
    h, w = oracle.image_size
    views = group.views
    nt = len(views) - 1
    warps = [gt_warp(oracle, views[0], t) for t in views[1:]]
    covis = np.stack([wp.confidence > 0 for wp in warps])
    candidates = np.nonzero(covis.any(axis=0).ravel())[0]
    rng = np.random.Generator(np.random.PCG64(oracle.noise_seed if seed is None else seed))
    picks = rng.choice(candidates, size=n, replace=candidates.size < n)
    sy, sx = np.divmod(picks, w)
    noise = rng.normal(0.0, noise_sigma, size=(n, nt, 2)) if noise_sigma > 0 else np.zeros((n, nt, 2))
    is_outlier = rng.random((n, nt)) < outlier_rate if outlier_rate > 0 else np.zeros((n, nt), dtype=bool)
    uniform = np.stack([rng.uniform(0, w - 1, size=(n, nt)),
                        rng.uniform(0, h - 1, size=(n, nt))], axis=-1)
    coords = np.full((n, nt + 1, 2), MISSING)
    vis = np.zeros((n, nt + 1), dtype=bool)
    for i in range(n):
        vis[i, 0] = True
        coords[i, 0] = (float(sx[i]), float(sy[i]))
        for t in range(nt):
            if not covis[t, sy[i], sx[i]]:
                continue
            vis[i, t + 1] = True
            if is_outlier[i, t]:
                coords[i, t + 1] = uniform[i, t]
            else:
                noisy = warps[t].targets[sy[i], sx[i]] + noise[i, t]
                coords[i, t + 1] = np.clip(noisy, 0.0, [w - 1, h - 1])
    return coords, vis


def loop_partition_by_visibility(visibility):
    buckets = {}
    for i, row in enumerate(np.asarray(visibility, dtype=bool)):
        buckets.setdefault(tuple(int(v) for v in row), []).append(i)
    return [VisibilityPartition(mask, np.array(buckets[mask], dtype=np.int64))
            for mask in sorted(buckets)]


def loop_allocate_clusters(partitions, budget):
    """``tracks.allocate_clusters`` as a loop that caps each count at its
    partition's size and hands the surplus to the others until none is left."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    sizes = np.array([p.size for p in partitions], dtype=np.int64)
    total = int(sizes.sum())
    capped = budget > total
    remaining = min(budget, total)
    counts = np.zeros(len(partitions), dtype=np.int64)
    active = sizes.copy()
    while remaining > 0:
        open_idx = np.nonzero(active > 0)[0]
        share = active[open_idx] * (remaining / active[open_idx].sum())
        alloc = np.floor(share).astype(np.int64)
        rem = share - alloc
        short = remaining - int(alloc.sum())
        if short > 0:
            masks = [partitions[i].mask for i in open_idx]
            order = sorted(range(len(open_idx)),
                           key=lambda k: (-rem[k], -active[open_idx[k]], masks[k]))
            for k in order[:short]:
                alloc[k] += 1
        counts[open_idx] += np.minimum(alloc, active[open_idx])
        active[open_idx] -= np.minimum(alloc, active[open_idx])
        remaining = min(budget, total) - int(counts.sum())
    return counts, capped


def choice_kmeans_pp_init(points, k, rng):
    """k-means++ seeding that draws each further centre with ``Generator.choice``."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[c] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def loop_kmeans(points, k, seed):
    """``kmeans`` with exact distances to every center and one mean per cluster."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k >= n:
        return points.copy(), np.arange(n, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = _kmeans_pp_init(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITERS):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=k)
        for c in np.nonzero(counts == 0)[0]:
            donor = int(np.argmax(counts))
            members = np.nonzero(labels == donor)[0]
            far = members[int(np.argmax(d2[members, donor]))]
            labels[far] = c
            counts[donor] -= 1
            counts[c] += 1
        for c in range(k):
            new_centers[c] = points[labels == c].mean(axis=0)
        move = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if move < KMEANS_TOL:
            break
    return centers, labels


def loop_sample_tracks(coords, visibility, budget, seed):
    """``sample_tracks`` as (T, 2V) coordinates and (T, V) visibility, picking
    each cluster's representative in its own loop iteration."""
    visibility = np.asarray(visibility, dtype=bool)
    partitions = loop_partition_by_visibility(visibility)
    counts, _ = allocate_clusters(partitions, budget)
    rows = []
    for part_idx, (part, k) in enumerate(zip(partitions, counts)):
        if k == 0:
            continue
        mask = np.asarray(part.mask, dtype=bool)
        vectors = np.stack([coords[i][mask].reshape(-1) for i in part.members])
        centers, labels = loop_kmeans(vectors, int(k), seed=seed + part_idx)
        for c in range(int(min(k, part.size))):
            members = np.nonzero(labels == c)[0]
            d = np.linalg.norm(vectors[members] - centers[c], axis=1)
            rows.append(part.members[members[int(np.argmin(d))]])
    out = np.where(visibility[rows][..., None], coords[rows], MISSING)
    return out.reshape(len(rows), -1), visibility[rows]


def loop_assemble_tracks(keypoints, selected_warps, keeps, tau):
    """``assemble_tracks`` as (T, V, 2) coordinates and (T, V) visibility,
    one keypoint and one target at a time."""
    nt = len(selected_warps)
    coords, vis = [], []
    for kp in np.atleast_2d(keypoints):
        x, y = int(kp[0]), int(kp[1])
        c = np.full((nt + 1, 2), MISSING)
        v = np.zeros(nt + 1, dtype=bool)
        c[0] = (x, y)
        v[0] = True
        for slot, (warp, keep) in enumerate(zip(selected_warps, keeps), start=1):
            if keep[y, x] and warp.confidence[y, x] > tau:
                c[slot] = warp.targets[y, x]
                v[slot] = True
        if v[1:].any():
            coords.append(c)
            vis.append(v)
    return (np.array(coords).reshape(-1, nt + 1, 2),
            np.array(vis, dtype=bool).reshape(-1, nt + 1))


# ---------------------------------------------------------------------------
# triangulation and evaluation, one track at a time
# ---------------------------------------------------------------------------

def global_view_columns(tracks, views, num_views):
    """A group's tracks with slot s moved to camera column ``views[s]`` of
    ``num_views``, the layout the CLI's track files give; other columns are
    invisible and hold the -1 sentinel."""
    coords = np.full((len(tracks), num_views, 2), MISSING)
    visibility = np.zeros((len(tracks), num_views), dtype=bool)
    coords[:, list(views)] = tracks.coords
    visibility[:, list(views)] = tracks.visibility
    return coords, visibility


def loop_triangulate(coords, visibility, cameras):
    """``triangulate_observations`` with one (2k, 4) SVD per track: rows in
    ascending view order, depth tested camera by camera."""
    points, kept, skipped = [], [], 0
    for i, (xy, vis) in enumerate(zip(coords, visibility)):
        views = np.flatnonzero(vis)
        if views.size < 2:
            skipped += 1
            continue
        rows = []
        for v in views:
            cam = cameras[v]
            p = cam.intrinsics @ np.concatenate([cam.rotation, cam.translation[:, None]], axis=1)
            rows.append(xy[v, 0] * p[2] - p[0])
            rows.append(xy[v, 1] * p[2] - p[1])
        _, s, vt = np.linalg.svd(np.stack(rows), full_matrices=False)
        x = vt[-1]
        if s[-2] <= s[0] * 1e-8 or abs(x[3]) < 1e-12:
            skipped += 1
            continue
        point = x[:3] / x[3]
        if any((cameras[v].rotation @ point + cameras[v].translation)[2] <= 0 for v in views):
            skipped += 1
            continue
        points.append(point)
        kept.append(i)
    return np.array(points).reshape(-1, 3), np.array(kept, dtype=np.int64), skipped


def dense_nn_min_d2(query, reference):
    """``geometry._nn_min_d2`` summing a (chunk, reference, 3) difference array."""
    out = np.empty(query.shape[0])
    for lo in range(0, query.shape[0], 64):
        q = query[lo:lo + 64]
        out[lo:lo + 64] = np.sum((q[:, None, :] - reference[None, :, :]) ** 2, axis=2).min(axis=1)
    return out


# ---------------------------------------------------------------------------
# whole-grid ground truth and stacked upsampling
# ---------------------------------------------------------------------------

def whole_grid_gt_warp(oracle, source, target, stride=1):
    """``oracle.gt_warp`` transferring every pixel of the level in one product."""
    _check_view_pair(oracle, source, target)
    lh, lw = _level_size(oracle, stride)
    base = pixel_centers(lh, lw) * stride

    if oracle.kind == "planar":
        mapped = apply_homography(planar_transfer(oracle, source, target), base)
        targets = (mapped / stride).reshape(lh, lw, 2)
        conf = in_image(mapped, oracle.image_size).astype(np.float64).reshape(lh, lw)
        return DenseWarpField(targets, conf, source, target)

    _, src_ibuf = _point_cloud_buffers(oracle, source, stride)
    tgt_zbuf, _ = _point_cloud_buffers(oracle, target, stride)
    targets = np.full((lh, lw, 2), MISSING)
    conf = np.zeros((lh, lw))
    covered = src_ibuf >= 0
    if covered.any():
        pts = oracle.points[src_ibuf[covered]]
        uv, depth = oracle.cameras[target].project(pts)
        front = depth > 0
        coords = np.full((uv.shape[0], 2), MISSING)
        coords[front] = uv[front] / stride
        inside = front & in_image(uv, oracle.image_size)
        visible = np.zeros(uv.shape[0], dtype=bool)
        if inside.any():
            qx = np.round(uv[inside, 0] / stride).astype(np.int64).clip(0, lw - 1)
            qy = np.round(uv[inside, 1] / stride).astype(np.int64).clip(0, lh - 1)
            zref = tgt_zbuf[qy, qx]
            visible[inside] = depth[inside] <= zref * (1.0 + DEPTH_TOLERANCE)
        targets[covered] = coords
        conf[covered] = visible.astype(np.float64)
    return DenseWarpField(targets, conf, source, target)


def dstack_upsample_warp(warp, factor):
    """``grids.upsample_warp`` interpolating the stacked (x, y, confidence)
    channels in one ``kernels.upsample_linear`` call."""
    fine = kernels.upsample_linear(np.dstack([warp.targets, warp.confidence]), factor)
    fine[..., :2] *= factor
    np.clip(fine[..., 2], 0.0, 1.0, out=fine[..., 2])
    return DenseWarpField(fine[..., :2], fine[..., 2], warp.source_view, warp.target_view)
