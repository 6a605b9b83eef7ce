"""Hot inner loops, in numpy.

The gather, local correlation, upsampling, NMS, z-buffer, hole-filling and
small-convolution kernels each exist once, as a vectorised numpy function;
the tests check each against an explicit-loop oracle. ``BACKEND`` names the
implementation and is recorded with every benchmark run.
Matrix-multiply heavy code (attention, global matching) stays in plain numpy
throughout the package since BLAS already owns it; only gather/scatter/
stencil loops live here.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


# ---------------------------------------------------------------------------
# bilinear gather
# ---------------------------------------------------------------------------

def _axis_taps(p: np.ndarray, size: int):
    """Border-clamped linear taps along one axis: (i0, i1, frac) for positions p."""
    p = np.clip(p, 0.0, size - 1.0)
    i0 = np.minimum(np.floor(p), size - 2 if size > 1 else 0).astype(np.int64)
    i0 = np.maximum(i0, 0)
    i1 = np.minimum(i0 + 1, size - 1)
    return i0, i1, p - i0


def bilinear_gather(data: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample ``data`` (H, W, C) at continuous (x, y) positions, border-clamped."""
    data = _f64(data)
    h, w = data.shape[:2]
    x0, x1, fx = _axis_taps(np.asarray(xs, dtype=np.float64), w)
    y0, y1, fy = _axis_taps(np.asarray(ys, dtype=np.float64), h)
    fx = fx[..., None]
    fy = fy[..., None]
    v00 = data[y0, x0]
    v01 = data[y0, x1]
    v10 = data[y1, x0]
    v11 = data[y1, x1]
    top = v00 * (1.0 - fx) + v01 * fx
    bot = v10 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fy) + bot * fy


# ---------------------------------------------------------------------------
# local correlation volume
# ---------------------------------------------------------------------------

# Source rows per band of local_corr. Pixels are independent, so the band
# only bounds the scratch memory; any value gives the same bits.
_CORR_BAND_ROWS = 16


def local_corr(src: np.ndarray, tgt: np.ndarray, targets: np.ndarray, window: int) -> np.ndarray:
    """Correlate each source feature with a window of bilinear target samples.

    Entry [y, x, j, i] is ``src[y, x] . sample(tgt, targets[y, x] + (i - r,
    j - r)) / sqrt(C)`` with r = (window - 1) // 2, sampled border-clamped as
    in ``bilinear_gather``. A bilinear sample's dot product is the same blend
    of the dot products taken at its four integer cells, so the kernel:

    * computes each offset's taps (x0, x1, fx), (y0, y1, fy) with the clip,
      floor and clamp arithmetic of ``bilinear_gather``, so offsets that
      clamp to the same taps give exactly equal scores and the readout's
      first-index tie-break at the borders is kept;
    * takes the dot products with the (window + 2)^2 integer cells from the
      taps of offset -r, clamped to the last row and column. The span is
      window + 2, not window + 1, because near integer targets
      floor(t + dx) can step one cell past dx;
    * blends the four corner dots of each offset with its fx, fy.

    Source rows are processed in bands of ``_CORR_BAND_ROWS``, which bounds
    the scratch memory and does not change the result. Blending after the
    channel sum instead of before it moves scores by a few ulps only.
    """
    src, tgt, targets, window = _f64(src), _f64(tgt), _f64(targets), int(window)
    h, w, c = src.shape
    th, tw = tgt.shape[:2]
    r = (window - 1) // 2
    span = window + 2
    steps = np.arange(span)
    offsets = np.arange(-r, r + 1, dtype=np.float64)
    inv = 1.0 / np.sqrt(c)
    out = np.empty((h, w, window, window), dtype=np.float64)
    for b0 in range(0, h, _CORR_BAND_ROWS):
        band = slice(b0, b0 + _CORR_BAND_ROWS)
        s = src[band]
        lead = s.shape[:2]
        # per-offset taps, (rows, w, window): column offsets in x, row offsets in y
        x0, x1, fx = _axis_taps(targets[band, :, 0, None] + offsets, tw)
        y0, y1, fy = _axis_taps(targets[band, :, 1, None] + offsets, th)
        # dot products with the span x span integer cells from offset -r's taps
        bx = x0[..., :1]
        by = y0[..., :1]
        cols = np.minimum(bx + steps, tw - 1)
        dots = np.empty(lead + (span, span), dtype=np.float64)
        for k in range(span):
            rows = np.minimum(by + k, th - 1)
            dots[..., k, :] = np.einsum("ywc,ywic->ywi", s, tgt[rows, cols])
        dots = dots.reshape(lead + (span * span,))

        def corner(yi, xi):
            idx = ((yi - by) * span)[..., :, None] + (xi - bx)[..., None, :]
            return np.take_along_axis(dots, idx.reshape(lead + (-1,)), axis=2).reshape(idx.shape)

        gx = fx[..., None, :]
        gy = fy[..., :, None]
        top = corner(y0, x0) * (1.0 - gx) + corner(y0, x1) * gx
        bot = corner(y1, x0) * (1.0 - gx) + corner(y1, x1) * gx
        out[band] = (top * (1.0 - gy) + bot * gy) * inv
    return out


# ---------------------------------------------------------------------------
# linear upsampling (integer-aligned, extrapolating past the last sample)
# ---------------------------------------------------------------------------

def upsample_linear(field: np.ndarray, factor: int) -> np.ndarray:
    field = _f64(field)
    h, w, c = field.shape
    oh, ow = h * factor, w * factor

    def axis_taps(size, out_size):
        p = np.arange(out_size, dtype=np.float64) / factor
        if size == 1:
            i0 = np.zeros(out_size, dtype=np.int64)
            return i0, i0, np.zeros(out_size)
        i0 = np.clip(np.floor(p).astype(np.int64), 0, size - 2)
        return i0, i0 + 1, p - i0

    y0, y1, ty = axis_taps(h, oh)
    x0, x1, tx = axis_taps(w, ow)
    rows = field[y0] * (1.0 - ty)[:, None, None] + field[y1] * ty[:, None, None]
    out = rows[:, x0] * (1.0 - tx)[None, :, None] + rows[:, x1] * tx[None, :, None]
    return out


# ---------------------------------------------------------------------------
# greedy score-map NMS
# ---------------------------------------------------------------------------

def nms_greedy(scores: np.ndarray, radius: int, max_keypoints: int = -1) -> np.ndarray:
    """Greedy NMS on a score map. Returns selected (y, x) pixels, score order."""
    scores = _f64(scores)
    radius = int(radius)
    cap = max_keypoints if max_keypoints and max_keypoints > 0 else scores.size + 1
    h, w = scores.shape
    flat = scores.ravel()
    order = np.argsort(-flat, kind="stable")
    suppressed = np.zeros((h, w), dtype=bool)
    picked = []
    for idx in order:
        s = flat[idx]
        if s <= 0.0:
            break
        y, x = divmod(int(idx), w)
        if suppressed[y, x]:
            continue
        picked.append((y, x))
        if len(picked) == cap:
            break
        suppressed[max(0, y - radius):y + radius + 1, max(0, x - radius):x + radius + 1] = True
    return np.array(picked, dtype=np.int64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# z-buffer splatting (minimum depth, ties to the lowest point index)
# ---------------------------------------------------------------------------

def zbuffer_min(px: np.ndarray, py: np.ndarray, depth: np.ndarray, h: int, w: int):
    px = np.ascontiguousarray(px, dtype=np.int64)
    py = np.ascontiguousarray(py, dtype=np.int64)
    depth = _f64(depth)
    zbuf = np.full((h, w), np.inf, dtype=np.float64)
    ibuf = np.full((h, w), -1, dtype=np.int64)
    pix = py * w + px
    order = np.lexsort((np.arange(px.shape[0]), depth, pix))
    pix_sorted = pix[order]
    first = np.ones(pix_sorted.shape[0], dtype=bool)
    first[1:] = pix_sorted[1:] != pix_sorted[:-1]
    sel = order[first]
    zbuf[py[sel], px[sel]] = depth[sel]
    ibuf[py[sel], px[sel]] = sel
    return zbuf, ibuf


# ---------------------------------------------------------------------------
# nearest-valid hole filling (iterated 4-neighbour dilation, fixed priority)
# ---------------------------------------------------------------------------

def fill_nearest(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    out = _f64(values).copy()
    filled = np.array(valid, dtype=np.bool_)
    h, w = filled.shape
    while not filled.all():
        prev_vals = out.copy()
        prev_fill = filled.copy()
        progressed = False
        for y in range(h):
            for x in range(w):
                if prev_fill[y, x]:
                    continue
                # priority: up, down, left, right
                if y > 0 and prev_fill[y - 1, x]:
                    out[y, x] = prev_vals[y - 1, x]
                elif y < h - 1 and prev_fill[y + 1, x]:
                    out[y, x] = prev_vals[y + 1, x]
                elif x > 0 and prev_fill[y, x - 1]:
                    out[y, x] = prev_vals[y, x - 1]
                elif x < w - 1 and prev_fill[y, x + 1]:
                    out[y, x] = prev_vals[y, x + 1]
                else:
                    continue
                filled[y, x] = True
                progressed = True
        if not progressed:
            break
    return out


# ---------------------------------------------------------------------------
# small same-size convolutions (zero padding)
# ---------------------------------------------------------------------------

def conv2d(inp: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-size k x k convolution, zero padding. weights: (k, k, Cin, Cout)."""
    inp, weights, bias = _f64(inp), _f64(weights), _f64(bias)
    k = weights.shape[0]
    r = (k - 1) // 2
    h, w, cin = inp.shape
    padded = np.zeros((h + 2 * r, w + 2 * r, cin), dtype=np.float64)
    padded[r:r + h, r:r + w] = inp
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    return np.einsum("yxcij,ijco->yxo", win, weights, optimize=True) + bias


def depthwise_conv2d(inp: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-size depthwise k x k convolution, zero padding. weights: (k, k, C)."""
    inp, weights, bias = _f64(inp), _f64(weights), _f64(bias)
    k = weights.shape[0]
    r = (k - 1) // 2
    h, w, c = inp.shape
    padded = np.zeros((h + 2 * r, w + 2 * r, c), dtype=np.float64)
    padded[r:r + h, r:r + w] = inp
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    return np.einsum("yxcij,ijc->yxc", win, weights, optimize=True) + bias
