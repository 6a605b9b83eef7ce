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
    """Sample ``data`` (H, W, C) at continuous (x, y) positions, border-clamped.

    The blend runs in place on three gathered arrays, so the scratch memory
    is three times the output's.
    """
    data = _f64(data)
    h, w = data.shape[:2]
    cells = data.reshape(h * w, -1)
    x0, x1, fx = _axis_taps(np.asarray(xs, dtype=np.float64), w)
    y0, y1, fy = _axis_taps(np.asarray(ys, dtype=np.float64), h)
    fx = fx.reshape(-1, 1)
    fy = fy.reshape(-1, 1)
    gx = 1.0 - fx

    def corner(yi, xi, out=None):
        # the taps are in range; "clip" writes into ``out`` without a buffer
        return np.take(cells, (yi * w + xi).ravel(), axis=0, out=out, mode="clip")

    top = corner(y0, x0)
    top *= gx
    other = corner(y0, x1)
    other *= fx
    top += other
    bot = corner(y1, x0)
    bot *= gx
    corner(y1, x1, out=other)
    other *= fx
    bot += other
    top *= 1.0 - fy
    bot *= fy
    top += bot
    return top.reshape(x0.shape + data.shape[2:])


# ---------------------------------------------------------------------------
# local correlation volume
# ---------------------------------------------------------------------------

# Side, in target cells, of the square blocks that key local_corr's products.
_CORR_BLOCK = 16
# Most source pixels in one product; a fuller block is split into near-equal
# parts, which bounds the scratch memory when warps pile up at one target
# cell (e.g. all targets off one corner of the image).
_CORR_PRODUCT_ROWS = 2048


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
    * keys every source pixel by the ``_CORR_BLOCK`` x ``_CORR_BLOCK`` block
      of target cells that holds its offset -r taps. All taps of the pixel
      lie within span = window + 2 cells of those (span, not window + 1,
      because near integer targets floor(t + dx) can step one cell past dx),
      so they lie in the block's region: _CORR_BLOCK + span - 1 rows and as
      many columns, plus the few more that make its cell count a multiple
      of 8. Region cells past the last target row or column repeat it, as
      the taps are clamped;
    * takes the dot products of the block's pixels with every region cell
      in one BLAS product, ``S[pix] @ region.T``, and blends the four
      corner dots of each offset with its fx, fy. A block of more than
      ``_CORR_PRODUCT_ROWS`` pixels is split into near-equal products.

    Blending after the channel sum instead of before it, and BLAS's order
    of the channel sum, move scores by a few ulps: they agree with the
    per-offset gather to ``CORR_ATOL`` = 1e-13 (``tests/test_kernels.py``).
    The bits may change with ``_CORR_BLOCK``, not with the BLAS thread
    count or the product split: with a column count that is a multiple of
    8, OpenBLAS gives a product entry the same bits however it splits the
    rows of a product of three or more rows (measured at 1 and 2 threads).
    """
    src, tgt, targets, window = _f64(src), _f64(tgt), _f64(targets), int(window)
    h, w, c = src.shape
    th, tw = tgt.shape[:2]
    r = (window - 1) // 2
    side = _CORR_BLOCK + window + 1
    width = side
    while side * width % 8:
        width += 1
    offsets = np.arange(-r, r + 1, dtype=np.float64)
    inv = 1.0 / np.sqrt(c)
    s = src.reshape(h * w, c)
    t = targets.reshape(h * w, 2)
    out = np.empty((h * w, window, window), dtype=np.float64)

    # block of each pixel's offset -r taps, pixels sorted by block
    nbx = (tw - 1) // _CORR_BLOCK + 1
    by = _axis_taps(t[:, 1] - r, th)[0] // _CORR_BLOCK
    bx = _axis_taps(t[:, 0] - r, tw)[0] // _CORR_BLOCK
    key = by * nbx + bx
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], key.size]
    cells_y, cells_x = np.arange(side)[:, None], np.arange(width)

    for lo, hi in zip(starts, ends):
        oy, ox = divmod(int(key[lo]), nbx)
        oy *= _CORR_BLOCK
        ox *= _CORR_BLOCK
        region = tgt[np.minimum(oy + cells_y, th - 1),
                     np.minimum(ox + cells_x, tw - 1)].reshape(-1, c)
        for pix in np.array_split(order[lo:hi], -(-(hi - lo) // _CORR_PRODUCT_ROWS)):
            dots = (s[pix] @ region.T).ravel()
            x0, x1, fx = _axis_taps(t[pix, 0, None] + offsets, tw)
            y0, y1, fy = _axis_taps(t[pix, 1, None] + offsets, th)
            # flat index of each tap's cell in its pixel's row of dots
            rows = np.arange(pix.size)[:, None] * (side * width) - oy * width - ox
            y0 = (rows + y0 * width)[:, :, None]
            y1 = (rows + y1 * width)[:, :, None]
            x0 = x0[:, None, :]
            x1 = x1[:, None, :]
            gx = fx[:, None, :]
            gy = fy[:, :, None]
            top = dots[y0 + x0] * (1.0 - gx) + dots[y0 + x1] * gx
            bot = dots[y1 + x0] * (1.0 - gx) + dots[y1 + x1] * gx
            out[pix] = (top * (1.0 - gy) + bot * gy) * inv
    return out.reshape(h, w, window, window)


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

# (destination, source) cells of each neighbour, in priority order: the
# neighbour above, below, to the left and to the right
_NEIGHBOURS = (((slice(1, None), slice(None)), (slice(None, -1), slice(None))),
               ((slice(None, -1), slice(None)), (slice(1, None), slice(None))),
               ((slice(None), slice(1, None)), (slice(None), slice(None, -1))),
               ((slice(None), slice(None, -1)), (slice(None), slice(1, None))))


def fill_nearest(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Fill the cells of ``values`` (H, W, ...) where ``valid`` is False.

    Each round of 4-neighbour dilation copies into every unfilled cell from
    a neighbour filled before the round, preferring the one above, then
    below, left and right, as whole-array shifts. A round writes only
    unfilled cells and reads only filled ones, so it needs no copy of the
    grid. Cells no round reaches keep their values.
    """
    out = _f64(values).copy()
    filled = np.array(valid, dtype=np.bool_)
    while not filled.all():
        todo = ~filled
        grew = np.zeros_like(filled)
        for dst, src in _NEIGHBOURS:
            take = todo[dst] & filled[src] & ~grew[dst]
            out[dst][take] = out[src][take]
            grew[dst] |= take
        if not grew.any():
            break
        filled |= grew
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
