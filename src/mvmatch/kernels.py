"""Hot inner loops, in numpy.

The gather, local correlation, upsampling, NMS, z-buffer and
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
_CORR_BLOCK = 8
# Most source pixels in one product and in one blend band; a fuller block is
# split into near-equal parts, which bounds the scratch memory when warps pile
# up at one target cell (e.g. all targets off one corner of the image).
_CORR_PRODUCT_ROWS = 1024
# Fewest rows in a product, when its block has that many pixels: OpenBLAS
# 0.3.31 rounds a product of up to about 1200 entries (rows x region cells,
# at 32 or more channels) its own way, and a region has at least 144 cells.
_CORR_MIN_ROWS = 16


def local_corr(src: np.ndarray, tgt: np.ndarray, targets: np.ndarray, window: int,
               band) -> None:
    """Correlate each source feature with a window of bilinear target samples
    and hand the scores to ``band`` band by band; returns None.

    Score j * window + i of pixel (x, y) is ``src[y, x] . sample(tgt,
    targets[y, x] + (i - r, j - r)) / sqrt(C)`` with r = (window - 1) // 2,
    sampled border-clamped as in ``bilinear_gather``. A bilinear sample's
    dot product is the same blend of the dot products taken at its two
    cells along each axis, so the kernel:

    * gives each pixel one regular window per axis: origin v = clip(floor(t)
      - r, -window, size - 1), and offset i blends cells v + i and v + i + 1
      of a target whose cells past the grid repeat its border row or column;
    * blends them with the fractions of ``bilinear_gather``'s taps, so that
      offsets that clamp to the same taps give exactly equal scores and the
      readout's first-index tie-break at the borders is kept. A low-clamped
      offset has fraction 0 and a high-clamped one fraction 1, and both read
      repeated border cells. Near integer targets, floor(t + dx) can step one
      cell past floor(t) + dx; the fraction there is exactly 0, so the
      offset takes fraction 1 on its regular cells, which reads the same dot;
    * keys every live pixel, one whose source row is not all zero, by the
      ``_CORR_BLOCK`` x ``_CORR_BLOCK`` block of target cells that holds its
      origin. A zero row (``-0.0`` counts as zero) scores +0.0 at every
      offset, so such a pixel joins no product and no band. A live pixel's
      window lies in the block's region, _CORR_BLOCK + window rows and as
      many columns, plus the few more that make the cell count a multiple
      of 8; the region is gathered with clipped indices, not from a padded
      copy of the target;
    * takes the dot products of the block's live pixels with every region
      cell in one BLAS product, ``S[pix] @ region.T``, into a band buffer of
      whole block parts (more than ``_CORR_PRODUCT_ROWS`` live pixels are
      split into near-equal products). Fewer live rows than min(the block's
      pixel count, ``_CORR_MIN_ROWS``) are padded with zero rows up to it;
    * per band of at most ``_CORR_PRODUCT_ROWS`` pixels, reads every pixel's
      (window + 1)^2 dots with one gather in (offset, pixel) layout, blends
      x over the window + 1 rows, then y from rows j and j + 1, scales the
      scores and calls ``band(pix, scores, score_at)`` while the band's dots
      are live. ``pix`` holds the band's raster pixel indices and ``scores``
      their contiguous (n, window^2) rows; ``score_at(cand)`` scores each
      pixel against the sample at its (n, 2) position ``cand`` from four of
      the same dots, for positions whose taps lie in the pixel's window
      cells v .. v + window on each axis (``_window_cell``).

    No volume is built here: a caller that needs the (H * W, window^2)
    scores writes them from its bands into rows that start at +0.0, the
    scores of a zero row.

    Blending after the channel sum instead of before it, and BLAS's order
    of the channel sum, move scores by a few ulps: they agree with the
    per-offset gather to ``CORR_ATOL`` = 1e-13 (``tests/test_kernels.py``).
    The bits may change with ``_CORR_BLOCK`` (going from 16 to 8 moved
    scores by ulps only, and no output file of the benchmark workloads), not
    with the BLAS thread count, the product split or which other pixels are
    live. With a column count that is a multiple of 8, OpenBLAS 0.3.31 gives
    a product entry the same bits however it splits the rows, as long as
    each product has more than about 1200 entries (rows x columns). At 32 or
    more channels a smaller product rounds its own way (at 8 to 24 channels
    only a one-row product does), so without the padding a pixel's last bit
    would depend on how many live pixels share its block; with it, each
    product has the rows of the all-pixel product or at least 16 x 144
    entries (measured at 1 and 2 threads).
    """
    src, tgt, targets, window = _f64(src), _f64(tgt), _f64(targets), int(window)
    h, w, c = src.shape
    th, tw = tgt.shape[:2]
    block, rows = _CORR_BLOCK, _CORR_PRODUCT_ROWS
    r = (window - 1) // 2
    side = block + window
    width = side
    while side * width % 8:
        width += 1
    cells = side * width
    offsets = np.arange(-r, r + 1, dtype=np.float64)[:, None]
    regular = np.arange(window)[:, None] - window  # q + regular[i] = v + i
    corner = np.arange(window + 1)
    corner = (corner[:, None] * width + corner)[:, :, None]
    inv = 1.0 / np.sqrt(c)
    s = src.reshape(h * w, c)
    t = targets.reshape(h * w, 2)
    # q = v + window >= 0 per axis, v each pixel's window origin; the live
    # pixels (a non-zero source row) sorted by the block of target cells
    # that holds it
    qx = _window_origin(t[:, 0], tw, r)
    qy = _window_origin(t[:, 1], th, r)
    nbx = (tw - 1 + window) // block + 1
    key = qy // block * nbx + qx // block
    pixels = np.bincount(key)  # per block, live or not
    live = np.flatnonzero(s.any(axis=1))
    order = live[np.argsort(key[live], kind="stable")]
    if not order.size:
        return
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], key.size]
    pad = np.minimum(pixels[key[starts]], _CORR_MIN_ROWS).tolist()
    by, bx = np.divmod(key[starts], nbx)
    del key
    qx = qx[order]
    qy = qy[order]

    # each block's region: its cells, clipped into the target grid
    ry = np.clip(by[:, None] * block - window + np.arange(side), 0, th - 1) * tw
    rx = np.clip(bx[:, None] * block - window + np.arange(width), 0, tw - 1)
    tcells = tgt.reshape(th * tw, c)
    # spare rows take the zero rows that pad a block's product
    dots = np.empty((min(rows, order.size) + _CORR_MIN_ROWS - 1, cells))

    def blend(lo, hi):
        # dots[: hi - lo] holds the products of sorted pixels lo..hi
        pix = order[lo:hi]
        n = hi - lo
        x0, _, fx = _axis_taps(t[pix, 0] + offsets, tw)
        y0, _, fy = _axis_taps(t[pix, 1] + offsets, th)
        # a tap one cell past its regular cell has fraction 0: read the same
        # dot as fraction 1 on the regular cell
        fx[x0 > qx[lo:hi] + regular] = 1.0
        fy[y0 > qy[lo:hi] + regular] = 1.0
        # each pixel's (window + 1)^2 dots, (row, column, pixel); blend x,
        # then y, in the order of the per-offset blend
        base = np.arange(n) * cells + qy[lo:hi] % block * width + qx[lo:hi] % block
        win = np.take(dots, corner + base)
        row = win[:, :-1] * (1.0 - fx)
        win[:, 1:] *= fx
        row += win[:, 1:]
        vol = row[:-1] * (1.0 - fy[:, None])
        row[1:] *= fy[:, None]
        vol += row[1:]
        vol *= inv

        def score_at(cand):
            # the same blend of one sample's four dots
            kx, fx = _window_cell(cand[:, 0], tw, qx[lo:hi] - window, window)
            ky, fy = _window_cell(cand[:, 1], th, qy[lo:hi] - window, window)
            at = base + ky * width + kx
            top = np.take(dots, at) * (1.0 - fx)
            top += np.take(dots, at + 1) * fx
            bot = np.take(dots, at + width) * (1.0 - fx)
            bot += np.take(dots, at + width + 1) * fx
            top *= 1.0 - fy
            bot *= fy
            top += bot
            top *= inv
            return top

        band(pix, np.ascontiguousarray(vol.transpose(2, 0, 1)).reshape(n, -1), score_at)

    band_lo = 0
    for b, (lo, hi) in enumerate(zip(starts, ends)):
        region = tcells[(ry[b, :, None] + rx[b]).ravel()]
        parts = -(-(hi - lo) // rows)
        size, extra = divmod(hi - lo, parts)
        for p in range(parts):
            p_lo = lo + p * size + min(p, extra)
            p_hi = p_lo + size + (p < extra)
            if p_hi - band_lo > rows:
                blend(band_lo, p_lo)
                band_lo = p_lo
            a = s[order[p_lo:p_hi]]
            if len(a) < pad[b]:
                a = np.concatenate([a, np.zeros((pad[b] - len(a), c))])
            np.matmul(a, region.T, out=dots[p_lo - band_lo:p_lo - band_lo + len(a)])
    blend(band_lo, order.size)


def _window_cell(p: np.ndarray, size: int, v: np.ndarray, window: int):
    """Where ``_axis_taps``' blend of positions p reads a window of cells v ..
    v + window: (k, frac) such that cells v + k and v + k + 1, clipped into
    the grid, blended with frac give the clamped sample.

    k is the lower tap's place in the window. A tap one cell past the last
    regular cell, k = window, only comes with fraction 0 (an integer
    position stepped past by rounding, or a position clamped to cell 0 of a
    window clipped to origin -window), so it reads as fraction 1 on cell
    window - 1; a tap below the window, k < 0, only comes with fraction 1
    (a position clamped to the last cell of a window clipped to origin
    size - 1), whose cells all repeat the last one.
    """
    i0, _, frac = _axis_taps(p, size)
    k = i0 - v
    frac[k >= window] = 1.0
    return np.clip(k, 0, window - 1), frac


def _window_origin(p: np.ndarray, size: int, r: int) -> np.ndarray:
    """clip(floor(p) - r, -window, size - 1) + window, window = 2r + 1, per position."""
    return np.floor(np.clip(p, -r - 1.0, size - 1.0 + r)).astype(np.int64) + (r + 1)


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

def nms_greedy(scores: np.ndarray, radius: int, max_keypoints: int = 0) -> np.ndarray:
    """Greedy NMS on a score map. Returns selected (y, x) pixels, score
    order, at most ``max_keypoints`` of them (0 means no cap)."""
    scores = _f64(scores)
    radius = int(radius)
    cap = max_keypoints if max_keypoints > 0 else scores.size + 1
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
# small same-size convolutions (zero padding)
# ---------------------------------------------------------------------------

def _shift_add(inp: np.ndarray, weights: np.ndarray, bias: np.ndarray, tap) -> np.ndarray:
    """Same-size k x k convolution, zero padding, as a sum over the taps.

    The output starts at ``bias``; tap (i, j) adds ``tap(padded[i:i + h, j:j
    + w], weights[i, j])``, with ``padded`` the input zero-padded by (k - 1)
    // 2 cells on each side. Scratch is the padded input and one output-sized
    term, never a k^2-expanded copy of the input.
    """
    inp, weights, bias = _f64(inp), _f64(weights), _f64(bias)
    k = weights.shape[0]
    r = (k - 1) // 2
    h, w, c = inp.shape
    padded = np.zeros((h + 2 * r, w + 2 * r, c), dtype=np.float64)
    padded[r:r + h, r:r + w] = inp
    out = np.full((h, w, bias.shape[0]), bias)
    term = np.empty_like(out)
    for i in range(k):
        for j in range(k):
            tap(padded[i:i + h, j:j + w], weights[i, j], out=term)
            out += term
    return out


def conv2d(inp: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-size k x k convolution, zero padding. weights: (k, k, Cin, Cout)."""
    return _shift_add(inp, weights, bias, np.matmul)


def depthwise_conv2d(inp: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-size depthwise k x k convolution, zero padding. weights: (k, k, C)."""
    return _shift_add(inp, weights, bias, np.multiply)
