"""Track-guided feature exchange: sampling, view-axis propagation, splatting.

Grid features are gathered onto sparse track positions with biased
cross-attention, propagated along each track across views with a masked,
view-order-invariant transformer, and scattered back onto the grids as a
residual. All parameters live in an explicit, inspectable dataclass; there
is no training here, the module's contract is the math.

Sampling and splatting score each query against a window of columns, not
the whole row; this is 2-D neighbourhood attention with a certified window.
Sampling bins the tracks by ``_TILE`` x ``_TILE``-cell tile and scores each
tile's tracks against the cells within R of their extent; splatting scores
each tile of cells against the visible tracks near it. By Cauchy-Schwarz a
row's q.k/sqrt(D) terms spread by at most Delta = 2 |q| max|k| / sqrt(D), so
a column at distance r from the query scores at most
Delta + (d_near^2 - r^2) / 2 sigma^2 below the row's maximum, where d_near
bounds the distance to the query's nearest column. The windows keep every
column that could score above ln(``WINDOW_TAIL`` / n) for a row of n
columns, so the columns left out weigh at most ``WINDOW_TAIL`` = 1e-17 of
the row's largest weight all together, and the outputs agree with the
dense formulation to a few ulps. ``_attend`` pads each window with zero
keys of weight 0 to a multiple of 8 columns, which keeps the products' bits
independent of BLAS's thread count.

Masking follows a fixed recipe: a -1e9 additive constant on masked logits,
then a post-softmax re-zero of the masked columns (and renormalization) so
masked entries contribute exactly zero weight. The exchange samples each
view at its visible tracks only, and splatting leaves invisible tracks out
of its windows, which gives them the same exact zero weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import FeatureGrid
from .tracks import Tracks

MASK_LOGIT = -1e9
# A max-shifted logit below this has a subnormal (or zero) exp; see _softmax_.
EXP_FLOOR = float(np.log(np.finfo(np.float64).tiny))
# Most total weight, relative to a row's largest, that a window leaves out.
WINDOW_TAIL = 1e-17
# Side, in grid cells, of the tiles that key the exchange's windows.
_TILE = 8
# The output projection's init std relative to the other weights'.
OUT_INIT_SCALE = 0.1


@dataclass(frozen=True)
class AttentionParams:
    """Weights for the exchange kernel plus the spatial-bias scale sigma.

    The coordinate MLP is two layers (2 -> D -> D) with max(0, .) between
    them; keys/values/outputs are D x D projections; sigma is in pixels of
    the grid the kernel runs on.
    """

    dim: int
    w1: np.ndarray   # (2, D)
    b1: np.ndarray   # (D,)
    w2: np.ndarray   # (D, D)
    b2: np.ndarray   # (D,)
    wk: np.ndarray   # (D, D)
    wv: np.ndarray   # (D, D)
    wout: np.ndarray  # (D, D)
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        for name in ("w1", "b1", "w2", "b2", "wk", "wv", "wout"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        d = self.dim
        shapes = {"w1": (2, d), "b1": (d,), "w2": (d, d), "b2": (d,),
                  "wk": (d, d), "wv": (d, d), "wout": (d, d)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")


def init_attention_params(dim: int, sigma: float, seed: int) -> AttentionParams:
    """Seeded Gaussian initialization with std 1/sqrt(D).

    The output projection is drawn ``OUT_INIT_SCALE`` times smaller so the
    splat residual perturbs rather than overwrites the grid features, keeping
    the encoder exchange near-identity at initialization.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    s = 1.0 / np.sqrt(dim)
    return AttentionParams(
        dim=dim,
        w1=rng.normal(0, s, (2, dim)),
        b1=rng.normal(0, s, dim),
        w2=rng.normal(0, s, (dim, dim)),
        b2=rng.normal(0, s, dim),
        wk=rng.normal(0, s, (dim, dim)),
        wv=rng.normal(0, s, (dim, dim)),
        wout=rng.normal(0, s * OUT_INIT_SCALE, (dim, dim)),
        sigma=float(sigma),
    )


@dataclass(frozen=True)
class TrackFeatures:
    """Per-view, per-track feature vectors with the tracks' visibility mask."""

    values: np.ndarray      # (V, T, D)
    visibility: np.ndarray  # (T, V) bool

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        vis = np.ascontiguousarray(self.visibility, dtype=bool)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "visibility", vis)
        if values.ndim != 3:
            raise ValueError("values must be (V, T, D)")
        if vis.shape != (values.shape[1], values.shape[0]):
            raise ValueError("visibility must be (T, V)")


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax with exact-zero weights on masked columns.

    ``mask`` is True where an entry participates. Masked logits get -1e9
    added, and after the softmax the masked entries are re-zeroed and each
    row renormalized, so rows sum to 1 over the unmasked entries exactly.
    Fully-masked rows come back as all zeros.
    """
    shifted = np.where(mask, logits, logits + MASK_LOGIT)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    expd = np.where(mask, expd, 0.0)
    denom = expd.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0, expd / np.where(denom > 0, denom, 1.0), 0.0)
    return out


def _softmax_(logits: np.ndarray) -> np.ndarray:
    """Unmasked softmax over the last axis, in place; returns the row sums.

    Subtracts each row's max, exponentiates and divides by the row sum, which
    is returned with ``keepdims``; the row's largest probability is
    ``1 / sum`` exactly, since the max term is ``exp(0) = 1``. Entries of
    -inf get weight 0.

    Shifted logits below ``EXP_FLOOR`` become -inf before the ``exp``, so
    their weights are exact zeros rather than subnormals, which run far
    slower through ``exp``, the sum and a later matrix product. The bits
    stay the same: the row sum is at least 1, so a term below
    ``finfo.tiny`` is under half an ulp of it and of the weighted sums it
    enters, short of a rounding tie broken below 2**-1022.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    np.copyto(logits, -np.inf, where=logits < EXP_FLOOR)
    np.exp(logits, out=logits)
    sums = logits.sum(axis=-1, keepdims=True)
    logits /= sums
    return sums


def _row_blocks(n: int, size: int):
    """Slices of ``size`` rows covering ``range(n)``; the last one absorbs a short tail.

    A row-wise softmax treats every row alone, so blocking its rows bounds
    the memory of its logits by the largest block. No block is short, so
    none falls under BLAS's small-matrix threshold, where a product can
    round differently from its neighbours.
    """
    lo = 0
    while True:
        hi = n if n - lo < 2 * size else lo + size
        yield slice(lo, hi)
        if hi == n:
            return
        lo = hi


def _normalized(coords: np.ndarray, grid_hw: tuple[int, int]) -> np.ndarray:
    h, w = grid_hw
    return coords / np.array([max(w - 1, 1), max(h - 1, 1)], dtype=np.float64)


def coordinate_queries(params: AttentionParams, coords: np.ndarray,
                       grid_hw: tuple[int, int]) -> np.ndarray:
    """Coordinate MLP: positions normalized to [0, 1], two layers, ReLU between."""
    x = _normalized(np.asarray(coords, dtype=np.float64), grid_hw)
    hidden = np.maximum(x @ params.w1 + params.b1, 0.0)
    return hidden @ params.w2 + params.b2


def grid_token_centers(height: int, width: int) -> np.ndarray:
    """(HW, 2) centers of the grid tokens in pixel units, raster order."""
    ys, xs = np.mgrid[0:height, 0:width]
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)


def spatial_bias(track_coords: np.ndarray, grid_size: tuple[int, int],
                 sigma: float, origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Locality bias: -(squared distance to each grid-token center) / (2 sigma^2).

    Returns (T, h w) in raster order over the window of ``grid_size`` =
    (h, w) cells whose first cell is ``origin`` = (y, x), by default a whole
    grid. The squared distance is built from separable per-column dx^2 and
    per-row dy^2 terms, which is the same sum as over the (T, h w, 2)
    coordinate differences without that temporary, and is scaled in place.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    (h, w), (oy, ox) = grid_size, origin
    coords = np.atleast_2d(np.asarray(track_coords, dtype=np.float64))
    dx2 = (coords[:, 0, None] - np.arange(ox, ox + w, dtype=np.float64)) ** 2  # (T, w)
    dy2 = (coords[:, 1, None] - np.arange(oy, oy + h, dtype=np.float64)) ** 2  # (T, h)
    d2 = (dx2[:, None, :] + dy2[:, :, None]).reshape(-1, h * w)
    # x / -c is -(x / c) bit for bit
    d2 /= -2.0 * sigma * sigma
    return d2


def _row_spread(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per query, a bound on the spread of its q.k / sqrt(D) terms over all
    keys: 2 |q| max|k| / sqrt(D), by Cauchy-Schwarz."""
    kmax = np.sqrt(np.max(np.einsum("ij,ij->i", keys, keys)))
    qnorm = np.sqrt(np.einsum("...j,...j->...", queries, queries))
    return 2.0 * qnorm * kmax / np.sqrt(keys.shape[1])


def _margin2(spread, columns: int, sigma: float):
    """Squared distance, past the nearest column's squared distance, beyond
    which a column of a row of ``columns`` with this spread has a max-shifted
    logit below ln(WINDOW_TAIL / columns)."""
    return 2.0 * sigma * sigma * (spread + np.log(columns) - np.log(WINDOW_TAIL))


def _sampling_windows(coords: np.ndarray, grid_size: tuple[int, int],
                      sigma: float, spread: np.ndarray):
    """Bin the tracks by tile and give each bin its window of cells.

    Yields (tracks, rows, cols): one tile's track indices and the row and
    column slices of the cells they are scored against. A track is binned by
    its nearest cell, at d_near from it, and needs every cell within R of
    it, R^2 = d_near^2 + ``_margin2`` over all h w cells; the window is the
    bin's extent grown by its largest R, within the grid.
    """
    h, w = grid_size
    if not len(coords):
        return
    near = np.clip(np.rint(coords), 0, [w - 1, h - 1])
    reach = np.sqrt(np.einsum("ij,ij->i", coords - near, coords - near)
                    + _margin2(spread, h * w, sigma))[:, None]
    tile = near.astype(np.int64) // _TILE
    key = tile[:, 1] * -(-w // _TILE) + tile[:, 0]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.concatenate([[0], np.flatnonzero(key[1:] != key[:-1]) + 1])
    lo = np.minimum.reduceat(coords[order] - reach[order], starts)
    hi = np.maximum.reduceat(coords[order] + reach[order], starts)
    lo = np.maximum(np.ceil(lo), 0).astype(np.int64)
    hi = np.minimum(np.floor(hi) + 1, [w, h]).astype(np.int64)
    for tracks, (x0, y0), (x1, y1) in zip(np.split(order, starts[1:]), lo, hi):
        yield tracks, slice(y0, y1), slice(x0, x1)


def _splatting_windows(coords: np.ndarray, grid_size: tuple[int, int],
                       sigma: float, spread: np.ndarray):
    """Give each tile of cells the tracks it is scored against.

    Yields (rows, cols, tracks): a tile's row and column slices and its
    track indices, ascending. dn, the smallest distance from a track to the
    tile's farthest cell, bounds every cell's distance to its nearest track;
    a track at distance D from the tile is kept when
    D^2 <= dn^2 + ``_margin2`` over all T tracks, with the tile's largest
    cell spread.
    """
    h, w = grid_size
    y0 = np.arange(0, h, _TILE)
    x0 = np.arange(0, w, _TILE)

    def axis_d2(p, lo, size):
        # squared distances from each tile's span on one axis to each track:
        # to its nearest cell, and to its farthest
        below = lo[:, None] - p
        above = p - (np.minimum(lo + _TILE, size) - 1)[:, None]
        return np.maximum(np.maximum(below, above), 0.0) ** 2, np.maximum(-below, -above) ** 2

    near_y, far_y = axis_d2(coords[:, 1], y0, h)
    near_x, far_x = axis_d2(coords[:, 0], x0, w)
    d2 = near_y[:, None] + near_x[None]             # (tiles down, across, T)
    dn2 = (far_y[:, None] + far_x[None]).min(axis=-1)
    tile_spread = np.maximum.reduceat(np.maximum.reduceat(spread, y0, axis=0), x0, axis=1)
    kept = d2 <= (dn2 + _margin2(tile_spread, coords.shape[0], sigma))[..., None]
    for i, j in np.ndindex(kept.shape[:2]):
        yield (slice(y0[i], y0[i] + _TILE), slice(x0[j], x0[j] + _TILE),
               np.flatnonzero(kept[i, j]))


def _attend(queries: np.ndarray, keys: np.ndarray, values: np.ndarray,
            bias: np.ndarray) -> np.ndarray:
    """softmax(queries keys^T / sqrt(D) + bias) values over one window.

    Where the window's key count is not a multiple of 8, zero keys with -inf
    logits (weight 0) pad it to one.
    """
    n, d = keys.shape
    if n % 8:
        pad = np.zeros((-n % 8, d))
        keys, values = np.concatenate([keys, pad]), np.concatenate([values, pad])
    logits = queries @ keys.T
    logits /= np.sqrt(d)
    logits[:, :n] += bias
    logits[:, n:] = -np.inf
    _softmax_(logits)
    return logits @ values


def attentional_sampling(grid: FeatureGrid, track_coords: np.ndarray,
                         params: AttentionParams) -> np.ndarray:
    """Gather grid features onto track positions via biased cross-attention.

    Queries come from the coordinate MLP, keys and values are the flattened
    grid features (run through the key/value projections), and the spatial
    bias is added to the logits before the softmax. Each tile's tracks are
    scored against their window of cells (``_sampling_windows``). Returns
    (T, D).
    """
    if grid.channels != params.dim:
        raise ValueError(f"grid has {grid.channels} channels, params expect {params.dim}")
    hw = (grid.height, grid.width)
    d = params.dim
    coords = np.atleast_2d(np.asarray(track_coords, dtype=np.float64))
    feats = grid.data.reshape(-1, d)
    queries = coordinate_queries(params, coords, hw)
    keys = feats @ params.wk
    values = (feats @ params.wv).reshape(grid.data.shape)
    spread = _row_spread(queries, keys)
    keys = keys.reshape(grid.data.shape)
    out = np.empty((coords.shape[0], d))
    for tracks, rows, cols in _sampling_windows(coords, hw, params.sigma, spread):
        window = keys[rows, cols]
        bias = spatial_bias(coords[tracks], window.shape[:2], params.sigma,
                            origin=(rows.start, cols.start))
        out[tracks] = _attend(queries[tracks], window.reshape(-1, d),
                              values[rows, cols].reshape(-1, d), bias)
    return out


def track_transformer(feats: TrackFeatures, params: AttentionParams) -> TrackFeatures:
    """Per-track self-attention along the view axis, visibility-masked.

    No view-index embeddings are used, so permuting the target views permutes
    the outputs identically. Invisible slots neither contribute keys/values
    nor receive outputs (they are exactly zero afterwards). One layer, one
    head, no feedforward; residual connection around the attention.
    """
    v, t, d = feats.values.shape
    if d != params.dim:
        raise ValueError("feature dim does not match params")
    vis_tv = feats.visibility
    if not vis_tv.any(axis=1).all():
        raise ValueError("every track must be visible in at least one view")
    z = np.where(vis_tv.T[:, :, None], feats.values, 0.0)  # scrub invisible slots
    zt = z.transpose(1, 0, 2)                  # (T, V, D)
    k = zt @ params.wk                         # the queries use the key projection
    val = zt @ params.wv
    # a copy, not k itself: matmul routes k @ k.T to BLAS syrk, which rounds
    # differently from the general product
    logits = k @ k.copy().transpose(0, 2, 1) / np.sqrt(d)   # (T, V, V)
    mask = np.broadcast_to(vis_tv[:, None, :], logits.shape)
    attn = masked_softmax(logits, mask)
    out = zt + (attn @ val) @ params.wout
    out = np.where(vis_tv[:, :, None], out, 0.0)
    return TrackFeatures(out.transpose(1, 0, 2), vis_tv.copy())


def attentional_splatting(grid: FeatureGrid, track_feats: np.ndarray,
                          track_coords: np.ndarray, visibility: np.ndarray,
                          params: AttentionParams) -> FeatureGrid:
    """Scatter track features back onto the grid as a residual update.

    Grid-token centers drive the queries through the same coordinate MLP,
    keys/values come from the track features, and the spatial bias enters
    transposed relative to sampling. Invisible tracks take no part, which
    gives them weight 0 as the post-softmax re-zero of ``masked_softmax``
    does. With no visible track the grid is returned unchanged. Each tile of
    cells is scored against its visible tracks (``_splatting_windows``).
    """
    if grid.channels != params.dim:
        raise ValueError(f"grid has {grid.channels} channels, params expect {params.dim}")
    visibility = np.asarray(visibility, dtype=bool)
    if not visibility.any():
        return grid
    hw = (grid.height, grid.width)
    d = params.dim
    coords = np.asarray(track_coords, dtype=np.float64)[visibility]
    feats = np.asarray(track_feats, dtype=np.float64)[visibility]
    queries = coordinate_queries(params, grid_token_centers(*hw), hw)
    keys = feats @ params.wk
    values = feats @ params.wv
    spread = _row_spread(queries, keys).reshape(hw)
    queries = queries.reshape(grid.data.shape)
    mixed = np.empty(grid.data.shape)
    for rows, cols, tracks in _splatting_windows(coords, hw, params.sigma, spread):
        tile = queries[rows, cols]
        bias = spatial_bias(coords[tracks], tile.shape[:2], params.sigma,
                            origin=(rows.start, cols.start))
        mixed[rows, cols] = _attend(tile.reshape(-1, d), keys[tracks], values[tracks],
                                    bias.T).reshape(tile.shape)
    update = mixed.reshape(-1, d) @ params.wout
    return FeatureGrid(grid.data + update.reshape(grid.data.shape), stride=grid.stride)


def exchange_features(grids: list[FeatureGrid], tracks: Tracks,
                      params: AttentionParams) -> list[FeatureGrid]:
    """Full sample -> propagate -> splat round trip over one group's views.

    ``grids[v]`` is view v's feature map (group view order: source first) and
    track coordinates are interpreted in base-image pixels, scaled here by
    each grid's stride. Each view samples only the tracks it sees; views
    where a track is invisible contribute zeros to the propagation and
    receive no splat from it.
    """
    if not len(tracks):
        return list(grids)
    vis = tracks.visibility  # (T, V)
    sampled = np.zeros((len(grids), len(tracks), params.dim))
    view_coords = []
    for view, grid in enumerate(grids):
        cv = tracks.coords[:, view, :] / grid.stride
        seen = vis[:, view]
        sampled[view, seen] = attentional_sampling(grid, cv[seen], params)
        view_coords.append(cv)
    propagated = track_transformer(TrackFeatures(sampled, vis), params)
    return [attentional_splatting(grid, propagated.values[view], view_coords[view],
                                  vis[:, view], params)
            for view, grid in enumerate(grids)]
