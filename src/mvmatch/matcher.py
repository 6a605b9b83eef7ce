"""Coarse-to-fine multi-view matcher.

Coarse warps come from global matching by regression-by-classification:
every source token scores all anchor positions in the target, and the
coordinate is the probability-weighted mean of the anchor centers. Warps are
then refined through a stride pyramid; each level upsamples the previous
warp, scores a window around it per target (a local correlation read band
by band, kept as a volume only for the hidden path below) and applies a
residual update to the warp and its confidence.

The residual head has two parts: a non-parametric soft-argmax readout of the
correlation window, which does the actual refining, and a seeded
convolutional head whose output gain (``residual_gain``) is zero-initialized
(standard practice for residual refiners). The head reads a hidden state:
the source features, the target features sampled at the warp and the
correlation run through a small convolutional stack, fused across views
(MVFuse) at levels with MVFuse weights. That hidden path is built only when
``residual_gain`` is non-zero, since at zero gain it cannot reach the warp,
and each target's state is built in the same pass as its correlation, so
every feature grid is read once per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .attention import AttentionParams, _softmax_, exchange_features, init_attention_params
from .config import PipelineConfig
from .features import FeatureProvider
from .grids import (DenseWarpField, FeatureGrid, local_correlation, upsample_warp,
                    warp_features)
from .grouping import ImageGroup
from .tracks import Tracks

DEFAULT_WINDOWS = {8: 9, 4: 9, 2: 7, 1: 5}
# Source rows per block of global_match logits: a (128, 7056) block is 7 MB,
# small enough to stay in cache through the softmax passes (64 to 512 rows
# timed within noise of each other on 2 CPUs; fewer rows hold less memory).
_GLOBAL_BLOCK_ROWS = 128
SUBPIXEL_LEVELS = (1,)    # levels with parabolic sub-cell fit
CORR_GATE_MARGIN = 0.03   # cosine lead a move needs over staying put
VERIFY_MARGIN = 0.01      # cosine improvement a move must verify to
CONF_BLEND = 0.5          # pull of confidence toward corr sharpness


@dataclass(frozen=True)
class AnchorGrid:
    """Anchor centers tiling the target image uniformly, in target pixel units."""

    centers: np.ndarray           # (Ha * Wa, 2), raster order

    @classmethod
    def uniform(cls, ha: int, wa: int, grid_hw: tuple[int, int]) -> "AnchorGrid":
        h, w = grid_hw
        xs = (np.arange(wa) + 0.5) * (w / wa) - 0.5
        ys = (np.arange(ha) + 0.5) * (h / ha) - 0.5
        gy, gx = np.meshgrid(ys, xs, indexing="ij")
        return cls(np.stack([gx.ravel(), gy.ravel()], axis=1))


@dataclass(frozen=True)
class ConvStack:
    """Two 3x3 convolutions with a ReLU between (the per-level f_i)."""

    w1: np.ndarray  # (3, 3, Cin, Ch)
    b1: np.ndarray
    w2: np.ndarray  # (3, 3, Ch, Ch)
    b2: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        h = np.maximum(kernels.conv2d(x, self.w1, self.b1), 0.0)
        return kernels.conv2d(h, self.w2, self.b2)


@dataclass(frozen=True)
class MVFuseParams:
    """Per-pixel cross-view attention plus a ConvNeXt-style mixing block."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    dw: np.ndarray   # (7, 7, D) depthwise
    dwb: np.ndarray
    pw1: np.ndarray  # (D, Dff)
    pb1: np.ndarray
    pw2: np.ndarray  # (Dff, D)
    pb2: np.ndarray


@dataclass(frozen=True)
class LevelParams:
    stride: int
    window: int
    hidden: ConvStack
    head_w: np.ndarray  # (3, 3, Ch, 3): (dx, dy, dconf) conv head
    head_b: np.ndarray
    mvfuse: MVFuseParams | None


@dataclass(frozen=True)
class MatcherParams:
    """Matcher weights and settings. ``levels`` is the only record of the
    pyramid: each level holds its stride, window and weights (whose shapes
    give the dimensions), and MVFuse weights exactly when it fuses."""

    levels: dict[int, LevelParams]          # keyed by level index (1 = finest)
    encoder: AttentionParams
    mvfuse_iters: int
    global_temperature: float               # cosine units for global matching
    softargmax_temperature: float           # cosine units for the confidence readout
    residual_gain: float                    # conv-head output scale (zero-initialized)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level_stride(self, level: int) -> int:
        return self.levels[min(level, self.num_levels)].stride


def init_matcher_params(config: PipelineConfig | None = None, seed: int = 0) -> MatcherParams:
    """Seeded parameter set for ``config`` (the shipped ``PipelineConfig()``
    when None); conv stacks Gaussian, attention per the encoder."""
    cfg = PipelineConfig() if config is None else config
    rng = np.random.Generator(np.random.PCG64(seed))
    levels: dict[int, LevelParams] = {}

    def conv_init(k, cin, cout):
        std = 1.0 / np.sqrt(k * k * cin)
        return rng.normal(0.0, std, (k, k, cin, cout)), np.zeros(cout)

    for level, stride in zip(range(len(cfg.strides), 0, -1), cfg.strides):
        window = DEFAULT_WINDOWS.get(stride, 5)
        cin = 2 * cfg.feature_dim + window * window
        w1, b1 = conv_init(3, cin, cfg.hidden_dim)
        w2, b2 = conv_init(3, cfg.hidden_dim, cfg.hidden_dim)
        head_w, head_b = conv_init(3, cfg.hidden_dim, 3)
        fuse = None
        if level in cfg.mvfuse_levels:
            d = cfg.hidden_dim
            dff = 2 * d
            std = 1.0 / np.sqrt(d)
            fuse = MVFuseParams(
                wq=rng.normal(0, std, (d, d)), wk=rng.normal(0, std, (d, d)),
                wv=rng.normal(0, std, (d, d)), wo=rng.normal(0, std, (d, d)),
                dw=rng.normal(0, 1.0 / 7.0, (7, 7, d)), dwb=np.zeros(d),
                pw1=rng.normal(0, std, (d, dff)), pb1=np.zeros(dff),
                pw2=rng.normal(0, 1.0 / np.sqrt(dff), (dff, d)) * 0.1, pb2=np.zeros(d),
            )
        levels[level] = LevelParams(stride, window, ConvStack(w1, b1, w2, b2),
                                    head_w, head_b, fuse)
    encoder = init_attention_params(cfg.feature_dim, sigma=cfg.sigma, seed=seed + 1)
    return MatcherParams(levels=levels, encoder=encoder,
                         mvfuse_iters=cfg.mvfuse_iters,
                         global_temperature=cfg.global_temperature,
                         softargmax_temperature=cfg.softargmax_temperature,
                         residual_gain=cfg.residual_gain)


@dataclass
class RefinerState:
    """Warps and confidences per target at one pyramid level.

    ``level`` runs from num_levels + 1 (the raw coarse estimate) down to 1;
    level i holds warps at stride 2^(i-1) for the default pyramid.
    """

    level: int
    warps: dict[int, DenseWarpField]


def global_match(src_feat: FeatureGrid, tgt_feat: FeatureGrid, anchors: AnchorGrid,
                 temperature: float, source_view: int = 0,
                 target_view: int = 1) -> DenseWarpField:
    """Regression-by-classification over the anchor grid.

    Each source token scores all anchors (scaled inner products, softmax); the
    coarse coordinate is the probability-weighted mean of anchor centers and
    the confidence is the winning anchor's probability, read as 1 / row sum
    (the max term is ``exp(0) = 1``).

    The keys are scaled once, and source rows run in cache-sized blocks of
    ``_GLOBAL_BLOCK_ROWS`` through one reused buffer: the logits product,
    the row max, its subtraction, the ``exp``, the row sum and one
    matrix-vector product per coordinate axis. Weights are never normalized;
    the weighted sums are divided by the row sums once, after the loop, as in
    FlashAttention. The anchors are padded with zero keys to a multiple of 8
    columns, and the pad columns are set to -inf, so they take weight 0.
    Outputs agree with the full-matrix softmax to about 1e-11 px, not bit for
    bit. Their bits do not depend on the BLAS thread count: OpenBLAS rounds a
    product with a ragged column count, or a (rows, N) @ (N, 2) product,
    differently under another thread count, but not the padded product or a
    matrix-vector product.
    """
    if src_feat.channels != tgt_feat.channels:
        raise ValueError("source/target channel mismatch")
    d = src_feat.channels
    n = anchors.centers.shape[0]
    cols = -(-n // 8) * 8
    keys = np.zeros((cols, d))
    keys[:n] = kernels.bilinear_gather(tgt_feat.data, anchors.centers[:, 0],
                                       anchors.centers[:, 1])
    keys /= np.sqrt(d) * temperature
    cx, cy = np.zeros((2, cols))
    cx[:n], cy[:n] = anchors.centers.T
    src = src_feat.data.reshape(-1, d)
    x, y, sums = np.empty((3, src.shape[0]))
    blocks = list(kernels.row_blocks(src.shape[0], _GLOBAL_BLOCK_ROWS))
    buf = np.empty((max(b.stop - b.start for b in blocks), cols))
    for rows in blocks:
        e = np.matmul(src[rows], keys.T, out=buf[:rows.stop - rows.start])
        e[:, n:] = -np.inf
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        e.sum(axis=1, out=sums[rows])
        np.dot(e, cx, out=x[rows])
        np.dot(e, cy, out=y[rows])
    h, w = src_feat.height, src_feat.width
    coords = np.stack([x / sums, y / sums], axis=-1)
    return DenseWarpField(coords.reshape(h, w, 2), (1.0 / sums).reshape(h, w),
                          source_view, target_view)


def mvfuse(hidden: list[FeatureGrid], params: MVFuseParams, iterations: int) -> list[FeatureGrid]:
    """Pixel-aligned multi-view fusion.

    Each iteration first lets every pixel attend across the V view slots at
    that pixel (the attended value minus the slot's own value, through the
    output projection, enters as a residual, so a lone view passes through
    the attention unchanged) and then mixes spatially within each view with
    a depthwise 7x7 convolution and a two-layer channel MLP, residual.
    """
    shapes = {(g.height, g.width) for g in hidden}
    if len(shapes) != 1:
        raise ValueError("all hidden grids must share a spatial size")
    stack = np.stack([g.data for g in hidden])  # (V, H, W, D)
    d = stack.shape[-1]
    for _ in range(iterations):
        q = stack @ params.wq
        k = stack @ params.wk
        v = stack @ params.wv
        logits = np.einsum("vhwd,uhwd->hwvu", q, k, optimize=True) / np.sqrt(d)
        _softmax_(logits)
        fused = np.einsum("hwvu,uhwd->vhwd", logits, v, optimize=True)
        stack = stack + (fused - v) @ params.wo
        mixed = np.empty_like(stack)
        for view in range(stack.shape[0]):
            t = kernels.depthwise_conv2d(stack[view], params.dw, params.dwb)
            t = np.maximum(t @ params.pw1 + params.pb1, 0.0)
            mixed[view] = t @ params.pw2 + params.pb2
        stack = stack + mixed
    return [FeatureGrid(stack[i], stride=hidden[i].stride) for i in range(len(hidden))]


def _corr_readout(scores: np.ndarray, window: int, channels: int, temperature: float,
                  subpixel: bool):
    """Residual warp update read off each pixel's flat (window * window) score row.

    The integer part moves to the row argmax only when it beats the centre
    cell by ``CORR_GATE_MARGIN`` (cosine units); ties and small leads keep the
    current estimate, so a correct warp is a fixed point and, with similarity
    decreasing in distance, the update never moves away from the truth. When
    ``subpixel`` is set, a parabolic fit through the chosen cell and its
    clamped axis neighbours adds a sub-cell correction. Returns the (n, 2)
    moves, the softmax peaks (sharpness) and the centre scores.
    """
    r = (window - 1) // 2
    mid = window * r + r
    centre = np.take(scores, mid, axis=1)
    amax = scores.argmax(axis=1)
    best = np.take_along_axis(scores, amax[:, None], 1)[:, 0]
    keep = centre >= best - CORR_GATE_MARGIN / np.sqrt(channels)
    amax = np.where(keep, mid, amax)
    jj, ii = np.divmod(amax, window)
    delta = np.stack([ii - r, jj - r], axis=-1).astype(np.float64)
    if subpixel:
        # clamped neighbour columns along x, then y; one equal to the cell marks an edge
        lo = np.stack([amax - (ii > 0), amax - window * (jj > 0)], axis=1)
        hi = np.stack([amax + (ii < window - 1), amax + window * (jj < window - 1)], axis=1)
        interior = (lo != amax[:, None]) & (hi != amax[:, None])
        lo_s = np.take_along_axis(scores, lo, 1)
        hi_s = np.take_along_axis(scores, hi, 1)
        denom = lo_s - 2.0 * np.where(keep, centre, best)[:, None] + hi_s
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(np.abs(denom) > 1e-12, 0.5 * (lo_s - hi_s) / denom, 0.0)
        delta += np.where(interior, np.clip(d, -0.5, 0.5), 0.0)
    e = scores * (np.sqrt(channels) / temperature)
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    return delta, 1.0 / e.sum(axis=1), centre


def _verified(delta: np.ndarray, score: np.ndarray, centre: np.ndarray,
              channels: int) -> np.ndarray:
    """Verify-then-apply on (n, 2) rows: ``delta`` with each move zeroed
    unless ``score``, the correlation at ``targets + delta``, beats the
    window ``centre`` score by ``VERIFY_MARGIN`` (cosine units), so updates
    never regress."""
    improved = score > centre + VERIFY_MARGIN / np.sqrt(channels)
    return np.where(improved[:, None], delta, 0.0)


def _read_moves(phi_src: FeatureGrid, phi_tgt: FeatureGrid, warp: DenseWarpField,
                window: int, temperature: float, subpixel: bool, keep_volume: bool):
    """One target's (n, 2) moves and (n,) softmax peaks from one correlation pass.

    ``local_correlation`` hands over the scores band by band. Each band's
    rows go through the readout; when ``subpixel`` is set, each move is
    verified against the score at ``targets + delta``, blended from the
    band's own dot products (``score_at``). A whole-cell move needs no
    check: the gate kept it only with a lead of CORR_GATE_MARGIN over the
    centre, and the score at the moved cell is its window score to within
    1e-13, so it always clears the smaller VERIFY_MARGIN. The third result
    is the (n, window^2) volume when ``keep_volume`` is set, else None; it
    is the only correlation volume the library builds.

    The bands hold only the pixels whose source feature is non-zero, so
    every pixel starts from the readout of a zero row and the bands
    overwrite the rest.
    """
    n = warp.height * warp.width
    d = phi_src.channels
    targets = warp.targets.reshape(n, 2)
    # a zero row ties every offset, so the gate keeps the centre, no sub-cell
    # move verifies and the softmax is uniform
    delta = np.zeros((n, 2))
    peak = np.full(n, 1.0 / (window * window))
    volume = np.zeros((n, window * window)) if keep_volume else None

    def read(pix, scores, score_at):
        move, peak[pix], centre = _corr_readout(scores, window, d, temperature, subpixel)
        if subpixel:
            move = _verified(move, score_at(targets[pix] + move), centre, d)
        delta[pix] = move
        if volume is not None:
            volume[pix] = scores

    local_correlation(phi_src, phi_tgt, warp, window, read)
    return delta, peak, volume


def refine_level(state: RefinerState, provider: FeatureProvider,
                 params: MatcherParams) -> RefinerState:
    """One refinement step: state at level i+1 in, state at level i out.

    One pass per target view: upsample its warp to this level, correlate a
    window around it (``_read_moves``: per band of pixels the soft-argmax
    readout proposes a move, kept at sub-cell levels only where it verifies,
    scored from the band's own dot products), build the new warp (confidence
    clamped to [0, 1]) and release the target grid before the next one
    renders. At a non-zero ``residual_gain`` the pass also builds the
    target's hidden state (the level's conv stack over the source features,
    the target features sampled at the warp and the kept score volume);
    after the last pass the states are fused across views at MVFuse levels
    and the gained conv-head output is added to the finished warps. The
    source grid is released after the last pass.
    """
    if state.level <= 1:
        raise ValueError("state is already at the finest level")
    out_level = state.level - 1
    lp = params.levels[out_level]
    factor = params.level_stride(state.level) // lp.stride

    source_view = next(iter(state.warps.values())).source_view
    phi_src = provider.features(source_view, lp.stride)
    subpixel = out_level in SUBPIXEL_LEVELS
    gain = params.residual_gain
    h, w = phi_src.height, phi_src.width
    hiddens: dict[int, FeatureGrid] = {}
    warps: dict[int, DenseWarpField] = {}
    for tgt in sorted(state.warps):
        w_up = upsample_warp(state.warps[tgt], factor) if factor > 1 else state.warps[tgt]
        phi_tgt = provider.features(tgt, lp.stride)
        delta, peak, corr = _read_moves(phi_src, phi_tgt, w_up, lp.window,
                                        params.softargmax_temperature, subpixel, gain != 0.0)
        if corr is not None:
            hidden = lp.hidden.apply(np.concatenate(
                [phi_src.data, warp_features(phi_tgt, w_up).data, corr.reshape(h, w, -1)],
                axis=2))
            hiddens[tgt] = FeatureGrid(hidden, stride=lp.stride)
        del phi_tgt, corr  # the grid goes before the new warp takes memory
        provider.release(tgt, lp.stride)
        d_conf = CONF_BLEND * (peak.reshape(h, w) - w_up.confidence)
        warps[tgt] = DenseWarpField(w_up.targets + delta.reshape(h, w, 2),
                                    np.clip(w_up.confidence + d_conf, 0.0, 1.0),
                                    w_up.source_view, w_up.target_view)
        del w_up, delta, peak, d_conf  # only the new warp and the hidden state live on
    provider.release(source_view, lp.stride)

    if hiddens and lp.mvfuse is not None:
        hiddens = dict(zip(hiddens, mvfuse(list(hiddens.values()), lp.mvfuse,
                                           params.mvfuse_iters)))
    for tgt, hidden in hiddens.items():
        head = kernels.conv2d(hidden.data, lp.head_w, lp.head_b)
        warp = warps[tgt]
        warps[tgt] = DenseWarpField(warp.targets + gain * head[..., :2],
                                    np.clip(warp.confidence + gain * head[..., 2], 0.0, 1.0),
                                    warp.source_view, warp.target_view)
    return RefinerState(out_level, warps)


def run_group(group: ImageGroup, provider: FeatureProvider,
              tracks: Tracks, params: MatcherParams) -> dict[int, DenseWarpField]:
    """Full matcher over one image group: encoder exchange, global match, refine.

    Returns base-resolution warps keyed by target view id: when the finest
    level's stride is above 1, its warps are upsampled by that stride. Each
    refinement level reads every grid of its stride once and releases it
    once (``refine_level``); the coarse grids, which the exchange reads
    first, are released at the coarsest level.
    """
    if not group.targets:
        raise ValueError("group has no targets")
    coarse = params.level_stride(params.num_levels)
    grids = exchange_features([provider.features(v, coarse) for v in group.views],
                              tracks, params.encoder)
    ha, wa = grids[0].height, grids[0].width
    warps: dict[int, DenseWarpField] = {}
    for slot, tgt in enumerate(group.targets, start=1):
        anchors = AnchorGrid.uniform(ha, wa, (grids[slot].height, grids[slot].width))
        warps[tgt] = global_match(grids[0], grids[slot], anchors,
                                  params.global_temperature, group.source, tgt)
    del grids  # read only by the global match; freed before finer grids render
    state = RefinerState(params.num_levels + 1, warps)
    while state.level > 1:
        state = refine_level(state, provider, params)
    finest = params.level_stride(1)
    if finest > 1:
        return {t: upsample_warp(w, finest) for t, w in state.warps.items()}
    return state.warps
