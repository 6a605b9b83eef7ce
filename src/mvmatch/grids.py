"""Grid types and the sampling / warping / upsampling primitives.

Coordinate convention: pixel centers sit at integer coordinates, x along
columns and y along rows, origin at the top-left pixel center. A warp field
at pyramid stride ``s`` is stored at that level's resolution and its target
coordinates are expressed in target-image pixel units of the same level;
level coordinates convert to base-resolution coordinates by multiplying
by ``s``. The sentinel value -1 marks "missing" coordinates and must never
reach an interpolation routine.

All grid types are frozen after construction and every operation is a pure
function, so values can be shared read-only across parallel workers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import kernels

MISSING = -1.0

WARP_MAGIC = b"MVWF"
WARP_VERSION = 1


def pixel_centers(height: int, width: int) -> np.ndarray:
    """(H W, 2) float (x, y) centers of an H x W pixel grid, raster order."""
    ys, xs = np.mgrid[0:height, 0:width]
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)


def in_image(xy: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    """(N,) mask of the (N, 2) points inside [0, W - 1] x [0, H - 1]."""
    h, w = image_size
    return (xy[:, 0] >= 0) & (xy[:, 0] <= w - 1) & (xy[:, 1] >= 0) & (xy[:, 1] <= h - 1)


@dataclass(frozen=True)
class FeatureGrid:
    """H x W x C feature map attached to one view at one pyramid stride."""

    data: np.ndarray
    stride: int = 1

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError(f"feature grid must be (H, W, C), got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature grid contains non-finite values")
        s = int(self.stride)
        if s < 1 or (s & (s - 1)) != 0:
            raise ValueError(f"stride must be a positive power of two, got {self.stride}")
        object.__setattr__(self, "stride", s)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class DenseWarpField:
    """Per-pixel source -> target coordinates plus confidence for one ordered pair."""

    targets: np.ndarray       # (H, W, 2) target-image (x, y), level pixel units
    confidence: np.ndarray    # (H, W) in [0, 1]
    source_view: int
    target_view: int

    def __post_init__(self):
        targets = np.ascontiguousarray(self.targets, dtype=np.float64)
        confidence = np.ascontiguousarray(self.confidence, dtype=np.float64)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "confidence", confidence)
        if targets.ndim != 3 or targets.shape[2] != 2:
            raise ValueError(f"targets must be (H, W, 2), got {targets.shape}")
        if confidence.shape != targets.shape[:2]:
            raise ValueError("confidence shape must match the warp grid")
        if not np.all(np.isfinite(targets)):
            raise ValueError("warp targets contain non-finite values")
        if not (confidence.min() >= 0.0 and confidence.max() <= 1.0):  # NaN fails too
            raise ValueError("confidence must lie in [0, 1]")
        if self.source_view == self.target_view:
            raise ValueError("source_view and target_view must differ")

    @property
    def height(self) -> int:
        return self.targets.shape[0]

    @property
    def width(self) -> int:
        return self.targets.shape[1]


def warp_features(target: FeatureGrid, warp: DenseWarpField) -> FeatureGrid:
    """Resample ``target`` at the warp's target coordinates.

    The output grid has the warp's spatial size; each output texel is the
    bilinear sample of ``target`` at ``warp.targets`` for that pixel.
    """
    flat = warp.targets.reshape(-1, 2)
    sampled = kernels.bilinear_gather(target.data, flat[:, 0], flat[:, 1])
    data = sampled.reshape(warp.height, warp.width, target.channels)
    return FeatureGrid(data, stride=target.stride)


def local_correlation(source: FeatureGrid, target: FeatureGrid, warp: DenseWarpField,
                      window: int, band) -> None:
    """Inner products of each source feature against a window of warped target samples.

    The scores, normalized by sqrt(channels) mirroring attention scaling, go
    to ``band`` band by band as (n, window^2) rows (``kernels.local_corr``);
    score j * window + i correlates source pixel (x, y) with the target
    sampled at ``warp.targets[y, x] + (i - r, j - r)`` where r = (window -
    1) / 2. Pixels whose source feature is zero reach no band.
    """
    if source.channels != target.channels:
        raise ValueError(
            f"channel mismatch: source has {source.channels}, target has {target.channels}")
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    if (warp.height, warp.width) != (source.height, source.width):
        raise ValueError("warp grid size must match the source grid")
    kernels.local_corr(source.data, target.data, warp.targets, int(window), band)


def upsample_warp(warp: DenseWarpField, factor: int) -> DenseWarpField:
    """Upsample a warp to a finer pyramid level.

    Target coordinates are bilinearly upsampled and multiplied by ``factor``
    so they live in pixel units of the new stride; confidence is bilinearly
    upsampled and clamped to [0, 1]. Sampling is integer-aligned (output
    pixel X reads the coarse field at X / factor) with linear extrapolation
    past the last sample, which keeps identity warps exactly identity and
    makes repeated x2 upsampling agree with a single x4.
    """
    factor = int(factor)
    if factor < 2 or (factor & (factor - 1)) != 0:
        raise ValueError("factor must be a power of two >= 2")
    targets = kernels.upsample_linear(warp.targets, factor)
    targets *= factor
    conf = kernels.upsample_linear(warp.confidence[..., None], factor)[..., 0]
    np.clip(conf, 0.0, 1.0, out=conf)
    return DenseWarpField(targets, conf, warp.source_view, warp.target_view)


# ---------------------------------------------------------------------------
# MVWF binary warp-field files
# ---------------------------------------------------------------------------

def write_warp_file(path, warp: DenseWarpField) -> None:
    """Write the MVWF binary format.

    Layout: magic "MVWF"; little-endian uint32 version (=1), height, width,
    source_view, target_view; then height*width records of
    (target_x, target_y, confidence) as little-endian float32, raster order.
    """
    h, w = warp.height, warp.width
    header = WARP_MAGIC + struct.pack("<5I", WARP_VERSION, h, w,
                                      warp.source_view, warp.target_view)
    records = np.empty((h * w, 3), dtype="<f4")
    records[:, 0] = warp.targets[..., 0].ravel()
    records[:, 1] = warp.targets[..., 1].ravel()
    records[:, 2] = warp.confidence.ravel()
    with open(path, "wb") as f:
        f.write(header)
        f.write(records.tobytes())


def read_warp_file(path) -> DenseWarpField:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != WARP_MAGIC:
        raise ValueError(f"{path}: not an MVWF file")
    if len(blob) < 24:
        raise ValueError(f"{path}: truncated MVWF header ({len(blob)} < 24 bytes)")
    version, h, w, src, tgt = struct.unpack_from("<5I", blob, 4)
    if version != WARP_VERSION:
        raise ValueError(f"{path}: unsupported MVWF version {version}")
    if h == 0 or w == 0:
        raise ValueError(f"{path}: MVWF grid must be at least 1 x 1, got {h} x {w}")
    expected = 24 + h * w * 12
    if len(blob) != expected:
        raise ValueError(f"{path}: truncated MVWF file ({len(blob)} != {expected} bytes)")
    records = np.frombuffer(blob, dtype="<f4", offset=24).reshape(h * w, 3)
    targets = np.empty((h, w, 2), dtype=np.float64)
    targets[..., 0] = records[:, 0].reshape(h, w)
    targets[..., 1] = records[:, 1].reshape(h, w)
    conf = np.clip(records[:, 2].reshape(h, w).astype(np.float64), 0.0, 1.0)
    try:
        return DenseWarpField(targets, conf, int(src), int(tgt))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
