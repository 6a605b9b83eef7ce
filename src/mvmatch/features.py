"""Pluggable feature providers for the matcher pipeline.

A provider maps (view index, stride) to a FeatureGrid and must return the
same bits for repeated queries within a run. A reader that has made its last
read of a grid calls ``release(view, stride)``; a grid lives until its last
planned reader releases it, and a read after that renders the same bits
again. The oracle provider
renders hand-crafted features from a synthetic scene so the pipeline is
testable without trained backbones: each view evaluates a fixed smooth
multi-scale field at the scene coordinates its pixels observe, which makes
corresponding pixels carry matching feature vectors.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Protocol

import numpy as np

from .geometry import apply_homography
from .grids import FeatureGrid, pixel_centers
from .oracle import SceneOracle, _level_size, _point_cloud_buffers


class FeatureProvider(Protocol):
    def features(self, view: int, stride: int) -> FeatureGrid:
        """View ``view``'s grid at ``stride``; the same bits on every call."""

    def release(self, view: int, stride: int) -> None:
        """One reader has made its last read of this grid. The provider may
        drop it; a later ``features`` call returns the same bits."""


def _smooth_field_params(dim: int, seed: int, min_wavelength: float,
                         max_wavelength: float):
    rng = np.random.Generator(np.random.PCG64(seed))
    wavelengths = np.exp(rng.uniform(np.log(min_wavelength), np.log(max_wavelength), dim))
    angles = rng.uniform(0.0, 2.0 * np.pi, dim)
    freqs = (2.0 * np.pi / wavelengths)[:, None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)
    phases = rng.uniform(0.0, 2.0 * np.pi, dim)
    return freqs, phases


def _evaluate_field(coords: np.ndarray, freqs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """cos(k_c . q + phi_c) per channel, unit-normalized per position."""
    feats = coords @ freqs.T
    feats += phases
    np.cos(feats, out=feats)
    norms = np.linalg.norm(feats, axis=-1, keepdims=True)
    feats /= np.maximum(norms, 1e-12, out=norms)
    return feats


class OracleFeatureProvider:
    """Scene-content features rendered from a SceneOracle.

    Planar scenes evaluate the field at reference-plane coordinates; point
    cloud scenes evaluate it at the 3D position (projected to its first two
    principal axes) of each pixel's z-buffered surface point, with zero
    vectors where no surface is seen. Each stride gets its own band-limited
    field (shortest wavelength 4x the stride, so nothing aliases when the
    level subsamples it; longest 2x the image extent, which keeps global
    matching unambiguous).

    A rendered grid is cached per (view, stride) until its last planned
    reader releases it. ``plan`` says how many readers (matcher groups) read
    each view, at every stride; each ``release`` counts one down and the
    last one drops the grid. A grid without a plan, or past its planned
    readers, is dropped at its first release. Rendering is deterministic,
    so a read after a drop renders the same bits.
    """

    def __init__(self, oracle: SceneOracle, dim: int = 32, seed: int = 0):
        self.oracle = oracle
        self.dim = dim
        self.seed = seed
        self._cache: dict[tuple[int, int], FeatureGrid] = {}
        self._readers: dict[int, int] = {}
        self._released: Counter[tuple[int, int]] = Counter()

    def plan(self, readers: Mapping[int, int]) -> None:
        """Expect ``readers[view]`` readers of each of ``view``'s grids."""
        self._readers = dict(readers)
        self._released.clear()

    def features(self, view: int, stride: int) -> FeatureGrid:
        key = (view, stride)
        if key not in self._cache:
            self._cache[key] = self._render(view, stride)
        return self._cache[key]

    def release(self, view: int, stride: int) -> None:
        key = (view, stride)
        self._released[key] += 1
        if self._released[key] >= self._readers.get(view, 0):
            self._cache.pop(key, None)

    def _field(self, stride: int):
        extent = float(max(self.oracle.image_size))
        lo = 4.0 * stride
        hi = max(2.0 * extent, lo * 2.0)
        return _smooth_field_params(self.dim, self.seed + stride, lo, hi)

    def _render(self, view: int, stride: int) -> FeatureGrid:
        lh, lw = _level_size(self.oracle, stride)
        freqs, phases = self._field(stride)
        if self.oracle.kind == "planar":
            base = pixel_centers(lh, lw) * stride
            ref = apply_homography(self.oracle.homographies[view], base)
            data = _evaluate_field(ref, freqs, phases).reshape(lh, lw, self.dim)
            return FeatureGrid(data, stride=stride)
        _, ibuf = _point_cloud_buffers(self.oracle, view, stride)
        data = np.zeros((lh, lw, self.dim))
        covered = ibuf >= 0
        if covered.any():
            pts = self.oracle.points[ibuf[covered]]
            # surface parametrization: world x/y scaled into pixel-like units
            hh, ww = self.oracle.image_size
            plane = pts[:, :2] * (0.5 * max(hh, ww))
            data[covered] = _evaluate_field(plane, freqs, phases)
        return FeatureGrid(data, stride=stride)


class ArrayFeatureProvider:
    """Serves pre-built grids; mainly for tests and custom front ends. The
    grids are given, not rendered, so a release keeps them."""

    def __init__(self, grids: dict[tuple[int, int], FeatureGrid]):
        self._grids = dict(grids)

    def features(self, view: int, stride: int) -> FeatureGrid:
        try:
            return self._grids[(view, stride)]
        except KeyError:
            raise KeyError(f"no features for view {view} at stride {stride}") from None

    def release(self, view: int, stride: int) -> None:
        pass
