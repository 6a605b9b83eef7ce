"""Synthetic multi-view scenes with exact ground-truth correspondence queries.

Two scene kinds are supported. Planar scenes store one invertible 3x3
homography per view mapping that view's pixels into a shared reference
frame, so correspondence transfer is exact algebra. Point-cloud scenes store
pinhole cameras plus a 3D point set; correspondences come from z-buffered
reprojection, which exercises occlusion and cheirality.

All randomness flows through numpy's PCG64 so results reproduce bit-for-bit
across platforms for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import read_json
from .geometry import apply_homography
from .grids import MISSING, DenseWarpField, in_image, pixel_centers
from .grouping import ImageGroup
from .tracks import Tracks

DEPTH_TOLERANCE = 0.005  # relative z-buffer tolerance for occlusion tests
MAX_CONDITION = 1e8
# pixels per planar ground-truth transfer block (``kernels.row_blocks``)
GT_CHUNK = 16384


@dataclass(frozen=True)
class PinholeCamera:
    intrinsics: np.ndarray   # 3x3, pixel units
    rotation: np.ndarray     # 3x3 world->camera, orthonormal
    translation: np.ndarray  # 3-vector, world units

    def __post_init__(self):
        k = np.ascontiguousarray(self.intrinsics, dtype=np.float64)
        r = np.ascontiguousarray(self.rotation, dtype=np.float64)
        t = np.ascontiguousarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if k.shape != (3, 3) or r.shape != (3, 3):
            raise ValueError("intrinsics and rotation must be 3x3")
        if not (np.isfinite(k).all() and np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("camera intrinsics, rotation and translation must be finite")
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation must be orthonormal within 1e-9")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project (N, 3) world points; returns (N, 2) pixels and (N,) depths."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cam = pts @ self.rotation.T + self.translation
        depth = cam[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            uv = (cam @ self.intrinsics.T)
            uv = uv[:, :2] / uv[:, 2:3]
        return uv, depth


@dataclass(frozen=True)
class SceneOracle:
    kind: str                 # "planar" or "point_cloud"
    image_size: tuple[int, int]  # (H, W)
    noise_seed: int
    homographies: tuple | None = None   # planar: per-view 3x3, view pixel -> reference
    cameras: tuple | None = None        # point_cloud: PinholeCamera per view
    points: np.ndarray | None = None    # point_cloud: (N, 3)
    # point_cloud: read-only z-buffers by (view, stride), see _point_cloud_buffers
    _zbuffers: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "image_size",
                           (int(self.image_size[0]), int(self.image_size[1])))
        if min(self.image_size) < 1:
            raise ValueError(f"image size must be >= 1, got {self.image_size}")
        if self.kind == "planar":
            if self.homographies is None or len(self.homographies) < 2:
                raise ValueError("planar scene needs >= 2 homographies")
            hs = tuple(np.ascontiguousarray(h, dtype=np.float64) for h in self.homographies)
            for h in hs:
                if (h.shape != (3, 3) or not np.isfinite(h).all()
                        or np.linalg.cond(h) >= MAX_CONDITION):
                    raise ValueError("homographies must be finite, well-conditioned 3x3")
            object.__setattr__(self, "homographies", hs)
        elif self.kind == "point_cloud":
            if self.cameras is None or len(self.cameras) < 2:
                raise ValueError("point-cloud scene needs >= 2 cameras")
            if self.points is None or len(self.points) == 0:
                raise ValueError("point-cloud scene needs points")
            points = np.ascontiguousarray(self.points, dtype=np.float64)
            if points.ndim != 2 or points.shape[1] != 3 or not np.isfinite(points).all():
                raise ValueError("points must be a finite (N, 3) array")
            object.__setattr__(self, "cameras", tuple(self.cameras))
            object.__setattr__(self, "points", points)
        else:
            raise ValueError(f"unknown scene kind {self.kind!r}")

    @property
    def num_views(self) -> int:
        return len(self.homographies) if self.kind == "planar" else len(self.cameras)


def _level_size(oracle: SceneOracle, stride: int) -> tuple[int, int]:
    h, w = oracle.image_size
    if h % stride or w % stride:
        raise ValueError(f"image size {oracle.image_size} not divisible by stride {stride}")
    return h // stride, w // stride


def _point_cloud_buffers(oracle: SceneOracle, view: int, stride: int):
    """Z-buffer the scene points into ``view`` at the given stride.

    Returns read-only (depth buffer, winning point index per pixel); points
    behind the camera or on its principal plane never splat. Each (view,
    stride) is z-buffered once per scene object: the buffers are kept on it
    and live as long as it does.
    """
    key = (view, stride)
    if key not in oracle._zbuffers:
        lh, lw = _level_size(oracle, stride)
        uv, depth = oracle.cameras[view].project(oracle.points)
        front = np.nonzero(depth > 0)[0]
        px = np.round(uv[front, 0] / stride)
        py = np.round(uv[front, 1] / stride)
        ok = (px >= 0) & (px < lw) & (py >= 0) & (py < lh)
        idx = front[ok]
        zbuf, ibuf = kernels.zbuffer_min(px[ok].astype(np.int64), py[ok].astype(np.int64),
                                         depth[idx], lh, lw)
        hit = ibuf >= 0
        ibuf[hit] = idx[ibuf[hit]]
        zbuf.flags.writeable = False
        ibuf.flags.writeable = False
        oracle._zbuffers[key] = (zbuf, ibuf)
    return oracle._zbuffers[key]


def _check_view_pair(oracle: SceneOracle, source: int, target: int) -> None:
    v = oracle.num_views
    if source == target or not (0 <= source < v) or not (0 <= target < v):
        raise ValueError(f"invalid view pair ({source}, {target}) for {v} views")


def planar_transfer(oracle: SceneOracle, source: int, target: int) -> np.ndarray:
    """3x3 homography from ``source`` to ``target`` pixels through the reference
    plane; an invalid view pair or an ill-conditioned transfer raises ValueError."""
    _check_view_pair(oracle, source, target)
    transfer = np.linalg.inv(oracle.homographies[target]) @ oracle.homographies[source]
    if np.linalg.cond(transfer) >= MAX_CONDITION:
        raise ValueError("degenerate homography transfer")
    return transfer


def gt_warp(oracle: SceneOracle, source: int, target: int, stride: int = 1) -> DenseWarpField:
    """Exact per-pixel correspondence field from ``source`` to ``target``.

    Planar scenes transfer through the reference plane; confidence is 1 where
    the transferred point lands inside the target image and 0 outside (the
    coordinates stay exact either way). Point-cloud scenes reproject the
    z-buffered surface point of each source pixel; occluded, behind-camera,
    out-of-frame and surface-free pixels get confidence 0, and pixels with no
    geometric answer at all carry the -1 sentinel.
    """
    _check_view_pair(oracle, source, target)
    lh, lw = _level_size(oracle, stride)

    if oracle.kind == "planar":
        transfer = planar_transfer(oracle, source, target)
        targets, conf = np.empty((lh * lw, 2)), np.empty(lh * lw)
        for rows in kernels.row_blocks(lh * lw, GT_CHUNK):
            mapped = apply_homography(transfer, pixel_centers(lh, lw, rows) * stride)
            np.divide(mapped, stride, out=targets[rows])
            conf[rows] = in_image(mapped, oracle.image_size)
        return DenseWarpField(targets.reshape(lh, lw, 2), conf.reshape(lh, lw), source, target)

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


def gt_transfer_points(oracle: SceneOracle, source: int, target: int,
                       points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transfer continuous source-view points to the target view.

    Returns (N, 2) coordinates and an (N,) validity mask (covisibility).
    Point-cloud scenes resolve each query at its nearest source pixel's
    z-buffered surface point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if oracle.kind == "planar":
        mapped = apply_homography(planar_transfer(oracle, source, target), pts)
        return mapped, in_image(mapped, oracle.image_size)
    h, w = oracle.image_size
    warp = gt_warp(oracle, source, target, stride=1)
    px = np.round(pts[:, 0]).astype(np.int64).clip(0, w - 1)
    py = np.round(pts[:, 1]).astype(np.int64).clip(0, h - 1)
    mapped = warp.targets[py, px]
    valid = warp.confidence[py, px] > 0
    return mapped, valid


def simulate_matcher(oracle: SceneOracle, group: ImageGroup, n: int,
                     noise_sigma: float = 0.0, outlier_rate: float = 0.0,
                     seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Noisy pairwise-matcher stand-in seeded from the oracle.

    Draws ``n`` source pixels uniformly from the pixels covisible with at
    least one target; inlier targets are the ground-truth transfer plus
    isotropic Gaussian noise, clipped into the image, and an
    ``outlier_rate`` fraction of the visible target coordinates is replaced
    by uniform in-image positions. Returns (n, V, 2) coordinates, slot 0
    being the integer source pixel and invisible slots the -1 sentinel, and
    the (n, V) visibility, which always reflects true covisibility.
    Deterministic for a fixed seed (defaults to the oracle's noise_seed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= outlier_rate < 1.0:
        raise ValueError("outlier_rate must lie in [0, 1)")
    h, w = oracle.image_size
    views = group.views
    nt = len(views) - 1
    warps = [gt_warp(oracle, views[0], t) for t in views[1:]]
    covis = np.stack([wp.confidence > 0 for wp in warps])  # (nt, H, W)
    candidates = np.nonzero(covis.any(axis=0).ravel())[0]
    if candidates.size == 0:
        raise ValueError("no source pixel is covisible with any target")
    rng = np.random.Generator(np.random.PCG64(oracle.noise_seed if seed is None else seed))
    picks = rng.choice(candidates, size=n, replace=candidates.size < n)
    sy, sx = np.divmod(picks, w)
    noise = rng.normal(0.0, noise_sigma, size=(n, nt, 2)) if noise_sigma > 0 else np.zeros((n, nt, 2))
    is_outlier = rng.random((n, nt)) < outlier_rate if outlier_rate > 0 else np.zeros((n, nt), dtype=bool)
    uniform = np.stack([rng.uniform(0, w - 1, size=(n, nt)),
                        rng.uniform(0, h - 1, size=(n, nt))], axis=-1)
    vis = np.ones((n, nt + 1), dtype=bool)
    vis[:, 1:] = covis[:, sy, sx].T
    truth = np.stack([wp.targets[sy, sx] for wp in warps], axis=1)  # (n, nt, 2)
    # clip so visible coordinates always stay inside the image
    inlier = np.clip(truth + noise, 0.0, [w - 1, h - 1])
    coords = np.empty((n, nt + 1, 2))
    coords[:, 0, 0] = sx
    coords[:, 0, 1] = sy
    coords[:, 1:] = np.where(is_outlier[..., None], uniform, inlier)
    coords[~vis] = MISSING
    return coords, vis


def gt_track_error(oracle: SceneOracle, tracks: Tracks, views=None) -> np.ndarray:
    """(T, V) per-view reprojection errors of tracks against the ground truth.

    ``views`` maps track slots to oracle view indices (defaults to identity).
    Source slots score 0; invisible slots are NaN. Errors the moment a
    track is visible in fewer than two views.
    """
    vis = tracks.visibility
    coords = tracks.coords
    t, v = vis.shape
    if views is None:
        views = tuple(range(v))
    if np.any(vis.sum(axis=1) < 2):
        raise ValueError("track must be visible in at least two views")
    out = np.full((t, v), np.nan)
    out[:, 0] = 0.0
    for slot in range(1, v):
        rows = vis[:, slot]
        mapped, _ = gt_transfer_points(oracle, views[0], views[slot], coords[rows, 0])
        out[rows, slot] = np.linalg.norm(coords[rows, slot] - mapped, axis=1)
    return out


# ---------------------------------------------------------------------------
# scene generators
# ---------------------------------------------------------------------------

def make_planar_scene(num_views: int, image_size: tuple[int, int], seed: int) -> SceneOracle:
    """Random planar scene: view 0 is the reference, others near-identity warps.

    Each other view is a similarity (rotation within 4 degrees, scale within
    4 %, translation within 8 % of the image) about the image center, with a
    perspective term within 2e-5.
    """
    if num_views < 2:
        raise ValueError("need at least 2 views")
    h, w = image_size
    rng = np.random.Generator(np.random.PCG64(seed))
    homographies = [np.eye(3)]
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    center = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=np.float64)
    uncenter = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1]], dtype=np.float64)
    for _ in range(num_views - 1):
        ang = np.deg2rad(rng.uniform(-4.0, 4.0))
        s = 1.0 + rng.uniform(-0.04, 0.04)
        tx = rng.uniform(-0.08, 0.08) * w
        ty = rng.uniform(-0.08, 0.08) * h
        ca, sa = np.cos(ang), np.sin(ang)
        sim = np.array([[s * ca, -s * sa, tx],
                        [s * sa, s * ca, ty],
                        [0, 0, 1]], dtype=np.float64)
        proj = np.eye(3)
        proj[2, 0] = rng.uniform(-2e-5, 2e-5)
        proj[2, 1] = rng.uniform(-2e-5, 2e-5)
        homographies.append(uncenter @ proj @ sim @ center)
    return SceneOracle("planar", (h, w), int(seed), homographies=tuple(homographies))


def _look_at(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World->camera rotation with +z toward ``target`` (orthonormal by construction)."""
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, -1.0, 0.0])
    right = np.cross(up, forward)
    if np.linalg.norm(right) < 1e-12:
        up = np.array([0.0, 0.0, -1.0])
        right = np.cross(up, forward)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def make_point_cloud_scene(num_views: int, image_size: tuple[int, int], seed: int,
                           num_points: int = 4000) -> SceneOracle:
    """Random bumpy-surface point cloud observed by cameras on an arc.

    The cameras sit at distance 4 from the origin, spread over +-25 degrees,
    and look at the origin.
    """
    if num_views < 2:
        raise ValueError("need at least 2 views")
    h, w = image_size
    rng = np.random.Generator(np.random.PCG64(seed))
    xy = rng.uniform(-1.0, 1.0, size=(num_points, 2))
    z = np.zeros(num_points)
    for _ in range(6):
        c = rng.uniform(-1.0, 1.0, size=2)
        amp = rng.uniform(-0.15, 0.15)
        width = rng.uniform(0.3, 0.8)
        z += amp * np.exp(-np.sum((xy - c) ** 2, axis=1) / (2 * width ** 2))
    points = np.column_stack([xy, z])
    focal = 1.1 * max(h, w)
    k = np.array([[focal, 0, (w - 1) / 2.0],
                  [0, focal, (h - 1) / 2.0],
                  [0, 0, 1]], dtype=np.float64)
    cameras = []
    angles = np.linspace(-np.deg2rad(25.0), np.deg2rad(25.0), num_views)
    for ang in angles:
        center = np.array([4.0 * np.sin(ang),
                           rng.uniform(-0.15, 0.15),
                           -4.0 * np.cos(ang)])
        r = _look_at(center, np.zeros(3))
        t = -r @ center
        cameras.append(PinholeCamera(k, r, t))
    return SceneOracle("point_cloud", (h, w), int(seed),
                       cameras=tuple(cameras), points=points)


# ---------------------------------------------------------------------------
# scene files
# ---------------------------------------------------------------------------

def save_scene(path, oracle: SceneOracle) -> None:
    """Write a scene as JSON (schema documented in the README)."""
    payload: dict = {
        "kind": oracle.kind,
        "image_size": list(oracle.image_size),
        "noise_seed": oracle.noise_seed,
    }
    if oracle.kind == "planar":
        payload["homographies"] = [h.tolist() for h in oracle.homographies]
    else:
        payload["cameras"] = [
            {"intrinsics": c.intrinsics.tolist(),
             "rotation": c.rotation.tolist(),
             "translation": c.translation.tolist()}
            for c in oracle.cameras
        ]
        payload["points"] = oracle.points.tolist()
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")


def load_scene(path) -> SceneOracle:
    """Read a scene written by ``save_scene``. A file that is not a JSON
    object of the scene's keys and value shapes raises a ValueError that
    starts with the path."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a scene must be a JSON object")
    try:
        kind = payload["kind"]
        size = tuple(payload["image_size"])
        seed = int(payload["noise_seed"])
        views = {}
        if kind == "planar":
            views["homographies"] = tuple(np.array(h) for h in payload["homographies"])
        elif kind == "point_cloud":
            views["cameras"] = tuple(
                PinholeCamera(np.array(c["intrinsics"]), np.array(c["rotation"]),
                              np.array(c["translation"]))
                for c in payload["cameras"]
            )
            views["points"] = np.array(payload["points"])
        return SceneOracle(kind, size, seed, **views)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed scene: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
