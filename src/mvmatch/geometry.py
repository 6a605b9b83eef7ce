"""Homography estimation, triangulation and the desk-scale evaluation metrics.

DLT is always Hartley-normalized (isotropic scaling of both point sets to
mean 0 and mean distance sqrt(2)); unconditioned DLT does not survive the
round-trip tolerance on image-sized coordinates. RANSAC is the standard
hypothesize-and-verify loop with a 4-point minimal solver, a symmetric
transfer inlier test and a final refit on the consensus set. Triangulation
is linear multi-view DLT over tracks held as (T, V, 2) coordinates and (T, V)
visibility: the tracks seen in the same number of views share one batched
SVD, and the skip tests run on whole arrays. The accuracy/completeness
nearest-neighbour search runs over chunks of query points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tracks import Tracks

# Probability that RANSAC has drawn an all-inlier sample when it stops early.
RANSAC_CONFIDENCE = 0.99


class DegenerateConfigurationError(ValueError):
    """Raised when a solver's input admits no unique solution."""


@dataclass(frozen=True)
class ErrorCurve:
    """Sorted per-pair errors plus AUC of the cumulative curve per threshold.

    Errors may be pixels (corner error) or degrees (pose error); the AUC at
    threshold t is the mean over pairs of clamped (1 - err / t), which lies
    in [0, 1] and is monotone non-decreasing in t.
    """

    errors: np.ndarray
    auc: dict

    @classmethod
    def from_errors(cls, errors, thresholds) -> "ErrorCurve":
        errors = np.sort(np.atleast_1d(np.asarray(errors, dtype=np.float64)))
        return cls(errors, corner_auc(errors, thresholds))

    def __post_init__(self):
        if np.any(np.diff(self.errors) < 0):
            raise ValueError("errors must be sorted ascending")
        values = [self.auc[k] for k in sorted(self.auc)]
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("AUC values must lie in [0, 1]")
        if any(values[i] > values[i + 1] + 1e-12 for i in range(len(values) - 1)):
            raise ValueError("AUC must be monotone in the threshold")


def _to_h(points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(points)
    return np.concatenate([points, np.ones((points.shape[0], 1))], axis=1)


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    q = _to_h(points) @ h.T
    return q[:, :2] / q[:, 2:3]


def hartley_normalization(points: np.ndarray) -> np.ndarray:
    """Similarity transform taking the set to mean 0, mean distance sqrt(2)."""
    pts = np.atleast_2d(points)
    centroid = pts.mean(axis=0)
    dist = np.linalg.norm(pts - centroid, axis=1).mean()
    scale = np.sqrt(2.0) / max(dist, 1e-12)
    return np.array([[scale, 0.0, -scale * centroid[0]],
                     [0.0, scale, -scale * centroid[1]],
                     [0.0, 0.0, 1.0]])


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Hartley-normalized DLT from >= 4 correspondences.

    Solves the stacked 2n x 9 system by the smallest right singular vector
    and denormalizes; the result has its bottom-right entry scaled to 1.
    Degenerate configurations (rank below 8) raise.
    """
    src = np.atleast_2d(np.asarray(src, dtype=np.float64))
    dst = np.atleast_2d(np.asarray(dst, dtype=np.float64))
    if src.shape != dst.shape or src.shape[0] < 4:
        raise ValueError("need >= 4 point pairs of equal count")
    t_src = hartley_normalization(src)
    t_dst = hartley_normalization(dst)
    sn = apply_homography(t_src, src)
    dn = apply_homography(t_dst, dst)
    n = sn.shape[0]
    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    a[0::2, 0] = x
    a[0::2, 1] = y
    a[0::2, 2] = 1.0
    a[0::2, 6] = -u * x
    a[0::2, 7] = -u * y
    a[0::2, 8] = -u
    a[1::2, 3] = x
    a[1::2, 4] = y
    a[1::2, 5] = 1.0
    a[1::2, 6] = -v * x
    a[1::2, 7] = -v * y
    a[1::2, 8] = -v
    # thin SVD keeps only min(m, n) right singular vectors: enough whenever
    # the system is square or tall, which is what the nullspace read needs
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    if s[7] <= s[0] * 1e-9:
        raise DegenerateConfigurationError("correspondences are rank-deficient")
    hn = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ hn @ t_src
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    return h


def symmetric_transfer_errors(h: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """max(forward, backward) reprojection error per correspondence, pixels."""
    fwd = np.linalg.norm(apply_homography(h, src) - dst, axis=1)
    bwd = np.linalg.norm(apply_homography(np.linalg.inv(h), dst) - src, axis=1)
    return np.maximum(fwd, bwd)


def ransac_homography(src: np.ndarray, dst: np.ndarray, inlier_threshold: float = 3.0,
                      max_iters: int = 2000,
                      seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded RANSAC; returns (homography, inlier mask).

    Minimal 4-point DLT hypotheses, symmetric-transfer inlier test, adaptive
    early stopping at ``RANSAC_CONFIDENCE``, and a final DLT refit on the
    best consensus set. Deterministic for a fixed seed.
    """
    src = np.atleast_2d(np.asarray(src, dtype=np.float64))
    dst = np.atleast_2d(np.asarray(dst, dtype=np.float64))
    n = src.shape[0]
    if n < 4:
        raise ValueError("RANSAC needs >= 4 correspondences")
    rng = np.random.Generator(np.random.PCG64(seed))
    best_mask = None
    best_count = 0
    needed = max_iters
    it = 0
    while it < min(max_iters, needed):
        it += 1
        pick = rng.choice(n, size=4, replace=False)
        try:
            h = dlt_homography(src[pick], dst[pick])
        except (DegenerateConfigurationError, np.linalg.LinAlgError):
            continue
        if abs(np.linalg.det(h)) < 1e-12:
            continue
        mask = symmetric_transfer_errors(h, src, dst) <= inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            ratio = count / n
            if 0.0 < ratio < 1.0:
                denom = np.log1p(-(ratio ** 4))
                if denom < 0:
                    needed = min(max_iters,
                                 int(np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / denom)))
            elif ratio >= 1.0:
                break
    if best_mask is None or best_count < 4:
        raise DegenerateConfigurationError("no model reached 4 inliers")
    h = dlt_homography(src[best_mask], dst[best_mask])
    mask = symmetric_transfer_errors(h, src, dst) <= inlier_threshold
    return h, mask


def corner_error(estimated: np.ndarray, gt: np.ndarray,
                 image_size: tuple[int, int]) -> float:
    """Mean reprojection discrepancy of the four image corners, pixels."""
    h, w = image_size
    corners = np.array([[0.0, 0.0], [w - 1.0, 0.0], [0.0, h - 1.0], [w - 1.0, h - 1.0]])
    diff = apply_homography(estimated, corners) - apply_homography(gt, corners)
    return float(np.linalg.norm(diff, axis=1).mean())


def corner_auc(errors, thresholds) -> dict[float, float]:
    """Cumulative-error AUC: mean over pairs of clamped (1 - err / threshold)."""
    errors = np.atleast_1d(np.asarray(errors, dtype=np.float64))
    return {float(t): float(np.mean(np.clip(1.0 - errors / t, 0.0, 1.0)))
            for t in thresholds}


def triangulate_observations(coords: np.ndarray, visibility: np.ndarray, cameras):
    """Linear multi-view DLT of every track, one batched SVD per view count.

    ``coords`` (T, V, 2) and ``visibility`` (T, V) hold the tracks; column v
    is seen by ``cameras[v]``. A track with k visible views gives a (2k, 4)
    system, two rows per view in ascending view order, x p3 - p1 and
    y p3 - p2 of the view's projection matrix P = K [R | t]; its point is the
    smallest right singular vector. A track is skipped and counted when it
    has fewer than 2 views, a non-unique nullspace (second-smallest singular
    value at most 1e-8 of the largest, e.g. zero baseline), a solution at
    infinity (|w| < 1e-12) or a depth <= 0 in some observing camera.
    Returns (points (K, 3), kept track indices (K,) ascending, skipped count).
    """
    coords = np.asarray(coords, dtype=np.float64)
    visibility = np.asarray(visibility, dtype=bool)
    proj = np.stack([cam.intrinsics @ np.concatenate([cam.rotation, cam.translation[:, None]],
                                                     axis=1) for cam in cameras])
    rot = np.stack([cam.rotation for cam in cameras])
    trans = np.stack([cam.translation for cam in cameras])
    counts = visibility.sum(axis=1)
    points = np.empty((counts.shape[0], 3))
    kept = np.zeros(counts.shape[0], dtype=bool)
    for k in np.unique(counts[counts >= 2]):
        rows = np.flatnonzero(counts == k)
        views = np.nonzero(visibility[rows])[1].reshape(-1, k)  # ascending per track
        p = proj[views]                                          # (n, k, 3, 4)
        uv = coords[rows[:, None], views]                        # (n, k, 2)
        a = uv[..., None] * p[:, :, 2:3] - p[:, :, :2]
        _, s, vt = np.linalg.svd(a.reshape(rows.shape[0], 2 * k, 4), full_matrices=False)
        x = vt[:, -1]
        ok = ~((s[:, -2] <= s[:, 0] * 1e-8) | (np.abs(x[:, 3]) < 1e-12))
        rows, views, x = rows[ok], views[ok], x[ok]
        pts = x[:, :3] / x[:, 3:]
        # stacked 3x3 @ 3x1 products round as cam.rotation @ point does
        depth = np.matmul(rot[views], pts[:, None, :, None])[..., 2, 0] + trans[views][..., 2]
        front = ~(depth <= 0).any(axis=1)
        points[rows[front]] = pts[front]
        kept[rows[front]] = True
    idx = np.flatnonzero(kept)
    return points[idx], idx, counts.shape[0] - idx.shape[0]


def triangulate_tracks(tracks: Tracks, cameras, views=None):
    """Triangulate the tracks visible in >= 2 views.

    ``views`` maps track slots to camera indices (identity by default); each
    system's rows go in ascending camera index. Returns (points (K, 3),
    track indices (K,), skipped count).
    """
    views = np.arange(tracks.visibility.shape[1]) if views is None else np.asarray(views)
    order = np.argsort(views, kind="stable")
    return triangulate_observations(tracks.coords[:, order], tracks.visibility[:, order],
                                    [cameras[v] for v in views[order]])


def _nn_min_d2(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Squared distance from each query point to its nearest reference point.

    d2 = dx^2 + dy^2 + dz^2 is added in that order over chunks of 64 query
    points, so the (chunk, reference) temporaries stay near 2 MB each for
    4000 reference points.
    """
    out = np.empty(query.shape[0])
    ref = np.ascontiguousarray(reference.T)
    chunk = 64
    for lo in range(0, query.shape[0], chunk):
        q = query[lo:lo + chunk]
        d2 = q[:, 0:1] - ref[0]
        np.square(d2, out=d2)
        for axis in (1, 2):
            diff = q[:, axis:axis + 1] - ref[axis]
            d2 += np.square(diff, out=diff)
        out[lo:lo + chunk] = d2.min(axis=1)
    return out


def accuracy_completeness(points: np.ndarray, gt_points: np.ndarray,
                          thresholds) -> dict[float, dict[str, float]]:
    """Accuracy: triangulated points near some gt point; completeness: vice versa.

    An empty triangulation reports accuracy 0 with the ``empty`` flag set.
    """
    gt_points = np.atleast_2d(gt_points)
    if gt_points.shape[0] == 0:
        raise ValueError("ground truth must be nonempty")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if points.shape[0] == 0:
        return {float(t): {"accuracy": 0.0, "completeness": 0.0, "empty": True}
                for t in thresholds}
    # one nearest-neighbour search per direction, compared with every t^2
    acc_d2 = _nn_min_d2(points, gt_points)
    comp_d2 = _nn_min_d2(gt_points, points)
    out = {}
    for t in thresholds:
        t = float(t)
        t2 = t * t
        out[t] = {"accuracy": float(np.mean(acc_d2 <= t2)),
                  "completeness": float(np.mean(comp_d2 <= t2)), "empty": False}
    return out
