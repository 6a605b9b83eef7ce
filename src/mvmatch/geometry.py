"""Homography estimation, triangulation and the desk-scale evaluation metrics.

DLT is always Hartley-normalized (isotropic scaling of both point sets to
mean 0 and mean distance sqrt(2)); unconditioned DLT does not survive the
round-trip tolerance on image-sized coordinates. RANSAC is the standard
hypothesize-and-verify loop with a 4-point minimal solver, a symmetric
transfer inlier test and a final refit on the consensus set. Triangulation
is linear multi-view DLT.
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


def triangulate_point(observations: list[tuple[np.ndarray, "PinholeCamera"]]):
    """Linear DLT triangulation of one point from (pixel, camera) pairs.

    Returns (point, degenerate flag, cheirality flag): ``degenerate`` marks a
    non-unique nullspace (e.g. zero baseline), ``behind`` marks a solution
    failing the cheirality test in at least one observing camera.
    """
    rows = []
    for uv, cam in observations:
        p = cam.intrinsics @ np.concatenate([cam.rotation, cam.translation[:, None]], axis=1)
        rows.append(uv[0] * p[2] - p[0])
        rows.append(uv[1] * p[2] - p[1])
    a = np.stack(rows)
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    degenerate = bool(s[-2] <= s[0] * 1e-8)
    x = vt[-1]
    if abs(x[3]) < 1e-12:
        return np.full(3, np.nan), True, True
    point = x[:3] / x[3]
    behind = False
    for _, cam in observations:
        if (cam.rotation @ point + cam.translation)[2] <= 0:
            behind = True
            break
    return point, degenerate, behind


def triangulate_observations(observations, cameras):
    """Triangulate tracks given as {camera index: (x, y)} mappings.

    Tracks observed by fewer than 2 cameras, degenerate systems and
    behind-camera solutions are skipped and counted. Returns
    (points (K, 3), kept track indices (K,), skipped count).
    """
    points = []
    kept = []
    skipped = 0
    for i, obs_map in enumerate(observations):
        if len(obs_map) < 2:
            skipped += 1
            continue
        obs = [(np.asarray(obs_map[v], dtype=np.float64), cameras[v])
               for v in sorted(obs_map)]
        point, degenerate, behind = triangulate_point(obs)
        if degenerate or behind:
            skipped += 1
            continue
        points.append(point)
        kept.append(i)
    pts = np.array(points).reshape(-1, 3)
    return pts, np.array(kept, dtype=np.int64), skipped


def triangulate_tracks(tracks: Tracks, cameras, views=None):
    """Triangulate the tracks visible in >= 2 views.

    ``views`` maps track slots to camera indices (identity by default).
    Returns (points (K, 3), track indices (K,), skipped count).
    """
    cams = np.arange(tracks.visibility.shape[1]) if views is None else np.asarray(views)
    observations = [{int(cams[s]): xy[s] for s in np.flatnonzero(vis)}
                    for xy, vis in zip(tracks.coords, tracks.visibility)]
    return triangulate_observations(observations, cameras)


def _nn_min_d2(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Squared distance from each query point to its nearest reference point.

    Query points go in chunks of 64, so the (chunk, reference, 3) temporaries
    stay near 6 MB for 4000 reference points.
    """
    out = np.empty(query.shape[0])
    chunk = 64
    for lo in range(0, query.shape[0], chunk):
        q = query[lo:lo + chunk]
        d2 = np.sum((q[:, None, :] - reference[None, :, :]) ** 2, axis=2)
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
