"""From dense per-group warps to SfM-ready multi-view tracks.

Per ordered image pair, the candidate warps from every group containing that
pair are pooled and the highest-confidence prediction wins pixelwise. A
forward-backward cycle check then discards matches whose round trip strays
more than eps_p pixels. Per group, a score map rewarding both track length
and confidence picks keypoints under NMS, and each surviving keypoint plus
its valid target correspondences becomes one track.
"""

from __future__ import annotations

import json

import numpy as np

from . import kernels
from .grids import MISSING, DenseWarpField, in_image, pixel_centers
from .tracks import Tracks


def select_matches(candidates: list[DenseWarpField]) -> tuple[DenseWarpField, np.ndarray]:
    """Pixelwise argmax-confidence selection across candidate warps.

    Ties go to the lowest candidate index. Returns the selected warp and the
    per-pixel index of the winning candidate.
    """
    if not candidates:
        raise ValueError("empty match bank")
    first = candidates[0]
    confs = np.stack([c.confidence for c in candidates])
    chosen = np.argmax(confs, axis=0)  # first max wins ties
    targets = np.stack([c.targets for c in candidates])
    pick = chosen[None]
    selected = DenseWarpField(np.take_along_axis(targets, pick[..., None], axis=0)[0],
                              np.take_along_axis(confs, pick, axis=0)[0],
                              first.source_view, first.target_view)
    return selected, chosen


def reciprocity_filter(forward: DenseWarpField, backward: DenseWarpField,
                       eps_p: float) -> np.ndarray:
    """Bidirectional consistency: keep pixels whose cycle error is within eps_p.

    The backward warp is evaluated at the (continuous) forward target by
    bilinear interpolation of its coordinate fields; forward targets that
    land outside the backward image are discarded outright.
    """
    h, w = forward.height, forward.width
    there = forward.targets.reshape(-1, 2)
    inside = in_image(there, (backward.height, backward.width))
    back = kernels.bilinear_gather(backward.targets, there[:, 0], there[:, 1])
    err = np.linalg.norm(back - pixel_centers(h, w), axis=1)
    keep = inside & (err <= eps_p)
    return keep.reshape(h, w)


def build_score_map(confidences: list[np.ndarray], keeps: list[np.ndarray],
                    tau: float) -> np.ndarray:
    """The (H, W) score map S = L + C. The track length L counts the targets
    with kept confidence above tau; C is the mean confidence over them (0
    where L is 0)."""
    if not confidences:
        raise ValueError("need at least one target view")
    valid = [k & (c > tau) for c, k in zip(confidences, keeps)]
    length = np.sum(valid, axis=0).astype(np.int64)
    total = np.sum([np.where(v, c, 0.0) for c, v in zip(confidences, valid)], axis=0)
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(length > 0, total / np.maximum(length, 1), 0.0)
    return length + mean_conf


def nms_select(scores: np.ndarray, radius: int, max_keypoints: int = 0) -> np.ndarray:
    """Greedy-by-score NMS; returns selected (x, y) pixels.

    No two selected pixels are within Chebyshev distance radius of each
    other; ties go to raster order; only strictly positive scores qualify.
    At most ``max_keypoints`` are picked; 0 means no cap.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    picked_yx = kernels.nms_greedy(scores, radius, max_keypoints)
    return picked_yx[:, ::-1].copy()  # (y, x) -> (x, y)


def assemble_tracks(keypoints: np.ndarray, selected_warps: list[DenseWarpField],
                    keeps: list[np.ndarray], tau: float) -> Tracks:
    """One track per keypoint from the per-target selected warps.

    A target entry is present iff its confidence exceeds tau and the pixel
    passed the reciprocity check; keypoints with no valid target are dropped.
    Slot 0 is the source; slot v is selected_warps[v-1]'s target view.
    """
    kp = np.atleast_2d(keypoints).astype(np.int64)
    xs, ys = kp[:, 0], kp[:, 1]
    valid = np.stack([keep[ys, xs] & (warp.confidence[ys, xs] > tau)
                      for warp, keep in zip(selected_warps, keeps)], axis=1)
    vis = np.column_stack([np.ones(len(kp), dtype=bool), valid])
    coords = np.stack([kp] + [warp.targets[ys, xs] for warp in selected_warps], axis=1)
    coords = np.where(vis[..., None], coords, MISSING)
    rows = valid.any(axis=1)
    return Tracks(coords[rows], vis[rows])


def postprocess_group(source: int, targets: list[int],
                      selected: dict[tuple[int, int], DenseWarpField],
                      keeps: dict[tuple[int, int], np.ndarray],
                      tau: float, nms_radius: int,
                      max_keypoints: int = 0) -> Tracks:
    """Score-map keypoint sampling and track assembly for one group."""
    warps = [selected[(source, t)] for t in targets]
    keep_masks = [keeps[(source, t)] for t in targets]
    scores = build_score_map([w.confidence for w in warps], keep_masks, tau)
    keypoints = nms_select(scores, nms_radius, max_keypoints)
    return assemble_tracks(keypoints, warps, keep_masks, tau)


def match_statistics(keeps: dict[tuple[int, int], np.ndarray],
                     tracks_per_group: list[Tracks]) -> dict:
    """Kept-match rate plus a track-length histogram, JSON-ready."""
    total = sum(int(k.size) for k in keeps.values())
    kept = sum(int(k.sum()) for k in keeps.values())
    lengths = np.concatenate([np.zeros(0, dtype=np.int64)]
                             + [t.visibility.sum(axis=1) for t in tracks_per_group])
    hist = {str(n): int(c) for n, c in enumerate(np.bincount(lengths)) if c}
    return {
        "kept_match_rate": (kept / total) if total else 0.0,
        "pairs": len(keeps),
        "track_count": int(lengths.size),
        "track_length_histogram": dict(sorted(hist.items())),
    }


def write_statistics(path, stats: dict) -> None:
    with open(path, "w") as f:
        json.dump(stats, f, indent=2, sort_keys=True)
        f.write("\n")
