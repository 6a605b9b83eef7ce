"""Multi-view track tokens from raw pairwise matches.

Raw matches are grouped into partitions sharing the same visibility mask,
cluster budgets are allocated proportionally to partition size, and k-means
picks one representative raw match per cluster. Representatives are always
real input matches, never synthetic centroids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import MISSING
from .oracle import MatchSample

KMEANS_MAX_ITERS = 50
KMEANS_TOL = 1e-4
# Points per block of k-means' squared distances; bounds the (block, k, dim)
# temporary of differences.
KMEANS_BLOCK = 32


@dataclass(frozen=True)
class TrackToken:
    """One scene point's 2D positions across V views plus a visibility mask.

    ``coords`` stacks (x, y) per view into a 2V vector with -1 sentinels for
    missing views; slot 0 is the source view and is always visible.
    """

    coords: np.ndarray      # (2V,)
    visibility: np.ndarray  # (V,) bool

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64).reshape(-1)
        vis = np.asarray(self.visibility, dtype=bool)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "visibility", vis)
        if coords.shape[0] != 2 * vis.shape[0]:
            raise ValueError("coords must hold (x, y) per view")
        if not vis[0]:
            raise ValueError("source view must be visible")
        if not vis[1:].any():
            raise ValueError("at least one target view must be visible")
        pts = coords.reshape(-1, 2)
        if np.any(pts[~vis] != MISSING):
            raise ValueError("invisible views must carry the -1 sentinel")
        if np.any(pts[vis] == MISSING):
            raise ValueError("visible views must carry real coordinates")

    @property
    def num_views(self) -> int:
        return self.visibility.shape[0]


@dataclass(frozen=True)
class VisibilityPartition:
    mask: tuple          # V-length tuple of 0/1
    members: np.ndarray  # raw-match indices sharing that mask

    @property
    def size(self) -> int:
        return self.members.shape[0]


def token_from_sample(sample: MatchSample) -> TrackToken:
    coords = np.where(sample.visibility[:, None], sample.target_pixels,
                      MISSING).reshape(-1)
    return TrackToken(coords, sample.visibility.copy())


def partition_by_visibility(raw: list[MatchSample]) -> list[VisibilityPartition]:
    """Group raw matches by identical visibility mask, lexicographic order."""
    if not raw:
        raise ValueError("no raw matches to partition")
    buckets: dict[tuple, list[int]] = {}
    for i, sample in enumerate(raw):
        key = tuple(int(v) for v in sample.visibility)
        buckets.setdefault(key, []).append(i)
    return [VisibilityPartition(mask, np.array(buckets[mask], dtype=np.int64))
            for mask in sorted(buckets)]


def allocate_clusters(partitions: list[VisibilityPartition], budget: int) -> tuple[np.ndarray, bool]:
    """Proportional cluster counts per partition, summing to min(budget, total).

    Largest-remainder rounding, ties broken by larger partition first and then
    lexicographic mask; counts exceeding a partition's size are capped and the
    surplus is redistributed. Returns (counts, capped) where ``capped`` flags a
    budget larger than the raw match count.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    sizes = np.array([p.size for p in partitions], dtype=np.int64)
    total = int(sizes.sum())
    capped = budget > total
    remaining = min(budget, total)
    counts = np.zeros(len(partitions), dtype=np.int64)
    active = sizes.copy()
    while remaining > 0:
        open_idx = np.nonzero(active > 0)[0]
        share = active[open_idx] * (remaining / active[open_idx].sum())
        alloc = np.floor(share).astype(np.int64)
        rem = share - alloc
        short = remaining - int(alloc.sum())
        if short > 0:
            masks = [partitions[i].mask for i in open_idx]
            order = sorted(range(len(open_idx)),
                           key=lambda k: (-rem[k], -active[open_idx[k]], masks[k]))
            for k in order[:short]:
                alloc[k] += 1
        counts[open_idx] += np.minimum(alloc, active[open_idx])
        active[open_idx] -= np.minimum(alloc, active[open_idx])
        remaining = min(budget, total) - int(counts.sum())
    return counts, capped


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[c] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _sq_distances(points: np.ndarray, centers: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` (n, k) with the squared distances of points to centers,
    ``KMEANS_BLOCK`` points at a time."""
    diff = np.empty((KMEANS_BLOCK,) + centers.shape)
    for i in range(0, points.shape[0], KMEANS_BLOCK):
        block = points[i:i + KMEANS_BLOCK]
        d = diff[:block.shape[0]]
        np.subtract(block[:, None, :], centers, out=d)
        np.square(d, out=d)
        np.sum(d, axis=2, out=out[i:i + KMEANS_BLOCK])


def kmeans(points: np.ndarray, k: int, seed: int):
    """Seeded k-means++ plus Lloyd iterations; returns (centers, labels).

    Runs at most ``KMEANS_MAX_ITERS`` rounds or until the largest centroid
    movement drops below ``KMEANS_TOL``. Emptied clusters are re-anchored at the farthest
    member of the largest cluster so exactly k clusters always survive.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k >= n:
        return points.copy(), np.arange(n, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = _kmeans_pp_init(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    d2 = np.empty((n, k))
    for _ in range(KMEANS_MAX_ITERS):
        _sq_distances(points, centers, d2)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=k)
        for c in np.nonzero(counts == 0)[0]:
            donor = int(np.argmax(counts))
            members = np.nonzero(labels == donor)[0]
            far = members[int(np.argmax(d2[members, donor]))]
            labels[far] = c
            counts[donor] -= 1
            counts[c] += 1
        for c in range(k):
            new_centers[c] = points[labels == c].mean(axis=0)
        move = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if move < KMEANS_TOL:
            break
    return centers, labels


def sample_tracks(raw: list[MatchSample], budget: int, seed: int,
                  normalize: bool = False) -> list[TrackToken]:
    """Clustering-based selection of representative tracks.

    Per visibility partition, k-means runs on the coordinate vectors
    restricted to the visible entries (all members share the mask, so the
    dimensionality is uniform); each cluster contributes the member closest
    to its centroid, ties to the lowest raw index. Output order is partition
    order then cluster index. ``normalize`` rescales coordinates to [0, 1]
    per axis before clustering (distance shaping only; emitted coordinates
    are always the raw ones).
    """
    if not raw:
        raise ValueError("no raw matches to sample from")
    partitions = partition_by_visibility(raw)
    counts, _ = allocate_clusters(partitions, budget)
    tokens: list[TrackToken] = []
    for part_idx, (part, k) in enumerate(zip(partitions, counts)):
        if k == 0:
            continue
        mask = np.asarray(part.mask, dtype=bool)
        vectors = np.stack([
            raw[i].target_pixels[mask].reshape(-1) for i in part.members
        ])
        if normalize:
            span = vectors.max(axis=0) - vectors.min(axis=0)
            span[span == 0] = 1.0
            feats = (vectors - vectors.min(axis=0)) / span
        else:
            feats = vectors
        centers, labels = kmeans(feats, int(k), seed=seed + part_idx)
        for c in range(int(min(k, part.size))):
            members = np.nonzero(labels == c)[0]
            d = np.linalg.norm(feats[members] - centers[c], axis=1)
            best = members[int(np.argmin(d))]  # argmin: lowest local index wins ties
            tokens.append(token_from_sample(raw[part.members[best]]))
    return tokens


# ---------------------------------------------------------------------------
# TSV track files
# ---------------------------------------------------------------------------

def write_track_rows(path, num_views: int,
                     rows: list[list[tuple[int, float, float]]]) -> None:
    """Write a track TSV: ``rows[t]`` lists token t's (view_id, x, y) observations.

    View ids are global. The header line records V and T, then a column-name
    line, then one ``token_id  view_id  x  y`` line per observation.
    """
    with open(path, "w") as f:
        f.write(f"# V={num_views}\tT={len(rows)}\n")
        f.write("token_id\tview_id\tx\ty\n")
        for tid, obs in enumerate(rows):
            for view, x, y in obs:
                f.write(f"{tid}\t{view}\t{x:.6f}\t{y:.6f}\n")


def read_track_rows(path, max_views: int | None = None
                    ) -> tuple[int, dict[int, dict[int, tuple[float, float]]]]:
    """Read a track TSV into (V, observations per token id).

    ``observations[tid]`` maps view ids to (x, y) in file order. A malformed
    row, or a view id outside [0, V) (and outside [0, ``max_views``) when
    given), raises ValueError naming ``path:line``.
    """
    with open(path) as f:
        header = f.readline()
        if not header.startswith("# V="):
            raise ValueError(f"{path}: missing track-file header")
        try:
            num_views = int(header[2:].split()[0].split("=")[1])
        except ValueError:
            raise ValueError(f"{path}:1: malformed track-file header") from None
        limit = num_views if max_views is None else min(num_views, max_views)
        f.readline()  # column names
        rows: dict[int, dict[int, tuple[float, float]]] = {}
        for lineno, line in enumerate(f, start=3):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated "
                                 f"fields, got {len(fields)}")
            try:
                tid, view = int(fields[0]), int(fields[1])
                x, y = float(fields[2]), float(fields[3])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed track row "
                                 f"{line.rstrip()!r}") from None
            if not 0 <= view < limit:
                raise ValueError(f"{path}:{lineno}: view {view} outside [0, {limit})")
            rows.setdefault(tid, {})[view] = (x, y)
    return num_views, rows


def write_tracks_tsv(path, tracks: list[TrackToken], num_views: int | None = None) -> None:
    """One row per (token, view) observation; visibility is implied by row presence."""
    if num_views is None:
        num_views = tracks[0].num_views if tracks else 0
    rows = []
    for track in tracks:
        pts = track.coords.reshape(-1, 2)
        rows.append([(view, pts[view, 0], pts[view, 1])
                     for view in range(track.num_views) if track.visibility[view]])
    write_track_rows(path, num_views, rows)


def read_tracks_tsv(path) -> tuple[list[TrackToken], int]:
    num_views, rows = read_track_rows(path)
    tracks = []
    for tid in sorted(rows):
        coords = np.full(2 * num_views, MISSING)
        vis = np.zeros(num_views, dtype=bool)
        for view, (x, y) in rows[tid].items():
            coords[2 * view] = x
            coords[2 * view + 1] = y
            vis[view] = True
        tracks.append(TrackToken(coords, vis))
    return tracks, num_views
