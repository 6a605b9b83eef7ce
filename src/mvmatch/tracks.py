"""Multi-view tracks from raw pairwise matches.

Raw matches are grouped into partitions sharing the same visibility mask,
cluster budgets are allocated proportionally to partition size, and k-means
picks one representative raw match per cluster. Representatives are always
real input matches, never synthetic centroids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import MISSING

KMEANS_MAX_ITERS = 50
KMEANS_TOL = 1e-4
# Points per block of k-means' squared distances; bounds the (block, k, dim)
# temporary of differences.
KMEANS_BLOCK = 32


@dataclass(frozen=True)
class Tracks:
    """T scene points' 2D positions across V views plus their visibility.

    ``coords`` (T, V, 2) holds (x, y) per view with the -1 sentinel in
    invisible slots; slot 0 is the source view and is always visible, and
    every track is visible in at least one target view. T = 0 is allowed.
    """

    coords: np.ndarray      # (T, V, 2) float64
    visibility: np.ndarray  # (T, V) bool

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        vis = np.asarray(self.visibility, dtype=bool)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "visibility", vis)
        if vis.ndim != 2 or vis.shape[1] == 0 or coords.shape != vis.shape + (2,):
            raise ValueError("coords must hold (x, y) per view")
        if not vis[:, 0].all():
            raise ValueError("source view must be visible")
        if not vis[:, 1:].any(axis=1).all():
            raise ValueError("at least one target view must be visible")
        if np.any(coords[~vis] != MISSING):
            raise ValueError("invisible views must carry the -1 sentinel")
        if np.any(coords[vis] == MISSING):
            raise ValueError("visible views must carry real coordinates")

    def __len__(self) -> int:
        return self.visibility.shape[0]


@dataclass(frozen=True)
class VisibilityPartition:
    mask: tuple          # V-length tuple of 0/1
    members: np.ndarray  # raw-match indices sharing that mask

    @property
    def size(self) -> int:
        return self.members.shape[0]


def partition_by_visibility(visibility: np.ndarray) -> list[VisibilityPartition]:
    """Group raw matches by identical (n, V) visibility row, in lexicographic
    mask order; each partition's members ascend."""
    visibility = np.asarray(visibility, dtype=bool)
    if visibility.shape[0] == 0:
        raise ValueError("no raw matches to partition")
    masks, inverse = np.unique(visibility, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse))[:-1]
    return [VisibilityPartition(tuple(int(b) for b in mask), members)
            for mask, members in zip(masks, np.split(order, bounds))]


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


def _nearest_centers(points: np.ndarray, sq_norms: np.ndarray,
                     centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center, equal to the argmin of
    ``_sq_distances`` (lowest index among equal distances).

    The GEMM form g = |x|^2 - 2 x.c + |c|^2 only proposes the label. With
    unit roundoff u = 2^-53, dim m and S = (|x| + |c|)^2, g is within
    gamma_{m+2} S of the true squared distance D, and ``_sq_distances``
    (m differences, m squares, a sum of m non-negative terms in any order)
    is within gamma_{m+2} D <= gamma_{m+2} S of it, where
    gamma_j = j u / (1 - j u). So the two differ by at most about
    2 (m + 2) u S. The bound used, ``slack``, is 4 (m + 4) u S with the
    largest center norm, which also covers the rounding of the norms and of
    the bound itself. A row keeps its GEMM argmin only where the
    second-smallest g exceeds the smallest by more than 2 * slack: then no
    other center's exact distance can reach the winner's. Every other row
    is recomputed with ``_sq_distances``.
    """
    n, m = points.shape
    k = centers.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    g = points @ centers.T
    g *= -2.0
    g += sq_norms[:, None]
    g += c_sq
    labels = np.argmin(g, axis=1)
    rows = np.arange(n)
    best = g[rows, labels]
    g[rows, labels] = np.inf
    gap = g.min(axis=1) - best
    slack = 4.0 * (m + 4) * 2.0 ** -53 * (np.sqrt(sq_norms) + np.sqrt(c_sq.max())) ** 2
    unsure = np.nonzero(~(gap > 2.0 * slack))[0]
    if unsure.size:
        d2 = np.empty((unsure.size, k))
        _sq_distances(points[unsure], centers, d2)
        labels[unsure] = np.argmin(d2, axis=1)
    return labels


def _cluster_means(points: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cluster mean of the points, every cluster non-empty.

    Equal bit for bit to ``points[labels == c].mean(axis=0)`` for two or more
    columns, where numpy adds a cluster's rows in index order: the members
    are sorted stably by label, and rank j of every cluster that has one is
    added in one vectorised step. Clusters go largest first, so the clusters
    still adding at rank j are a prefix.
    """
    ranked = points[np.argsort(labels, kind="stable")]
    desc = np.argsort(-counts, kind="stable")
    sizes = counts[desc]
    first = (np.cumsum(counts) - counts)[desc]
    sums = ranked[first]
    live = np.searchsorted(-sizes, -np.arange(1, sizes[0]))  # clusters larger than j
    for j, nl in enumerate(live, start=1):
        sums[:nl] += ranked[first[:nl] + j]
    means = np.empty_like(sums)
    means[desc] = sums / sizes[:, None]
    return means


def kmeans(points: np.ndarray, k: int, seed: int):
    """Seeded k-means++ plus Lloyd iterations; returns (centers, labels).

    Runs at most ``KMEANS_MAX_ITERS`` rounds or until the largest centroid
    movement drops below ``KMEANS_TOL``. Emptied clusters are re-anchored at the farthest
    member of the largest cluster so exactly k clusters always survive.
    Labels are those of exact distances (``_nearest_centers``), and with two
    or more columns the centres are bit-identical to per-cluster means.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k >= n:
        return points.copy(), np.arange(n, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = _kmeans_pp_init(points, k, rng)
    sq_norms = np.einsum("ij,ij->i", points, points)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITERS):
        labels = _nearest_centers(points, sq_norms, centers)
        counts = np.bincount(labels, minlength=k)
        for c in np.nonzero(counts == 0)[0]:
            donor = int(np.argmax(counts))
            members = np.nonzero(labels == donor)[0]
            d2 = np.empty((members.size, 1))
            _sq_distances(points[members], centers[donor:donor + 1], d2)
            far = members[int(np.argmax(d2[:, 0]))]
            labels[far] = c
            counts[donor] -= 1
            counts[c] += 1
        new_centers = _cluster_means(points, labels, counts)
        move = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if move < KMEANS_TOL:
            break
    return centers, labels


def sample_tracks(coords: np.ndarray, visibility: np.ndarray, budget: int,
                  seed: int) -> Tracks:
    """Clustering-based selection of representative tracks.

    ``coords`` (n, V, 2) and ``visibility`` (n, V) are raw matches as
    ``simulate_matcher`` returns them. Per visibility partition, k-means runs
    on the coordinate vectors restricted to the visible entries (all members
    share the mask, so the dimensionality is uniform); each cluster
    contributes the member closest to its centroid, ties to the lowest raw
    index. Output order is partition order then cluster index.
    """
    visibility = np.asarray(visibility, dtype=bool)
    if visibility.shape[0] == 0:
        raise ValueError("no raw matches to sample from")
    coords = np.where(visibility[..., None], coords, MISSING)
    partitions = partition_by_visibility(visibility)
    counts, _ = allocate_clusters(partitions, budget)
    picked = []
    for part_idx, (part, k) in enumerate(zip(partitions, counts)):
        if k == 0:
            continue
        mask = np.asarray(part.mask, dtype=bool)
        vectors = coords[part.members][:, mask].reshape(part.size, -1)
        centers, labels = kmeans(vectors, int(k), seed=seed + part_idx)
        d = np.linalg.norm(vectors - centers[labels], axis=1)
        # lexsort is stable, so the lowest index wins ties within a cluster
        order = np.lexsort((d, labels))
        firsts = np.flatnonzero(np.diff(labels[order], prepend=-1))
        picked.append(part.members[order[firsts]])
    rows = np.concatenate(picked)
    return Tracks(coords[rows], visibility[rows])


# ---------------------------------------------------------------------------
# TSV track files
# ---------------------------------------------------------------------------

def write_track_rows(path, num_views: int,
                     track_sets: list[tuple[Tracks, tuple[int, ...]]]) -> None:
    """Write a track TSV from track sets, each with its slots' global view ids.

    Token ids run on across the sets in order. The header line records V and
    T, then a column-name line, then one ``token_id  view_id  x  y`` line per
    visible slot.
    """
    rows, count = [np.empty((0, 4))], 0
    for tracks, views in track_sets:
        tid, slot = np.nonzero(tracks.visibility)
        rows.append(np.column_stack([count + tid, np.asarray(views)[slot],
                                     tracks.coords[tid, slot]]))
        count += len(tracks)
    with open(path, "w") as f:
        f.write(f"# V={num_views}\tT={count}\n")
        f.write("token_id\tview_id\tx\ty\n")
        np.savetxt(f, np.concatenate(rows), fmt="%d\t%d\t%.6f\t%.6f")


def read_track_rows(path, max_views: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read a track TSV into (coords (T, V, 2), visibility (T, V)).

    Tokens go in ascending token id, invisible slots hold the -1 sentinel. V
    comes from the header, capped at ``max_views`` when given. A malformed
    row, a non-finite coordinate, a view id outside [0, V) or a second row
    for the same token and view raises ValueError naming ``path:line``.
    """
    with open(path) as f:
        header = f.readline()
        if not header.startswith("# V="):
            raise ValueError(f"{path}: missing track-file header")
        try:
            num_views = int(header[2:].split()[0].split("=")[1])
        except ValueError:
            raise ValueError(f"{path}:1: malformed track-file header") from None
        if max_views is not None:
            num_views = min(num_views, max_views)
        f.readline()  # column names
        seen: set[tuple[int, int]] = set()
        tids, views, xys = [], [], []
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
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: non-finite coordinate in "
                                 f"{line.rstrip()!r}")
            if not 0 <= view < num_views:
                raise ValueError(f"{path}:{lineno}: view {view} outside [0, {num_views})")
            if (tid, view) in seen:
                raise ValueError(f"{path}:{lineno}: token {tid} repeats view {view}")
            seen.add((tid, view))
            tids.append(tid)
            views.append(view)
            xys.append((x, y))
    # token ids are any Python int; only their order matters
    rank = {tid: t for t, tid in enumerate(sorted(set(tids)))}
    token = np.array([rank[tid] for tid in tids], dtype=np.int64)
    views = np.array(views, dtype=np.int64)
    coords = np.full((len(rank), num_views, 2), MISSING)
    visibility = np.zeros((len(rank), num_views), dtype=bool)
    coords[token, views] = np.array(xys).reshape(-1, 2)
    visibility[token, views] = True
    return coords, visibility


def write_tracks_tsv(path, tracks: Tracks) -> None:
    """One row per (token, view) observation; visibility is implied by row presence."""
    num_views = tracks.visibility.shape[1]
    write_track_rows(path, num_views, [(tracks, tuple(range(num_views)))])

