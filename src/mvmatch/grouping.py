"""Two-stage construction of image groups for scene-scale processing.

Stage 1 builds groups under a global budget, greedily attaching targets with
a selection score that rewards overlap with the source and the targets
already picked, and soft-penalizes reuse of the same directed pair. Stage 2
adds the minimal extra groups so that every directed pair also exists in the
opposite direction, which the bidirectional consistency filter downstream
requires.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig, read_json


@dataclass(frozen=True)
class ImageGroup:
    """One source index plus up to K target indices, processed jointly."""

    source: int
    targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.source in self.targets:
            raise ValueError("source must not appear among the targets")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("targets must be distinct")

    @property
    def views(self) -> tuple[int, ...]:
        """All views in group order: source first, then targets."""
        return (self.source,) + self.targets


@dataclass(frozen=True)
class OverlapMatrix:
    values: np.ndarray  # (M, M) in [0, 1]; diagonal ignored by consumers

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("overlap matrix must be square")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("overlap entries must lie in [0, 1]")

    @property
    def num_images(self) -> int:
        return self.values.shape[0]


@dataclass
class PairUsage:
    """Directed pair selection counts plus pending reciprocity needs."""

    counts: np.ndarray               # (M, M) int
    pending: set = field(default_factory=set)  # directed pairs (j, i) still to create

    @classmethod
    def empty(cls, num_images: int) -> "PairUsage":
        return cls(np.zeros((num_images, num_images), dtype=np.int64))

    def record(self, source: int, target: int) -> None:
        self.counts[source, target] += 1
        self.pending.discard((source, target))
        if self.counts[target, source] == 0:
            self.pending.add((target, source))


def default_budget(num_images: int, half: bool = False) -> int:
    """Group budget ~ M * sqrt(M), floored at M so every image can source once."""
    budget = math.ceil(num_images * math.sqrt(num_images))
    if half:
        budget = max(num_images, math.ceil(budget / 2))
    return max(budget, num_images)


def overlap_from_matches(warps: dict, num_images: int, tau_conf: float) -> OverlapMatrix:
    """Visibility overlap: fraction of source pixels with confidence above tau_conf.

    ``warps`` maps ordered pairs (i, j) to DenseWarpField; missing pairs score 0.
    """
    values = np.zeros((num_images, num_images), dtype=np.float64)
    for (i, j), warp in warps.items():
        if i == j:
            continue
        values[i, j] = float(np.mean(warp.confidence > tau_conf))
    return OverlapMatrix(values)


def overlap_from_descriptors(descriptors: np.ndarray) -> OverlapMatrix:
    """Descriptor overlap: pairwise cosine similarity, clamped to [0, 1]."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.size == 0 or not np.all(np.isfinite(descriptors)):
        raise ValueError("descriptor table must be non-empty and finite")
    norms = np.linalg.norm(descriptors, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm descriptor")
    unit = descriptors / norms[:, None]
    values = np.clip(unit @ unit.T, 0.0, 1.0)
    np.fill_diagonal(values, 1.0)
    return OverlapMatrix(values)


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation proportional to weights: floor + largest remainders."""
    quota = weights * (total / weights.sum())
    counts = np.floor(quota).astype(np.int64)
    rem = quota - counts
    short = total - int(counts.sum())
    if short > 0:
        order = np.lexsort((np.arange(len(weights)), -rem))
        counts[order[:short]] += 1
    return counts


def quotas_from_neighbor_counts(neighbors: np.ndarray, beta: float,
                                budget: int) -> np.ndarray:
    """Quotas proportional to (N_i + 1)^beta, summing to budget, floor 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    neighbors = np.asarray(neighbors, dtype=np.float64)
    if budget < neighbors.shape[0]:
        raise ValueError(
            f"budget {budget} cannot give every image a source slot "
            f"(M={neighbors.shape[0]})")
    weights = (neighbors + 1.0) ** beta
    quotas = _largest_remainder(weights, budget)
    # enforce the floor by moving slots from the largest quotas
    while (quotas < 1).any():
        need = int(np.argmax(quotas < 1))
        donor = int(np.argmax(quotas))
        quotas[donor] -= 1
        quotas[need] += 1
    return quotas


def source_quotas(overlap: OverlapMatrix, tau: float, beta: float, budget: int) -> np.ndarray:
    """Per-image source quotas from the overlap matrix.

    N_i counts neighbors with overlap above tau; quotas follow
    (N_i + 1)^beta, normalized to sum exactly to ``budget`` with
    largest-remainder rounding and a floor of one group per image.
    """
    values = overlap.values.copy()
    np.fill_diagonal(values, 0.0)
    neighbors = (values > tau).sum(axis=1)
    return quotas_from_neighbor_counts(neighbors, beta, budget)


def _selection_scores(source: int, overlap: np.ndarray, current: list[int],
                      usage: PairUsage, cfg: PipelineConfig,
                      candidates: np.ndarray) -> np.ndarray:
    base = cfg.alpha_src * overlap[source, candidates]
    if current:
        base = base + cfg.alpha_tgt * overlap[np.array(current)][:, candidates].sum(axis=0)
    penalty = 1.0 + cfg.lam * usage.counts[source, candidates]
    return base / penalty


def _extend_greedy(source: int, overlap: OverlapMatrix, usage: PairUsage,
                   cfg: PipelineConfig, chosen: list[int], pool: np.ndarray) -> ImageGroup:
    """Extend ``chosen`` from ``pool`` (image ids, ascending) up to
    ``cfg.targets_per_group`` targets and record the usage of every target.

    Each step takes the best selection score, the first (lowest id) on ties,
    and the extension stops at a score that is not positive.
    """
    chosen = list(chosen)
    while len(chosen) < cfg.targets_per_group and pool.size:
        scores = _selection_scores(source, overlap.values, chosen, usage, cfg, pool)
        best = int(np.argmax(scores))
        if scores[best] <= 0.0:
            break
        chosen.append(int(pool[best]))
        pool = np.delete(pool, best)
    group = ImageGroup(source, tuple(chosen))
    for t in group.targets:
        usage.record(source, t)
    return group


def build_group(source: int, overlap: OverlapMatrix, usage: PairUsage,
                cfg: PipelineConfig) -> ImageGroup:
    """Greedily attach up to ``cfg.targets_per_group`` targets to ``source``
    and record pair usage.

    Stops early when no remaining candidate has a positive score; a group with
    no targets is returned when no candidate scores above zero.
    """
    pool = np.delete(np.arange(overlap.num_images, dtype=np.int64), source)
    return _extend_greedy(source, overlap, usage, cfg, [], pool)


def augment_reciprocity(overlap: OverlapMatrix, usage: PairUsage,
                        cfg: PipelineConfig) -> list[ImageGroup]:
    """Stage 2: extra groups so every directed pair exists in both directions.

    For each image with pending reciprocal needs a new group is created with
    that image as source; pending partners fill the target slots first
    (highest selection score first) and any leftover slots are filled by the
    same greedy score restricted to images already paired with the source in
    either direction, so no new one-sided pair is ever introduced.
    """
    extra: list[ImageGroup] = []
    while usage.pending:
        source = min(s for s, _ in usage.pending)
        partners = sorted(t for s, t in usage.pending if s == source)
        while partners:
            cands = np.array(partners, dtype=np.int64)
            scores = _selection_scores(source, overlap.values, [], usage, cfg, cands)
            order = np.lexsort((cands, -scores))
            first = [int(cands[k]) for k in order[:cfg.targets_per_group]]
            partners = [p for p in partners if p not in first]
            # free slots (left only once every partner is placed) are topped
            # up from already-connected images only
            connected = (usage.counts[source] > 0) | (usage.counts[:, source] > 0)
            connected[[source] + first] = False
            extra.append(_extend_greedy(source, overlap, usage, cfg, first,
                                        np.flatnonzero(connected)))
    return extra


def sample_groups(overlap: OverlapMatrix, cfg: PipelineConfig,
                  budget: int) -> tuple[list[ImageGroup], list[ImageGroup]]:
    """Run both stages; returns (stage-1 groups, stage-2 reciprocity groups).

    Reads ``targets_per_group``, ``group_tau``, ``beta``, ``alpha_src``,
    ``alpha_tgt`` and ``lam`` from ``cfg``. Sources are scheduled by a
    deterministic round-robin over the quota vector.
    """
    quotas = source_quotas(overlap, cfg.group_tau, cfg.beta, budget)
    usage = PairUsage.empty(overlap.num_images)
    order: list[int] = []
    remaining = quotas.copy()
    while remaining.sum() > 0:
        for i in range(overlap.num_images):
            if remaining[i] > 0:
                order.append(i)
                remaining[i] -= 1
    stage1 = [build_group(src, overlap, usage, cfg) for src in order]
    stage2 = augment_reciprocity(overlap, usage, cfg)
    return stage1, stage2


def pair_adjacency(groups: list[ImageGroup], num_images: int) -> np.ndarray:
    """Directed-pair adjacency matrix implied by a set of groups."""
    adj = np.zeros((num_images, num_images), dtype=bool)
    for g in groups:
        for t in g.targets:
            adj[g.source, t] = True
    return adj


def write_group_manifest(path, stage1: list[ImageGroup], stage2: list[ImageGroup]) -> None:
    payload = {
        "groups": [
            {"source": g.source, "targets": list(g.targets), "stage": stage}
            for stage, groups in ((1, stage1), (2, stage2))
            for g in groups
        ]
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def read_group_manifest(path) -> list[tuple[ImageGroup, int]]:
    """Read a manifest written by ``write_group_manifest`` as (group, stage)
    pairs (``read_manifest_groups``)."""
    return read_manifest_groups(path, "stage")


def read_manifest_groups(path, *keys: str) -> list[tuple]:
    """Read the groups of a JSON manifest, a group manifest or the one
    ``match`` writes next to its warps, as one tuple per group: its
    ImageGroup, then the int value of each of ``keys``. A file that is not a
    JSON object holding a list of group objects, or a group with a missing
    key or bad value, raises a ValueError that starts with the path."""
    payload = read_json(path)
    try:
        groups = payload["groups"] if isinstance(payload, dict) else None
        if not isinstance(groups, list) or not all(isinstance(g, dict) for g in groups):
            raise ValueError("a group manifest must be a JSON object whose "
                             "\"groups\" is a list of objects")
        return [_manifest_group(g, keys) for g in groups]
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _manifest_group(g: dict, keys: tuple[str, ...]) -> tuple:
    source, targets, values = g["source"], g["targets"], [g[k] for k in keys]
    if not (all(isinstance(v, int) for v in [source, *values])
            and isinstance(targets, list) and all(isinstance(t, int) for t in targets)):
        raise ValueError(f"a group needs an int {' and '.join(('source',) + keys)} and a "
                         f"list of int targets, got {g}")
    return (ImageGroup(source, tuple(targets)), *values)
