"""Span and counter recording around mvmatch's public functions.

The recorder wraps functions from outside the package: each wrapper replaces
the name where its caller looks it up (a module global such as
``mvmatch.cli.run_group`` or a class attribute such as ``ConvStack.apply``),
so nothing under ``src/`` changes. Spans are kept in memory as
``[name, start, end, parent index, op id]`` and written out when the run
ends. Spans and counters are recorded only while an operation is open, so
the benchmark's own output checks never show up in the trace.

``peak_alloc_mb`` comes from ``tracemalloc`` (numpy reports its buffers to
it). Tracing is started on entry to the outermost memory-tracked span and
stopped on its exit, so the rest of the operation runs untraced.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MB = 1e6

# Refinement levels reported by name (level 1 is the finest of a pyramid).
LEVELS = (1, 2, 3, 4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.levels: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._mem: list[list[int]] = []
        self.upsampled: dict | None = None  # upsample_warp results inside refine_level

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, args, kwargs, mem=False):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(idx)
        if mem:
            self._mem_enter()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[1], record[2] = start, time.perf_counter()
            if mem:
                self._mem_exit(name)
            self._stack.pop()

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        else:
            peak = tracemalloc.get_traced_memory()[1]
            for frame in self._mem:
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self._mem.append([current, current])

    def _mem_exit(self, name: str) -> None:
        base, peak = self._mem.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        self.peaks[name] = max(self.peaks[name], (peak - base) / MB)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()

    def wrap(self, name, fn, count=None, mem=False):
        """Traced stand-in for ``fn``; ``count(counts, args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            result = self.span(name, fn, args, kwargs, mem)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    @staticmethod
    def patch(owner, attr: str, replacement) -> None:
        getattr(owner, attr)  # AttributeError when a traced layer is renamed
        setattr(owner, attr, replacement)

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return stats

    def top_level_time(self, op_id: int) -> float:
        return sum(end - start for _, start, end, parent, op in self.spans
                   if parent < 0 and op == op_id)

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# counters computed from call shapes
# ---------------------------------------------------------------------------

def _count_local_corr(counts, args, result):
    src, window = args[0], args[3]
    counts["kernels.local_corr.cells"] += src.shape[0] * src.shape[1] * window * window


def _window_tensor_mb(inp, weights) -> float:
    """Bytes of the k*k-expanded float64 window tensor of a same-size conv."""
    k = weights.shape[0]
    return inp.shape[0] * inp.shape[1] * inp.shape[2] * k * k * 8 / MB


def _count_conv2d(counts, args, result):
    counts["kernels.conv2d.computed_mb"] += _window_tensor_mb(args[0], args[1])


def _count_depthwise(counts, args, result):
    counts["kernels.depthwise_conv2d.computed_mb"] += _window_tensor_mb(args[0], args[1])


def _count_gather(counts, args, result):
    counts["kernels.bilinear_gather.points"] += result.shape[0]


def _count_logits(counts, args, result):
    src, anchors = args[0], args[2]
    counts["matcher.global_match.logit_mb"] += (
        src.height * src.width * anchors.centers.shape[0] * 8 / MB)


def _count_warp_bytes(counts, args, result):
    counts["cli.write_warp_file.mb"] += os.path.getsize(args[0]) / MB


def _count_keeps(counts, args, result):
    counts["postprocess.reciprocity_filter.kept"] += int(result.sum())
    counts["postprocess.reciprocity_filter.pixels"] += result.size


def _count_keypoints(counts, args, result):
    counts["postprocess.nms_select.keypoints"] += len(result)


def _count_tracks(counts, args, result):
    counts["postprocess.assemble_tracks.keypoints"] += len(args[0])
    counts["postprocess.assemble_tracks.tracks"] += len(result)


def _count_groups(counts, args, result):
    stage1, stage2 = result
    counts["grouping.sample_groups.groups"] += len(stage1) + len(stage2)


def instrument(tracer: Tracer) -> None:
    """Replace every traced name with its wrapper, for the rest of the process."""
    from mvmatch import attention, cli, kernels, matcher, oracle, postprocess, tracks
    from mvmatch.features import OracleFeatureProvider

    def simple(owner, attr, name, count=None, mem=False):
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), count, mem))

    for attr in ("cmd_sample_groups", "cmd_match", "cmd_postprocess",
                 "cmd_eval_triangulation", "read_warp_file"):
        simple(cli, attr, f"cli.{attr}")
    simple(cli, "write_warp_file", "cli.write_warp_file", _count_warp_bytes)

    simple(cli, "simulate_matcher", "oracle.simulate_matcher")
    gt = tracer.wrap("oracle.gt_warp", oracle.gt_warp)
    tracer.patch(oracle, "gt_warp", gt)
    tracer.patch(cli, "gt_warp", gt)

    simple(cli, "sample_tracks", "tracks.sample_tracks")
    simple(tracks, "kmeans", "tracks.kmeans")

    features = OracleFeatureProvider.features

    def traced_features(provider, view, stride):
        if tracer.op is None:
            return features(provider, view, stride)
        tracer.counts["features.hits"] += (view, stride) in getattr(provider, "_cache", {})
        return tracer.span("features.features", features, (provider, view, stride), {})

    tracer.patch(OracleFeatureProvider, "features", traced_features)

    simple(matcher, "exchange_features", "attention.exchange_features")
    for attr in ("attentional_sampling", "track_transformer", "attentional_splatting"):
        simple(attention, attr, f"attention.{attr}")

    simple(cli, "run_group", "matcher.run_group")
    simple(matcher, "global_match", "matcher.global_match", _count_logits, mem=True)
    simple(matcher, "mvfuse", "matcher.mvfuse", mem=True)
    simple(matcher.ConvStack, "apply", "matcher.ConvStack.apply")
    _instrument_refine(tracer, matcher)

    simple(matcher, "local_correlation", "grids.local_correlation")
    simple(matcher, "warp_features", "grids.warp_features")
    upsample = matcher.upsample_warp
    traced_upsample = tracer.wrap("grids.upsample_warp", upsample)

    def capture_upsample(warp, factor):
        result = traced_upsample(warp, factor)
        if tracer.upsampled is not None:
            tracer.upsampled[warp.target_view] = result
        return result

    tracer.patch(matcher, "upsample_warp", capture_upsample)

    simple(kernels, "local_corr", "kernels.local_corr", _count_local_corr)
    simple(kernels, "conv2d", "kernels.conv2d", _count_conv2d, mem=True)
    simple(kernels, "depthwise_conv2d", "kernels.depthwise_conv2d", _count_depthwise, mem=True)
    simple(kernels, "bilinear_gather", "kernels.bilinear_gather", _count_gather)
    simple(kernels, "nms_greedy", "kernels.nms_greedy")
    simple(kernels, "zbuffer_min", "kernels.zbuffer_min")

    simple(cli, "select_matches", "postprocess.select_matches")
    simple(cli, "reciprocity_filter", "postprocess.reciprocity_filter", _count_keeps)
    simple(cli, "postprocess_group", "postprocess.postprocess_group")
    simple(postprocess, "nms_select", "postprocess.nms_select", _count_keypoints)
    simple(postprocess, "assemble_tracks", "postprocess.assemble_tracks", _count_tracks)

    simple(cli, "overlap_from_matches", "grouping.overlap_from_matches")
    simple(cli, "sample_groups", "grouping.sample_groups", _count_groups)

    simple(cli, "triangulate_observations", "geometry.triangulate_observations")
    simple(cli, "accuracy_completeness", "geometry.accuracy_completeness")


def _instrument_refine(tracer: Tracer, matcher) -> None:
    """refine_level spans named per output level, with the warps kept for later stats.

    Moves and per-level error are computed after the operation from the
    kept warps (``level_stats``), outside the timed section.
    """
    refine = matcher.refine_level

    def traced_refine(state, provider, params):
        if tracer.op is None:
            return refine(state, provider, params)
        level = state.level - 1
        outer = tracer.upsampled
        tracer.upsampled = {}
        try:
            result = tracer.span(f"matcher.refine_level.L{level}", refine,
                                 (state, provider, params), {})
            upsampled = tracer.upsampled
        finally:
            tracer.upsampled = outer
        tracer.levels.append({
            "level": level, "stride": params.levels[level].stride,
            "oracle": provider.oracle,
            "before": {t: upsampled.get(t, w) for t, w in state.warps.items()},
            "after": dict(result.warps)})
        return result

    tracer.patch(matcher, "refine_level", traced_refine)


def level_stats(tracer: Tracer) -> dict[str, float]:
    """moved_frac and epe_px per refinement level, from the kept warps."""
    from mvmatch.oracle import gt_warp  # passes straight through outside an operation

    moved = defaultdict(float)
    pixels = defaultdict(float)
    errors = defaultdict(list)
    for rec in tracer.levels:
        level = rec["level"]
        for tgt, after in rec["after"].items():
            before = rec["before"][tgt]
            changed = np.any(after.targets != before.targets, axis=-1)
            moved[level] += float(changed.sum())
            pixels[level] += changed.size
            gt = gt_warp(rec["oracle"], after.source_view, tgt, rec["stride"])
            covisible = gt.confidence > 0
            if covisible.any():
                err = np.linalg.norm(after.targets - gt.targets, axis=-1)[covisible]
                errors[level].append(float(err.mean()))
    out = {}
    for level in LEVELS:
        prefix = f"matcher.refine_level.L{level}"
        out[f"{prefix}.moved_frac"] = moved[level] / pixels[level] if pixels[level] else 0.0
        out[f"{prefix}.epe_px"] = float(np.mean(errors[level])) if errors[level] else 0.0
    return out


def per_layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Every per-layer metric, per traced operation (``ops`` of them).

    Times, calls and counts are per-operation means; ratios, peaks and
    per-level figures pool all traced operations. Layers that did not run
    report 0.
    """
    stats = tracer.layer_stats()
    counts = {k: v / ops for k, v in tracer.counts.items()}

    def total(name):
        return stats[name]["total_s"] / ops if name in stats else 0.0

    def calls(name):
        return stats[name]["calls"] / ops if name in stats else 0

    def self_s(name):
        return stats[name]["self_s"] / ops if name in stats else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in ("cli.cmd_sample_groups", "cli.cmd_match", "cli.cmd_postprocess",
                 "cli.cmd_eval_triangulation", "cli.write_warp_file", "cli.read_warp_file",
                 "oracle.simulate_matcher", "oracle.gt_warp", "tracks.sample_tracks",
                 "features.features", "attention.exchange_features",
                 "attention.attentional_sampling", "attention.track_transformer",
                 "attention.attentional_splatting", "matcher.run_group",
                 "matcher.global_match", "matcher.mvfuse", "matcher.ConvStack.apply",
                 "grids.local_correlation", "grids.warp_features", "grids.upsample_warp",
                 "kernels.local_corr", "kernels.conv2d", "kernels.depthwise_conv2d",
                 "kernels.bilinear_gather", "kernels.nms_greedy", "kernels.zbuffer_min",
                 "postprocess.select_matches", "postprocess.reciprocity_filter",
                 "postprocess.postprocess_group", "grouping.overlap_from_matches",
                 "grouping.sample_groups", "geometry.triangulate_observations",
                 "geometry.accuracy_completeness"):
        m[f"{name}.total_s"] = total(name)
    for name in ("oracle.gt_warp", "tracks.kmeans", "features.features",
                 "matcher.run_group", "kernels.conv2d"):
        m[f"{name}.calls"] = calls(name)
    m["tracks.kmeans.self_s"] = self_s("tracks.kmeans")
    m["features.cache_hit_ratio"] = ratio(counts.get("features.hits", 0.0),
                                          calls("features.features"))
    for name in ("matcher.global_match", "matcher.mvfuse", "kernels.conv2d",
                 "kernels.depthwise_conv2d"):
        m[f"{name}.peak_alloc_mb"] = tracer.peaks.get(name, 0.0)
    for level in LEVELS:
        name = f"matcher.refine_level.L{level}"
        m[f"{name}.total_s"] = total(name)
        m[f"{name}.self_s"] = self_s(name)
    m.update(level_stats(tracer))
    for name in ("cli.write_warp_file.mb", "matcher.global_match.logit_mb",
                 "kernels.local_corr.cells", "kernels.conv2d.computed_mb",
                 "kernels.depthwise_conv2d.computed_mb", "kernels.bilinear_gather.points",
                 "postprocess.nms_select.keypoints", "grouping.sample_groups.groups"):
        m[name] = counts.get(name, 0.0)
    m["postprocess.reciprocity_filter.keep_ratio"] = ratio(
        counts.get("postprocess.reciprocity_filter.kept", 0.0),
        counts.get("postprocess.reciprocity_filter.pixels", 0.0))
    m["postprocess.assemble_tracks.tracks_per_keypoint"] = ratio(
        counts.get("postprocess.assemble_tracks.tracks", 0.0),
        counts.get("postprocess.assemble_tracks.keypoints", 0.0))
    return m
