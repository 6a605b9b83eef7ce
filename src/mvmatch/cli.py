"""Command-line interface.

Subcommands: gen-scene, build-tracks, match, postprocess, sample-groups,
eval-homography, eval-triangulation. Every run is deterministic for a fixed
config, seed and BLAS thread count: reruns produce byte-identical
MVWF/TSV/CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from .config import PipelineConfig, load_config, positive_finite_list, save_config
from .geometry import (corner_auc, corner_error, dlt_homography,
                       ransac_homography, accuracy_completeness,
                       triangulate_observations)
from .grids import DenseWarpField, read_warp_file, write_warp_file
from .grouping import (ImageGroup, default_budget,
                       overlap_from_descriptors, overlap_from_matches,
                       read_group_manifest, read_manifest_groups, sample_groups,
                       write_group_manifest)
from .matcher import init_matcher_params, run_group
from .features import OracleFeatureProvider
from .oracle import (gt_warp, load_scene, make_planar_scene, make_point_cloud_scene,
                     planar_transfer, save_scene, simulate_matcher)
from .postprocess import (match_statistics, postprocess_group,
                          reciprocity_filter, select_matches, write_statistics)
from .tracks import (read_track_rows, sample_tracks, write_track_rows,
                     write_tracks_tsv)


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:  # not a number: rejected below with the flag's name
        values = ()
    if not positive_finite_list(values):
        raise ValueError(f"--threshold must be a non-empty, comma-separated list "
                         f"of finite values > 0, got {text!r}")
    return values


def _load_cfg(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return PipelineConfig()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _default_group(num_views: int, k: int) -> ImageGroup:
    return ImageGroup(0, tuple(range(1, min(num_views, k + 1))))


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _group_tracks(scene, group: ImageGroup, cfg: PipelineConfig, seed: int):
    """Track tokens sampled from ``group``'s simulated matches, and the match count."""
    coords, vis = simulate_matcher(scene, group, cfg.matcher_samples, cfg.matcher_noise_sigma,
                                   cfg.matcher_outlier_rate, seed=seed)
    return sample_tracks(coords, vis, cfg.track_tokens, seed=seed), len(coords)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_scene(args) -> int:
    cfg = _load_cfg(args)
    for flag, value in (("--image-size", args.image_size), ("--points", args.points)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if args.views < 2:
        raise ValueError(f"--views must be >= 2, got {args.views}")
    size = cfg.base_resolution if args.image_size is None else args.image_size
    if size % cfg.strides[0]:
        raise ValueError(f"image size {size} is not divisible by the coarsest "
                         f"stride {cfg.strides[0]}")
    out = _out_dir(args)
    if args.kind == "planar":
        scene = make_planar_scene(args.views, (size, size), args.seed)
    else:
        scene = make_point_cloud_scene(args.views, (size, size), args.seed,
                                       num_points=args.points)
    path = out / "scene.json"
    save_scene(path, scene)
    print(f"wrote {path} ({args.kind}, {scene.num_views} views, {size}x{size})")
    return 0


def cmd_build_tracks(args) -> int:
    cfg = _load_cfg(args)
    scene = load_scene(args.scene)
    group = _default_group(scene.num_views, cfg.targets_per_group)
    tracks, matches = _group_tracks(scene, group, cfg, args.seed)
    if cfg.track_tokens > matches:
        print(f"mvmatch build-tracks: warning: track budget {cfg.track_tokens} exceeds "
              f"{matches} raw matches; capping", file=sys.stderr)
    path = _out_dir(args) / "tracks.tsv"
    write_tracks_tsv(path, tracks)
    print(f"wrote {path} ({len(tracks)} tracks from {matches} matches)")
    return 0


def cmd_sample_groups(args) -> int:
    cfg = _load_cfg(args)
    if args.warps:
        warps = _load_warp_bank(Path(args.warps))
        m = 1 + max(max(pair) for pair in warps)
        overlap = overlap_from_matches(warps, m, cfg.group_tau_conf)
    elif args.descriptors:
        try:
            with warnings.catch_warnings(action="ignore"):  # an empty table is rejected below
                overlap = overlap_from_descriptors(
                    np.loadtxt(args.descriptors, delimiter="\t", ndmin=2))
        except ValueError as exc:
            raise ValueError(f"{args.descriptors}: {exc}") from None
        m = overlap.num_images
    elif args.scene:
        scene = load_scene(args.scene)
        m = scene.num_views
        warps = {}
        for i in range(m):
            for j in range(m):
                if i != j:
                    warps[(i, j)] = gt_warp(scene, i, j)
        overlap = overlap_from_matches(warps, m, cfg.group_tau_conf)
    else:
        raise ValueError("needs --scene, --warps or --descriptors")
    budget = default_budget(m, args.budget == "half")
    stage1, stage2 = sample_groups(overlap, cfg, budget)
    # stage-1 groups come first in the manifest, so their index is the group id
    empty = [(gid, g.source) for gid, g in enumerate(stage1) if not g.targets]
    if empty:
        ids = ", ".join(str(gid) for gid, _ in empty)
        sources = ", ".join(str(s) for s in sorted({s for _, s in empty}))
        print(f"mvmatch sample-groups: warning: group(s) {ids} (source(s) {sources}) "
              "have no targets", file=sys.stderr)
    path = _out_dir(args) / "groups.json"
    write_group_manifest(path, stage1, stage2)
    print(f"wrote {path} ({len(stage1)} stage-1 + {len(stage2)} stage-2 groups, "
          f"budget {budget})")
    return 0


def cmd_match(args) -> int:
    cfg = _load_cfg(args)
    scene = load_scene(args.scene)
    if any(n % cfg.strides[0] for n in scene.image_size):
        raise ValueError(f"{args.scene}: image size {scene.image_size} is not divisible "
                         f"by the coarsest stride {cfg.strides[0]}")
    if args.groups:
        groups = [g for g, _ in read_group_manifest(args.groups)]
        outside = [str(gid) for gid, g in enumerate(groups)
                   if not all(0 <= v < scene.num_views for v in g.views)]
        if outside:
            raise ValueError(f"{args.groups}: group(s) {', '.join(outside)} name a view "
                             f"outside [0, {scene.num_views})")
        if not any(g.targets for g in groups):
            raise ValueError(f"{args.groups}: no group has a target")
    else:
        groups = [_default_group(scene.num_views, cfg.targets_per_group)]
    provider = OracleFeatureProvider(scene, dim=cfg.feature_dim, seed=args.seed)
    # each group with targets reads its views' grids; the last one drops them
    provider.plan(Counter(v for g in groups if g.targets for v in g.views))
    params = init_matcher_params(cfg, seed=args.seed)
    manifest = {"seed": args.seed, "strides": list(cfg.strides),
                "scene": Path(args.scene).name, "groups": [],
                "config": json.loads(cfg.to_json())}
    capped = []
    tokens = {}  # every group's tracks, built before --out exists
    for gid, group in enumerate(groups):
        if not group.targets:
            continue
        try:
            tokens[gid], matches = _group_tracks(scene, group, cfg, args.seed + gid)
        except ValueError as exc:
            raise ValueError(f"group {gid} (source {group.source}): {exc}") from None
        if cfg.track_tokens > matches:
            capped.append(f"{gid} ({matches} matches)")
    empty = [gid for gid, group in enumerate(groups) if not group.targets]
    if empty:
        print(f"mvmatch match: warning: skipped group(s) {', '.join(map(str, empty))} "
              "with no targets", file=sys.stderr)
    if capped:
        print(f"mvmatch match: warning: track budget {cfg.track_tokens} exceeds the raw "
              f"matches of group(s) {', '.join(capped)}; capping", file=sys.stderr)
    out = _out_dir(args)
    for gid, tracks in tokens.items():
        group = groups[gid]
        warps = run_group(group, provider, tracks, params)
        for tgt, warp in sorted(warps.items()):
            name = f"warp_g{gid:04d}_{group.source:03d}_{tgt:03d}.mvwf"
            write_warp_file(out / name, warp)
        manifest["groups"].append({"id": gid, "source": group.source,
                                   "targets": list(group.targets)})
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(manifest['groups'])} group(s) of warps to {out}")
    return 0


def _load_warp_bank(warps_dir: Path) -> dict[tuple[int, int], DenseWarpField]:
    """The warps of every MVWF file in ``warps_dir``, pooled per ordered pair
    (named by each file's header) by ``select_matches``. A directory with no
    MVWF file, or with warps of two grid sizes, raises a ValueError naming it."""
    candidates: dict[tuple[int, int], list[DenseWarpField]] = {}
    for path in sorted(warps_dir.glob("*.mvwf")):
        warp = read_warp_file(path)
        candidates.setdefault((warp.source_view, warp.target_view), []).append(warp)
    if not candidates:
        raise ValueError(f"no MVWF files under {warps_dir}")
    sizes = sorted({(w.height, w.width) for ws in candidates.values() for w in ws})
    if len(sizes) > 1:
        raise ValueError(f"{warps_dir}: warps are {sizes[0]} and {sizes[-1]}; "
                         "a warp bank holds one grid size")
    return {pair: select_matches(ws)[0] for pair, ws in candidates.items()}


def _reciprocal_keeps(selected: dict[tuple[int, int], DenseWarpField], eps_p: float,
                      command: str) -> dict[tuple[int, int], np.ndarray]:
    """Each pair's reciprocity keep-mask. A pair without a reverse warp keeps
    nothing, and ``command`` names all such pairs in one warning on stderr."""
    keeps = {}
    one_way = []
    for (a, b), warp in selected.items():
        back = selected.get((b, a))
        if back is None:
            one_way.append((a, b))
            keeps[(a, b)] = np.zeros((warp.height, warp.width), dtype=bool)
        else:
            keeps[(a, b)] = reciprocity_filter(warp, back, eps_p)
    if one_way:
        pairs = ", ".join(f"{a}->{b}" for a, b in sorted(one_way))
        print(f"mvmatch {command}: warning: no reverse warp for pairs {pairs}; "
              "none of their matches can pass the reciprocity check", file=sys.stderr)
    return keeps


def cmd_postprocess(args) -> int:
    cfg = _load_cfg(args)
    warps_dir = Path(args.warps)
    groups = [group for group, in read_manifest_groups(warps_dir / "manifest.json")]
    selected = _load_warp_bank(warps_dir)
    keeps = _reciprocal_keeps(selected, cfg.eps_p, "postprocess")
    track_sets = []
    num_views = 1 + max(max(pair) for pair in selected)
    emitted = set()  # a repeated group reads the same warps, so it gives the same tracks
    for group in groups:
        usable = [t for t in group.targets if (group.source, t) in selected]
        key = (group.source, tuple(sorted(usable)))
        if not usable or key in emitted:
            continue
        emitted.add(key)
        tracks = postprocess_group(group.source, usable, selected, keeps,
                                   cfg.tau, cfg.nms_radius, cfg.max_keypoints)
        track_sets.append((tracks, (group.source,) + tuple(usable)))
    out = _out_dir(args)
    path = out / "sfm_tracks.tsv"
    write_track_rows(path, num_views, track_sets)
    stats = match_statistics(keeps, [tracks for tracks, _ in track_sets])
    write_statistics(out / "stats.json", stats)
    print(f"wrote {path} ({stats['track_count']} tracks) and stats.json")
    return 0


def _stratified_matches(warp: DenseWarpField, keep: np.ndarray, tau: float,
                        max_matches: int, seed: int):
    """Confidence-stratified uniform sampling of kept matches (<= max_matches)."""
    valid = keep & (warp.confidence > tau)
    ys, xs = np.nonzero(valid)
    if ys.size == 0:
        return np.empty((0, 2)), np.empty((0, 2))
    conf = warp.confidence[ys, xs]
    rng = np.random.Generator(np.random.PCG64(seed))
    if ys.size > max_matches:
        bins = np.clip((conf * 10).astype(int), 0, 9)
        chosen = []
        per_bin = max_matches // 10
        leftover = []
        for b in range(10):
            idx = np.nonzero(bins == b)[0]
            if idx.size == 0:
                continue
            take = min(per_bin, idx.size)
            pick = rng.choice(idx, size=take, replace=False)
            chosen.append(pick)
            if idx.size > take:
                leftover.append(np.setdiff1d(idx, pick, assume_unique=False))
        chosen = np.concatenate(chosen) if chosen else np.empty(0, dtype=int)
        if chosen.size < max_matches and leftover:
            pool = np.concatenate(leftover)
            extra = rng.choice(pool, size=min(max_matches - chosen.size, pool.size),
                               replace=False)
            chosen = np.concatenate([chosen, extra])
        chosen = np.sort(chosen)
        ys, xs = ys[chosen], xs[chosen]
    src = np.stack([xs, ys], axis=1).astype(np.float64)
    dst = warp.targets[ys, xs]
    return src, dst


def cmd_eval_homography(args) -> int:
    cfg = _load_cfg(args)
    thresholds = _parse_thresholds(args.threshold) if args.threshold \
        else cfg.homography_thresholds
    scene = load_scene(args.scene)
    if scene.kind != "planar":
        raise ValueError("requires a planar scene")
    selected = _load_warp_bank(Path(args.warps))
    try:  # every pair must name two views of the scene, at its size
        transfers = {pair: planar_transfer(scene, *pair) for pair in selected}
    except ValueError as exc:
        raise ValueError(f"{args.warps}: {exc}") from None
    size = next(iter(selected.values())).targets.shape[:2]
    if size != scene.image_size:
        raise ValueError(f"{args.warps}: warps are {size}, the scene is {scene.image_size}")
    keeps = _reciprocal_keeps(selected, cfg.eps_p, "eval-homography")
    errors = {"dlt": [], "ransac": []}
    pairs_used = 0
    for (a, b), warp in sorted(selected.items()):
        # a pair without a reverse warp keeps no match, so it is skipped below
        src, dst = _stratified_matches(warp, keeps[(a, b)], cfg.tau,
                                       cfg.eval_max_matches, seed=args.seed)
        if src.shape[0] < 4:
            continue
        gt = transfers[(a, b)] / transfers[(a, b)][2, 2]
        pairs_used += 1
        h_dlt = dlt_homography(src, dst)
        errors["dlt"].append(corner_error(h_dlt, gt, scene.image_size))
        h_ransac, _ = ransac_homography(src, dst, cfg.ransac_threshold,
                                        cfg.ransac_iters, seed=args.seed)
        errors["ransac"].append(corner_error(h_ransac, gt, scene.image_size))
    path = _out_dir(args) / "homography_auc.csv"
    with open(path, "w") as f:
        f.write("solver,threshold_px,auc,pairs\n")
        for solver in ("dlt", "ransac"):
            if errors[solver]:
                aucs = corner_auc(np.sort(errors[solver]), thresholds)  # summed in ascending order
            else:
                aucs = {float(t): 0.0 for t in thresholds}
            for t in thresholds:
                f.write(f"{solver},{_fmt(float(t))},{_fmt(aucs[float(t)])},{pairs_used}\n")
    print(f"wrote {path} ({pairs_used} pairs)")
    return 0


def cmd_eval_triangulation(args) -> int:
    cfg = _load_cfg(args)
    thresholds = _parse_thresholds(args.threshold) if args.threshold \
        else cfg.triangulation_thresholds
    scene = load_scene(args.scene)
    if scene.kind != "point_cloud":
        raise ValueError("requires a point-cloud scene")
    # a view id the scene has no camera for is rejected with the row's line
    coords, visibility = read_track_rows(args.tracks, max_views=len(scene.cameras))
    points, _, skipped = triangulate_observations(coords, visibility, scene.cameras)
    table = accuracy_completeness(points, scene.points, thresholds)
    path = _out_dir(args) / "triangulation.csv"
    with open(path, "w") as f:
        f.write("threshold,accuracy,completeness,triangulated,skipped\n")
        for t in thresholds:
            row = table[float(t)]
            f.write(f"{_fmt(float(t))},{_fmt(row['accuracy'])},"
                    f"{_fmt(row['completeness'])},{points.shape[0]},{skipped}\n")
    print(f"wrote {path} ({points.shape[0]} points, {skipped} skipped)")
    return 0


def cmd_init_config(args) -> int:
    out = _out_dir(args)
    path = out / "config.json"
    save_config(path, PipelineConfig())
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmatch",
        description="Multi-view dense matching and SfM track extraction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="config JSON file")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--out", type=str, required=True, help="output directory")

    p = sub.add_parser("gen-scene", help="generate a synthetic scene")
    common(p)
    p.add_argument("--kind", choices=["planar", "point-cloud"], default="planar")
    p.add_argument("--views", type=int, default=5)
    p.add_argument("--image-size", type=int, default=None)
    p.add_argument("--points", type=int, default=4000)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("build-tracks", help="simulate matches and sample track tokens")
    common(p)
    p.add_argument("--scene", type=str, required=True)
    p.set_defaults(func=cmd_build_tracks)

    p = sub.add_parser("sample-groups", help="two-stage covisibility group sampling")
    common(p)
    p.add_argument("--scene", type=str, default=None,
                   help="scene file (ground-truth visibility overlap)")
    p.add_argument("--warps", type=str, default=None,
                   help="directory of MVWF files (matcher-output overlap)")
    p.add_argument("--descriptors", type=str, default=None,
                   help="TSV table of per-image global descriptors")
    p.add_argument("--budget", choices=["full", "half"], default="full")
    p.set_defaults(func=cmd_sample_groups)

    p = sub.add_parser("match", help="run the multi-view matcher over groups")
    common(p)
    p.add_argument("--scene", type=str, required=True)
    p.add_argument("--groups", type=str, default=None, help="group manifest JSON")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("postprocess", help="select, filter and sample SfM tracks")
    common(p)
    p.add_argument("--warps", type=str, required=True, help="directory of MVWF files")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("eval-homography", help="DLT/RANSAC corner-error AUC")
    common(p)
    p.add_argument("--scene", type=str, required=True)
    p.add_argument("--warps", type=str, required=True)
    p.add_argument("--threshold", type=str, default=None, help="comma-separated px list")
    p.set_defaults(func=cmd_eval_homography)

    p = sub.add_parser("eval-triangulation", help="triangulation accuracy/completeness")
    common(p)
    p.add_argument("--scene", type=str, required=True)
    p.add_argument("--tracks", type=str, required=True)
    p.add_argument("--threshold", type=str, default=None,
                   help="comma-separated distance list")
    p.set_defaults(func=cmd_eval_triangulation)

    p = sub.add_parser("init-config", help="write the default config file")
    common(p)
    p.set_defaults(func=cmd_init_config)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. A ValueError or OSError it raises becomes one
    line on stderr, ``mvmatch <command>: error: <message>``, and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # every command takes --seed; reject it before --out exists
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"mvmatch {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
