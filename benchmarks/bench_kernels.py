"""Time the gather/scatter/stencil, exchange and global-match kernels on production-sized inputs.

Run:  python benchmarks/bench_kernels.py [--repeats 5]

Prints the best per-call latency of each kernel in ``mvmatch.kernels``; the
local correlation is timed at the refiner's (size, window) pairs and at the
48 px scene's finest level, each under a uniform-random warp and a smooth
one (a slight rotation and zoom): its products are keyed by target block,
so the two make the same products, but the random warp's scattered reads
and writes cost more at 168^2. Its labels name ``kernels._CORR_BLOCK``,
and one more case times it at the shipped finest level (672^2, window 5,
smooth warp; 2 x 116 MB of features). The plain ``local_corr`` cases
pass a band callback that keeps nothing, so they time the products and
blends alone. The refiner's level-1 band pass, ``matcher._read_moves``
(that window-5 correlation with each band's readout and sub-cell verify,
at gain 0, so no volume), is timed at 168^2 and 672^2 under the smooth
warp; set against the plain ``local_corr`` cases of the same size, it
shows what the readout and verify add. It is
also timed, under the smooth warp, on the features of the 48 px point-cloud
scene (views 0 and 1 of the ``scene-pc-48`` workload at seed 1, stride 1),
where the source pixels that see no surface have zero features and are
left out of the correlation. The
convolutions are timed at the non-zero-gain refiner's
finest 168 px level: the conv stack's 3 x 3 convolutions (89 -> 48 and
48 -> 48 channels), the 3 x 3 head (48 -> 3) and MVFuse's depthwise 7 x 7
over 48 channels. The
track-guided exchange's sampling and splatting are timed with D = 32 and
about 10% of the tracks invisible in the view; as in the pipeline, sampling
gets only the visible tracks and splatting gets all of them with their
visibility. Both run at the coarse grids of three benchmark workloads: the
shipped 672 px (84^2 cells, 512 tracks), 168 px (21^2 cells, 128 tracks)
and the 48 px scene (6^2 cells, 128 tracks). On
the small grids a window is most of the grid, so there its bookkeeping
shows. The coarse global match is timed with unit-norm D = 32 features at
the shipped temperature 0.002, at the shipped 84^2 coarse grid against 84^2
anchors and at 21^2 against 21^2 anchors (441, not a multiple of 8, so
its pad columns show). Track building is timed on the inputs of
two benchmark workloads at seed 1: ``simulate_matcher`` with 2000 samples
on a 672 px planar scene and 800 samples on a 48 px point-cloud scene, and
``kmeans`` on each one's largest visibility partition with the cluster count
its track budget (512 and 128 tokens) allots. Triangulation and the
accuracy/completeness search are timed on the SfM tracks (about 765) that
one operation of the ``scene-pc-48`` benchmark workload in ``perfbench``
writes at seed 1.
"""

import argparse
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
from mvmatch import attention, kernels  # noqa: E402
from mvmatch.config import PipelineConfig  # noqa: E402
from mvmatch.features import OracleFeatureProvider  # noqa: E402
from mvmatch.geometry import accuracy_completeness, triangulate_observations  # noqa: E402
from mvmatch.grids import DenseWarpField, FeatureGrid  # noqa: E402
from mvmatch.grouping import ImageGroup  # noqa: E402
from mvmatch.matcher import AnchorGrid, _read_moves, global_match  # noqa: E402
from mvmatch.oracle import (make_planar_scene, make_point_cloud_scene,  # noqa: E402
                            load_scene, simulate_matcher)
from mvmatch.tracks import (allocate_clusters, kmeans,  # noqa: E402
                            partition_by_visibility, read_track_rows)
from workloads import WORKLOADS  # noqa: E402


def timeit(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def scene_chain_tracks(work):
    """Scene and SfM tracks of one ``scene-pc-48`` benchmark operation at seed 1."""
    workload = WORKLOADS["scene-pc-48"]
    workload.setup(work, 1)
    if workload.op(work, work / "out", 1):
        raise RuntimeError("scene-pc-48 operation failed")
    scene = load_scene(work / "scene.json")
    return scene, read_track_rows(work / "out" / "post" / "sfm_tracks.tsv",
                                  max_views=len(scene.cameras))


def smooth_warp(size):
    """Targets of a 3 degree rotation and 5% zoom about the grid centre."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64) - (size - 1) / 2
    a = np.deg2rad(3.0)
    x = 1.05 * (np.cos(a) * xs - np.sin(a) * ys)
    y = 1.05 * (np.sin(a) * xs + np.cos(a) * ys)
    return np.stack([x, y], axis=-1) + (size - 1) / 2


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    h, w, c = 168, 168, 32

    feat = rng.normal(size=(h, w, c))
    tgt = rng.normal(size=(h, w, c))
    xs = rng.uniform(-2, w + 1, h * w)
    ys = rng.uniform(-2, h + 1, h * w)
    scores = rng.uniform(-0.5, 1.0, size=(h, w))
    n_pts = 200_000
    px = rng.integers(0, w, n_pts)
    py = rng.integers(0, h, n_pts)
    depth = rng.uniform(1, 10, n_pts)

    cases = [
        ("bilinear_gather (28k pts, 32ch)", lambda: kernels.bilinear_gather(feat, xs, ys)),
        ("upsample_linear (x2)", lambda: kernels.upsample_linear(feat, 2)),
        ("nms_greedy (168^2, r=2)", lambda: kernels.nms_greedy(scores, 2, 0)),
        ("zbuffer_min (200k pts)", lambda: kernels.zbuffer_min(px, py, depth, h, w)),
    ]
    block = kernels._CORR_BLOCK

    def keep_nothing(pix, scores, score_at):
        pass

    for size, window in ((168, 5), (84, 7), (42, 9), (48, 5)):
        src = np.ascontiguousarray(feat[:size, :size])
        dst = np.ascontiguousarray(tgt[:size, :size])
        warps = {"random": rng.uniform(0, size - 1, size=(size, size, 2)),
                 "smooth": smooth_warp(size)}
        for kind, warp in warps.items():
            cases.append((f"local_corr ({size}^2, win {window}, {kind}, block {block})",
                          partial(kernels.local_corr, src, dst, warp, window, keep_nothing)))
    # the shipped finest level: 672 px at stride 1
    big_src, big_dst = rng.normal(size=(2, 672, 672, c))
    cases.append((f"local_corr (672^2, win 5, smooth, block {block})",
                  partial(kernels.local_corr, big_src, big_dst, smooth_warp(672), 5,
                          keep_nothing)))
    temperature = PipelineConfig().softargmax_temperature
    for src, dst in ((feat, tgt), (big_src, big_dst)):
        size = src.shape[0]
        warp = DenseWarpField(smooth_warp(size), np.ones((size, size)), 0, 1)
        cases.append((f"level-1 band pass + verify ({size}^2, win 5, smooth)",
                      partial(_read_moves, FeatureGrid(src), FeatureGrid(dst), warp, 5,
                              temperature, True, False)))
    cloud = make_point_cloud_scene(5, (48, 48), 1)
    provider = OracleFeatureProvider(cloud, dim=PipelineConfig().feature_dim, seed=1)
    src, dst = provider.features(0, 1), provider.features(1, 1)
    zero = 1.0 - src.data.any(axis=-1).mean()
    cases.append((f"level-1 pass + verify (48^2 scene, win 5, {zero:.0%} zero)",
                  partial(_read_moves, src, dst,
                          DenseWarpField(smooth_warp(48), np.ones((48, 48)), 0, 1), 5,
                          temperature, True, False)))

    hidden = PipelineConfig().hidden_dim
    for cin, cout in ((2 * c + 25, hidden), (hidden, hidden), (hidden, 3)):
        cases.append((f"conv2d (168^2, 3x3, {cin} -> {cout})",
                      partial(kernels.conv2d, rng.normal(size=(h, w, cin)),
                              rng.normal(size=(3, 3, cin, cout)), np.zeros(cout))))
    cases.append((f"depthwise_conv2d (168^2, 7x7, {hidden})",
                  partial(kernels.depthwise_conv2d, rng.normal(size=(h, w, hidden)),
                          rng.normal(size=(7, 7, hidden)), np.zeros(hidden))))

    params = attention.init_attention_params(c, sigma=1.0, seed=0)
    for side, tracks in ((84, 512), (21, 128), (6, 128)):
        grid = FeatureGrid(rng.normal(size=(side, side, c)))
        track_xy = rng.uniform(0, side - 1, size=(tracks, 2))
        track_feats = rng.normal(size=(tracks, c))
        visible = rng.random(tracks) >= 0.1
        cases += [
            (f"attentional_sampling ({side}^2, {tracks} tr)",
             partial(attention.attentional_sampling, grid, track_xy[visible], params)),
            (f"attentional_splatting ({side}^2, {tracks} tr)",
             partial(attention.attentional_splatting, grid, track_feats, track_xy,
                     visible, params)),
        ]

    for side in (84, 21):
        src, tgt = rng.normal(size=(2, side, side, c))
        src /= np.linalg.norm(src, axis=-1, keepdims=True)
        tgt /= np.linalg.norm(tgt, axis=-1, keepdims=True)
        cases.append((f"global_match ({side}^2 -> {side}^2, tau 0.002)",
                      partial(global_match, FeatureGrid(src), FeatureGrid(tgt),
                              AnchorGrid.uniform(side, side, (side, side)),
                              PipelineConfig().global_temperature)))

    group = ImageGroup(0, (1, 2, 3, 4))
    for scene, samples, budget in ((make_planar_scene(5, (672, 672), 1), 2000, 512),
                                   (cloud, 800, 128)):
        size = scene.image_size[0]
        cases.append((f"simulate_matcher ({size} px {scene.kind}, {samples})",
                      partial(simulate_matcher, scene, group, samples, 0.5, 0.05, 1)))
        raw, raw_vis = simulate_matcher(scene, group, samples, 0.5, 0.05, seed=1)
        parts = partition_by_visibility(raw_vis)
        counts, _ = allocate_clusters(parts, budget)
        big = max(range(len(parts)), key=lambda i: parts[i].size)
        pts = raw[parts[big].members][:, np.asarray(parts[big].mask, dtype=bool)]
        pts = pts.reshape(parts[big].size, -1)
        cases.append((f"kmeans ({pts.shape[0]} x {counts[big]} x {pts.shape[1]})",
                      partial(kmeans, pts, int(counts[big]), 1)))

    with tempfile.TemporaryDirectory() as work:
        scene, (sfm_xy, sfm_vis) = scene_chain_tracks(Path(work))
    points, _, _ = triangulate_observations(sfm_xy, sfm_vis, scene.cameras)
    cases += [
        (f"triangulate_observations ({len(sfm_xy)} tracks)",
         partial(triangulate_observations, sfm_xy, sfm_vis, scene.cameras)),
        (f"accuracy_completeness ({len(points)} x {len(scene.points)})",
         partial(accuracy_completeness, points, scene.points,
                 PipelineConfig().triangulation_thresholds)),
    ]

    print(f"backend: {kernels.BACKEND}; repeats: {args.repeats} (best time shown)")
    print(f"{'kernel':52s} {'numpy':>10s}")
    for name, fn in cases:
        print(f"{name:52s} {timeit(fn, args.repeats) * 1e3:9.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
