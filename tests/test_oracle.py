import warnings

import numpy as np
import pytest

from mvmatch.features import OracleFeatureProvider
from mvmatch.grids import MISSING
from mvmatch.grouping import ImageGroup
from mvmatch.oracle import (PinholeCamera, SceneOracle, _point_cloud_buffers,
                            gt_track_error, gt_warp, gt_transfer_points, load_scene,
                            make_planar_scene, make_point_cloud_scene, save_scene,
                            simulate_matcher)
from mvmatch.tracks import Tracks
import mvmatch.kernels as kernels

from oracles import loop_simulate_matcher


def translation_scene(tx, size=(16, 16)):
    """Source homography shifts by +tx into the reference; target is identity."""
    h = np.eye(3)
    h[0, 2] = tx
    return SceneOracle("planar", size, 0, homographies=(h, np.eye(3)))


class TestGtWarpPlanar:
    def test_identity_pair(self):
        scene = SceneOracle("planar", (8, 8), 0, homographies=(np.eye(3), np.eye(3)))
        warp = gt_warp(scene, 0, 1)
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="xy")
        np.testing.assert_allclose(warp.targets[..., 0], xs)
        np.testing.assert_allclose(warp.targets[..., 1], ys)
        np.testing.assert_array_equal(warp.confidence, 1.0)

    def test_pure_translation(self):
        scene = translation_scene(3.0)
        warp = gt_warp(scene, 0, 1)
        xs = np.arange(16.0)
        np.testing.assert_allclose(warp.targets[..., 0], np.tile(xs + 3.0, (16, 1)))
        # pixels within 3 px of the right edge leave the target frame
        assert np.all(warp.confidence[:, :13] == 1.0)
        assert np.all(warp.confidence[:, 13:] == 0.0)

    def test_cycle_composition_is_identity(self):
        scene = make_planar_scene(3, (24, 24), seed=5)
        fwd = gt_warp(scene, 0, 2)
        bwd = gt_warp(scene, 2, 0)
        t = fwd.targets.reshape(-1, 2)
        back = kernels.bilinear_gather(bwd.targets, t[:, 0], t[:, 1])
        ys, xs = np.mgrid[0:24, 0:24]
        here = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
        both = (fwd.confidence.ravel() > 0)
        assert np.abs(back - here)[both].max() < 1e-4

    def test_covisibility_symmetric_without_occlusion(self):
        # a pixel covisible with its transfer implies the transfer is
        # covisible with the pixel (checked at integer-aligned transfers)
        scene = make_planar_scene(2, (20, 20), seed=3)
        fwd = gt_warp(scene, 0, 1)
        bwd = gt_warp(scene, 1, 0)
        ys, xs = np.nonzero(fwd.confidence > 0)
        t = fwd.targets[ys, xs]
        tx = np.clip(np.round(t[:, 0]).astype(int), 0, 19)
        ty = np.clip(np.round(t[:, 1]).astype(int), 0, 19)
        # rounding can push a boundary transfer just outside; keep pixels
        # whose source and transfer both sit strictly inside the frames
        interior = ((t[:, 0] > 1) & (t[:, 0] < 18) & (t[:, 1] > 1) & (t[:, 1] < 18)
                    & (xs > 0) & (xs < 19) & (ys > 0) & (ys < 19))
        assert np.all(bwd.confidence[ty[interior], tx[interior]] > 0)

    def test_invalid_pair_raises(self):
        scene = translation_scene(1.0)
        with pytest.raises(ValueError):
            gt_warp(scene, 0, 0)


class TestGtWarpPointCloud:
    def test_point_behind_target_excluded(self):
        k = np.array([[20.0, 0, 7.5], [0, 20.0, 7.5], [0, 0, 1]])
        cam0 = PinholeCamera(k, np.eye(3), np.zeros(3))
        # target camera sits far down +z and looks the same way: points at
        # z in (0, 5) lie behind it
        cam1 = PinholeCamera(k, np.eye(3), np.array([0.0, 0.0, -5.0]))
        pts = np.array([[0.0, 0.0, 2.0], [0.1, 0.1, 2.5], [-0.7, -0.7, 7.0]])
        scene = SceneOracle("point_cloud", (16, 16), 0, cameras=(cam0, cam1), points=pts)
        warp = gt_warp(scene, 0, 1)
        # the z=7 point is in front of both cameras and must be covisible
        uv0, _ = cam0.project(pts[2:])
        px, py = int(round(uv0[0, 0])), int(round(uv0[0, 1]))
        assert warp.confidence[py, px] == 1.0
        # the z<5 points are behind the target: nothing covisible there
        uv0, _ = cam0.project(pts[:2])
        for x, y in np.round(uv0).astype(int):
            assert warp.confidence[y, x] == 0.0

    def test_occlusion_zbuffer(self):
        k = np.array([[16.0, 0, 7.5], [0, 16.0, 7.5], [0, 0, 1]])
        cam0 = PinholeCamera(k, np.eye(3), np.zeros(3))
        # target displaced sideways so the near point occludes the far one
        r = np.eye(3)
        cam1 = PinholeCamera(k, r, np.array([-0.5, 0.0, 0.0]))
        near = np.array([0.25, 0.0, 2.0])
        far = near * 4.0  # same ray from cam0, four times the depth
        scene = SceneOracle("point_cloud", (16, 16), 0, cameras=(cam0, cam1),
                            points=np.stack([near, far]))
        warp = gt_warp(scene, 0, 1)
        uv0, _ = cam0.project(near[None])
        px, py = np.round(uv0[0]).astype(int)
        # the source pixel sees the near point; its transfer must be the near
        # point's target projection, not the far point's
        uv1, _ = cam1.project(near[None])
        np.testing.assert_allclose(warp.targets[py, px], uv1[0], atol=1e-9)

    def test_uncovered_pixels_sentinel(self):
        k = np.array([[10.0, 0, 3.5], [0, 10.0, 3.5], [0, 0, 1]])
        cams = (PinholeCamera(k, np.eye(3), np.zeros(3)),
                PinholeCamera(k, np.eye(3), np.array([0.1, 0, 0])))
        scene = SceneOracle("point_cloud", (8, 8), 0, cameras=cams,
                            points=np.array([[0.0, 0.0, 2.0]]))
        warp = gt_warp(scene, 0, 1)
        assert (warp.confidence > 0).sum() == 1
        uncovered = warp.confidence == 0
        assert np.all(warp.targets[uncovered] == MISSING)


class TestZBuffers:
    def test_one_zbuffer_per_view_and_stride(self, monkeypatch):
        scene = make_point_cloud_scene(3, (16, 16), seed=3, num_points=500)
        zbuffer_min = kernels.zbuffer_min
        sizes = []

        def counting(px, py, depth, h, w):
            sizes.append((h, w))
            return zbuffer_min(px, py, depth, h, w)

        monkeypatch.setattr(kernels, "zbuffer_min", counting)
        for _ in range(2):
            provider = OracleFeatureProvider(scene, dim=8)  # a fresh grid cache
            for stride in (1, 2):
                for source, target in ((0, 1), (1, 0), (2, 1), (0, 2)):
                    gt_warp(scene, source, target, stride)
                for view in range(3):
                    provider.features(view, stride)
        assert sorted(sizes) == [(8, 8)] * 3 + [(16, 16)] * 3

    def test_buffers_are_read_only(self):
        scene = make_point_cloud_scene(2, (16, 16), seed=3, num_points=100)
        zbuf, ibuf = _point_cloud_buffers(scene, 0, 1)
        with pytest.raises(ValueError):
            zbuf[0, 0] = 0.0
        with pytest.raises(ValueError):
            ibuf[0, 0] = 0

    def test_loaded_scenes_share_nothing_and_save_the_same_bytes(self, tmp_path):
        path, again = tmp_path / "scene.json", tmp_path / "again.json"
        save_scene(path, make_point_cloud_scene(2, (16, 16), seed=5, num_points=100))
        a, b = load_scene(path), load_scene(path)
        zbuf, ibuf = _point_cloud_buffers(a, 1, 2)
        assert not b._zbuffers
        for got, want in zip(_point_cloud_buffers(b, 1, 2), (zbuf, ibuf)):
            assert not np.shares_memory(got, want)
            np.testing.assert_array_equal(got, want)
        save_scene(again, a)
        assert again.read_bytes() == path.read_bytes()
        assert "_zbuffers" not in repr(a)

    def test_point_on_principal_plane_splats_nowhere(self):
        # a point at depth 0 projects to inf and NaN pixels; it must not be
        # cast to pixel indices (numpy warns on that cast), and the buffers
        # equal those of the scene without it
        k = np.array([[20.0, 0, 7.5], [0, 20.0, 7.5], [0, 0, 1]])
        cams = (PinholeCamera(k, np.eye(3), np.array([0.0, 0.0, 4.0])),
                PinholeCamera(k, np.eye(3), np.array([0.3, 0.0, 4.0])))
        gen = np.random.default_rng(2)
        pts = gen.uniform([-1.0, -1.0, -0.5], [1.0, 1.0, 0.5], size=(200, 3))
        on_plane = np.vstack([pts, [[0.0, 0.5, -4.0]]])
        without = SceneOracle("point_cloud", (16, 16), 0, cameras=cams, points=pts)
        scene = SceneOracle("point_cloud", (16, 16), 0, cameras=cams, points=on_plane)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for view in (0, 1):
                for got, want in zip(_point_cloud_buffers(scene, view, 1),
                                     _point_cloud_buffers(without, view, 1)):
                    np.testing.assert_array_equal(got, want)


class TestSimulateMatcher:
    def test_noiseless_matches_gt(self):
        scene = make_planar_scene(4, (32, 32), seed=9)
        group = ImageGroup(0, (1, 2, 3))
        coords, vis = simulate_matcher(scene, group, 100, 0.0, 0.0)
        warps = [gt_warp(scene, 0, t) for t in (1, 2, 3)]
        for c, v in zip(coords, vis):
            x, y = int(c[0, 0]), int(c[0, 1])
            for t in range(3):
                if v[t + 1]:
                    np.testing.assert_allclose(c[t + 1], warps[t].targets[y, x], atol=1e-6)

    def test_outlier_fraction(self):
        scene = make_planar_scene(2, (64, 64), seed=2)
        group = ImageGroup(0, (1,))
        sigma = 0.5
        coords, vis = simulate_matcher(scene, group, 1000, sigma, 0.3, seed=4)
        warp = gt_warp(scene, 0, 1)
        errs = []
        for c, v in zip(coords, vis):
            if v[1]:
                x, y = int(c[0, 0]), int(c[0, 1])
                errs.append(np.linalg.norm(c[1] - warp.targets[y, x]))
        frac = np.mean(np.array(errs) > 5 * sigma)
        assert abs(frac - 0.3) < 0.04

    def test_full_covisibility_single_target(self):
        scene = SceneOracle("planar", (16, 16), 0, homographies=(np.eye(3), np.eye(3)))
        _, vis = simulate_matcher(scene, ImageGroup(0, (1,)), 50)
        assert vis.shape == (50, 2) and vis.all()

    def test_bit_reproducible(self):
        scene = make_planar_scene(3, (32, 32), seed=1)
        group = ImageGroup(0, (1, 2))
        a = simulate_matcher(scene, group, 64, 1.0, 0.1, seed=11)
        b = simulate_matcher(scene, group, 64, 1.0, 0.1, seed=11)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_visibility_reflects_covisibility(self):
        scene = translation_scene(8.0)
        coords, vis = simulate_matcher(scene, ImageGroup(0, (1,)), 200, 0.0, 0.5, seed=3)
        warp = gt_warp(scene, 0, 1)
        x, y = coords[:, 0, 0].astype(int), coords[:, 0, 1].astype(int)
        np.testing.assert_array_equal(vis[:, 1], warp.confidence[y, x] > 0)

    def test_bad_outlier_rate_rejected(self):
        scene = translation_scene(1.0)
        with pytest.raises(ValueError):
            simulate_matcher(scene, ImageGroup(0, (1,)), 10, 0.0, 1.0)

    @pytest.mark.parametrize("kind", ["planar", "point_cloud"])
    @pytest.mark.parametrize("sigma, outlier_rate", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.3),
                                                      (2.0, 0.05)])
    def test_matches_loop_oracle(self, kind, sigma, outlier_rate):
        make = make_planar_scene if kind == "planar" else make_point_cloud_scene
        scene = make(5, (48, 48), seed=13)
        group = ImageGroup(0, (1, 2, 3, 4))
        got = simulate_matcher(scene, group, 700, sigma, outlier_rate, seed=2)
        want = loop_simulate_matcher(scene, group, 700, sigma, outlier_rate, seed=2)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert not got[1].all()  # some views are invisible, so the sentinel is exercised


class TestGtTrackError:
    def test_noiseless_tracks_error_free(self):
        scene = make_planar_scene(3, (32, 32), seed=6)
        group = ImageGroup(0, (1, 2))
        coords, vis = simulate_matcher(scene, group, 20, 0.0, 0.0)
        errs = gt_track_error(scene, Tracks(coords, vis))
        assert np.nanmax(errs) < 1e-6

    def test_three_four_five(self):
        scene = SceneOracle("planar", (32, 32), 0, homographies=(np.eye(3), np.eye(3)))
        token = Tracks(np.array([[[10.0, 10.0], [13.0, 14.0]]]),
                       np.array([[True, True]]))
        errs = gt_track_error(scene, token)
        assert errs[0, 1] == pytest.approx(5.0)

    def test_rayleigh_mean(self):
        scene = SceneOracle("planar", (64, 64), 0, homographies=(np.eye(3), np.eye(3)))
        rng = np.random.default_rng(0)
        sigma = 1.0
        coords = np.empty((1000, 2, 2))
        for i in range(1000):
            coords[i, 0] = rng.uniform(5, 58, size=2)
            coords[i, 1] = coords[i, 0] + rng.normal(0, sigma, size=2)
        errors = gt_track_error(scene, Tracks(coords, np.ones((1000, 2), dtype=bool)))[:, 1]
        expected = sigma * np.sqrt(np.pi / 2)
        assert abs(np.mean(errors) - expected) / expected < 0.10

    def test_source_only_track_rejected(self):
        scene = translation_scene(1.0)
        with pytest.raises(ValueError):
            token = Tracks(np.array([[[1.0, 1.0], [2.0, 2.0]]]), np.array([[True, True]]))
            object.__setattr__(token, "visibility", np.array([[True, False]]))
            gt_track_error(scene, token)


class TestSceneFiles:
    def test_planar_round_trip(self, tmp_path):
        scene = make_planar_scene(4, (48, 48), seed=13)
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        back = load_scene(path)
        assert back.kind == "planar"
        assert back.image_size == (48, 48)
        for a, b in zip(scene.homographies, back.homographies):
            np.testing.assert_array_equal(a, b)

    def test_point_cloud_round_trip(self, tmp_path):
        scene = make_point_cloud_scene(3, (32, 32), seed=17, num_points=200)
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        back = load_scene(path)
        assert back.kind == "point_cloud"
        np.testing.assert_array_equal(back.points, scene.points)
        for a, b in zip(scene.cameras, back.cameras):
            np.testing.assert_array_equal(a.rotation, b.rotation)
            np.testing.assert_array_equal(a.intrinsics, b.intrinsics)

    def test_byte_identical_rewrites(self, tmp_path):
        scene = make_point_cloud_scene(2, (16, 16), seed=1, num_points=50)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(p1, scene)
        save_scene(p2, scene)
        assert p1.read_bytes() == p2.read_bytes()


class TestTransferPoints:
    def test_matches_dense_warp(self):
        scene = make_planar_scene(2, (24, 24), seed=8)
        warp = gt_warp(scene, 0, 1)
        pts = np.array([[3.0, 4.0], [10.0, 17.0]])
        mapped, valid = gt_transfer_points(scene, 0, 1, pts)
        for (x, y), m in zip(pts.astype(int), mapped):
            np.testing.assert_allclose(warp.targets[y, x], m, atol=1e-9)

    def test_camera_validation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PinholeCamera(np.eye(3), np.eye(3) * 1.001, np.zeros(3))
        with pytest.raises(ValueError, match="focal"):
            k = np.eye(3)
            k[0, 0] = -2.0
            PinholeCamera(k, np.eye(3), np.zeros(3))
