import tracemalloc

import numpy as np
import pytest

from oracles import dense_nn_min_d2, loop_triangulate
from mvmatch.geometry import (DegenerateConfigurationError, _nn_min_d2,
                              accuracy_completeness, apply_homography, corner_auc,
                              corner_error, dlt_homography, ransac_homography,
                              triangulate_observations, triangulate_tracks)
from mvmatch.oracle import PinholeCamera
from mvmatch.tracks import Tracks


def random_homography(rng, scale=200.0):
    theta = rng.uniform(-0.4, 0.4)
    h = np.array([
        [np.cos(theta), -np.sin(theta), rng.uniform(-0.2, 0.2) * scale],
        [np.sin(theta), np.cos(theta), rng.uniform(-0.2, 0.2) * scale],
        [rng.uniform(-1, 1) * 1e-4, rng.uniform(-1, 1) * 1e-4, 1.0],
    ])
    return h * rng.uniform(0.9, 1.1)


def h_distance(a, b):
    a = a / a[2, 2]
    b = b / b[2, 2]
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)


class TestDlt:
    def test_four_point_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h_true = random_homography(rng)
            src = rng.uniform(0, 200, size=(4, 2))
            dst = apply_homography(h_true, src)
            h = dlt_homography(src, dst)
            assert h_distance(h, h_true) < 1e-8

    def test_identity(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 100, size=(8, 2))
        h = dlt_homography(pts, pts)
        assert h_distance(h, np.eye(3)) < 1e-9

    def test_collinear_degenerate(self):
        src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 1.0]])
        with pytest.raises(DegenerateConfigurationError):
            dlt_homography(src, src)

    def test_needs_four_pairs(self):
        with pytest.raises(ValueError):
            dlt_homography(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_similarity_equivariance(self):
        # pre-transforming the source points changes the recovered H by
        # exactly that similarity: y ~ H x implies y ~ (H S^-1) (S x)
        rng = np.random.default_rng(2)
        h_true = random_homography(rng)
        src = rng.uniform(0, 300, size=(12, 2))
        dst = apply_homography(h_true, src)
        s = np.array([[2.0, 0.0, 11.0], [0.0, 2.0, -7.0], [0.0, 0.0, 1.0]])
        h1 = dlt_homography(apply_homography(s, src), dst)
        h0 = dlt_homography(src, dst)
        assert h_distance(h1, h0 @ np.linalg.inv(s)) < 1e-8


class TestRansac:
    def test_outlier_free_matches_dlt(self):
        rng = np.random.default_rng(3)
        h_true = random_homography(rng)
        src = rng.uniform(0, 300, size=(100, 2))
        dst = apply_homography(h_true, src)
        h_r, mask = ransac_homography(src, dst, 3.0, seed=0)
        h_d = dlt_homography(src, dst)
        assert mask.all()
        assert h_distance(h_r, h_d) < 1e-6

    def test_exact_inlier_recovery(self):
        rng = np.random.default_rng(4)
        h_true = random_homography(rng)
        src = rng.uniform(20, 280, size=(100, 2))
        dst = apply_homography(h_true, src)
        outliers = rng.choice(100, size=30, replace=False)
        truth = np.ones(100, dtype=bool)
        truth[outliers] = False
        dst[outliers] += rng.uniform(20, 80, size=(30, 2)) * rng.choice([-1, 1], (30, 2))
        h, mask = ransac_homography(src, dst, 3.0, seed=1)
        np.testing.assert_array_equal(mask, truth)

    def test_three_pairs_rejected(self):
        with pytest.raises(ValueError):
            ransac_homography(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        h_true = random_homography(rng)
        src = rng.uniform(0, 100, size=(50, 2))
        dst = apply_homography(h_true, src) + rng.normal(0, 0.5, (50, 2))
        a = ransac_homography(src, dst, 2.0, seed=9)
        b = ransac_homography(src, dst, 2.0, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_inlier_count_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        h_true = random_homography(rng)
        src = rng.uniform(0, 200, size=(80, 2))
        dst = apply_homography(h_true, src) + rng.normal(0, 1.5, (80, 2))
        counts = []
        for t in (1.0, 2.0, 4.0, 8.0):
            _, mask = ransac_homography(src, dst, t, seed=2)
            counts.append(int(mask.sum()))
        assert counts == sorted(counts)


class TestCornerAuc:
    def test_exact_estimate(self):
        h = np.eye(3)
        assert corner_error(h, h, (100, 100)) == 0.0
        auc = corner_auc([0.0], [1.0, 3.0, 5.0])
        assert all(v == 1.0 for v in auc.values())

    def test_translation_discrepancy(self):
        gt = np.eye(3)
        est = np.eye(3)
        est[0, 2] = 3.0
        err = corner_error(est, gt, (64, 64))
        assert err == pytest.approx(3.0)
        auc = corner_auc([err], [1.0, 5.0])
        assert auc[1.0] == 0.0
        assert auc[5.0] == pytest.approx(0.4)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        errs = rng.uniform(0, 6, size=40)
        auc = corner_auc(errs, [1.0, 3.0, 5.0])
        assert auc[1.0] <= auc[3.0] <= auc[5.0]

    def test_order_invariant(self):
        errs = [0.5, 2.0, 4.0, 1.0]
        a = corner_auc(errs, [3.0])
        b = corner_auc(errs[::-1], [3.0])
        assert a == b

    def test_error_curve_type(self):
        from mvmatch.geometry import ErrorCurve
        curve = ErrorCurve.from_errors([4.0, 0.5, 2.0], [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(curve.errors, [0.5, 2.0, 4.0])
        assert curve.auc[1.0] <= curve.auc[3.0] <= curve.auc[5.0]
        with pytest.raises(ValueError, match="sorted"):
            ErrorCurve(np.array([2.0, 1.0]), {1.0: 0.5})
        with pytest.raises(ValueError, match="monotone"):
            ErrorCurve(np.array([1.0, 2.0]), {1.0: 0.9, 3.0: 0.2})


def camera_ring(n, radius=5.0, focal=100.0, size=64):
    k = np.array([[focal, 0, (size - 1) / 2], [0, focal, (size - 1) / 2], [0, 0, 1]])
    cams = []
    for ang in np.linspace(-0.4, 0.4, n):
        center = np.array([radius * np.sin(ang), 0.0, -radius * np.cos(ang)])
        fwd = -center / np.linalg.norm(center)
        up = np.array([0.0, -1.0, 0.0])
        right = np.cross(up, fwd)
        right /= np.linalg.norm(right)
        down = np.cross(fwd, right)
        r = np.stack([right, down, fwd])
        cams.append(PinholeCamera(k, r, -r @ center))
    return cams


def random_ring_tracks(rng, cams, n, vis=None):
    """Projections of n points near the ring's centre with 0.5 px noise, in
    1 to len(cams) random views unless ``vis`` is given; -1 elsewhere."""
    points = rng.uniform(-0.4, 0.4, size=(n, 3))
    coords = np.stack([cam.project(points)[0] for cam in cams], axis=1)
    coords += rng.normal(0.0, 0.5, size=coords.shape)
    if vis is None:
        counts = rng.integers(1, len(cams) + 1, size=n)
        vis = np.argsort(rng.random((n, len(cams))), axis=1) < counts[:, None]
    return np.where(vis[..., None], coords, -1.0), vis


class TestTriangulation:
    def test_two_view_round_trip(self):
        cams = camera_ring(2)
        point = np.array([0.2, -0.1, 0.4])
        coords = np.stack([cam.project(point[None])[0] for cam in cams], axis=1)
        pts, kept, skipped = triangulate_observations(coords, np.ones((1, 2), bool), cams)
        assert skipped == 0
        np.testing.assert_allclose(pts[0], point, atol=1e-6)

    def test_zero_baseline_degenerate(self):
        cams = camera_ring(1) * 2  # identical cameras
        point = np.array([0.1, 0.1, 0.5])
        uv, _ = cams[0].project(point[None])
        coords = np.stack([uv, uv], axis=1)
        pts, kept, skipped = triangulate_observations(coords, np.ones((1, 2), bool), cams)
        assert skipped == 1 and pts.shape[0] == 0

    def test_five_view_residual(self):
        cams = camera_ring(5)
        rng = np.random.default_rng(8)
        points = rng.uniform(-0.4, 0.4, size=(20, 3))
        coords = np.empty((20, 5, 2))
        for i, cam in enumerate(cams):
            uv, depth = cam.project(points)
            assert np.all(depth > 0)
            coords[:, i] = uv
        pts, kept, skipped = triangulate_observations(coords, np.ones((20, 5), bool), cams)
        assert skipped == 0
        for p, obs in zip(pts, coords):
            for i, cam in enumerate(cams):
                uv, _ = cam.project(p[None])
                assert np.linalg.norm(uv[0] - obs[i]) < 1e-6

    def test_short_track_skipped(self):
        cams = camera_ring(2)
        coords = np.array([[[1.0, 1.0], [-1.0, -1.0]]])
        pts, kept, skipped = triangulate_observations(coords, np.array([[True, False]]),
                                                      cams)
        assert skipped == 1

    def test_track_tokens_with_view_map(self):
        cams = camera_ring(3)
        point = np.array([0.0, 0.05, 0.3])
        coords = []
        for cam in cams:
            uv, _ = cam.project(point[None])
            coords.extend(uv[0])
        token = Tracks(np.array(coords).reshape(1, 3, 2), np.ones((1, 3), dtype=bool))
        pts, kept, skipped = triangulate_tracks(token, cams)
        np.testing.assert_allclose(pts[0], point, atol=1e-6)

    def test_view_map_rows_follow_camera_index(self):
        # slots (2, 0, 1) triangulate as the same tracks laid out by camera
        cams = camera_ring(3)
        rng = np.random.default_rng(3)
        vis = rng.random((40, 3)) < 0.6
        vis[:, 2] = True
        vis[:, 0] |= ~vis[:, 1]
        coords, vis = random_ring_tracks(rng, cams, 40, vis)
        pts, kept, skipped = triangulate_tracks(Tracks(coords[:, [2, 0, 1]], vis[:, [2, 0, 1]]),
                                                cams, views=(2, 0, 1))
        want_pts, want_kept, want_skipped = loop_triangulate(coords, vis, cams)
        assert np.array_equal(pts, want_pts) and np.array_equal(kept, want_kept)
        assert skipped == want_skipped


class TestBatchedTriangulationMatchesLoop:
    """The batched solve equals the one-SVD-per-track loop bit for bit."""

    def assert_matches_loop(self, coords, vis, cams):
        got = triangulate_observations(coords, vis, cams)
        want = loop_triangulate(coords, vis, cams)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype
        assert got[2] == want[2]
        return got

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tracks_of_two_to_six_views(self, seed):
        cams = camera_ring(6)
        coords, vis = random_ring_tracks(np.random.default_rng(seed), cams, 300)
        assert set(vis.sum(axis=1)) == {1, 2, 3, 4, 5, 6}
        self.assert_matches_loop(coords, vis, cams)

    def test_every_skip_reason(self):
        # cameras 0 and 3 are the same camera
        ring = camera_ring(3)
        cams = ring + [ring[0]]
        rng = np.random.default_rng(21)
        coords, vis = random_ring_tracks(rng, cams[:3], 40)
        coords = np.concatenate([coords, np.full((40, 1, 2), -1.0)], axis=1)
        vis = np.concatenate([vis, np.zeros((40, 1), bool)], axis=1)
        uv, _ = cams[0].project(np.array([[0.1, 0.0, 0.3]]))
        zero_baseline = np.array([[uv[0], [-1, -1], [-1, -1], uv[0]]])
        # a point behind every camera still projects to finite pixels
        behind = np.stack([cam.project(np.array([[0.0, 0.0, -9.0]]))[0][0]
                           for cam in cams], axis=0)[None]
        # rays of cameras 1 and 2 along one direction meet at infinity
        d = np.array([0.05, 0.02, 1.0])
        at_inf = np.full((1, 4, 2), -1.0)
        for v in (1, 2):
            h = cams[v].intrinsics @ cams[v].rotation @ d
            at_inf[0, v] = h[:2] / h[2]
        single = np.array([[[3.0, 4.0], [-1, -1], [-1, -1], [-1, -1]]])
        special = np.concatenate([zero_baseline, behind, at_inf, single])
        special_vis = special[..., 0] != -1
        coords = np.concatenate([coords, special])
        vis = np.concatenate([vis, special_vis])
        _, kept, skipped = self.assert_matches_loop(coords, vis, cams)
        assert not set(range(40, 44)) & set(kept.tolist())
        assert skipped >= 4


class TestAccuracyCompleteness:
    @pytest.mark.parametrize("n, m", [(1, 5), (64, 64), (130, 700), (765, 4000)])
    def test_nearest_distances_match_dense_oracle(self, n, m):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 3))
        b = rng.integers(-3, 4, size=(m, 3)).astype(float)  # ties on a lattice
        assert np.array_equal(_nn_min_d2(a, b), dense_nn_min_d2(a, b))
        assert np.array_equal(_nn_min_d2(b, a), dense_nn_min_d2(b, a))

    def test_identical_sets(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(50, 3))
        table = accuracy_completeness(pts, pts, [0.01, 0.05])
        for row in table.values():
            assert row["accuracy"] == 1.0 and row["completeness"] == 1.0

    def test_subset(self):
        rng = np.random.default_rng(10)
        gt = rng.normal(size=(100, 3))
        table = accuracy_completeness(gt[:50], gt, [1e-9])
        row = table[1e-9]
        assert row["accuracy"] == 1.0
        assert row["completeness"] == pytest.approx(0.5)

    def test_scratch_memory_stays_small(self):
        # 1200 points against 4000: the nearest-neighbour search runs in
        # chunks of 64 queries, about 6 MB of temporaries; chunks of 2048
        # queries of the (chunk, N, 3) difference form peaked at 146 MB
        rng = np.random.default_rng(12)
        pts, gt = rng.normal(size=(1200, 3)), rng.normal(size=(4000, 3))
        tracemalloc.start()
        try:
            accuracy_completeness(pts, gt, [0.05])
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 16, peak

    def test_matches_per_threshold_search(self):
        # points on an integer lattice put some nearest distances exactly on
        # a threshold, which counts as within it
        rng = np.random.default_rng(11)
        gt = rng.integers(0, 6, size=(300, 3)).astype(float)
        pts = np.concatenate([gt[:40] + [0.0, 0.0, 1.0], rng.normal(2.5, 2.0, (2100, 3))])
        thresholds = [0.5, 1.0, 1.5, 2.0]
        table = accuracy_completeness(pts, gt, thresholds)
        for t in thresholds:
            within_gt = [np.min(np.sum((gt - p) ** 2, axis=1)) <= t * t for p in pts]
            within_pts = [np.min(np.sum((pts - g) ** 2, axis=1)) <= t * t for g in gt]
            assert table[t] == {"accuracy": float(np.mean(within_gt)),
                                "completeness": float(np.mean(within_pts)),
                                "empty": False}

    def test_empty_triangulation_flagged(self):
        gt = np.zeros((10, 3))
        table = accuracy_completeness(np.empty((0, 3)), gt, [0.1])
        assert table[0.1]["empty"] and table[0.1]["accuracy"] == 0.0

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            accuracy_completeness(np.zeros((5, 3)), np.empty((0, 3)), [0.1])
