import tracemalloc

import numpy as np
import pytest

from mvmatch.geometry import (DegenerateConfigurationError, accuracy_completeness,
                              apply_homography, corner_auc, corner_error,
                              dlt_homography, ransac_homography,
                              triangulate_observations,
                              triangulate_tracks)
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


class TestTriangulation:
    def test_two_view_round_trip(self):
        cams = camera_ring(2)
        point = np.array([0.2, -0.1, 0.4])
        obs = {}
        for i, cam in enumerate(cams):
            uv, _ = cam.project(point[None])
            obs[i] = tuple(uv[0])
        pts, kept, skipped = triangulate_observations([obs], cams)
        assert skipped == 0
        np.testing.assert_allclose(pts[0], point, atol=1e-6)

    def test_zero_baseline_degenerate(self):
        cams = camera_ring(1) * 2  # identical cameras
        point = np.array([0.1, 0.1, 0.5])
        uv, _ = cams[0].project(point[None])
        obs = {0: tuple(uv[0]), 1: tuple(uv[0])}
        pts, kept, skipped = triangulate_observations([obs], cams)
        assert skipped == 1 and pts.shape[0] == 0

    def test_five_view_residual(self):
        cams = camera_ring(5)
        rng = np.random.default_rng(8)
        points = rng.uniform(-0.4, 0.4, size=(20, 3))
        observations = []
        for p in points:
            obs = {}
            for i, cam in enumerate(cams):
                uv, depth = cam.project(p[None])
                assert depth[0] > 0
                obs[i] = tuple(uv[0])
            observations.append(obs)
        pts, kept, skipped = triangulate_observations(observations, cams)
        assert skipped == 0
        for p, obs in zip(pts, observations):
            for i, cam in enumerate(cams):
                uv, _ = cam.project(p[None])
                assert np.linalg.norm(uv[0] - np.array(obs[i])) < 1e-6

    def test_short_track_skipped(self):
        cams = camera_ring(2)
        pts, kept, skipped = triangulate_observations([{0: (1.0, 1.0)}], cams)
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


class TestAccuracyCompleteness:
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
        # chunks of 64 queries, about 12 MB of temporaries; chunks of 2048
        # queries peaked at 146 MB
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
