import tracemalloc

import numpy as np
import pytest

from oracles import (band_volume, brute_force_correlation, dstack_upsample_warp, identity_warp,
                     tobytes_write_warp_file)
from mvmatch.grids import (DenseWarpField, FeatureGrid, in_image, local_correlation,
                           pixel_centers, read_warp_file, upsample_warp, warp_features,
                           write_warp_file)
from mvmatch.kernels import bilinear_gather, upsample_linear


def ramp_grid(h, w, slope=1.0):
    xs = np.arange(w, dtype=float) * slope
    data = np.tile(xs[None, :, None], (h, 1, 1))
    return FeatureGrid(data)


def sample_at(data, x, y):
    """``bilinear_gather`` at one (x, y) point, as a channel vector."""
    return bilinear_gather(data, np.array([float(x)]), np.array([float(y)]))[0]


class TestBilinearSample:
    def test_linear_midpoint(self):
        data = np.array([[[0.0], [1.0]], [[0.0], [1.0]]])
        assert sample_at(data, 0.5, 0.5)[0] == pytest.approx(0.5)

    def test_exact_at_texel_centers(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 5, 3))
        for y in range(4):
            for x in range(5):
                np.testing.assert_array_equal(sample_at(data, x, y), data[y, x])

    def test_clamps_to_border(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 3, 2))
        np.testing.assert_allclose(sample_at(data, -5.0, -5.0), data[0, 0])
        np.testing.assert_allclose(sample_at(data, 99.0, 99.0), data[2, 2])

    def test_convexity(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(6, 6, 4))
        pts = rng.uniform(-1, 6, size=(200, 2))
        vals = bilinear_gather(data, pts[:, 0], pts[:, 1])
        assert vals.min() >= data.min() - 1e-12
        assert vals.max() <= data.max() + 1e-12


class TestWarpFeatures:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(3)
        grid = FeatureGrid(rng.normal(size=(5, 6, 3)))
        out = warp_features(grid, identity_warp(5, 6))
        np.testing.assert_array_equal(out.data, grid.data)

    def test_shift_on_ramp(self):
        grid = ramp_grid(4, 8, slope=0.5)
        warp = identity_warp(4, 8)
        shifted = DenseWarpField(warp.targets + np.array([1.0, 0.0]),
                                 warp.confidence, 0, 1)
        out = warp_features(grid, shifted)
        # ramp + one-step slope, except at the clamped right border
        np.testing.assert_allclose(out.data[:, :-1, 0], grid.data[:, :-1, 0] + 0.5)

    def test_constant_collapse(self):
        rng = np.random.default_rng(4)
        grid = FeatureGrid(rng.normal(size=(3, 4, 2)))
        warp = DenseWarpField(np.zeros((3, 4, 2)), np.ones((3, 4)), 0, 1)
        out = warp_features(grid, warp)
        np.testing.assert_allclose(out.data, np.broadcast_to(grid.data[0, 0], (3, 4, 2)))

    def test_output_matches_warp_size(self):
        grid = FeatureGrid(np.zeros((6, 6, 1)))
        warp = identity_warp(3, 2)
        assert warp_features(grid, warp).data.shape == (3, 2, 1)


class TestLocalCorrelation:
    def test_self_correlation_window_one(self):
        rng = np.random.default_rng(5)
        grid = FeatureGrid(rng.normal(size=(4, 4, 8)))
        corr = band_volume(local_correlation, grid, grid, identity_warp(4, 4), 1)
        expected = np.sum(grid.data ** 2, axis=2) / np.sqrt(8)
        np.testing.assert_allclose(corr[:, :, 0, 0], expected)

    def test_one_hot_features_against_brute_force(self):
        # 16 distinct one-hot features on a 4x4 grid
        grid = FeatureGrid(np.eye(16).reshape(4, 4, 16))
        warp = identity_warp(4, 4)
        corr = band_volume(local_correlation, grid, grid, warp, 3)
        oracle = brute_force_correlation(grid, grid, warp, 3)
        np.testing.assert_allclose(corr, oracle, atol=1e-12)
        # interior pixels: center 1/sqrt(D), off-center 0
        inner = corr[1:-1, 1:-1]
        np.testing.assert_allclose(inner[:, :, 1, 1], 0.25)
        off = inner.copy()
        off[:, :, 1, 1] = 0.0
        np.testing.assert_allclose(off, 0.0, atol=1e-12)

    def test_zero_target(self):
        rng = np.random.default_rng(6)
        src = FeatureGrid(rng.normal(size=(3, 3, 4)))
        tgt = FeatureGrid(np.zeros((3, 3, 4)))
        corr = band_volume(local_correlation, src, tgt, identity_warp(3, 3), 3)
        np.testing.assert_array_equal(corr, 0.0)

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(7)
        src = FeatureGrid(rng.normal(size=(5, 4, 6)))
        tgt = FeatureGrid(rng.normal(size=(5, 4, 6)))
        warp = DenseWarpField(rng.uniform(0, 4, size=(5, 4, 2)),
                              rng.uniform(0, 1, size=(5, 4)), 0, 1)
        corr = band_volume(local_correlation, src, tgt, warp, 5)
        oracle = brute_force_correlation(src, tgt, warp, 5)
        np.testing.assert_allclose(corr, oracle, atol=1e-10)

    def test_swap_symmetry_under_integer_shift(self):
        # A -> B under the shift (dx, dy) and B -> A under its inverse pair up
        # the same two pixels, with the window mirrored: A[y, x] . B[yb, xb]
        # for yb = y + dy + j - r, xb = x + dx + i - r. Only pairs whose B
        # pixel lies inside the grid are compared, so neither side clamps.
        rng = np.random.default_rng(8)
        h, w, window, (dx, dy) = 9, 10, 5, (2, -1)
        r = (window - 1) // 2
        a = FeatureGrid(rng.normal(size=(h, w, 5)))
        b = FeatureGrid(rng.normal(size=(h, w, 5)))
        base = identity_warp(h, w)
        fwd = DenseWarpField(base.targets + (dx, dy), base.confidence, 0, 1)
        bwd = DenseWarpField(base.targets - (dx, dy), base.confidence, 1, 0)
        ab = band_volume(local_correlation, a, b, fwd, window)
        ba = band_volume(local_correlation, b, a, bwd, window)
        got, want = [], []
        for y, x, j, i in np.ndindex(ab.shape):
            yb, xb = y + dy + j - r, x + dx + i - r
            if 0 <= yb < h and 0 <= xb < w:
                got.append(ab[y, x, j, i])
                want.append(ba[yb, xb, 2 * r - j, 2 * r - i])
        assert len(got) > ab.size // 2
        np.testing.assert_allclose(got, want, atol=1e-14, rtol=0)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel"):
            band_volume(local_correlation, FeatureGrid(np.zeros((2, 2, 3))),
                        FeatureGrid(np.zeros((2, 2, 4))), identity_warp(2, 2), 3)

    def test_even_window_raises(self):
        grid = FeatureGrid(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="window"):
            band_volume(local_correlation, grid, grid, identity_warp(2, 2), 4)

    def test_warp_of_another_size_raises(self):
        grid = FeatureGrid(np.ones((3, 3, 2)))
        with pytest.raises(ValueError, match="warp grid size must match the source grid"):
            band_volume(local_correlation, grid, grid, identity_warp(3, 2), 3)


class TestUpsampleWarp:
    def test_identity_preserved(self):
        up = upsample_warp(identity_warp(3, 4), 2)
        np.testing.assert_allclose(up.targets, identity_warp(6, 8).targets, atol=1e-12)
        np.testing.assert_allclose(up.confidence, 1.0)

    def test_constant_shift_scales(self):
        base = identity_warp(3, 4)
        shift = DenseWarpField(base.targets + np.array([2.5, 0.0]),
                               base.confidence, 0, 1)
        up = upsample_warp(shift, 2)
        expected = identity_warp(6, 8).targets + np.array([5.0, 0.0])
        np.testing.assert_allclose(up.targets, expected, atol=1e-12)

    def test_single_cell_constant_extension(self):
        warp = DenseWarpField(np.array([[[2.0, 3.0]]]), np.ones((1, 1)), 0, 1)
        up = upsample_warp(warp, 2)
        np.testing.assert_allclose(up.targets.reshape(-1, 2),
                                   np.tile([4.0, 6.0], (4, 1)))

    def test_two_steps_equal_one(self):
        rng = np.random.default_rng(9)
        warp = DenseWarpField(rng.uniform(0, 8, size=(3, 5, 2)),
                              rng.uniform(0, 1, size=(3, 5)), 0, 1)
        twice = upsample_warp(upsample_warp(warp, 2), 2)
        once = upsample_warp(warp, 4)
        np.testing.assert_allclose(twice.targets, once.targets, atol=1e-6)

    def test_confidence_clamped(self):
        rng = np.random.default_rng(10)
        warp = DenseWarpField(rng.uniform(0, 4, size=(4, 4, 2)),
                              rng.uniform(0, 1, size=(4, 4)), 0, 1)
        up = upsample_warp(warp, 2)
        assert up.confidence.min() >= 0.0 and up.confidence.max() <= 1.0

    def test_bad_factor_raises(self):
        with pytest.raises(ValueError):
            upsample_warp(identity_warp(2, 2), 3)

    def test_each_channel_upsamples_alone(self):
        # the targets and the confidence upsample in separate kernel calls
        rng = np.random.default_rng(12)
        warp = DenseWarpField(rng.uniform(0, 6, size=(3, 4, 2)),
                              rng.uniform(0, 1, size=(3, 4)), 0, 1)
        up = upsample_warp(warp, 4)
        np.testing.assert_array_equal(up.targets, upsample_linear(warp.targets, 4) * 4)
        np.testing.assert_array_equal(
            up.confidence, np.clip(upsample_linear(warp.confidence[..., None], 4)[..., 0], 0, 1))

    @pytest.mark.parametrize("factor", [2, 4, 8])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (21, 21)])
    def test_matches_stacked_channels(self, shape, factor):
        # confidences of 0 and 1 at the edge extrapolate past [0, 1], so the clip acts
        rng = np.random.default_rng(13)
        conf = rng.choice([0.0, 0.3, 1.0], size=shape)
        warp = DenseWarpField(rng.uniform(-2, 30, size=(*shape, 2)), conf, 2, 0)
        up, want = upsample_warp(warp, factor), dstack_upsample_warp(warp, factor)
        np.testing.assert_array_equal(up.targets, want.targets)
        np.testing.assert_array_equal(up.confidence, want.confidence)
        assert (up.source_view, up.target_view) == (2, 0)

    def test_peak_below_two_point_three_results(self):
        # stacking the channels peaked at 2.78 results
        rng = np.random.default_rng(14)
        warp = DenseWarpField(rng.uniform(0, 168, size=(168, 168, 2)),
                              rng.uniform(0, 1, size=(168, 168)), 0, 1)
        tracemalloc.start()
        try:
            up = upsample_warp(warp, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / (up.targets.nbytes + up.confidence.nbytes)
        assert ratio < 2.3, f"upsample_warp peaked at {ratio:.2f} results"


class TestPixelGrid:
    def test_centers_in_raster_order(self):
        np.testing.assert_array_equal(pixel_centers(2, 3),
                                      [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]])
        assert pixel_centers(2, 3).dtype == np.float64

    def test_image_bounds_are_inclusive(self):
        xy = np.array([[0.0, 0.0], [3.0, 1.0], [3.01, 1.0], [0.0, -0.01], [2.5, 0.5]])
        np.testing.assert_array_equal(in_image(xy, (2, 4)), [True, True, False, False, True])


class TestWarpFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        warp = DenseWarpField(rng.uniform(0, 30, size=(5, 7, 2)).astype(np.float32),
                              rng.uniform(0, 1, size=(5, 7)).astype(np.float32),
                              source_view=2, target_view=4)
        path = tmp_path / "w.mvwf"
        write_warp_file(path, warp)
        back = read_warp_file(path)
        np.testing.assert_allclose(back.targets, warp.targets, atol=1e-6)
        np.testing.assert_allclose(back.confidence, warp.confidence, atol=1e-7)
        assert (back.source_view, back.target_view) == (2, 4)

    def test_header_layout(self, tmp_path):
        warp = identity_warp(2, 3, source_view=1, target_view=0)
        path = tmp_path / "w.mvwf"
        write_warp_file(path, warp)
        blob = path.read_bytes()
        assert blob[:4] == b"MVWF"
        assert len(blob) == 24 + 2 * 3 * 12
        assert np.frombuffer(blob[4:24], dtype="<u4").tolist() == [1, 2, 3, 1, 0]

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 5), (5, 1), (7, 13), (48, 48)])
    def test_bytes_match_the_tobytes_writer(self, tmp_path, h, w):
        rng = np.random.default_rng(h * 100 + w)
        targets = rng.uniform(-1, max(h, w), size=(h, w, 2))
        targets[0, 0] = -1.0  # the missing sentinel
        warp = DenseWarpField(targets, rng.uniform(0, 1, size=(h, w)), 3, 1)
        write_warp_file(tmp_path / "new.mvwf", warp)
        tobytes_write_warp_file(tmp_path / "old.mvwf", warp)
        assert (tmp_path / "new.mvwf").read_bytes() == (tmp_path / "old.mvwf").read_bytes()

    def test_write_peak_below_one_point_two_records(self, tmp_path):
        # a tobytes copy of the records peaked at 2 records
        rng = np.random.default_rng(15)
        warp = DenseWarpField(rng.uniform(0, 336, size=(336, 336, 2)),
                              rng.uniform(0, 1, size=(336, 336)), 0, 1)
        tracemalloc.start()
        try:
            write_warp_file(tmp_path / "w.mvwf", warp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / (336 * 336 * 12)
        assert ratio < 1.2, f"write_warp_file peaked at {ratio:.2f} records"

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.mvwf"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="MVWF"):
            read_warp_file(path)


class TestValidation:
    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError, match="confidence"):
            DenseWarpField(np.zeros((2, 2, 2)), np.full((2, 2), 1.5), 0, 1)

    def test_same_view_pair_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            DenseWarpField(np.zeros((2, 2, 2)), np.zeros((2, 2)), 3, 3)

    def test_nonfinite_features_rejected(self):
        data = np.zeros((2, 2, 1))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            FeatureGrid(data)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_in_last_row_and_channel_rejected(self, value):
        data = np.zeros((3, 4, 5))
        data[-1, -1, -1] = value
        with pytest.raises(ValueError, match="^feature grid contains non-finite values$"):
            FeatureGrid(data)
        targets = np.zeros((3, 4, 2))
        targets[-1, -1, -1] = value
        with pytest.raises(ValueError, match="^warp targets contain non-finite values$"):
            DenseWarpField(targets, np.zeros((3, 4)), 0, 1)

    def test_finite_check_builds_no_mask(self):
        # np.all(np.isfinite(data)) built an (H, W, C) bool mask, 0.125 of the grid
        data = np.zeros((672, 672, 32))
        tracemalloc.start()
        try:
            FeatureGrid(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / data.nbytes
        assert ratio < 0.01, f"the finite check peaked at {ratio:.4f} of the grid"

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            FeatureGrid(np.zeros((2, 2, 1)), stride=3)
