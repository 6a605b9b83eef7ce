"""Kernel agreement: each numba kernel must match its numpy fallback, and the
numpy-only correlation and convolutions must match independent oracles."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mvmatch import kernels
from mvmatch.grids import DenseWarpField, FeatureGrid

from oracles import (brute_force_conv2d, brute_force_correlation,
                     brute_force_depthwise_conv2d, per_offset_local_corr)


rng = np.random.default_rng(0)

# local_corr blends the dot products of the four integer cells after the
# channel sum; the oracle blends the channels before it. That reorders the
# arithmetic by a few ulps of scores of order 1.
CORR_ATOL = 1e-13


def border_targets(gen, h, w, th, tw):
    """(h, w, 2) warp targets in [-3, size + 3] of a (th, tw) target grid: a
    quarter each continuous, on integers, and one ulp below or above one."""
    size = np.array([tw, th], dtype=np.float64)
    t = gen.uniform(-3.0, size + 3.0, size=(h, w, 2))
    snapped = np.round(t)
    kind = gen.integers(0, 4, size=(h, w, 2))
    t = np.where(kind == 1, snapped, t)
    t = np.where(kind == 2, np.nextafter(snapped, -np.inf), t)
    return np.where(kind == 3, np.nextafter(snapped, np.inf), t)


def assert_clamped_ties_exact(scores, targets, th, tw):
    """Neighbouring window offsets whose clamped positions coincide share their
    taps, so their scores must be equal bit for bit."""
    window = scores.shape[-1]
    offsets = np.arange(window) - (window - 1) // 2
    px = np.clip(targets[..., 0, None] + offsets, 0.0, tw - 1.0)
    py = np.clip(targets[..., 1, None] + offsets, 0.0, th - 1.0)
    same_x = np.broadcast_to((px[..., 1:] == px[..., :-1])[:, :, None, :],
                             scores[..., 1:].shape)
    same_y = np.broadcast_to((py[..., 1:] == py[..., :-1])[:, :, :, None],
                             scores[:, :, 1:].shape)
    assert same_x.any() and same_y.any()
    np.testing.assert_array_equal(scores[..., 1:][same_x], scores[..., :-1][same_x])
    np.testing.assert_array_equal(scores[:, :, 1:][same_y], scores[:, :, :-1][same_y])


def test_backend_reports():
    assert kernels.BACKEND in ("numba", "numpy")


class TestAgreement:
    def test_bilinear_gather(self):
        data = rng.normal(size=(7, 9, 4))
        xs = rng.uniform(-2, 10, 50)
        ys = rng.uniform(-2, 8, 50)
        a = kernels.bilinear_gather(data, xs, ys)
        b = kernels.bilinear_gather_numpy(data, xs, ys)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_local_corr(self):
        # 37 rows is not a multiple of the row band
        for n, window in ((21, 9), (42, 9), (84, 7), (37, 5)):
            src = rng.normal(size=(n, n, 32))
            tgt = rng.normal(size=(n, n, 32))
            targets = border_targets(rng, n, n, n, n)
            got = kernels.local_corr(src, tgt, targets, window)
            np.testing.assert_allclose(
                got, per_offset_local_corr(src, tgt, targets, window),
                atol=CORR_ATOL, rtol=0)
            assert_clamped_ties_exact(got, targets, n, n)

    def test_local_corr_bands_do_not_change_bits(self, monkeypatch):
        src = rng.normal(size=(37, 11, 8))
        tgt = rng.normal(size=(9, 14, 8))
        targets = border_targets(rng, 37, 11, 9, 14)
        banded = kernels.local_corr(src, tgt, targets, 5)
        for rows in (1, 7, 1000):
            monkeypatch.setattr(kernels, "_CORR_BAND_ROWS", rows)
            np.testing.assert_array_equal(kernels.local_corr(src, tgt, targets, 5), banded)

    def test_upsample_linear(self):
        field = rng.normal(size=(4, 6, 3))
        for factor in (2, 4):
            a = kernels.upsample_linear(field, factor)
            b = kernels.upsample_linear_numpy(field, factor)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nms_greedy(self):
        scores = rng.uniform(-0.5, 1.0, size=(20, 20))
        a = kernels.nms_greedy(scores, 2, -1)
        b = kernels.nms_greedy_numpy(scores, 2, scores.size + 1)
        np.testing.assert_array_equal(a, b)

    def test_nms_with_ties(self):
        scores = np.zeros((6, 6))
        scores[1, 1] = scores[1, 4] = scores[4, 1] = 0.5
        a = kernels.nms_greedy(scores, 1, -1)
        b = kernels.nms_greedy_numpy(scores, 1, scores.size + 1)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, [[1, 1], [1, 4], [4, 1]])  # raster ties

    def test_zbuffer_min(self):
        n = 200
        px = rng.integers(0, 8, n)
        py = rng.integers(0, 8, n)
        depth = rng.uniform(1, 5, n)
        depth[10] = depth[20]  # force a potential tie path
        za, ia = kernels.zbuffer_min(px, py, depth, 8, 8)
        zb, ib = kernels.zbuffer_min_numpy(px, py, depth, 8, 8)
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(za, zb)

    def test_fill_nearest(self):
        values = rng.normal(size=(10, 10, 2))
        valid = rng.random((10, 10)) < 0.4
        valid[0, 0] = True
        a = kernels.fill_nearest(values, valid)
        b = kernels.fill_nearest_numpy(values.copy(), valid.copy())
        np.testing.assert_array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_conv2d(self):
        # every output pixel is compared, the zero-padded border included
        inp = rng.normal(size=(6, 7, 3))
        w = rng.normal(size=(3, 3, 3, 5))
        b = rng.normal(size=5)
        np.testing.assert_allclose(kernels.conv2d(inp, w, b),
                                   brute_force_conv2d(inp, w, b), atol=1e-12)

    def test_depthwise_conv2d(self):
        # a 7x7 kernel on 5x8: every row is within the padded border
        inp = rng.normal(size=(5, 8, 4))
        w = rng.normal(size=(7, 7, 4))
        b = rng.normal(size=4)
        np.testing.assert_allclose(kernels.depthwise_conv2d(inp, w, b),
                                   brute_force_depthwise_conv2d(inp, w, b),
                                   atol=1e-12)


class TestLocalCorrBorders:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sh=st.integers(1, 12), sw=st.integers(1, 12),
           th=st.integers(1, 12), tw=st.integers(1, 12),
           window=st.sampled_from([1, 3, 5, 7, 9]),
           seed=st.integers(0, 2**32 - 1))
    @example(sh=4, sw=5, th=6, tw=1, window=5, seed=1)
    @example(sh=5, sw=3, th=1, tw=7, window=9, seed=2)
    def test_matches_brute_force(self, sh, sw, th, tw, window, seed):
        gen = np.random.default_rng(seed)
        src = FeatureGrid(gen.normal(size=(sh, sw, 4)))
        tgt = FeatureGrid(gen.normal(size=(th, tw, 4)))
        targets = border_targets(gen, sh, sw, th, tw)
        warp = DenseWarpField(targets, np.ones((sh, sw)), 0, 1)
        got = kernels.local_corr(src.data, tgt.data, targets, window)
        np.testing.assert_allclose(got, brute_force_correlation(src, tgt, warp, window),
                                   atol=1e-12, rtol=0)


class TestEnvFlag:
    def test_disable_flag_forces_numpy(self):
        import os
        import subprocess
        import sys

        import mvmatch

        # The child inherits this environment and imports the same mvmatch
        # as this process (installed, editable or PYTHONPATH=src).
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(mvmatch.__file__)))
        env = dict(os.environ, MVMATCH_DISABLE_NUMBA="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c",
             "import mvmatch.kernels as k; print(k.BACKEND, k.HAS_NUMBA, k._DISABLE)"],
            env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        # The flag is read as "disable" whether or not numba is installed.
        assert out.stdout.split() == ["numpy", "False", "True"]
