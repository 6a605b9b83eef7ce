"""Kernel agreement: each numba kernel must match its numpy fallback, and the
numpy-only convolutions must match the loop oracles."""

import numpy as np

from mvmatch import kernels

from oracles import brute_force_conv2d, brute_force_depthwise_conv2d


rng = np.random.default_rng(0)


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
        src = rng.normal(size=(6, 5, 8))
        tgt = rng.normal(size=(6, 5, 8))
        targets = rng.uniform(0, 5, size=(6, 5, 2))
        a = kernels.local_corr(src, tgt, targets, 3)
        b = kernels.local_corr_numpy(src, tgt, targets, 3)
        np.testing.assert_allclose(a, b, atol=1e-10)

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
