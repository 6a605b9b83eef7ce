"""Kernel agreement: each numpy kernel must match an independent explicit-loop
oracle from ``tests/oracles.py``."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvmatch import kernels
from mvmatch.grids import DenseWarpField, FeatureGrid
from mvmatch.matcher import VERIFY_MARGIN, _verified

from oracles import (band_volume, brute_force_candidate_scores, brute_force_conv2d,
                     brute_force_correlation, brute_force_depthwise_conv2d,
                     brute_force_gather, brute_force_nms, brute_force_upsample,
                     brute_force_zbuffer, per_offset_local_corr)


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
    assert kernels.BACKEND == "numpy"


def nms_yx(scores, radius, max_keypoints=0):
    """brute_force_nms picks as (y, x) rows, the kernel's order."""
    return brute_force_nms(scores, radius, max_keypoints)[:, ::-1]


class TestAgreement:
    def test_bilinear_gather(self):
        # continuous points, then the border cells and one ulp past them, on a
        # regular grid and on grids one cell high or wide
        def edges(size):
            return np.array([0.0, 1.0, size - 1.0, np.nextafter(size - 1.0, np.inf),
                             np.nextafter(0.0, -np.inf)])

        for shape in ((7, 9, 4), (1, 5, 2), (6, 1, 3)):
            h, w = shape[:2]
            data = rng.normal(size=shape)
            xs = np.concatenate([rng.uniform(-2, w + 1, 50), edges(w), rng.uniform(0, w - 1, 5)])
            ys = np.concatenate([rng.uniform(-2, h + 1, 50), rng.uniform(0, h - 1, 5), edges(h)])
            np.testing.assert_array_equal(kernels.bilinear_gather(data, xs, ys),
                                          brute_force_gather(data, xs, ys))

    def test_bilinear_gather_scratch_is_three_outputs(self):
        # 4096 points of 32 channels: 1 MB of output; the blend out of place
        # peaked at 8 MB
        data = rng.normal(size=(64, 64, 32))
        xs, ys = rng.uniform(-1, 64, size=(2, 4096))
        out_mb = 4096 * 32 * 8 / 2**20
        tracemalloc.start()
        try:
            kernels.bilinear_gather(data, xs, ys)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * out_mb, peak

    def test_local_corr(self):
        # 37 is not a multiple of the target block
        for n, window in ((21, 9), (42, 9), (84, 7), (37, 5)):
            src = rng.normal(size=(n, n, 32))
            tgt = rng.normal(size=(n, n, 32))
            targets = border_targets(rng, n, n, n, n)
            got = band_volume(kernels.local_corr, src, tgt, targets, window)
            np.testing.assert_allclose(
                got, per_offset_local_corr(src, tgt, targets, window),
                atol=CORR_ATOL, rtol=0)
            assert_clamped_ties_exact(got, targets, n, n)

    @staticmethod
    def assert_local_corr(src, tgt, targets, window, want):
        got = band_volume(kernels.local_corr, src, tgt, targets, window)
        np.testing.assert_allclose(got, want, atol=CORR_ATOL, rtol=0)
        np.testing.assert_allclose(got, per_offset_local_corr(src, tgt, targets, window),
                                   atol=CORR_ATOL, rtol=0)
        assert_clamped_ties_exact(got, targets, *tgt.shape[:2])
        return got

    def test_local_corr_block_sizes(self, monkeypatch):
        # the target block that keys a product may change the order of the
        # channel sums only; 40 puts every window origin of the 29 x 34 target
        # grid in one block
        src = rng.normal(size=(37, 11, 8))
        tgt = rng.normal(size=(29, 34, 8))
        targets = border_targets(rng, 37, 11, 29, 34)
        shipped = band_volume(kernels.local_corr, src, tgt, targets, 5)
        for block in (4, 16, 32, 40):
            monkeypatch.setattr(kernels, "_CORR_BLOCK", block)
            self.assert_local_corr(src, tgt, targets, 5, shipped)

    def test_local_corr_all_pixels_in_one_cell(self, monkeypatch):
        # every offset -r tap lands in target cell (0, 0), so one block holds
        # every pixel; splitting its product into parts of 3 to 5 rows keeps
        # the bits at 8 channels, where OpenBLAS rounds only a one-row product
        # its own way (at 32 channels, a product of up to about 1200 entries
        # does: TestZeroRows)
        src = rng.normal(size=(23, 19, 8))
        tgt = rng.normal(size=(9, 14, 8))
        targets = rng.uniform(-2.0, 0.999, size=(23, 19, 2))
        targets[::4] = -5.0  # clamped taps: offsets tie
        whole = band_volume(kernels.local_corr, src, tgt, targets, 3)
        for rows in (5, 4, 3):
            monkeypatch.setattr(kernels, "_CORR_PRODUCT_ROWS", rows)
            got = self.assert_local_corr(src, tgt, targets, 3, whole)
            np.testing.assert_array_equal(got, whole)

    def test_local_corr_far_outside_the_target(self):
        # targets far enough out that whole windows clamp onto the border and
        # the window origin itself is clipped, on square, 1-wide and 1-tall
        # target grids
        gen = np.random.default_rng(4)
        src = gen.normal(size=(13, 11, 8))
        for th, tw in ((17, 17), (17, 1), (1, 17)):
            tgt = gen.normal(size=(th, tw, 8))
            size = np.array([tw, th], dtype=np.float64)
            for targets in (gen.uniform(-60.0, size + 60.0, size=(13, 11, 2)),
                            gen.uniform(-1e6, 1e6, size=(13, 11, 2))):
                for window in (1, 5, 9):
                    got = band_volume(kernels.local_corr, src, tgt, targets, window)
                    np.testing.assert_allclose(
                        got, per_offset_local_corr(src, tgt, targets, window),
                        atol=CORR_ATOL, rtol=0)
                    if window > 1:
                        assert_clamped_ties_exact(got, targets, th, tw)

    def test_upsample_linear(self):
        # the kernel blends along y, then x; the oracle blends each cell's
        # four corners x first, which moves results by a few ulps
        for shape in ((4, 6, 3), (1, 5, 2), (3, 1, 2)):
            field = rng.normal(size=shape)
            for factor in (2, 4):
                np.testing.assert_allclose(kernels.upsample_linear(field, factor),
                                           brute_force_upsample(field, factor),
                                           atol=1e-12, rtol=0)

    def test_nms_greedy(self):
        scores = rng.uniform(-0.5, 1.0, size=(20, 20))
        np.testing.assert_array_equal(kernels.nms_greedy(scores, 2, 0), nms_yx(scores, 2))

    def test_nms_with_ties(self):
        scores = np.zeros((6, 6))
        scores[1, 1] = scores[1, 4] = scores[4, 1] = 0.5
        got = kernels.nms_greedy(scores, 1, 0)
        np.testing.assert_array_equal(got, nms_yx(scores, 1))
        np.testing.assert_array_equal(got, [[1, 1], [1, 4], [4, 1]])  # raster ties

    def test_zbuffer_min(self):
        n = 200
        px = rng.integers(0, 8, n)
        py = rng.integers(0, 8, n)
        # continuous depths with one forced tie, then depths on three levels
        depth = rng.uniform(1, 5, n)
        px[20], py[20], depth[20] = px[10], py[10], depth[10]
        for d in (depth, rng.integers(1, 4, n).astype(np.float64)):
            got_z, got_i = kernels.zbuffer_min(px, py, d, 8, 8)
            want_z, want_i = brute_force_zbuffer(px, py, d, 8, 8)
            np.testing.assert_array_equal(got_i, want_i)
            np.testing.assert_array_equal(got_z, want_z)

    def test_conv2d(self):
        # every output pixel is compared, the zero-padded border included: a
        # grid inside the padded border, one smaller than the kernel, a 1 x 1
        # kernel, non-square grids and Cin != Cout
        for h, w, k, cin, cout in ((6, 7, 3, 3, 5), (2, 3, 7, 4, 2), (5, 4, 1, 3, 6),
                                   (3, 11, 3, 6, 1), (9, 5, 5, 2, 7)):
            inp = rng.normal(size=(h, w, cin))
            wts = rng.normal(size=(k, k, cin, cout))
            b = rng.normal(size=cout)
            np.testing.assert_allclose(kernels.conv2d(inp, wts, b),
                                       brute_force_conv2d(inp, wts, b), atol=1e-12)

    def test_depthwise_conv2d(self):
        # a 7x7 kernel on 5x8 (every row is within the padded border) and on
        # 2x3, a 1 x 1 kernel, and a grid taller than wide
        for h, w, k, c in ((5, 8, 7, 4), (2, 3, 7, 3), (4, 6, 1, 5), (11, 3, 3, 2)):
            inp = rng.normal(size=(h, w, c))
            wts = rng.normal(size=(k, k, c))
            b = rng.normal(size=c)
            np.testing.assert_allclose(kernels.depthwise_conv2d(inp, wts, b),
                                       brute_force_depthwise_conv2d(inp, wts, b),
                                       atol=1e-12)

    # the MVFuse depthwise 7 x 7 and the conv stack's first 3 x 3 (89 -> 48
    # channels at window 5) on a small grid; a k^2-expanded window tensor
    # peaked at 25 and 6.9 times the input and output bytes
    @pytest.mark.parametrize("conv, wshape", [
        (kernels.depthwise_conv2d, (7, 7, 48)), (kernels.conv2d, (3, 3, 89, 48))])
    def test_convolution_scratch_is_bounded(self, conv, wshape):
        gen = np.random.default_rng(3)
        inp = gen.normal(size=(48, 40, wshape[2]))
        wts = gen.normal(size=wshape)
        b = gen.normal(size=wshape[-1])
        tracemalloc.start()
        try:
            out = conv(inp, wts, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (inp.nbytes + out.nbytes), peak / (inp.nbytes + out.nbytes)


_CORR_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from oracles import band_volume
from test_kernels import border_targets
from mvmatch.kernels import local_corr
gen = np.random.default_rng(12)
ys, xs = np.mgrid[0:168, 0:168] - 83.5
a = np.deg2rad(3.0)
smooth = 1.05 * np.stack([np.cos(a) * xs - np.sin(a) * ys,
                          np.sin(a) * xs + np.cos(a) * ys], axis=-1) + 83.5
parts = [band_volume(local_corr, gen.normal(size=(168, 168, 32)),
                     gen.normal(size=(168, 168, 32)), smooth, 5).tobytes()]
for (h, w), (th, tw), window in (((37, 53), (40, 40), 7), ((21, 21), (21, 21), 9),
                                 ((23, 19), (9, 14), 3)):
    src, tgt = gen.normal(size=(h, w, 32)), gen.normal(size=(th, tw, 32))
    targets = border_targets(gen, h, w, th, tw)
    parts.append(band_volume(local_corr, src, tgt, targets, window).tobytes())
print(hashlib.sha256(b"".join(parts)).hexdigest())
"""


def local_corr_digest(threads):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    done = subprocess.run([sys.executable, "-c", _CORR_DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_local_corr_bits_do_not_depend_on_blas_threads():
    # a smooth warp at the 168 px workload's finest level, then ragged grids
    # whose targets reach past the border
    assert local_corr_digest(1) == local_corr_digest(2)


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
        got = band_volume(kernels.local_corr, src.data, tgt.data, targets, window)
        np.testing.assert_allclose(got, brute_force_correlation(src, tgt, warp, window),
                                   atol=1e-12, rtol=0)


def readout_moves(gen, n, window):
    """(n, 2) moves shaped like the readout's: per axis a whole cell anywhere
    in the window plus, off the window's edge cells, a fraction in [-0.5,
    0.5] (a third of them exactly -0.5, 0 or 0.5)."""
    r = (window - 1) // 2
    cell = gen.integers(0, window, size=(n, 2))
    frac = gen.uniform(-0.5, 0.5, size=(n, 2))
    frac = np.where(gen.random((n, 2)) < 0.3, gen.choice([-0.5, 0.0, 0.5], size=(n, 2)), frac)
    interior = (cell > 0) & (cell < window - 1)
    return (cell - r).astype(np.float64) + np.where(interior, frac, 0.0)


class TestBandVerify:
    """``local_corr``'s ``score_at``, the sub-cell verify step's score of a
    candidate from the band's own dot products, against a one-pixel-at-a-time
    sample, and the keep/zero decisions taken on it."""

    @pytest.mark.parametrize("window", [3, 5, 7, 9])
    def test_band_scores_match_brute_force(self, window):
        gen = np.random.default_rng(window)
        sh, sw, c = 23, 19, 8
        n = sh * sw
        r = (window - 1) // 2
        src = gen.normal(size=(sh, sw, c))
        for th, tw in ((17, 21), (17, 1), (1, 17)):
            tgt = gen.normal(size=(th, tw, c))
            size = np.array([tw, th], dtype=np.float64)
            targets = border_targets(gen, sh, sw, th, tw).reshape(n, 2)
            # whole windows past the border on each side, window origin clipped
            targets[::5] = gen.uniform(-60.0, size + 60.0, size=targets[::5].shape)
            delta = readout_moves(gen, n, window)
            # one ulp below 4 or 8 plus a whole move rounds up onto the next
            # integer: the lower tap steps one cell past the regular cell
            targets[2::6] = np.nextafter(gen.choice([4.0, 8.0], size=targets[2::6].shape),
                                         -np.inf)
            delta[2::6] = r
            cand = targets + delta
            past = np.floor(cand) > np.floor(targets) + np.floor(delta)
            assert past[2::6].all()

            got, centre, kept = np.empty(n), np.empty(n), np.empty((n, 2))
            seen = np.zeros(n, dtype=np.int64)

            def band(pix, scores, score_at):
                got[pix] = score_at(cand[pix])
                centre[pix] = scores[:, window * r + r]
                kept[pix] = _verified(delta[pix], got[pix], centre[pix], c)
                seen[pix] += 1

            assert kernels.local_corr(src, tgt, targets.reshape(sh, sw, 2), window, band) is None
            assert (seen == 1).all()
            want = brute_force_candidate_scores(src, tgt, cand)
            np.testing.assert_allclose(got, want, atol=CORR_ATOL, rtol=0)
            threshold = centre + VERIFY_MARGIN / np.sqrt(c)
            improved = want > threshold
            assert improved.any() and not improved.all()
            assert np.abs(want - threshold).min() > 1e-12  # no decision within the tolerance
            np.testing.assert_array_equal(kept, np.where(improved[:, None], delta, 0.0))

    def test_bands_hand_over_the_volume_rows(self, monkeypatch):
        # with bands of at most 40 pixels, the rows handed over are the rows
        # of the shipped band size bit for bit, each pixel once in
        # contiguous rows (band_volume)
        gen = np.random.default_rng(7)
        src, tgt = gen.normal(size=(2, 29, 31, 8))
        targets = border_targets(gen, 29, 31, 29, 31)
        whole = band_volume(kernels.local_corr, src, tgt, targets, 5)
        monkeypatch.setattr(kernels, "_CORR_PRODUCT_ROWS", 40)
        sizes = []

        def band(pix, scores, score_at):
            sizes.append(pix.size)

        kernels.local_corr(src, tgt, targets, 5, band)
        assert max(sizes) <= 40 and len(sizes) > 20
        assert band_volume(kernels.local_corr, src, tgt, targets, 5).tobytes() == whole.tobytes()


# (pixels, live pixels) per target block: blocks of at most 5 pixels, blocks
# of at least 8 pixels with 1 to 7 live, blocks past _CORR_MIN_ROWS with
# fewer live rows than that, full and empty blocks
ZERO_ROW_BLOCKS = [(1, 1), (2, 1), (3, 2), (4, 4), (5, 1), (5, 3), (2, 0),
                   (8, 1), (8, 7), (9, 3), (12, 5), (16, 2), (17, 16), (20, 7),
                   (30, 15), (40, 0), (64, 33), (24, 24)]


def zero_row_case(gen, window, th=33, tw=35, c=32):
    """C = 32 source rows with zero rows mixed in, and warp targets that put
    ``ZERO_ROW_BLOCKS[b]`` pixels (and live pixels) into target block b of
    ``local_corr``, in random raster order. A third of the zero rows are
    ``-0.0``, and some mix ``-0.0`` and ``+0.0`` channels."""
    block = kernels._CORR_BLOCK
    r = (window - 1) // 2
    nbx = (tw - 1 + window) // block + 1
    nby = (th - 1 + window) // block + 1
    blocks = gen.permutation(nbx * nby)[:len(ZERO_ROW_BLOCKS)]
    q, live = [], []
    for b, (pixels, alive) in zip(blocks, ZERO_ROW_BLOCKS):
        by, bx = divmod(int(b), nbx)
        # window origins q = v + window inside the block and the target grid
        qy = gen.integers(by * block, min(by * block + block, th + window), pixels)
        qx = gen.integers(bx * block, min(bx * block + block, tw + window), pixels)
        q.append(np.stack([qx, qy], axis=1))
        live.append(gen.permutation(pixels) < alive)
    perm = gen.permutation(sum(p for p, _ in ZERO_ROW_BLOCKS))
    q, live = np.concatenate(q)[perm], np.concatenate(live)[perm]
    # floor(t) - r = q - window, so t = q - r - 1 + a fraction
    targets = q - r - 1 + gen.uniform(0.0, 1.0, q.shape)
    src = gen.normal(size=(live.size, c))
    dead = np.flatnonzero(~live)
    src[dead] = 0.0
    src[dead[::3]] = -0.0
    src[dead[1::6], ::2] = -0.0
    shape = (2, live.size // 2)
    return (src.reshape(*shape, c), gen.normal(size=(th, tw, c)),
            targets.reshape(*shape, 2), live.reshape(shape))


class TestZeroRows:
    """Zero source rows are left out of ``local_corr``'s products and bands;
    at 32 channels every live score keeps the bits of the pass that
    correlates every pixel."""

    @pytest.mark.parametrize("window", [1, 5, 7, 9])
    def test_live_scores_keep_the_all_pixel_bits(self, window):
        gen = np.random.default_rng(window)
        src, tgt, targets, live = zero_row_case(gen, window)
        assert (~live).any() and np.signbit(src[~live]).any()
        got = band_volume(kernels.local_corr, src, tgt, targets, window)
        # the same blocks with every pixel live: each product has every row
        every = src.copy()
        every[~live] = gen.normal(size=every[~live].shape)
        want = band_volume(kernels.local_corr, every, tgt, targets, window)
        assert got[live].tobytes() == want[live].tobytes()

    @pytest.mark.parametrize("window", [1, 5, 7, 9])
    def test_zero_rows_reach_no_band(self, window):
        gen = np.random.default_rng(10 + window)
        src, tgt, targets, live = zero_row_case(gen, window)
        seen = np.zeros(live.size, dtype=np.int64)

        def band(pix, scores, score_at):
            seen[pix] += 1

        assert kernels.local_corr(src, tgt, targets, window, band) is None
        np.testing.assert_array_equal(seen, live.ravel())

    def test_all_zero_grid_calls_no_band(self):
        src = np.zeros((6, 7, 32))
        src[::2] = -0.0
        tgt = rng.normal(size=(5, 9, 32))
        targets = border_targets(rng, 6, 7, 5, 9)

        def band(pix, scores, score_at):
            raise AssertionError("a band of zero rows")

        assert kernels.local_corr(src, tgt, targets, 5, band) is None
