import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mvmatch import kernels, matcher
from mvmatch.config import PipelineConfig
from mvmatch.features import ArrayFeatureProvider, OracleFeatureProvider
from mvmatch.grids import DenseWarpField, FeatureGrid, upsample_warp
from mvmatch.grouping import ImageGroup
from mvmatch.matcher import (AnchorGrid, ConvStack, MatcherParams, RefinerState,
                             global_match, init_matcher_params, mvfuse, refine_level,
                             run_group)
from mvmatch.oracle import (SceneOracle, gt_warp, make_planar_scene, make_point_cloud_scene,
                            simulate_matcher)
from mvmatch.tracks import sample_tracks

from oracles import (dense_global_match, grid_corr_readout, identity_warp, oracle_mvfuse,
                     random_fuse_params as fuse_params, verify_every_level_refine)

# Largest deviation of global_match from the full-matrix formulation, in pixels
# for the coordinates and absolute for the confidence.
GLOBAL_ATOL = 1e-10


class TestGlobalMatch:
    def test_orthogonal_self_match_is_identity(self):
        d = 16
        scale = 4.0
        feats = scale * np.eye(d).reshape(4, 4, d)
        grid = FeatureGrid(feats)
        anchors = AnchorGrid.uniform(4, 4, (4, 4))
        tau = 0.002
        warp = global_match(grid, grid, anchors, temperature=tau)
        # analytic softmax peak for the constructed logit gap
        gap = scale ** 2 / (np.sqrt(d) * tau)
        peak = 1.0 / (1.0 + (16 - 1) * np.exp(-gap))
        np.testing.assert_allclose(warp.confidence, peak, atol=1e-9)
        np.testing.assert_allclose(warp.targets, identity_warp(4, 4).targets,
                                   atol=1e-6)

    def test_rolled_features_give_uniform_shift(self):
        rng = np.random.default_rng(0)
        d = 32
        src = rng.normal(size=(6, 8, d))
        src /= np.linalg.norm(src, axis=-1, keepdims=True)
        k = 3
        tgt = np.roll(src, k, axis=1)
        anchors = AnchorGrid.uniform(6, 8, (6, 8))
        warp = global_match(FeatureGrid(src), FeatureGrid(tgt), anchors,
                            temperature=0.002)
        expected_x = (np.arange(8) + k) % 8
        got = warp.targets[:, :, 0]
        # non-wrapped band: shift by exactly k token pitches
        assert np.all(np.abs(got[:, :8 - k] - expected_x[None, :8 - k]) <= 0.5)

    def test_uniform_features_give_anchor_centroid(self):
        grid = FeatureGrid(np.ones((3, 5, 4)))
        anchors = AnchorGrid.uniform(3, 5, (3, 5))
        warp = global_match(grid, grid, anchors, temperature=0.01)
        centroid = anchors.centers.mean(axis=0)
        np.testing.assert_allclose(warp.targets.reshape(-1, 2),
                                   np.tile(centroid, (15, 1)), atol=1e-9)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            global_match(FeatureGrid(np.zeros((2, 2, 3))),
                         FeatureGrid(np.zeros((2, 2, 4))),
                         AnchorGrid.uniform(2, 2, (2, 2)), 0.002)

    # 84x84 is the coarse grid at the shipped 672 px; 37x53 source rows span
    # several blocks with a ragged last one, against 40x40 anchors, and 21x21
    # and 6x6 anchors leave pad columns; 0.002 is the shipped temperature.
    # The confidence is read as 1 / row sum. The test keeps its name (and case
    # ids) from when the blocks gave the dense bits; since global_match
    # normalizes after the coordinate products it checks GLOBAL_ATOL.
    @pytest.mark.parametrize("src_hw, tgt_hw", [((84, 84), (84, 84)),
                                                ((37, 53), (40, 40)),
                                                ((37, 53), (21, 21)),
                                                ((37, 53), (6, 6))])
    @pytest.mark.parametrize("tau", [0.01, 1.0, 0.002])
    def test_row_blocks_give_the_dense_bits(self, src_hw, tgt_hw, tau):
        rng = np.random.default_rng(7)
        src = FeatureGrid(rng.normal(size=(*src_hw, 32)))
        tgt = FeatureGrid(rng.normal(size=(*tgt_hw, 32)))
        anchors = AnchorGrid.uniform(*tgt_hw, tgt_hw)
        assert src.height * src.width > 2 * matcher._GLOBAL_BLOCK_ROWS
        got = global_match(src, tgt, anchors, tau, 2, 5)
        want = dense_global_match(src, tgt, anchors, tau, 2, 5)
        np.testing.assert_allclose(got.targets, want.targets, rtol=0, atol=GLOBAL_ATOL)
        np.testing.assert_allclose(got.confidence, want.confidence, rtol=0,
                                   atol=GLOBAL_ATOL)
        assert (got.source_view, got.target_view) == (2, 5)

    def test_anchor_grid_tiles_uniformly(self):
        a = AnchorGrid.uniform(2, 2, (4, 4))
        np.testing.assert_allclose(a.centers,
                                   [[0.5, 0.5], [2.5, 0.5], [0.5, 2.5], [2.5, 2.5]])
        b = AnchorGrid.uniform(3, 3, (3, 3))
        np.testing.assert_allclose(b.centers[:3], [[0, 0], [1, 0], [2, 0]])


_GLOBAL_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from mvmatch.grids import FeatureGrid
from mvmatch.matcher import AnchorGrid, global_match
rng = np.random.default_rng(3)
parts = []
for src_hw, tgt_hw in [((84, 84), (84, 84)), ((21, 21), (21, 21)), ((42, 42), (42, 42)),
                       ((6, 6), (6, 6)), ((37, 53), (40, 40))]:
    src, tgt = (rng.normal(size=(*hw, 32)) for hw in (src_hw, tgt_hw))
    src /= np.linalg.norm(src, axis=-1, keepdims=True)
    tgt /= np.linalg.norm(tgt, axis=-1, keepdims=True)
    warp = global_match(FeatureGrid(src), FeatureGrid(tgt),
                        AnchorGrid.uniform(*tgt_hw, tgt_hw), 0.002)
    parts += [warp.targets.tobytes(), warp.confidence.tobytes()]
print(hashlib.sha256(b"".join(parts)).hexdigest())
"""


def global_match_digest(threads):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(here.parent / "src"))
    done = subprocess.run([sys.executable, "-c", _GLOBAL_DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_global_match_bits_do_not_depend_on_blas_threads():
    # unit-norm D = 32 features at the shipped temperature: the shipped 84^2
    # coarse grid, ragged anchor counts (21^2 = 441, 42^2 = 1764, 6^2 = 36)
    # and 37x53 source rows against 40x40 anchors
    assert global_match_digest(1) == global_match_digest(2)


class TestMvFuse:
    def test_single_view_is_spatial_mixing_only(self):
        rng = np.random.default_rng(1)
        d = 4
        p = fuse_params(rng, d)
        grid = FeatureGrid(rng.normal(size=(3, 3, d)))
        out = mvfuse([grid], p, iterations=1)[0]
        oracle = oracle_mvfuse([grid], p, 1)
        np.testing.assert_allclose(out.data, oracle[0], atol=1e-9)
        # attention contributes nothing for a lone view: replicate by hand
        t_in = grid.data
        import mvmatch.kernels as kernels
        dw = kernels.depthwise_conv2d(t_in, p.dw, p.dwb)
        t = np.maximum(dw @ p.pw1 + p.pb1, 0.0)
        expected = t_in + t @ p.pw2 + p.pb2
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_identical_views_attention_is_convex_noop(self):
        rng = np.random.default_rng(2)
        d = 5
        p = fuse_params(rng, d)
        grid = FeatureGrid(rng.normal(size=(2, 4, d)))
        out = mvfuse([grid, grid, grid], p, iterations=1)
        single = mvfuse([grid], p, iterations=1)[0]
        for g in out:
            np.testing.assert_allclose(g.data, single.data, atol=1e-9)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        d = 4
        p = fuse_params(rng, d)
        grids = [FeatureGrid(rng.normal(size=(2, 2, d))) for _ in range(3)]
        out = mvfuse(grids, p, iterations=2)
        oracle = oracle_mvfuse(grids, p, 2)
        for i, g in enumerate(out):
            np.testing.assert_allclose(g.data, oracle[i], atol=1e-6)

    def test_size_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        p = fuse_params(rng, 3)
        with pytest.raises(ValueError):
            mvfuse([FeatureGrid(np.zeros((2, 2, 3))),
                    FeatureGrid(np.zeros((3, 3, 3)))], p, 1)


def prerendered(scene, views, strides, seed=6):
    """An ArrayFeatureProvider serving the oracle's grids, which a release keeps."""
    oracle = OracleFeatureProvider(scene, dim=32, seed=seed)
    return ArrayFeatureProvider({(v, s): oracle.features(v, s)
                                 for v in views for s in strides})


@pytest.fixture(scope="module")
def planar_setup():
    scene = make_planar_scene(3, (64, 64), seed=31)
    provider = OracleFeatureProvider(scene, dim=32, seed=6)
    params = init_matcher_params(seed=11)
    return scene, provider, params


def smooth_random_warp(scene, target, stride, rng):
    """The ground-truth warp plus a smooth random field of a few cells, with
    some targets exactly on the border and some past it."""
    gt = gt_warp(scene, 0, target, stride=stride)
    h, w = gt.height, gt.width
    yy, xx = np.mgrid[0:h, 0:w] / max(h, w)
    waves = [rng.uniform(-1, 1) * np.sin(2 * np.pi * (rng.uniform(0, 2) * xx
                                                      + rng.uniform(0, 2) * yy)
                                         + rng.uniform(0, 2 * np.pi))
             for _ in range(6)]
    targets = gt.targets + np.stack([sum(waves[:3]), sum(waves[3:])], axis=-1)
    targets[0, :, 0] = 0.0
    targets[-1, :, 1] = h - 1.0
    targets[:3, :3] -= 3.0
    targets[-3:, -3:] += 3.0
    return DenseWarpField(targets, rng.uniform(0, 1, (h, w)), 0, target)


class TestRefineLevel:
    @pytest.mark.parametrize("level", [1, 2])
    def test_verify_at_sub_cell_levels_only_keeps_the_bits(self, planar_setup, level):
        # the gate keeps a whole-cell move only with a lead of
        # CORR_GATE_MARGIN, more than VERIFY_MARGIN, so verifying it as
        # well (level 2) never rejects it
        scene, provider, params = planar_setup
        rng = np.random.default_rng(level)
        stride = params.level_stride(level + 1)
        state = RefinerState(level + 1, {t: smooth_random_warp(scene, t, stride, rng)
                                         for t in (1, 2)})
        got = refine_level(state, provider, params).warps
        want = verify_every_level_refine(state, provider, params)
        assert sorted(got) == sorted(want) == [1, 2]
        for t in (1, 2):
            np.testing.assert_array_equal(got[t].targets, want[t].targets)
            np.testing.assert_array_equal(got[t].confidence, want[t].confidence)
            up = upsample_warp(state.warps[t], 2)
            assert np.any(got[t].targets != up.targets)  # some moves were made

    @pytest.mark.parametrize("level", [1, 2])
    def test_surface_free_pixels_get_the_zero_row_readout(self, level):
        # on a point-cloud scene the source pixels that see no surface have
        # zero features; local_corr leaves them out, so they take the
        # readout of a zero row: no move and a peak of 1 / window^2. The
        # warps keep the bits of the refinement that reads every pixel
        scene = make_point_cloud_scene(3, (48, 48), seed=1)
        provider = OracleFeatureProvider(scene, dim=32, seed=6)
        params = init_matcher_params(seed=11)
        rng = np.random.default_rng(level)
        state = RefinerState(level + 1, {
            t: smooth_random_warp(scene, t, params.level_stride(level + 1), rng)
            for t in (1, 2)})
        lp = params.levels[level]
        dead = ~provider.features(0, lp.stride).data.any(axis=-1)
        assert 0.2 < dead.mean() < 0.9
        got = refine_level(state, provider, params).warps
        want = verify_every_level_refine(state, provider, params)
        for t in (1, 2):
            up = upsample_warp(state.warps[t], 2)
            assert got[t].targets.tobytes() == want[t].targets.tobytes()
            assert got[t].confidence.tobytes() == want[t].confidence.tobytes()
            np.testing.assert_array_equal(got[t].targets[dead], up.targets[dead])
            conf = up.confidence[dead]
            np.testing.assert_array_equal(
                got[t].confidence[dead],
                np.clip(conf + matcher.CONF_BLEND * (1.0 / lp.window ** 2 - conf), 0.0, 1.0))
            assert np.any(got[t].targets[~dead] != up.targets[~dead])

    def test_gt_initialized_residual_is_small(self, planar_setup):
        scene, provider, params = planar_setup
        gt = gt_warp(scene, 0, 1, stride=2)
        state = RefinerState(2, {1: gt})
        out = refine_level(state, provider, params)
        up = upsample_warp(gt, 2)
        mask = gt_warp(scene, 0, 1, stride=1).confidence > 0
        delta = np.linalg.norm(out.warps[1].targets - up.targets, axis=-1)
        assert delta[mask].mean() <= 0.25

    def test_confidence_stays_in_unit_interval(self, planar_setup):
        scene, provider, params = planar_setup
        state = RefinerState(3, {1: gt_warp(scene, 0, 1, stride=4),
                                 2: gt_warp(scene, 0, 2, stride=4)})
        while state.level > 1:
            state = refine_level(state, provider, params)
            for w in state.warps.values():
                assert w.confidence.min() >= 0.0
                assert w.confidence.max() <= 1.0

    def test_finest_state_rejected(self, planar_setup):
        scene, provider, params = planar_setup
        state = RefinerState(1, {1: gt_warp(scene, 0, 1, stride=1)})
        with pytest.raises(ValueError):
            refine_level(state, provider, params)

    def test_hidden_state_shapes(self, planar_setup, monkeypatch):
        scene, provider, params = planar_setup
        apply = ConvStack.apply
        shapes = []

        def recording(self, x):
            out = apply(self, x)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(ConvStack, "apply", recording)
        state = RefinerState(2, {1: gt_warp(scene, 0, 1, stride=2)})
        refine_level(state, provider, replace(params, residual_gain=0.05))
        assert shapes == [(64, 64, PipelineConfig().hidden_dim)]

    def test_gain_adds_the_head_to_the_finished_warp(self, planar_setup, monkeypatch):
        # the refiner used to add the gained head to each move before the
        # move reached the warp; adding it to the finished warp moves float64
        # coordinates by up to 1.2e-13 px at 168^2, and no byte of the
        # float32 warp files of the benchmark's gain-0.05 run
        scene, provider, params = planar_setup
        conv2d, heads = kernels.conv2d, []

        def recording(x, w, b):
            out = conv2d(x, w, b)
            if out.shape[-1] == 3:
                heads.append(out)
            return out

        monkeypatch.setattr(kernels, "conv2d", recording)
        state = RefinerState(2, {t: gt_warp(scene, 0, t, stride=2) for t in (1, 2)})
        zero = refine_level(state, provider, params).warps
        gained = refine_level(state, provider, replace(params, residual_gain=0.05)).warps
        assert len(heads) == 2 and params.levels[1].mvfuse is not None
        for t, head in zip((1, 2), heads):
            np.testing.assert_array_equal(gained[t].targets,
                                          zero[t].targets + 0.05 * head[..., :2])
            np.testing.assert_array_equal(
                gained[t].confidence, np.clip(zero[t].confidence + 0.05 * head[..., 2], 0, 1))

    def test_zero_gain_builds_no_hidden_state(self, planar_setup, monkeypatch):
        scene, provider, params = planar_setup

        def unreachable(*args, **kwargs):
            raise AssertionError("hidden path ran at zero gain")

        monkeypatch.setattr(ConvStack, "apply", unreachable)
        monkeypatch.setattr(matcher, "mvfuse", unreachable)
        state = RefinerState(2, {1: gt_warp(scene, 0, 1, stride=2),
                                 2: gt_warp(scene, 0, 2, stride=2)})
        assert params.levels[1].mvfuse is not None
        out = refine_level(state, provider, params)
        assert sorted(out.warps) == [1, 2]

    def test_zero_gain_keeps_no_correlation_volume_per_target(self):
        # at gain 0 nothing reads a target's volume after its readout, so
        # each extra target may add its warps and updates (about 0.7 of a
        # volume here) but not a whole (H, W, window, window) volume
        size = 96
        scene = make_planar_scene(5, (size, size), seed=31)
        provider = prerendered(scene, range(5), (1,))  # no render in the traced call
        params = init_matcher_params(seed=11)
        assert params.residual_gain == 0.0

        def peak(targets):
            state = RefinerState(2, {t: gt_warp(scene, 0, t, stride=2) for t in targets})
            tracemalloc.start()
            try:
                refine_level(state, provider, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        volume = size * size * params.levels[1].window ** 2 * 8
        growth = (peak((1, 2, 3, 4)) - peak((1,))) / volume
        assert growth < 3.0, f"three more targets added {growth:.2f} volumes"

    @pytest.mark.parametrize("render, bound", [(True, 3.5), (False, 1.25)])
    def test_four_target_level_peak(self, render, bound):
        # one 168^2 stride-1 level with 4 targets, in (168, 168, 32) grids;
        # upsampling every warp first and holding every update until the
        # last pass peaked at 3.88 grids with the renders in the call and
        # 1.39 with the grids rendered before it
        size = 168
        scene = make_planar_scene(5, (size, size), seed=31)
        provider = OracleFeatureProvider(scene, dim=32, seed=6)
        if not render:
            provider = ArrayFeatureProvider({(v, 1): provider.features(v, 1) for v in range(5)})
        params = init_matcher_params(seed=11)
        state = RefinerState(2, {t: gt_warp(scene, 0, t, stride=2) for t in (1, 2, 3, 4)})
        tracemalloc.start()
        try:
            refine_level(state, provider, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grids = peak / (size * size * 32 * 8)
        assert grids < bound, f"the level peaked at {grids:.2f} grids"

    def test_sub_cell_verify_keeps_no_feature_rows(self):
        # the verify step at level 1 scores each candidate from the band's
        # own dot products; gathering (H * W, C) target rows for it as well
        # peaked at 4.6 volumes here
        size = 96
        scene = make_planar_scene(5, (size, size), seed=31)
        provider = prerendered(scene, (0, 1), (1,))  # no render in the traced call
        params = init_matcher_params(seed=11)
        state = RefinerState(2, {1: gt_warp(scene, 0, 1, stride=2)})
        tracemalloc.start()
        try:
            refine_level(state, provider, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        volume = size * size * params.levels[1].window ** 2 * 8
        assert peak / volume < 3.5, f"level 1 peaked at {peak / volume:.2f} volumes"

    def test_provider_stride_mismatch_raises(self, planar_setup):
        scene, _, params = planar_setup
        bad = ArrayFeatureProvider({
            (v, s): FeatureGrid(np.zeros((4, 4, 32)), stride=s)
            for v in (0, 1) for s in (1, 2, 4, 8)})
        state = RefinerState(2, {1: gt_warp(scene, 0, 1, stride=2)})
        with pytest.raises(ValueError, match="warp grid size must match the source grid"):
            refine_level(state, bad, params)

    def test_source_grid_off_the_warp_size_raises(self, planar_setup):
        # the target grids are the level's; only the source grid at stride 1
        # lacks a row of the upsampled 64 x 64 warp
        scene, provider, params = planar_setup
        grids = {(v, s): provider.features(v, s) for v in (0, 1) for s in (1, 2)}
        grids[(0, 1)] = FeatureGrid(grids[(0, 1)].data[:-1], stride=1)
        state = RefinerState(2, {1: gt_warp(scene, 0, 1, stride=2)})
        with pytest.raises(ValueError, match="warp grid size must match the source grid"):
            refine_level(state, ArrayFeatureProvider(grids), params)


class TestCorrReadout:
    @staticmethod
    def score_rows(window, channels, rng):
        """Rows that reach every branch of the readout: rounded random scores
        (ties are common), constant rows (every parabola denominator is 0),
        each cell as a clear argmax over rounded noise (so every window edge
        is hit), and each cell leading the centre by exactly the gate margin
        and by one ulp more."""
        k = window * window
        margin = matcher.CORR_GATE_MARGIN / np.sqrt(channels)
        peaked = np.round(rng.uniform(-0.1, 0.1, (k, k)), 2) + 0.5 * np.eye(k)
        at_margin = margin * np.eye(k)
        past_margin = np.nextafter(margin, 1.0) * np.eye(k)
        return np.concatenate([np.round(rng.uniform(-1, 1, (400, k)), 1),
                               np.full((3, k), 0.25), np.zeros((1, k)),
                               peaked, at_margin, past_margin])

    @pytest.mark.parametrize("subpixel", [False, True])
    @pytest.mark.parametrize("window", [1, 3, 5, 7, 9])
    def test_row_readout_keeps_the_grid_readout_bits(self, window, subpixel):
        channels, temperature = 32, 0.05
        rows = self.score_rows(window, channels, np.random.default_rng(window))
        n, r = rows.shape[0], (window - 1) // 2
        delta, peak, centre = matcher._corr_readout(rows, window, channels,
                                                    temperature, subpixel)
        want_delta, want_peak = grid_corr_readout(rows.reshape(n, 1, window, window),
                                                  channels, temperature, subpixel)
        for got, want in ((delta, want_delta.reshape(n, 2)), (peak, want_peak.reshape(n)),
                          (centre, rows[:, window * r + r])):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        # a lead of exactly the gate margin keeps put, one ulp more moves a cell
        k = window * window
        moved = np.abs(delta[-2 * k:]).max(axis=1) >= 1.0
        assert not moved[:k].any() and moved[k:].sum() == k - 1


class TestDefaults:
    def test_shipped_defaults(self):
        params = init_matcher_params()
        assert [params.levels[lv].stride for lv in (4, 3, 2, 1)] == [8, 4, 2, 1]
        assert [params.levels[lv].mvfuse is not None for lv in (4, 3, 2, 1)] \
            == [True, False, False, True]
        assert params.mvfuse_iters == 2

    def test_params_carry_every_config_value(self):
        shipped = PipelineConfig()
        cfg = PipelineConfig(feature_dim=16, hidden_dim=24, strides=(4, 2, 1), sigma=2.5,
                             mvfuse_levels=(2,), mvfuse_iters=3, global_temperature=0.004,
                             softargmax_temperature=0.07, residual_gain=0.05)
        carried = ("mvfuse_iters", "global_temperature", "softargmax_temperature",
                   "residual_gain")
        in_levels = ("feature_dim", "hidden_dim", "strides", "mvfuse_levels", "sigma")
        for name in carried + in_levels:
            assert getattr(cfg, name) != getattr(shipped, name), name
        params = init_matcher_params(cfg, seed=4)
        for name in carried:
            assert getattr(params, name) == getattr(cfg, name), name
        assert params.encoder.sigma == 2.5
        assert params.encoder.dim == 16
        assert params.num_levels == 3
        assert [params.levels[lv].stride for lv in (3, 2, 1)] == [4, 2, 1]
        assert [params.levels[lv].mvfuse is not None for lv in (3, 2, 1)] == [False, True, False]
        assert params.levels[1].hidden.w1.shape == (3, 3, 2 * 16 + 5 * 5, 24)
        assert params.levels[2].mvfuse.wq.shape == (24, 24)

    def test_no_config_means_the_shipped_config(self):
        a = init_matcher_params(seed=2)
        b = init_matcher_params(PipelineConfig(), seed=2)
        assert a.global_temperature == b.global_temperature
        assert a.encoder.dim == b.encoder.dim
        for lv in (4, 3, 2, 1):
            assert a.levels[lv].stride == b.levels[lv].stride
            assert (a.levels[lv].mvfuse is None) == (b.levels[lv].mvfuse is None)
        np.testing.assert_array_equal(a.levels[1].hidden.w1, b.levels[1].hidden.w1)
        np.testing.assert_array_equal(a.encoder.w1, b.encoder.w1)

    def test_unknown_alignment_rejected(self):
        # target features are always sampled at the warp, so neither the
        # config nor the matcher has an alignment setting to get wrong
        for settings in (PipelineConfig, MatcherParams):
            assert not [f.name for f in fields(settings) if "alignment" in f.name]

    def test_config_defaults(self):
        cfg = PipelineConfig()
        assert cfg.track_tokens == 512
        assert cfg.eps_p == 3.0
        assert cfg.tau == 0.3
        assert cfg.nms_radius == 2
        assert cfg.targets_per_group == 4
        assert cfg.base_resolution == 672
        assert cfg.strides == (8, 4, 2, 1)


class TestRunGroup:
    def test_identical_images_near_identity(self):
        scene = SceneOracle("planar", (96, 96), 50, homographies=(np.eye(3), np.eye(3)))
        provider = OracleFeatureProvider(scene, dim=32, seed=7)
        params = init_matcher_params(seed=3)
        group = ImageGroup(0, (1,))
        coords, vis = simulate_matcher(scene, group, 300, 0.0, 0.0, seed=1)
        tracks = sample_tracks(coords, vis, 64, seed=2)
        warps = run_group(group, provider, tracks, params)
        epe = np.linalg.norm(warps[1].targets - identity_warp(96, 96).targets,
                             axis=-1)
        assert epe.mean() <= 0.5

    def test_multi_target_output_contract(self):
        scene = make_planar_scene(4, (64, 64), seed=41)
        provider = OracleFeatureProvider(scene, dim=32, seed=8)
        params = init_matcher_params(seed=5)
        group = ImageGroup(0, (1, 2, 3))
        coords, vis = simulate_matcher(scene, group, 400, 0.5, 0.05, seed=3)
        tracks = sample_tracks(coords, vis, 48, seed=1)
        warps = run_group(group, provider, tracks, params)
        assert sorted(warps) == [1, 2, 3]
        for t, w in warps.items():
            assert (w.source_view, w.target_view) == (0, t)
            assert w.targets.shape == (64, 64, 2)
            assert 0.0 <= w.confidence.min() and w.confidence.max() <= 1.0

    def test_deterministic(self):
        scene = make_planar_scene(3, (64, 64), seed=42)
        provider = OracleFeatureProvider(scene, dim=32, seed=8)
        params = init_matcher_params(seed=5)
        group = ImageGroup(0, (1, 2))
        coords, vis = simulate_matcher(scene, group, 200, 0.5, 0.0, seed=3)
        tracks = sample_tracks(coords, vis, 32, seed=1)
        a = run_group(group, provider, tracks, params)
        b = run_group(group, provider, tracks, params)
        for t in (1, 2):
            np.testing.assert_array_equal(a[t].targets, b[t].targets)
            np.testing.assert_array_equal(a[t].confidence, b[t].confidence)

    def test_alignment_modes_run(self):
        # the aligned target features feed only the hidden path, so they
        # change the warp through a non-zero conv-head gain
        scene = make_planar_scene(3, (64, 64), seed=43)
        provider = OracleFeatureProvider(scene, dim=32, seed=8)
        group = ImageGroup(0, (1, 2))
        params = init_matcher_params(seed=5)
        zero = run_group(group, provider, [], params)
        gained = run_group(group, provider, [], replace(params, residual_gain=0.05))
        for t in group.targets:
            assert np.all(np.isfinite(gained[t].targets))
            assert not np.array_equal(gained[t].targets, zero[t].targets)

    def test_upsample_factor(self):
        # a pyramid that stops at stride 8 still returns base-resolution warps
        scene = make_planar_scene(2, (32, 32), seed=44)
        provider = OracleFeatureProvider(scene, dim=32, seed=8)
        params = init_matcher_params(PipelineConfig(strides=(8,)), seed=5)
        warps = run_group(ImageGroup(0, (1,)), provider, [], params)
        assert warps[1].targets.shape == (32, 32, 2)
        assert warps[1].confidence.shape == (32, 32)

    def test_empty_group_rejected(self):
        scene = make_planar_scene(2, (32, 32), seed=45)
        provider = OracleFeatureProvider(scene, dim=32, seed=8)
        with pytest.raises(ValueError):
            run_group(ImageGroup(0, ()), provider, [], init_matcher_params())


class LiveGridProvider(OracleFeatureProvider):
    """Records, per stride, the most grids of any stride alive anywhere in
    the process while a grid of that stride renders, the new one included."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grids: list[weakref.ref] = []
        self.live: dict[int, int] = {}

    def _render(self, view, stride):
        grid = super()._render(view, stride)
        self.grids.append(weakref.ref(grid))
        alive = sum(ref() is not None for ref in self.grids)
        self.live[stride] = max(self.live.get(stride, 0), alive)
        return grid


class CountingProvider(OracleFeatureProvider):
    """Counts the ``features`` and ``release`` calls per (view, stride)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads: Counter = Counter()
        self.releases: Counter = Counter()

    def features(self, view, stride):
        self.reads[(view, stride)] += 1
        return super().features(view, stride)

    def release(self, view, stride):
        self.releases[(view, stride)] += 1
        super().release(view, stride)


class TestGridLifetime:
    def test_one_group_holds_the_source_and_one_target_grid(self):
        # the group reads every grid of its five views, but at each level
        # only the source grid and the target grid being correlated are
        # alive: the previous target's grid is gone before the next renders,
        # and the coarse grids (which the exchange, without tracks, passes
        # through unchanged) are gone after the coarsest level; at a non-zero
        # gain each target's hidden state is built in its own pass, so the
        # bound holds there too
        scene = make_planar_scene(5, (64, 64), seed=41)
        for gain in (0.0, 0.05):
            provider = LiveGridProvider(scene, dim=32, seed=8)
            params = init_matcher_params(PipelineConfig(residual_gain=gain), seed=5)
            run_group(ImageGroup(0, (1, 2, 3, 4)), provider, [], params)
            assert provider.live == {8: 5, 4: 2, 2: 2, 1: 2}  # the exchange reads all of 8
            assert provider._cache == {}

    @pytest.mark.parametrize("gain", [0.0, 0.05])
    def test_each_level_reads_and_releases_each_grid_once(self, gain):
        scene = make_planar_scene(4, (64, 64), seed=43)
        params = init_matcher_params(PipelineConfig(residual_gain=gain), seed=5)
        coarse = params.level_stride(params.num_levels)
        state = RefinerState(params.num_levels + 1,
                             {t: gt_warp(scene, 0, t, stride=coarse) for t in (1, 2, 3)})
        while state.level > 1:
            provider = CountingProvider(scene, dim=32, seed=8)
            state = refine_level(state, provider, params)
            once = Counter({(v, params.level_stride(state.level)): 1 for v in range(4)})
            assert provider.reads == once
            assert provider.releases == once
            assert provider._cache == {}

    @pytest.mark.parametrize("gain", [0.0, 0.05])
    def test_warps_keep_the_bits_of_a_provider_that_drops_nothing(self, gain):
        scene = make_planar_scene(4, (64, 64), seed=42)
        group = ImageGroup(0, (1, 2, 3))
        params = init_matcher_params(PipelineConfig(residual_gain=gain), seed=5)
        coords, vis = simulate_matcher(scene, group, 200, 0.5, 0.0, seed=3)
        tracks = sample_tracks(coords, vis, 32, seed=1)
        provider = OracleFeatureProvider(scene, dim=32, seed=8)
        kept = prerendered(scene, group.views, (1, 2, 4, 8), seed=8)
        got = run_group(group, provider, tracks, params)
        want = run_group(group, kept, tracks, params)
        assert provider._cache == {}
        for t in group.targets:
            assert got[t].targets.tobytes() == want[t].targets.tobytes()
            assert got[t].confidence.tobytes() == want[t].confidence.tobytes()

    def test_a_grid_lives_until_its_last_planned_release(self):
        scene = make_point_cloud_scene(3, (32, 32), seed=2, num_points=300)
        provider = OracleFeatureProvider(scene, dim=8, seed=1)
        provider.plan({0: 2})
        first = provider.features(0, 2)
        provider.release(0, 2)
        assert provider.features(0, 2) is first
        provider.release(0, 2)
        assert (0, 2) not in provider._cache
        # a view without a plan is dropped at its first release
        provider.features(1, 2)
        provider.release(1, 2)
        assert provider._cache == {}
        again = provider.features(0, 2)
        assert again is not first
        assert again.data.tobytes() == first.data.tobytes()
        provider.release(0, 2)  # past its planned readers: dropped at once
        assert provider._cache == {}

    def test_array_provider_keeps_released_grids(self):
        grid = FeatureGrid(np.ones((2, 2, 4)), stride=2)
        provider = ArrayFeatureProvider({(0, 2): grid})
        provider.release(0, 2)
        assert provider.features(0, 2) is grid


class TestMonotonicity:
    def test_epe_non_increasing_at_anchors(self):
        # smaller-scale version of the acceptance criterion
        scene = make_planar_scene(3, (96, 96), seed=12)
        provider = OracleFeatureProvider(scene, dim=32, seed=5)
        params = init_matcher_params(seed=3)
        group = ImageGroup(0, (1, 2))
        grids = [provider.features(v, 8) for v in group.views]
        warps = {}
        for slot, tgt in enumerate(group.targets, start=1):
            anchors = AnchorGrid.uniform(grids[slot].height, grids[slot].width,
                                         (grids[slot].height, grids[slot].width))
            warps[tgt] = global_match(grids[0], grids[slot], anchors,
                                      params.global_temperature, 0, tgt)
        state = RefinerState(params.num_levels + 1, warps)
        states = []
        while state.level > 1:
            state = refine_level(state, provider, params)
            states.append(state)
        for tgt in group.targets:
            errs, mask = [], None
            for st in states:
                s = params.level_stride(st.level)
                gt = gt_warp(scene, 0, tgt, stride=s)
                step = 8 // s
                e = np.linalg.norm((st.warps[tgt].targets[::step, ::step]
                                    - gt.targets[::step, ::step]) * s, axis=-1)
                m = gt.confidence[::step, ::step] > 0
                errs.append(e)
                mask = m if mask is None else (mask & m)
            seq = np.stack(errs)
            frac = np.all(seq[1:] <= seq[:-1] + 1e-9, axis=0)[mask].mean()
            assert frac >= 0.9

    def test_pairwise_degradation_equality_with_zero_gain(self):
        # Table 5.B analog: disabling MVFuse never improves mean EPE; with the
        # zero-initialized conv head the fused hidden does not feed the warp,
        # so disabling fusion changes nothing (the warps are equal)
        for seed in range(3):
            scene = make_planar_scene(3, (64, 64), seed=60 + seed)
            provider = OracleFeatureProvider(scene, dim=32, seed=5)
            group = ImageGroup(0, (1, 2))
            on = init_matcher_params(seed=3)
            off = init_matcher_params(PipelineConfig(mvfuse_levels=()), seed=3)
            w_on = run_group(group, provider, [], on)
            w_off = run_group(group, provider, [], off)
            for tgt in (1, 2):
                np.testing.assert_array_equal(w_on[tgt].targets, w_off[tgt].targets)
                np.testing.assert_array_equal(w_on[tgt].confidence,
                                              w_off[tgt].confidence)
                gt = gt_warp(scene, 0, tgt)
                m = gt.confidence > 0
                e_on = np.linalg.norm(w_on[tgt].targets - gt.targets, axis=-1)[m].mean()
                e_off = np.linalg.norm(w_off[tgt].targets - gt.targets, axis=-1)[m].mean()
                assert e_off >= e_on - 1e-12

    def test_mvfuse_reaches_warp_with_gain(self):
        # the same weights with fusion switched off: at a non-zero gain the
        # fused hidden state feeds the conv head, so the warps differ
        scene = make_planar_scene(3, (64, 64), seed=60)
        provider = OracleFeatureProvider(scene, dim=32, seed=5)
        group = ImageGroup(0, (1, 2))
        on = init_matcher_params(PipelineConfig(residual_gain=0.05), seed=3)
        w_on = run_group(group, provider, [], on)
        off = replace(on, levels={lv: replace(lp, mvfuse=None)
                                  for lv, lp in on.levels.items()})
        w_off = run_group(group, provider, [], off)
        for tgt in (1, 2):
            assert not np.array_equal(w_on[tgt].targets, w_off[tgt].targets)
