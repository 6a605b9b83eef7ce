import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvmatch import attention
from mvmatch.attention import (EXP_FLOOR, WINDOW_TAIL, AttentionParams, TrackFeatures,
                               attentional_sampling, attentional_splatting,
                               coordinate_queries, exchange_features,
                               grid_token_centers, init_attention_params,
                               masked_softmax, spatial_bias, track_transformer)
from mvmatch.grids import MISSING, FeatureGrid
from mvmatch.tracks import Tracks

from oracles import (dense_attentional_sampling, dense_attentional_splatting,
                     dense_spatial_bias, oracle_sampling, oracle_splatting,
                     oracle_transformer)

TINY = np.finfo(np.float64).tiny
# Largest deviation of the windowed exchange from the dense formulation.
EXCHANGE_ATOL = 1e-13


def params_with(dim=4, sigma=1.0, seed=0, **overrides):
    p = init_attention_params(dim, sigma, seed)
    fields = {k: getattr(p, k) for k in
              ("dim", "w1", "b1", "w2", "b2", "wk", "wv", "wout", "sigma")}
    fields.update(overrides)
    return AttentionParams(**fields)


class TestSpatialBias:
    def test_zero_at_own_center(self):
        b = spatial_bias(np.array([[2.0, 1.0]]), (3, 4), sigma=2.0)
        assert b[0, 1 * 4 + 2] == 0.0

    def test_unit_sigma_distance(self):
        b = spatial_bias(np.array([[0.0, 0.0]]), (1, 2), sigma=1.0)
        assert b[0, 1] == pytest.approx(-0.5)

    def test_two_by_two_example(self):
        b = spatial_bias(np.array([[0.0, 0.0]]), (2, 2), sigma=1.0)
        np.testing.assert_allclose(b[0], [0.0, -0.5, -0.5, -1.0])

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            spatial_bias(np.zeros((1, 2)), (2, 2), sigma=0.0)

    def test_separable_terms_give_the_dense_bits(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(-2, [55, 39], size=(70, 2))
        coords[:5] = np.round(coords[:5])
        for sigma in (1.0, 0.7):
            want = dense_spatial_bias(coords, (37, 53), sigma)
            np.testing.assert_array_equal(spatial_bias(coords, (37, 53), sigma), want)
            # a window's bias is the same bits as its cells' columns of the grid's
            window = spatial_bias(coords, (5, 7), sigma, origin=(30, 46))
            np.testing.assert_array_equal(
                window, want.reshape(-1, 37, 53)[:, 30:35, 46:53].reshape(-1, 35))


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 511, 512, 1023, 1024, 1535, 1536, 1961, 7056])
    def test_cover_rows_once_without_short_blocks(self, n):
        blocks = list(attention._row_blocks(n, 512))
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
        sizes = [b.stop - b.start for b in blocks]
        assert all(512 <= size < 1024 for size in sizes) or sizes == [n]


def exchange_case(hw, tracks, seed, outside=1.0):
    # track coordinates reach up to ``outside`` cells past the grid's edges
    rng = np.random.default_rng(seed)
    h, w = hw
    params = init_attention_params(32, sigma=1.0, seed=seed)
    grid = FeatureGrid(rng.normal(size=(h, w, 32)))
    coords = rng.uniform(-outside, [w - 1 + outside, h - 1 + outside], size=(tracks, 2))
    vis = rng.random(tracks) < 0.7
    return params, grid, coords, vis, rng.normal(size=(tracks, 32))


class TestBlocksMatchDenseFormulation:
    """The windowed exchange against the full-matrix formulation it replaced.

    84x84 with 512 tracks is the coarse grid and track budget at the shipped
    672 px; 37x53 grid cells give ragged tiles and windows; 44x61 is a
    non-square grid wide enough for the subnormal flush to fire. The
    windows leave out at most ``WINDOW_TAIL`` = 1e-17 of each row's weight,
    and the products and sums run over other shapes and orders than the
    dense ones, so outputs agree to ``EXCHANGE_ATOL``, not bit for bit.
    """

    SHAPES = [((84, 84), 512), ((37, 53), 704), ((37, 53), 700), ((44, 61), 512)]

    @pytest.mark.parametrize("hw, tracks", SHAPES)
    def test_sampling_bits(self, hw, tracks):
        params, grid, coords, _, _ = exchange_case(hw, tracks, 5)
        np.testing.assert_allclose(attentional_sampling(grid, coords, params),
                                   dense_attentional_sampling(grid, coords, params),
                                   rtol=0, atol=EXCHANGE_ATOL)

    @pytest.mark.parametrize("hw, tracks", SHAPES[:2] + SHAPES[3:])
    def test_splatting_bits(self, hw, tracks):
        params, grid, coords, vis, feats = exchange_case(hw, tracks, 6)
        assert 0 < vis.sum() < tracks
        got = attentional_splatting(grid, feats, coords, vis, params)
        want = dense_attentional_splatting(grid, feats, coords, vis, params)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=EXCHANGE_ATOL)

    def test_splatting_ragged_track_count_within_ulps(self):
        # a visible-track count off a multiple of 8; each window's track count
        # is padded to one
        params, grid, coords, vis, feats = exchange_case((37, 53), 700, 6)
        assert vis.sum() % 8
        got = attentional_splatting(grid, feats, coords, vis, params)
        want = dense_attentional_splatting(grid, feats, coords, vis, params)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=EXCHANGE_ATOL)


def shifted_exchange_logits(hw, tracks, seed, splat, outside=1.0):
    """The dense formulation's max-shifted logits for ``exchange_case``:
    (T, HW) for sampling, (HW, visible tracks) for splatting."""
    params, grid, coords, vis, track_feats = exchange_case(hw, tracks, seed, outside)
    bias = dense_spatial_bias(coords, hw, params.sigma)
    if splat:
        queries = coordinate_queries(params, grid_token_centers(*hw), hw)
        keys = track_feats[vis] @ params.wk
        bias = bias.T[:, vis]
    else:
        queries = coordinate_queries(params, coords, hw)
        keys = grid.data.reshape(-1, params.dim) @ params.wk
    logits = queries @ keys.T / np.sqrt(params.dim) + bias
    return logits - logits.max(axis=1, keepdims=True)


class TestWindowBound:
    """Every dense logit a window leaves out is negligible.

    Its max-shifted value lies below ln(WINDOW_TAIL / n) for a row of n
    columns (HW cells in sampling, the visible tracks in splatting), so the
    left-out weights add up to at most WINDOW_TAIL of the row's largest.
    ``exchange_case`` puts some tracks outside the grid. In one case they
    reach 6 cells out and are few, so some tiles hold only such tracks and
    their windows rest on the tracks' distance to the nearest cell. On the
    6x6 grid the sampling window is the whole grid.
    """

    CASES = [((84, 84), 512, 1.0), ((37, 53), 700, 1.0), ((37, 53), 40, 6.0),
             ((6, 6), 128, 1.0)]

    @pytest.mark.parametrize("hw, tracks, outside", CASES)
    def test_sampling_leaves_out_only_negligible_logits(self, hw, tracks, outside):
        params, grid, coords, _, _ = exchange_case(hw, tracks, 5, outside)
        h, w = hw
        assert np.any((coords < 0) | (coords > [w - 1, h - 1]))
        queries = coordinate_queries(params, coords, hw)
        keys = grid.data.reshape(-1, params.dim) @ params.wk
        spread = attention._row_spread(queries, keys)
        inside = np.zeros((tracks, h, w), dtype=bool)
        windows = attention._sampling_windows(coords, hw, params.sigma, spread)
        for bin_tracks, rows, cols in windows:
            assert not inside[bin_tracks].any()
            inside[bin_tracks, rows, cols] = True
        assert inside.any(axis=(1, 2)).all()
        shifted = shifted_exchange_logits(hw, tracks, 5, False, outside).reshape(tracks, h, w)
        assert np.all(shifted[~inside] < np.log(WINDOW_TAIL) - np.log(h * w))
        if hw == (6, 6):
            assert inside.all()
        else:
            assert inside.mean() < 0.5

    @pytest.mark.parametrize("hw, tracks, outside", CASES)
    def test_splatting_leaves_out_only_negligible_logits(self, hw, tracks, outside):
        params, grid, coords, vis, feats = exchange_case(hw, tracks, 6, outside)
        h, w = hw
        t_vis = int(vis.sum())
        queries = coordinate_queries(params, grid_token_centers(*hw), hw)
        spread = attention._row_spread(queries, feats[vis] @ params.wk).reshape(hw)
        inside = np.zeros((h, w, t_vis), dtype=bool)
        for rows, cols, kept in attention._splatting_windows(coords[vis], hw, params.sigma,
                                                             spread):
            assert not inside[rows, cols].any()
            inside[rows, cols, kept] = True
        assert inside.any(axis=2).all()
        shifted = shifted_exchange_logits(hw, tracks, 6, True, outside).reshape(h, w, t_vis)
        assert np.all(shifted[~inside] < np.log(WINDOW_TAIL) - np.log(t_vis))
        if hw == (84, 84):
            assert inside.mean() < 0.5


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from test_attention import exchange_case
from mvmatch.attention import attentional_sampling, attentional_splatting, exchange_features
from mvmatch.grids import FeatureGrid
from mvmatch.tracks import Tracks
params, grid, coords, vis, feats = exchange_case((37, 53), 700, 6)
sampled = attentional_sampling(grid, coords, params)
splatted = attentional_splatting(grid, feats, coords, vis, params)
# the whole exchange over five views, 700 tracks each visible in a ragged subset
rng = np.random.default_rng(7)
grids = [FeatureGrid(rng.normal(size=(37, 53, 32))) for _ in range(5)]
track_vis = rng.random((700, 5)) < 0.7
track_vis[:, 0] = True
track_vis[~track_vis[:, 1:].any(axis=1), 1] = True
track_coords = np.where(track_vis[..., None],
                        rng.uniform(-1.0, [53.0, 37.0], size=(700, 5, 2)), -1.0)
exchanged = exchange_features(grids, Tracks(track_coords, track_vis), params)
print(hashlib.sha256(b"".join([sampled.tobytes(), splatted.data.tobytes()]
                              + [g.data.tobytes() for g in exchanged])).hexdigest())
"""


def exchange_digest(threads):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    done = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_exchange_bits_do_not_depend_on_blas_threads():
    # ragged cases: 37x53 = 1961 cells and 700 tracks, neither a multiple of
    # 8, and five views whose visible track counts differ
    assert exchange_digest(1) == exchange_digest(2)


class TestSubnormalFlush:
    """Shifted logits below log(tiny) become exact zeros before the exp."""

    def test_floor_is_log_tiny(self):
        assert EXP_FLOOR == np.log(TINY)
        assert -709 < EXP_FLOOR < -708

    def test_boundary_step(self):
        above = np.nextafter(EXP_FLOOR, 0.0)
        below = np.nextafter(EXP_FLOOR, -np.inf)
        assert np.exp(above) >= TINY
        assert 0.0 < np.exp(below) < TINY
        row = np.array([[0.0, above, below]])
        sums = attention._softmax_(row)
        assert sums[0, 0] == 1.0
        assert row[0, 1] == np.exp(above)
        assert row[0, 2] == 0.0

    # the cases TestBlocksMatchDenseFormulation compares with the dense outputs:
    # sampling at seed 5, splatting at seed 6
    @pytest.mark.parametrize("splat, seed", [(False, 5), (True, 6)])
    @pytest.mark.parametrize("hw", [(84, 84), (44, 61)])
    def test_flush_fires_only_below_tiny(self, hw, splat, seed):
        shifted = shifted_exchange_logits(hw, 512, seed, splat)
        flushed = shifted < EXP_FLOOR
        expd = np.exp(shifted)
        # subnormal terms the flush turns into zeros, not just underflows
        assert np.count_nonzero(flushed & (expd > 0.0)) > 0
        assert expd[flushed].max() < TINY
        assert expd[~flushed].min() >= TINY


class TestMaskedSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(10, 7))
        mask = rng.random((10, 7)) < 0.6
        mask[:, 0] = True
        out = masked_softmax(logits, mask)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 6))
        mask = rng.random((5, 6)) < 0.5
        mask[:, 2] = True
        out = masked_softmax(logits, mask)
        assert np.all(out[~mask] == 0.0)

    def test_fully_masked_row_is_zero(self):
        out = masked_softmax(np.ones((2, 3)), np.zeros((2, 3), dtype=bool))
        np.testing.assert_array_equal(out, 0.0)


class TestAttentionalSampling:
    def test_uniform_grid_collapses(self):
        params = params_with(dim=3, sigma=2.0, seed=1)
        c = np.array([0.3, -1.2, 0.8])
        grid = FeatureGrid(np.tile(c, (4, 5, 1)))
        coords = np.array([[1.0, 1.0], [3.5, 2.0]])
        out = attentional_sampling(grid, coords, params)
        np.testing.assert_allclose(out, np.tile(c @ params.wv, (2, 1)), atol=1e-9)

    def test_sigma_limit_is_lookup(self):
        rng = np.random.default_rng(2)
        params = params_with(dim=4, sigma=1e-3, seed=3)
        grid = FeatureGrid(rng.normal(size=(3, 3, 4)))
        out = attentional_sampling(grid, np.array([[2.0, 1.0]]), params)
        np.testing.assert_allclose(out[0], grid.data[1, 2] @ params.wv, atol=1e-4)

    def test_zero_query_zero_bias_is_mean(self):
        rng = np.random.default_rng(4)
        d = 4
        params = params_with(
            dim=d, sigma=1e9, seed=5,
            w1=np.zeros((2, d)), b1=np.zeros(d), w2=np.zeros((d, d)), b2=np.zeros(d))
        grid = FeatureGrid(rng.normal(size=(3, 4, d)))
        out = attentional_sampling(grid, np.array([[0.0, 0.0]]), params)
        expected = (grid.data.reshape(-1, d) @ params.wv).mean(axis=0)
        np.testing.assert_allclose(out[0], expected, atol=1e-6)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        params = params_with(dim=5, sigma=1.7, seed=7)
        grid = FeatureGrid(rng.normal(size=(4, 3, 5)))
        coords = rng.uniform(0, 3, size=(6, 2))
        out = attentional_sampling(grid, coords, params)
        np.testing.assert_allclose(out, oracle_sampling(grid, coords, params), atol=1e-9)

    def test_dim_mismatch(self):
        params = params_with(dim=4)
        with pytest.raises(ValueError):
            attentional_sampling(FeatureGrid(np.zeros((2, 2, 3))),
                                 np.zeros((1, 2)), params)


class TestTrackTransformer:
    def test_single_view_residual_projection(self):
        rng = np.random.default_rng(8)
        params = params_with(dim=4, seed=9)
        values = rng.normal(size=(1, 3, 4))
        vis = np.ones((3, 1), dtype=bool)
        out = track_transformer(TrackFeatures(values, vis), params)
        expected = values + (values @ params.wv) @ params.wout
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_view_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        params = params_with(dim=4, seed=11)
        values = rng.normal(size=(4, 5, 4))
        vis = rng.random((5, 4)) < 0.8
        vis[:, 0] = True
        vis[np.nonzero(~vis[:, 1:].any(axis=1))[0], 1] = True
        out = track_transformer(TrackFeatures(values, vis), params).values
        perm = np.array([0, 3, 1, 2])  # source fixed, targets permuted
        out_p = track_transformer(
            TrackFeatures(values[perm], vis[:, perm]), params).values
        np.testing.assert_allclose(out_p, out[perm], atol=1e-6)

    def test_invisible_garbage_has_no_effect(self):
        rng = np.random.default_rng(12)
        params = params_with(dim=3, seed=13)
        values = rng.normal(size=(3, 4, 3))
        vis = np.ones((4, 3), dtype=bool)
        vis[:, 2] = False
        base = track_transformer(TrackFeatures(values, vis), params).values
        poisoned = values.copy()
        poisoned[2] = 1e6 * rng.normal(size=(4, 3))
        out = track_transformer(TrackFeatures(poisoned, vis), params).values
        np.testing.assert_array_equal(out[:2], base[:2])
        assert np.all(out[2] == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(14)
        params = params_with(dim=6, seed=15)
        values = rng.normal(size=(5, 7, 6))
        vis = rng.random((7, 5)) < 0.7
        vis[:, 0] = True
        out = track_transformer(TrackFeatures(values, vis), params).values
        np.testing.assert_allclose(out, oracle_transformer(values, vis, params),
                                   atol=1e-9)

    def test_zero_visible_rejected(self):
        params = params_with(dim=2)
        vis = np.zeros((1, 2), dtype=bool)
        with pytest.raises(ValueError):
            track_transformer(TrackFeatures(np.zeros((2, 1, 2)), vis), params)


class TestAttentionalSplatting:
    def test_zero_wout_is_identity(self):
        rng = np.random.default_rng(16)
        d = 4
        params = params_with(dim=d, seed=17, wout=np.zeros((d, d)))
        grid = FeatureGrid(rng.normal(size=(3, 3, d)))
        out = attentional_splatting(grid, rng.normal(size=(5, d)),
                                    rng.uniform(0, 2, (5, 2)),
                                    np.ones(5, dtype=bool), params)
        np.testing.assert_array_equal(out.data, grid.data)

    def test_single_visible_track_dominates(self):
        rng = np.random.default_rng(18)
        d = 3
        params = params_with(dim=d, seed=19)
        grid = FeatureGrid(rng.normal(size=(2, 2, d)))
        feats = rng.normal(size=(4, d))
        coords = rng.uniform(0, 1, (4, 2))
        vis = np.array([False, True, False, False])
        out = attentional_splatting(grid, feats, coords, vis, params)
        expected = grid.data + ((feats[1] @ params.wv) @ params.wout)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_no_visible_track_returns_grid(self):
        params = params_with(dim=2)
        grid = FeatureGrid(np.ones((2, 2, 2)))
        out = attentional_splatting(grid, np.zeros((3, 2)), np.zeros((3, 2)),
                                    np.zeros(3, dtype=bool), params)
        assert out is grid

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(20)
        params = params_with(dim=4, sigma=0.9, seed=21)
        grid = FeatureGrid(rng.normal(size=(3, 3, 4)))
        feats = rng.normal(size=(2, 4))
        coords = rng.uniform(0, 2, (2, 2))
        vis = np.ones(2, dtype=bool)
        out = attentional_splatting(grid, feats, coords, vis, params)
        oracle = oracle_splatting(grid, feats, coords, vis, params)
        np.testing.assert_allclose(out.data, oracle, atol=1e-9)

    def test_locality_monotonic_with_identical_keys(self):
        # identical key/value features leave the bias as the only
        # differentiator: attention must decrease with distance
        d = 3
        params = params_with(dim=d, sigma=1.5, seed=22)
        feats = np.tile(np.array([0.3, -1.0, 0.7]), (4, 1))
        coords = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
        grid = FeatureGrid(np.zeros((1, 8, d)))
        queries = coordinate_queries(params, grid_token_centers(1, 8), (1, 8))
        keys = feats @ params.wk
        logits = queries @ keys.T / np.sqrt(d) + spatial_bias(coords, (1, 8), 1.5).T
        attn = masked_softmax(logits, np.ones_like(logits, dtype=bool))
        row = attn[0]  # grid token at x=0: tracks sorted by distance
        assert np.all(np.diff(row) < 0)


class TestExchange:
    def _tracks(self, rng, t, v, size=16.0):
        coords = np.empty((t, v, 2))
        vis = np.zeros((t, v), dtype=bool)
        for i in range(t):
            vis[i, 0] = True
            vis[i, 1:] = rng.random(v - 1) < 0.8
            if not vis[i, 1:].any():
                vis[i, 1] = True
            coords[i] = np.where(vis[i, :, None], rng.uniform(0, size, (v, 2)), MISSING)
        return Tracks(coords, vis)

    def test_round_trip_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        v, d = 4, 4
        params = params_with(dim=d, sigma=1.0, seed=24)
        grids = [FeatureGrid(rng.normal(size=(4, 4, d))) for _ in range(v)]
        tracks = self._tracks(rng, 6, v)
        base = exchange_features(grids, tracks, params)
        perm = [0, 2, 3, 1]
        grids_p = [grids[i] for i in perm]
        tracks_p = Tracks(tracks.coords[:, perm], tracks.visibility[:, perm])
        out_p = exchange_features(grids_p, tracks_p, params)
        for slot, orig in enumerate(perm):
            np.testing.assert_allclose(out_p[slot].data, base[orig].data, atol=1e-6)

    def test_visibility_independence_end_to_end(self):
        rng = np.random.default_rng(25)
        v, d = 3, 4
        params = params_with(dim=d, seed=26)
        grids = [FeatureGrid(rng.normal(size=(3, 3, d))) for _ in range(v)]
        tracks = self._tracks(rng, 5, v, size=2.0)
        base = exchange_features(grids, tracks, params)
        # garbage in an invisible slot's coordinates must change nothing;
        # bypass the track validation to plant it
        pts = tracks.coords.copy()
        changed = False
        for ti in range(len(tracks)):
            for view in range(v):
                if not tracks.visibility[ti, view]:
                    pts[ti, view] = rng.normal(0, 1e6, 2)
                    changed = True
        mutated = Tracks(tracks.coords, tracks.visibility)
        object.__setattr__(mutated, "coords", pts)
        assert changed
        out = exchange_features(grids, mutated, params)
        for a, b in zip(base, out):
            np.testing.assert_array_equal(a.data, b.data)

    def test_view_that_sees_no_track_keeps_its_grid(self):
        rng = np.random.default_rng(27)
        v, d = 3, 4
        params = params_with(dim=d, seed=28)
        grids = [FeatureGrid(rng.normal(size=(4, 4, d))) for _ in range(v)]
        tracks = self._tracks(rng, 6, v - 1)
        vis = np.concatenate([tracks.visibility, np.zeros((6, 1), dtype=bool)], axis=1)
        coords = np.concatenate([tracks.coords, np.full((6, 1, 2), MISSING)], axis=1)
        out = exchange_features(grids, Tracks(coords, vis), params)
        assert out[2] is grids[2]
        assert not np.array_equal(out[0].data, grids[0].data)

    def test_no_tracks_is_identity(self):
        params = params_with(dim=2)
        grids = [FeatureGrid(np.ones((2, 2, 2)))]
        empty = Tracks(np.empty((0, 1, 2)), np.empty((0, 1), dtype=bool))
        assert exchange_features(grids, empty, params)[0] is grids[0]
