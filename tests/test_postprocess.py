import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvmatch.grids import DenseWarpField
from mvmatch.kernels import bilinear_gather
from mvmatch.oracle import gt_track_error, make_planar_scene, gt_warp
from oracles import brute_force_nms, identity_warp, loop_assemble_tracks
from mvmatch.postprocess import (assemble_tracks, build_score_map,
                                 match_statistics, nms_select, postprocess_group,
                                 reciprocity_filter, select_matches)


def random_warp(rng, h, w, src=0, tgt=1):
    return DenseWarpField(rng.uniform(0, max(h, w) - 1, size=(h, w, 2)),
                          rng.uniform(0, 1, size=(h, w)), src, tgt)


class TestSelectMatches:
    def test_single_candidate_identical(self):
        rng = np.random.default_rng(0)
        warp = random_warp(rng, 6, 6)
        sel, chosen = select_matches([warp])
        np.testing.assert_array_equal(sel.targets, warp.targets)
        np.testing.assert_array_equal(sel.confidence, warp.confidence)
        assert np.all(chosen == 0)

    def test_pixelwise_argmax(self):
        a = DenseWarpField(np.zeros((1, 1, 2)), np.array([[0.9]]), 0, 1)
        b = DenseWarpField(np.ones((1, 1, 2)), np.array([[0.4]]), 0, 1)
        sel, chosen = select_matches([a, b])
        assert sel.confidence[0, 0] == 0.9
        np.testing.assert_array_equal(sel.targets[0, 0], [0.0, 0.0])
        assert chosen[0, 0] == 0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        cands = [random_warp(rng, 16, 16) for _ in range(3)]
        sel, chosen = select_matches(cands)
        for y in range(16):
            for x in range(16):
                best, bc = 0, cands[0].confidence[y, x]
                for g in range(1, 3):
                    if cands[g].confidence[y, x] > bc:
                        best, bc = g, cands[g].confidence[y, x]
                assert chosen[y, x] == best
                assert sel.confidence[y, x] == bc
                np.testing.assert_array_equal(sel.targets[y, x],
                                              cands[best].targets[y, x])

    def test_selected_confidence_is_pointwise_max(self):
        rng = np.random.default_rng(2)
        cands = [random_warp(rng, 8, 8) for _ in range(4)]
        sel, _ = select_matches(cands)
        stack = np.stack([c.confidence for c in cands])
        np.testing.assert_array_equal(sel.confidence, stack.max(axis=0))

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            select_matches([])


class TestReciprocity:
    def test_exact_cycle_keeps_all_covisible(self):
        scene = make_planar_scene(2, (24, 24), seed=3)
        fwd = gt_warp(scene, 0, 1)
        bwd = gt_warp(scene, 1, 0)
        keep = reciprocity_filter(fwd, bwd, eps_p=3.0)
        covis = fwd.confidence > 0
        assert np.all(keep[covis])

    def test_constant_shift_cycle(self):
        fwd = identity_warp(16, 16, 0, 1)
        base = identity_warp(16, 16, 1, 0)
        bwd = DenseWarpField(base.targets + np.array([5.0, 0.0]),
                             base.confidence, 1, 0)
        keep3 = reciprocity_filter(fwd, bwd, eps_p=3.0)
        keep6 = reciprocity_filter(fwd, bwd, eps_p=6.0)
        assert not keep3.any()
        assert keep6.all()

    def test_out_of_image_targets_discarded(self):
        base = identity_warp(8, 8, 0, 1)
        fwd = DenseWarpField(base.targets + np.array([4.0, 0.0]),
                             base.confidence, 0, 1)
        bwd = DenseWarpField(identity_warp(8, 8, 1, 0).targets - np.array([4.0, 0.0]),
                             np.ones((8, 8)), 1, 0)
        keep = reciprocity_filter(fwd, bwd, eps_p=1.0)
        assert not keep[:, 4:].any()  # forward targets leave the image
        assert keep[:, :4].all()

    def test_keep_set_shrinks_with_eps(self):
        rng = np.random.default_rng(4)
        fwd = identity_warp(12, 12, 0, 1)
        noise = rng.normal(0, 2.0, size=(12, 12, 2))
        bwd = DenseWarpField(identity_warp(12, 12, 1, 0).targets + noise,
                             np.ones((12, 12)), 1, 0)
        sizes = [reciprocity_filter(fwd, bwd, e).sum() for e in (0.5, 1.0, 2.0, 4.0)]
        assert sizes == sorted(sizes)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        fwd = random_warp(rng, 10, 10, 0, 1)
        bwd = random_warp(rng, 10, 10, 1, 0)
        eps = 2.5
        keep = reciprocity_filter(fwd, bwd, eps)
        for y in range(10):
            for x in range(10):
                tx, ty = fwd.targets[y, x]
                inside = 0 <= tx <= 9 and 0 <= ty <= 9
                back = bilinear_gather(bwd.targets, np.array([tx]), np.array([ty]))[0]
                err = np.hypot(back[0] - x, back[1] - y)
                assert keep[y, x] == (inside and err <= eps)


class TestScoreMap:
    def test_full_confidence_four_targets(self):
        confs = [np.ones((4, 4)) for _ in range(4)]
        keeps = [np.ones((4, 4), dtype=bool) for _ in range(4)]
        scores = build_score_map(confs, keeps, tau=0.3)
        assert scores.shape == (4, 4)
        np.testing.assert_array_equal(scores, 5.0)

    def test_mixed_confidences(self):
        # length 2 (0.9 and 0.5 pass tau) plus their mean confidence 0.7
        confs = [np.full((1, 1), c) for c in (0.9, 0.2, 0.5)]
        keeps = [np.ones((1, 1), dtype=bool)] * 3
        scores = build_score_map(confs, keeps, tau=0.3)
        assert scores[0, 0] == pytest.approx(2.7)

    def test_reciprocity_mask_gates(self):
        confs = [np.full((1, 1), 0.9)]
        keeps = [np.zeros((1, 1), dtype=bool)]
        scores = build_score_map(confs, keeps, tau=0.3)
        assert scores[0, 0] == 0.0

    def test_score_range_invariant(self):
        rng = np.random.default_rng(6)
        v = 5
        confs = [rng.uniform(0, 1, (8, 8)) for _ in range(v - 1)]
        keeps = [rng.random((8, 8)) < 0.7 for _ in range(v - 1)]
        scores = build_score_map(confs, keeps, tau=0.3)
        assert scores.min() >= 0.0
        assert scores.max() <= v
        no_target = ~np.any([k & (c > 0.3) for c, k in zip(confs, keeps)], axis=0)
        assert no_target.any()
        np.testing.assert_array_equal(scores[no_target], 0.0)


class TestNms:
    def test_single_positive_pixel(self):
        scores = np.zeros((8, 8))
        scores[5, 2] = 1.0
        picked = nms_select(scores, radius=2)
        np.testing.assert_array_equal(picked, [[2, 5]])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), radius=st.integers(1, 3),
           levels=st.integers(1, 4), max_keypoints=st.integers(0, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, h, w, radius, levels, max_keypoints, seed):
        # scores on a few levels in [-0.5, 1], so ties and non-positive cells
        # are common
        gen = np.random.default_rng(seed)
        scores = gen.integers(-levels // 2, levels + 1, size=(h, w)) / levels
        got = nms_select(scores, radius=radius, max_keypoints=max_keypoints)
        np.testing.assert_array_equal(got, brute_force_nms(scores, radius, max_keypoints))

    def test_separation_invariant(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0, 1, size=(16, 16))
        for radius in (1, 2, 3):
            picked = nms_select(scores, radius=radius)
            for i in range(len(picked)):
                for j in range(i + 1, len(picked)):
                    cheb = np.max(np.abs(picked[i] - picked[j]))
                    assert cheb > radius
            # every rejected positive pixel must conflict with a pick
            sel = {tuple(p) for p in picked}
            for y in range(16):
                for x in range(16):
                    if scores[y, x] > 0 and (x, y) not in sel:
                        assert any(max(abs(x - px), abs(y - py)) <= radius
                                   for px, py in sel)

    def test_max_keypoints_cap(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(0, 1, size=(12, 12))
        picked = nms_select(scores, radius=1, max_keypoints=5)
        assert len(picked) == 5
        full = nms_select(scores, radius=1)
        np.testing.assert_array_equal(picked, full[:5])

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            nms_select(np.ones((4, 4)), radius=0)


class TestAssembleTracks:
    def test_full_track(self):
        warps = [identity_warp(4, 4, 0, t) for t in (1, 2, 3, 4)]
        keeps = [np.ones((4, 4), dtype=bool)] * 4
        tracks = assemble_tracks(np.array([[1, 2]]), warps, keeps, tau=0.3)
        assert len(tracks) == 1
        assert tracks.visibility[0].tolist() == [True] * 5

    def test_invalid_everywhere_dropped(self):
        warps = [identity_warp(4, 4, 0, 1)]
        keeps = [np.zeros((4, 4), dtype=bool)]
        tracks = assemble_tracks(np.array([[1, 1]]), warps, keeps, tau=0.3)
        assert len(tracks) == 0

    def test_partial_validity(self):
        w1 = identity_warp(4, 4, 0, 1)
        low = DenseWarpField(w1.targets, np.full((4, 4), 0.1), 0, 2)
        keeps = [np.ones((4, 4), dtype=bool)] * 2
        tracks = assemble_tracks(np.array([[2, 3]]), [w1, low], keeps, tau=0.3)
        assert tracks.visibility[0].tolist() == [True, True, False]

    @staticmethod
    def assert_matches_loop(keypoints, warps, keeps, tau):
        got = assemble_tracks(keypoints, warps, keeps, tau)
        want_coords, want_vis = loop_assemble_tracks(keypoints, warps, keeps, tau)
        assert np.array_equal(got.coords, want_coords)
        assert np.array_equal(got.visibility, want_vis)
        return got

    def random_case(self, seed, h=12, w=17, targets=4):
        rng = np.random.default_rng(seed)
        # confidences on a coarse grid of levels, so many equal tau exactly
        warps = [DenseWarpField(rng.uniform(-2, max(h, w) + 2, size=(h, w, 2)),
                                rng.integers(0, 11, size=(h, w)) / 10, 0, t)
                 for t in range(1, targets + 1)]
        keeps = [rng.random((h, w)) < 0.6 for _ in range(targets)]
        ys, xs = np.divmod(rng.permutation(h * w)[:40], w)
        return np.stack([xs, ys], axis=1), warps, keeps

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.7])
    def test_matches_loop_oracle(self, seed, tau):
        keypoints, warps, keeps = self.random_case(seed)
        got = self.assert_matches_loop(keypoints, warps, keeps, tau)
        assert 0 < len(got) < len(keypoints)
        conf = np.stack([wp.confidence for wp in warps])
        assert np.any(conf[:, keypoints[:, 1], keypoints[:, 0]] == tau)

    def test_matches_loop_oracle_on_the_border(self):
        _, warps, keeps = self.random_case(3)
        h, w = keeps[0].shape
        border = np.array([[0, 0], [w - 1, 0], [0, h - 1], [w - 1, h - 1],
                           [5, 0], [0, 7], [w - 1, 4], [9, h - 1]])
        self.assert_matches_loop(border, warps, keeps, 0.2)

    def test_matches_loop_oracle_without_keypoints(self):
        _, warps, keeps = self.random_case(4)
        got = self.assert_matches_loop(np.empty((0, 2), dtype=np.int64), warps, keeps, 0.3)
        assert got.visibility.shape == (0, 5)

    def test_matches_loop_oracle_when_every_keypoint_is_dropped(self):
        keypoints, warps, keeps = self.random_case(5)
        got = self.assert_matches_loop(keypoints, warps, [k & False for k in keeps], 0.3)
        assert len(got) == 0 and got.coords.shape == (0, 5, 2)

    def test_noiseless_end_to_end_reprojection(self):
        scene = make_planar_scene(3, (32, 32), seed=10)
        targets = [1, 2]
        selected = {(0, t): gt_warp(scene, 0, t) for t in targets}
        for t in targets:
            selected[(t, 0)] = gt_warp(scene, t, 0)
        keeps = {(0, t): reciprocity_filter(selected[(0, t)], selected[(t, 0)], 3.0)
                 for t in targets}
        tracks = postprocess_group(0, targets, selected, keeps, tau=0.3,
                                   nms_radius=2)
        assert len(tracks) > 5
        errs = gt_track_error(scene, tracks, views=(0, 1, 2))
        assert np.nanmax(errs) < 3.0


class TestStatistics:
    def test_shapes(self):
        keeps = {(0, 1): np.array([[True, False]]), (1, 0): np.array([[True, True]])}
        warps = [identity_warp(1, 2, 0, 1)]
        stats = match_statistics(keeps, [])
        assert stats["kept_match_rate"] == pytest.approx(0.75)
        assert stats["pairs"] == 2
        assert stats["track_count"] == 0
