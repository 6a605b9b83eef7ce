import numpy as np
import pytest

from mvmatch.config import PipelineConfig
from mvmatch.grouping import (ImageGroup, OverlapMatrix,
                              quotas_from_neighbor_counts,
                              PairUsage, augment_reciprocity, build_group,
                              default_budget, overlap_from_descriptors,
                              overlap_from_matches, pair_adjacency,
                              read_group_manifest, sample_groups, source_quotas,
                              write_group_manifest)
from mvmatch.oracle import SceneOracle, gt_warp


def overlap(values):
    return OverlapMatrix(np.asarray(values, dtype=float))


def random_overlap(rng, m):
    v = rng.uniform(0.05, 1.0, size=(m, m))
    v = (v + v.T) / 2
    np.fill_diagonal(v, 1.0)
    return OverlapMatrix(v)


class TestOverlapFromMatches:
    def test_identical_views(self):
        scene = SceneOracle("planar", (16, 16), 0,
                            homographies=(np.eye(3), np.eye(3)))
        warps = {(0, 1): gt_warp(scene, 0, 1), (1, 0): gt_warp(scene, 1, 0)}
        o = overlap_from_matches(warps, 2, tau_conf=0.3)
        assert o.values[0, 1] == 1.0 and o.values[1, 0] == 1.0

    def test_disjoint_views(self):
        h = np.eye(3)
        h[0, 2] = 100.0
        scene = SceneOracle("planar", (16, 16), 0, homographies=(h, np.eye(3)))
        warps = {(0, 1): gt_warp(scene, 0, 1)}
        o = overlap_from_matches(warps, 2, tau_conf=0.3)
        assert o.values[0, 1] == 0.0
        assert o.values[1, 0] == 0.0  # missing pair scores zero

    def test_half_overlap_shift(self):
        h = np.eye(3)
        h[0, 2] = 32.0  # shift half of a 64-wide image
        scene = SceneOracle("planar", (64, 64), 0, homographies=(h, np.eye(3)))
        warps = {(0, 1): gt_warp(scene, 0, 1)}
        o = overlap_from_matches(warps, 2, tau_conf=0.3)
        assert abs(o.values[0, 1] - 0.5) < 0.02


class TestOverlapFromDescriptors:
    def test_parallel(self):
        d = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert overlap_from_descriptors(d).values[0, 1] == pytest.approx(1.0)

    def test_orthogonal(self):
        d = np.array([[1.0, 0.0], [0.0, 3.0]])
        assert overlap_from_descriptors(d).values[0, 1] == pytest.approx(0.0)

    def test_sixty_degrees(self):
        d = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        assert overlap_from_descriptors(d).values[0, 1] == pytest.approx(0.5)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            overlap_from_descriptors(np.array([[0.0, 0.0], [1.0, 0.0]]))


class TestSourceQuotas:
    def test_neighbor_count_example(self):
        # counts (15, 3, 0) with beta 0.75 and budget 12 -> (8, 3, 1):
        # weights (16, 4, 1)^0.75 = (8, 2.828, 1), largest remainder
        quotas = quotas_from_neighbor_counts(np.array([15, 3, 0]), 0.75, 12)
        assert quotas.tolist() == [8, 3, 1]

    def test_counts_come_from_threshold(self):
        big = np.zeros((4, 4))
        big[0, 1:] = 0.9   # N_0 = 3
        big[1, 0] = 0.9    # N_1 = 1
        o = OverlapMatrix(big)
        quotas = source_quotas(o, tau=0.3, beta=0.75, budget=8)
        expected = quotas_from_neighbor_counts(np.array([3, 1, 0, 0]), 0.75, 8)
        np.testing.assert_array_equal(quotas, expected)

    def test_equal_neighbors_near_equal_quotas(self):
        o = overlap(np.full((4, 4), 0.8))
        quotas = source_quotas(o, tau=0.3, beta=0.75, budget=10)
        assert quotas.sum() == 10
        assert quotas.max() - quotas.min() <= 1

    def test_floor_one(self):
        rng = np.random.default_rng(0)
        o = random_overlap(rng, 8)
        quotas = source_quotas(o, tau=0.9, beta=0.75, budget=8)
        assert quotas.min() >= 1 and quotas.sum() == 8

    def test_budget_below_m_rejected(self):
        o = overlap(np.eye(2))
        with pytest.raises(ValueError):
            source_quotas(o, 0.3, 0.75, budget=1)

    def test_bad_beta_rejected(self):
        o = overlap(np.eye(2))
        with pytest.raises(ValueError):
            source_quotas(o, 0.3, 1.5, budget=4)

    def test_monotone_in_neighbors(self):
        rng = np.random.default_rng(1)
        o = random_overlap(rng, 10)
        quotas = source_quotas(o, tau=0.5, beta=0.75, budget=40)
        n = ((o.values - np.diag(np.diag(o.values))) > 0.5).sum(axis=1)
        order = np.argsort(n)
        assert all(quotas[order[i]] <= quotas[order[i + 1]] + 1 for i in range(9))


class TestBuildGroup:
    def test_first_pick_is_argmax_overlap(self):
        o = overlap([[1.0, 0.2, 0.9, 0.5],
                     [0.2, 1.0, 0.1, 0.1],
                     [0.9, 0.1, 1.0, 0.3],
                     [0.5, 0.1, 0.3, 1.0]])
        cfg = PipelineConfig(targets_per_group=1, alpha_tgt=0.0, lam=0.0)
        usage = PairUsage.empty(4)
        group = build_group(0, o, usage, cfg)
        assert group.targets == (2,)

    def test_usage_penalty_flips_pick(self):
        o = overlap([[1.0, 0.8, 0.8], [0.8, 1.0, 0.0], [0.8, 0.0, 1.0]])
        cfg = PipelineConfig(targets_per_group=1, alpha_tgt=0.0, lam=1.0)
        usage = PairUsage.empty(3)
        usage.counts[0, 1] = 3  # 0.8 / 4 = 0.2 for image 1, 0.8 for image 2
        group = build_group(0, o, usage, cfg)
        assert group.targets == (2,)

    def test_coherence_term_vs_enumeration(self):
        rng = np.random.default_rng(2)
        o = random_overlap(rng, 5)
        cfg = PipelineConfig(targets_per_group=2, alpha_src=1.0,
                             alpha_tgt=0.6, lam=0.5)
        usage = PairUsage.empty(5)
        usage.counts[:] = rng.integers(0, 3, size=(5, 5))
        counts_before = usage.counts.copy()
        group = build_group(0, o, usage, cfg)

        # exhaustive greedy replay
        chosen = []
        for _ in range(2):
            best, best_score = None, 0.0
            for j in range(5):
                if j == 0 or j in chosen:
                    continue
                score = (cfg.alpha_src * o.values[0, j]
                         + cfg.alpha_tgt * sum(o.values[k, j] for k in chosen))
                score /= 1.0 + cfg.lam * counts_before[0, j]
                if score > best_score:
                    best, best_score = j, score
            if best is None:
                break
            chosen.append(best)
        assert list(group.targets) == chosen

    def test_usage_counts_updated(self):
        o = overlap(np.full((3, 3), 0.5))
        usage = PairUsage.empty(3)
        group = build_group(0, o, usage, PipelineConfig(targets_per_group=2))
        for t in group.targets:
            assert usage.counts[0, t] == 1
            assert (t, 0) in usage.pending

    def test_no_candidates_gives_empty_group(self):
        o = overlap(np.zeros((2, 2)))
        usage = PairUsage.empty(2)
        group = build_group(0, o, usage, PipelineConfig())
        assert group.targets == ()
        assert not usage.pending


class TestReciprocity:
    def test_single_pending_pair(self):
        o = overlap(np.full((2, 2), 0.9))
        usage = PairUsage.empty(2)
        build_group(0, o, usage, PipelineConfig(targets_per_group=1))
        extra = augment_reciprocity(o, usage, PipelineConfig(targets_per_group=1))
        assert len(extra) == 1
        assert extra[0].source == 1 and extra[0].targets == (0,)

    def test_symmetric_stage1_is_fixed_point(self):
        o = overlap(np.full((2, 2), 0.9))
        usage = PairUsage.empty(2)
        cfg = PipelineConfig(targets_per_group=1)
        build_group(0, o, usage, cfg)
        build_group(1, o, usage, cfg)
        extra = augment_reciprocity(o, usage, cfg)
        assert extra == []

    def test_adjacency_symmetric_after_stage2(self):
        rng = np.random.default_rng(3)
        o = random_overlap(rng, 8)
        cfg = PipelineConfig(targets_per_group=4)
        stage1, stage2 = sample_groups(o, cfg, budget=12)
        adj = pair_adjacency(stage1 + stage2, 8)
        np.testing.assert_array_equal(adj, adj.T)

    def test_stage2_fillers_restricted(self):
        rng = np.random.default_rng(4)
        o = random_overlap(rng, 10)
        cfg = PipelineConfig(targets_per_group=3)
        stage1, stage2 = sample_groups(o, cfg, budget=12)
        adj1 = pair_adjacency(stage1, 10)
        linked1 = adj1 | adj1.T
        for g in stage2:
            for t in g.targets:
                assert linked1[g.source, t]


class TestSampleGroups:
    def test_contract_invariants(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(8, 20))
            o = random_overlap(rng, m)
            cfg = PipelineConfig(targets_per_group=4)
            budget = default_budget(m)
            stage1, stage2 = sample_groups(o, cfg, budget)
            assert len(stage1) == budget
            adj = pair_adjacency(stage1 + stage2, m)
            np.testing.assert_array_equal(adj, adj.T)
            sources = {g.source for g in stage1}
            assert sources == set(range(m))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        o = random_overlap(rng, 9)
        cfg = PipelineConfig(targets_per_group=3)
        a1, a2 = sample_groups(o, cfg, budget=15)
        b1, b2 = sample_groups(o, cfg, budget=15)
        assert [(g.source, g.targets) for g in a1 + a2] \
            == [(g.source, g.targets) for g in b1 + b2]

    # image 0 overlaps every other image above group_tau; the others overlap
    # each other below it, so neighbor counts and selection scores all differ
    HUB = [[1.0, 0.9, 0.8, 0.7, 0.6, 0.5],
           [0.9, 1.0, 0.2, 0.1, 0.05, 0.1],
           [0.8, 0.2, 1.0, 0.25, 0.1, 0.05],
           [0.7, 0.1, 0.25, 1.0, 0.15, 0.2],
           [0.6, 0.05, 0.1, 0.15, 1.0, 0.25],
           [0.5, 0.1, 0.05, 0.2, 0.25, 1.0]]

    @pytest.mark.parametrize("field, value", [
        ("targets_per_group", 2), ("group_tau", 0.1), ("beta", 0.25),
        ("alpha_src", 0.1), ("alpha_tgt", 2.0), ("lam", 0.0)])
    def test_each_config_field_reaches_the_sampler(self, field, value):
        o = overlap(self.HUB)
        budget = default_budget(6)

        def groups(cfg):
            stage1, stage2 = sample_groups(o, cfg, budget)
            return [(g.source, g.targets) for g in stage1 + stage2]

        assert groups(PipelineConfig(**{field: value})) != groups(PipelineConfig())

    def test_half_budget(self):
        assert default_budget(16) == 64
        assert default_budget(16, half=True) == 32
        assert default_budget(4) == 8
        assert default_budget(4, half=True) == 4  # floored at M


class TestManifest:
    def test_round_trip(self, tmp_path):
        g1 = [ImageGroup(0, (1, 2)), ImageGroup(1, (0,))]
        g2 = [ImageGroup(2, (0,))]
        path = tmp_path / "groups.json"
        write_group_manifest(path, g1, g2)
        back = read_group_manifest(path)
        assert [(g.source, g.targets, s) for g, s in back] == [
            (0, (1, 2), 1), (1, (0,), 1), (2, (0,), 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ImageGroup(0, (0, 1))
        with pytest.raises(ValueError):
            ImageGroup(0, (1, 1))
