import numpy as np
import pytest

from mvmatch.grids import MISSING
from mvmatch.tracks import (Tracks, VisibilityPartition, _kmeans_pp_init, allocate_clusters,
                            kmeans, partition_by_visibility, read_track_rows,
                            sample_tracks, write_tracks_tsv)

from oracles import (choice_kmeans_pp_init, loop_allocate_clusters, loop_kmeans,
                     loop_partition_by_visibility, loop_sample_tracks)


def sample(src, targets, vis):
    """One raw match as a (V, 2) coordinate row and its (V,) visibility."""
    v = len(vis)
    pixels = np.full((v, 2), MISSING)
    pixels[0] = src
    for i, t in enumerate(targets, start=1):
        if vis[i]:
            pixels[i] = t
    return pixels, np.asarray(vis, dtype=bool)


def stack(rows):
    """(n, V, 2) coordinates and (n, V) visibility from ``sample`` rows."""
    return np.stack([p for p, _ in rows]), np.stack([v for _, v in rows])


def random_samples(n, v, seed, size=100.0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        vis = np.zeros(v, dtype=bool)
        vis[0] = True
        vis[1:] = rng.random(v - 1) < 0.7
        if not vis[1:].any():
            vis[1] = True
        rows.append((np.where(vis[:, None], rng.uniform(0, size, (v, 2)), MISSING), vis))
    return stack(rows)


class TestPartition:
    def test_two_groups(self):
        _, vis = stack([sample((1, 1), [(2, 2), None], [1, 1, 0]),
                        sample((3, 3), [(4, 4), None], [1, 1, 0]),
                        sample((5, 5), [None, (6, 6)], [1, 0, 1])])
        parts = partition_by_visibility(vis)
        assert len(parts) == 2
        assert sorted(p.size for p in parts) == [1, 2]

    def test_single_partition_when_all_visible(self):
        _, vis = stack([sample((i, i), [(i, i)], [1, 1]) for i in range(5)])
        parts = partition_by_visibility(vis)
        assert len(parts) == 1 and parts[0].size == 5

    def test_matches_hash_set_oracle(self):
        rng = np.random.default_rng(42)
        rows = []
        for _ in range(200):
            vis = np.zeros(5, dtype=bool)
            vis[0] = True
            vis[1:] = rng.random(4) < 0.5
            if not vis[1:].any():
                vis[rng.integers(1, 5)] = True
            rows.append((np.where(vis[:, None], rng.uniform(0, 50, (5, 2)), MISSING), vis))
        _, vis = stack(rows)
        parts = partition_by_visibility(vis)
        oracle = {tuple(int(x) for x in row) for row in vis}
        assert len(parts) == len(oracle)
        assert sum(p.size for p in parts) == 200
        masks = [p.mask for p in parts]
        assert masks == sorted(masks)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            partition_by_visibility(np.zeros((0, 3), dtype=bool))


def make_partitions(sizes):
    out = []
    start = 0
    for i, n in enumerate(sizes):
        mask = (1,) + tuple(int(b) for b in np.binary_repr(i + 1, width=3))
        out.append(VisibilityPartition(mask, np.arange(start, start + n)))
        start += n
    return out


class TestAllocate:
    def test_exact_proportion(self):
        counts, capped = allocate_clusters(make_partitions([90, 10]), 10)
        assert counts.tolist() == [9, 1] and not capped

    def test_largest_remainder_tie_break(self):
        counts, _ = allocate_clusters(make_partitions([2, 2, 2]), 4)
        assert counts.tolist() == [2, 1, 1]
        assert counts.sum() == 4

    def test_single_partition_cap(self):
        counts, capped = allocate_clusters(make_partitions([300]), 512)
        assert counts.tolist() == [300] and capped
        counts, capped = allocate_clusters(make_partitions([600]), 512)
        assert counts.tolist() == [512] and not capped

    def test_budget_larger_than_total(self):
        counts, capped = allocate_clusters(make_partitions([3, 2]), 100)
        assert counts.sum() == 5 and capped

    def test_cap_redistributes(self):
        counts, _ = allocate_clusters(make_partitions([2, 100]), 60)
        assert counts.sum() == 60
        assert counts[0] <= 2

    def test_one_pass_matches_the_capping_loop(self):
        rng = np.random.default_rng(11)
        cases = [([], 5), ([2, 2, 2], 4), ([1] * 7, 3), ([5, 5, 1, 1], 9)]
        for _ in range(2000):
            sizes = rng.integers(1, int(rng.choice([4, 40, 400])),
                                 size=rng.integers(1, 8)).tolist()
            cases.append((sizes, int(rng.integers(1, 2 * sum(sizes) + 2))))
        for sizes, budget in cases:
            parts = make_partitions(sizes)
            counts, capped = allocate_clusters(parts, budget)
            want, want_capped = loop_allocate_clusters(parts, budget)
            assert counts.tolist() == want.tolist() and capped == want_capped

    def test_sum_equals_min_budget_total(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sizes = rng.integers(1, 40, size=rng.integers(1, 6)).tolist()
            budget = int(rng.integers(1, 80))
            counts, _ = allocate_clusters(make_partitions(sizes), budget)
            assert counts.sum() == min(budget, sum(sizes))
            assert np.all(counts <= np.array(sizes))


class TestKMeans:
    def test_k_equals_n_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(8, 4))
        centers, labels = kmeans(pts, 8, seed=1)
        np.testing.assert_array_equal(centers, pts)
        np.testing.assert_array_equal(labels, np.arange(8))

    def test_two_blobs_match_exhaustive(self):
        # 1-D 2-means is solved exactly by the best contiguous split
        rng = np.random.default_rng(3)
        pts = np.concatenate([rng.uniform(0, 1, 6), rng.uniform(9, 10, 6)])[:, None]
        centers, labels = kmeans(pts, 2, seed=5)
        order = np.argsort(pts[:, 0])
        best_cost, best_split = np.inf, None
        for split in range(1, 12):
            left, right = pts[order[:split], 0], pts[order[split:], 0]
            cost = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            if cost < best_cost:
                best_cost, best_split = cost, split
        got_cost = sum(((pts[labels == c, 0] - pts[labels == c, 0].mean()) ** 2).sum()
                       for c in range(2))
        assert got_cost == pytest.approx(best_cost, rel=1e-9)
        assert best_split == 6

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(40, 3))
        a = kmeans(pts, 5, seed=2)
        b = kmeans(pts, 5, seed=2)
        np.testing.assert_array_equal(a[1], b[1])

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(30, 2))
        for k in (2, 5, 10, 29):
            _, labels = kmeans(pts, k, seed=3)
            assert len(np.unique(labels)) == k


class TestSampleTracks:
    def test_budget_equal_to_input_is_permutation(self):
        coords, vis = random_samples(12, 3, seed=1)
        tracks = sample_tracks(coords, vis, 12, seed=0)
        assert len(tracks) == 12
        inputs = {tuple(c) for c in coords.reshape(12, -1)}
        outputs = {tuple(c) for c in tracks.coords.reshape(12, -1)}
        assert inputs == outputs

    def test_representatives_are_real_inputs(self):
        coords, vis = random_samples(200, 4, seed=2)
        tracks = sample_tracks(coords, vis, 40, seed=1)
        inputs = {tuple(c) for c in coords.reshape(200, -1)}
        for c in tracks.coords.reshape(len(tracks), -1):
            assert tuple(c) in inputs

    def test_count_is_min_budget_raw(self):
        coords, vis = random_samples(30, 3, seed=3)
        assert len(sample_tracks(coords, vis, 100, seed=0)) == 30
        assert len(sample_tracks(coords, vis, 7, seed=0)) == 7

    def test_two_blobs_one_representative_each(self):
        rng = np.random.default_rng(4)
        rows = []
        for cx in (5.0, 95.0):
            for _ in range(6):
                src = np.array([cx, cx]) + rng.uniform(-1, 1, 2)
                rows.append(sample(src, [src], [1, 1]))
        tracks = sample_tracks(*stack(rows), 2, seed=6)
        xs = sorted(tracks.coords[:, 0, 0])
        assert xs[0] < 10 and xs[1] > 90

    def test_deterministic(self):
        coords, vis = random_samples(100, 4, seed=5)
        a = sample_tracks(coords, vis, 24, seed=9)
        b = sample_tracks(coords, vis, 24, seed=9)
        assert a.coords.tolist() == b.coords.tolist()

    def test_spatial_coverage_beats_random(self):
        # clustering-selected source points should spread out more than a
        # uniform random pick of the same size, measured by mean NN distance
        wins = 0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            rows = []
            for _ in range(500):
                src = rng.uniform(0, 200, 2)
                rows.append(sample(src, [src + rng.normal(0, 1, 2)], [1, 1]))
            coords, vis = stack(rows)
            tracks = sample_tracks(coords, vis, 64, seed=trial)
            sel = tracks.coords[:, 0]
            idx = rng.choice(500, size=64, replace=False)
            rand = coords[idx, 0]

            def mean_nn(pts):
                d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
                np.fill_diagonal(d, np.inf)
                return d.min(axis=1).mean()

            if mean_nn(sel) >= mean_nn(rand):
                wins += 1
        assert wins >= 16  # >= 80% of trials


def three_tracks():
    """Three valid (3, 3, 2) tracks: every target pattern of three views."""
    vis = np.array([[True, True, False], [True, False, True], [True, True, True]])
    coords = np.where(vis[..., None], np.arange(18.0).reshape(3, 3, 2), MISSING)
    return coords, vis


class TestTracks:
    """Each invariant broken in one row of an otherwise valid three-row set."""

    def test_valid_set(self):
        tracks = Tracks(*three_tracks())
        assert len(tracks) == 3 and tracks.coords.dtype == np.float64

    def test_empty_set_keeps_views(self):
        tracks = Tracks(np.empty((0, 4, 2)), np.empty((0, 4), dtype=bool))
        assert len(tracks) == 0 and tracks.visibility.shape == (0, 4)

    def test_source_must_be_visible(self):
        coords, vis = three_tracks()
        vis[1, 0] = False
        coords[1, 0] = MISSING
        with pytest.raises(ValueError, match="source view must be visible"):
            Tracks(coords, vis)

    def test_sentinel_enforced(self):
        coords, vis = three_tracks()
        coords[0, 2] = (5.0, 6.0)
        with pytest.raises(ValueError, match="sentinel"):
            Tracks(coords, vis)

    def test_needs_target(self):
        coords, vis = three_tracks()
        vis[2, 1:] = False
        coords[2, 1:] = MISSING
        with pytest.raises(ValueError, match="at least one target view must be visible"):
            Tracks(coords, vis)

    def test_visible_slot_holds_real_coordinates(self):
        coords, vis = three_tracks()
        coords[1, 2] = MISSING
        with pytest.raises(ValueError, match="visible views must carry real coordinates"):
            Tracks(coords, vis)

    @pytest.mark.parametrize("coords_shape", [(3, 3), (3, 2, 2), (3, 3, 3), (2, 3, 2)])
    def test_shapes_must_agree(self, coords_shape):
        _, vis = three_tracks()
        with pytest.raises(ValueError, match="coords must hold"):
            Tracks(np.zeros(coords_shape), vis)


class TestTsv:
    def test_round_trip(self, tmp_path):
        coords, vis = random_samples(20, 4, seed=12)
        tracks = sample_tracks(coords, vis, 10, seed=3)
        path = tmp_path / "tracks.tsv"
        write_tracks_tsv(path, tracks)
        back = Tracks(*read_track_rows(path))
        v = back.visibility.shape[1]
        assert v == 4 and len(back) == 10
        np.testing.assert_array_equal(tracks.visibility, back.visibility)
        np.testing.assert_allclose(tracks.coords, back.coords, atol=1e-6)

    def test_header_and_rows(self, tmp_path):
        t = Tracks(np.array([[[1.5, 2.5], [3.25, 4.0], [MISSING, MISSING]]]),
                   np.array([[True, True, False]]))
        path = tmp_path / "t.tsv"
        write_tracks_tsv(path, t)
        lines = path.read_text().splitlines()
        assert lines[0] == "# V=3\tT=1"
        assert lines[1] == "token_id\tview_id\tx\ty"
        assert lines[2] == "0\t0\t1.500000\t2.500000"
        assert len(lines) == 4  # invisible view contributes no row

    def test_rows_read_as_arrays_in_token_order(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# V=4\tT=2\ntoken_id\tview_id\tx\ty\n"
                        "%d\t2\t5.5\t6.5\n3\t1\t1.0\t2.0\n%d\t0\t3.0\t4.0\n3\t0\t0.5\t0.25\n"
                        % (2**70, 2**70))
        coords, vis = read_track_rows(path)
        np.testing.assert_array_equal(vis, [[True, True, False, False],
                                            [True, False, True, False]])
        np.testing.assert_array_equal(coords, [[[0.5, 0.25], [1.0, 2.0], [-1, -1], [-1, -1]],
                                               [[3.0, 4.0], [-1, -1], [5.5, 6.5], [-1, -1]]])
        # a consumer with three views gets three columns
        coords, vis = read_track_rows(path, max_views=3)
        assert coords.shape == (2, 3, 2) and vis.shape == (2, 3)

    # numpy's "negative dimensions are not allowed" named neither file nor
    # line, and a file cut short after its header read as 0 tracks
    @pytest.mark.parametrize("text, message", [
        ("# V=-2\tT=1\n", "{path}:1: malformed track-file header"),
        ("# V=0\tT=0\n", "{path}:1: malformed track-file header"),
        ("# V=3\n", "{path}:1: malformed track-file header"),
        ("# V=3\tT=x\n", "{path}:1: malformed track-file header"),
        ("# V=3\tT=-1\n", "{path}:1: malformed track-file header"),
        ("# V=3\tT=1", "{path}: 0 tracks, the header says T=1"),
        ("# V=3\tT=1\ntoken_id\tview_id\tx\ty\n0\t0\t1.0\t2.0\n0\t1\t3.0\t4.0\n"
         "1\t0\t1.0\t2.0\n1\t2\t3.0\t4.0\n", "{path}: 2 tracks, the header says T=1"),
    ], ids=["negative-views", "no-views", "no-track-count", "non-integer-track-count",
            "negative-track-count", "cut-after-header", "more-tracks"])
    def test_bad_header_or_track_count(self, tmp_path, text, message):
        path = tmp_path / "t.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_track_rows(path)
        assert str(info.value) == message.format(path=path)

    def test_header_only_file_reads_empty(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# V=3\tT=0\ntoken_id\tview_id\tx\ty\n")
        coords, vis = read_track_rows(path)
        assert coords.shape == (0, 3, 2) and vis.shape == (0, 3)

    # a row that breaks the file names the file and line; rows that are each
    # well-formed but leave a token invalid are rejected by ``Tracks``
    @pytest.mark.parametrize("row, message", [
        ("0\t1\t3.0", "{dir}/t.tsv:4: expected 4 tab-separated fields, got 3"),
        ("0\tone\t3.0\t4.0", "{dir}/t.tsv:4: malformed track row"),
        ("0\t3\t3.0\t4.0", "{dir}/t.tsv:4: view 3 outside [0, 3)"),
        ("1\t0\t3.0\t4.0", "at least one target view must be visible"),
        ("1\t2\t3.0\t4.0", "source view must be visible"),
        ("0\t1\tnan\t4.0", "{dir}/t.tsv:4: non-finite coordinate in '0\\t1\\tnan\\t4.0'"),
        ("0\t1\t3.0\t-inf", "{dir}/t.tsv:4: non-finite coordinate in"),
        ("0\t0\t3.0\t4.0", "{dir}/t.tsv:4: token 0 repeats view 0"),
    ], ids=["short-row", "non-integer-view", "view-past-header", "no-target",
            "no-source-row", "nan-x", "infinite-y", "repeated-view"])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "t.tsv"
        tokens = len({"0", row.split("\t")[0]})  # the header's T counts them
        path.write_text(f"# V=3\tT={tokens}\ntoken_id\tview_id\tx\ty\n"
                        f"0\t0\t1.0\t2.0\n{row}\n")
        with pytest.raises(ValueError) as info:
            Tracks(*read_track_rows(path))
        assert str(info.value).startswith(message.format(dir=path.parent)), info.value


def assert_kmeans_matches_loop(points, k, seed):
    centers, labels = kmeans(points, k, seed)
    want_centers, want_labels = loop_kmeans(points, k, seed)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(centers, want_centers)
    return labels


class TestMatchesLoopOracle:
    """Bit-for-bit equality with the one-cluster-at-a-time loops in oracles.py.

    Centres are compared with two or more columns, where numpy's per-cluster
    mean adds rows in index order; sample_tracks always has at least four.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_kmeans_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            n = int(rng.integers(3, 400))
            dim = int(rng.integers(2, 12))
            k = int(rng.integers(2, n))
            points = rng.uniform(0, 672, size=(n, dim))
            assert_kmeans_matches_loop(points, k, seed)

    def test_kmeans_ties_on_an_offset_integer_grid(self):
        # every distance is an exact integer on the exact path, so rows tie
        # exactly between centres; the offset makes the squared norms of the
        # GEMM form round, so only the exact path can break those ties
        ys, xs = np.mgrid[0:12, 0:12]
        grid = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
        for offset in (0.0, 2.0 ** 26):
            for k in (2, 7, 30):
                for seed in range(3):
                    assert_kmeans_matches_loop(grid + offset, k, seed)

    def test_kmeans_duplicate_points(self):
        rng = np.random.default_rng(5)
        distinct = rng.uniform(0, 100, size=(25, 4))
        points = distinct[rng.integers(0, 25, size=300)]
        for k in (3, 20, 25, 40):
            assert_kmeans_matches_loop(points, k, seed=k)

    def test_kmeans_one_cluster_and_n_minus_one(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(50, 6)) * 300.0
        labels = assert_kmeans_matches_loop(points, 1, seed=2)
        assert not labels.any()
        labels = assert_kmeans_matches_loop(points, 49, seed=2)
        assert len(np.unique(labels)) == 49

    def test_kmeans_forced_empty_cluster_repair(self):
        # three distinct positions and five clusters: once those three are
        # centres, k-means++ picks duplicates, whose clusters start empty
        points = np.repeat(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]), [8, 6, 4], axis=0)
        labels = assert_kmeans_matches_loop(points, 5, seed=1)
        assert len(np.unique(labels)) == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_seeding_draws_as_generator_choice(self, seed):
        # the same centre bits and the same next generator draw; duplicates
        # give zero-weight points, and all-equal points the total <= 0 branch
        gen = np.random.default_rng(seed)
        for _ in range(6):
            n = int(gen.integers(2, 300))
            points = np.round(gen.normal(size=(n, int(gen.integers(1, 6)))), 1)
            points = points[gen.integers(0, n, size=n)]
            for pts in (points, np.full((n, 3), 2.5)):
                k = int(gen.integers(1, n + 1))
                a = np.random.Generator(np.random.PCG64(seed + k))
                b = np.random.Generator(np.random.PCG64(seed + k))
                got, want = _kmeans_pp_init(pts, k, a), choice_kmeans_pp_init(pts, k, b)
                assert got.tobytes() == want.tobytes()
                assert a.random() == b.random()

    def test_seeding_draw_on_a_cdf_step_takes_the_next_point(self):
        # d2 = [0, 1, 1] gives the cdf [0, 0.5, 1]; a draw of exactly 0.5
        # picks point 2, as Generator.choice's searchsorted(side="right")
        # does, where side="left" would pick point 1
        class Draws:
            def integers(self, n):
                return 0

            def random(self):
                return 0.5

        points = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        centers = _kmeans_pp_init(points, 2, Draws())
        assert centers.tolist() == [[0.0, 0.0], [-1.0, 0.0]]

    @pytest.mark.parametrize("budget", [7, 40, 500])
    def test_sample_tracks(self, budget):
        coords, vis = random_samples(400, 5, seed=budget, size=672.0)
        tracks = sample_tracks(coords, vis, budget, seed=3)
        want_coords, want_vis = loop_sample_tracks(coords, vis, budget, 3)
        assert np.array_equal(tracks.coords.reshape(len(tracks), -1), want_coords)
        assert np.array_equal(tracks.visibility, want_vis)

    def test_partition(self):
        _, vis = random_samples(300, 5, seed=4)
        got = partition_by_visibility(vis)
        want = loop_partition_by_visibility(vis)
        assert [p.mask for p in got] == [p.mask for p in want]
        assert all(np.array_equal(a.members, b.members) for a, b in zip(got, want))
