import json
import struct
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mvmatch import cli
from mvmatch.cli import main
from mvmatch.config import PipelineConfig, load_config, save_config
from mvmatch.features import OracleFeatureProvider
from mvmatch.grids import DenseWarpField, read_warp_file, write_warp_file
from mvmatch.postprocess import select_matches
from mvmatch.tracks import Tracks, read_track_rows

STRIDES_RULE = "must be a non-empty, strictly decreasing list of powers of two"
THRESHOLDS_RULE = "must be a non-empty list of finite values > 0"
CAMERA_RULE = "camera intrinsics, rotation and translation must be finite"
FLAG_THRESHOLDS_RULE = ("--threshold must be a non-empty, comma-separated list of finite "
                        "values > 0, got")


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    """Small sizes so the CLI chain stays quick."""
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    cfg = PipelineConfig(track_tokens=32, matcher_samples=300,
                         base_resolution=48, targets_per_group=3)
    save_config(path, cfg)
    return str(path)


@pytest.fixture(scope="module")
def planar_scene(tmp_path_factory, fast_config):
    out = tmp_path_factory.mktemp("scene")
    rc = main(["gen-scene", "--kind", "planar", "--views", "4",
               "--image-size", "48", "--seed", "5", "--out", str(out),
               "--config", fast_config])
    assert rc == 0
    return out / "scene.json"


@pytest.fixture(scope="module")
def cloud_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("cloud")
    rc = main(["gen-scene", "--kind", "point-cloud", "--views", "3", "--image-size", "48",
               "--points", "200", "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out / "scene.json"


@pytest.fixture(scope="module")
def matched_dir(tmp_path_factory, planar_scene, fast_config):
    out = tmp_path_factory.mktemp("warps")
    rc = main(["match", "--scene", str(planar_scene), "--seed", "3",
               "--out", str(out), "--config", fast_config])
    assert rc == 0
    return out


def uniform_warp(source, target, height, width, confidence):
    """Identity-position warp whose confidence is ``confidence`` (scalar or (H, W))."""
    ys, xs = np.mgrid[0:height, 0:width]
    conf = np.broadcast_to(np.asarray(confidence, dtype=np.float64), (height, width))
    return DenseWarpField(np.stack([xs, ys], axis=-1), conf, source, target)


def copy_warps(src, dst):
    """Copy the MVWF files of ``src`` into a new directory ``dst``, no manifest."""
    dst.mkdir()
    for path in src.glob("*.mvwf"):
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


class TestGenScene:
    def test_writes_scene(self, planar_scene):
        payload = json.loads(planar_scene.read_text())
        assert payload["kind"] == "planar"
        assert len(payload["homographies"]) == 4

    def test_point_cloud(self, tmp_path):
        rc = main(["gen-scene", "--kind", "point-cloud", "--views", "3",
                   "--image-size", "32", "--points", "500", "--seed", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "scene.json").read_text())
        assert payload["kind"] == "point_cloud"
        assert len(payload["points"]) == 500


class TestBuildTracks:
    def test_writes_tracks(self, tmp_path, planar_scene, fast_config):
        rc = main(["build-tracks", "--scene", str(planar_scene), "--seed", "1",
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        tracks = Tracks(*read_track_rows(tmp_path / "tracks.tsv"))
        assert tracks.visibility.shape[1] == 4
        assert len(tracks) == 32

    def test_capped_budget_warns_on_one_line(self, tmp_path, planar_scene, capsys):
        config = tmp_path / "config.json"
        save_config(config, PipelineConfig(track_tokens=32, matcher_samples=20))
        rc = main(["build-tracks", "--scene", str(planar_scene), "--seed", "1",
                   "--out", str(tmp_path), "--config", str(config)])
        assert rc == 0
        assert capsys.readouterr().err == ("mvmatch build-tracks: warning: track budget 32 "
                                           "exceeds 20 raw matches; capping\n")
        assert len(Tracks(*read_track_rows(tmp_path / "tracks.tsv"))) == 20


class TestSampleGroups:
    def test_full_budget(self, tmp_path, planar_scene, fast_config):
        rc = main(["sample-groups", "--scene", str(planar_scene), "--seed", "0",
                   "--out", str(tmp_path), "--budget", "full",
                   "--config", fast_config])
        assert rc == 0
        payload = json.loads((tmp_path / "groups.json").read_text())
        stage1 = [g for g in payload["groups"] if g["stage"] == 1]
        assert len(stage1) == 8  # ceil(4 * sqrt(4))
        assert {g["source"] for g in stage1} == {0, 1, 2, 3}

    def test_half_budget(self, tmp_path, planar_scene, fast_config):
        rc = main(["sample-groups", "--scene", str(planar_scene), "--seed", "0",
                   "--out", str(tmp_path), "--budget", "half",
                   "--config", fast_config])
        assert rc == 0
        payload = json.loads((tmp_path / "groups.json").read_text())
        assert len([g for g in payload["groups"] if g["stage"] == 1]) == 4

    def test_overlap_from_warp_files(self, tmp_path, matched_dir, fast_config):
        rc = main(["sample-groups", "--warps", str(matched_dir), "--seed", "0",
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        payload = json.loads((tmp_path / "groups.json").read_text())
        assert len(payload["groups"]) >= 4

    def test_warps_of_one_pair_are_pooled(self, tmp_path, fast_config, monkeypatch):
        # each warp is confident on one half of the image: the pooled warp on
        # all of it, where the file that sorts last would give 0.5
        warps = tmp_path / "warps"
        warps.mkdir()
        left = np.zeros((4, 8))
        left[:, :4] = 0.9
        write_warp_file(warps / "warp_g0000_000_001.mvwf", uniform_warp(0, 1, 4, 8, left))
        write_warp_file(warps / "warp_g0001_000_001.mvwf",
                        uniform_warp(0, 1, 4, 8, left[:, ::-1]))
        overlaps = []
        real = cli.overlap_from_matches
        monkeypatch.setattr(cli, "overlap_from_matches",
                            lambda *args: overlaps.append(real(*args)) or overlaps[-1])
        rc = main(["sample-groups", "--warps", str(warps), "--out", str(tmp_path / "out"),
                   "--config", fast_config])
        assert rc == 0
        assert overlaps[0].values[0, 1] == 1.0

    def test_overlap_from_descriptor_table(self, tmp_path, fast_config):
        import numpy as np
        rng = np.random.default_rng(0)
        table = tmp_path / "desc.tsv"
        rows = rng.uniform(0.1, 1.0, size=(5, 8))
        table.write_text("\n".join("\t".join(f"{v:.6f}" for v in row)
                                   for row in rows) + "\n")
        rc = main(["sample-groups", "--descriptors", str(table), "--seed", "0",
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        payload = json.loads((tmp_path / "groups.json").read_text())
        stage1 = [g for g in payload["groups"] if g["stage"] == 1]
        assert {g["source"] for g in stage1} == {0, 1, 2, 3, 4}

    def test_missing_inputs_rejected(self, tmp_path):
        rc = main(["sample-groups", "--seed", "0", "--out", str(tmp_path)])
        assert rc == 2

    def test_groups_without_targets_warn_on_one_line(self, tmp_path, fast_config, capsys):
        # image 2's descriptor is orthogonal to the others', so both of its
        # stage-1 groups (ids 2 and 5) come out with no targets
        table = tmp_path / "desc.tsv"
        table.write_text("1\t0\t0\n1\t0.1\t0\n0\t0\t1\n")
        rc = main(["sample-groups", "--descriptors", str(table),
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        assert capsys.readouterr().err == ("mvmatch sample-groups: warning: group(s) 2, 5 "
                                           "(source(s) 2) have no targets\n")
        payload = json.loads((tmp_path / "groups.json").read_text())
        assert [g["targets"] for g in payload["groups"]][2::3] == [[], []]


    def test_scene_overlap_holds_one_warp_at_a_time(self, tmp_path):
        # the ground-truth warps are built one at a time: 30 ordered pairs at
        # 6 views need about the memory of 6 pairs at 3 views
        peaks = {}
        for views in (3, 6):
            out = tmp_path / f"v{views}"
            assert main(["gen-scene", "--kind", "planar", "--views", str(views),
                         "--image-size", "64", "--seed", "5", "--out", str(out)]) == 0
            tracemalloc.start()
            try:
                rc = main(["sample-groups", "--scene", str(out / "scene.json"),
                           "--out", str(out)])
                peaks[views] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0
        assert peaks[6] <= 1.5 * peaks[3], peaks


class TestWarpBank:
    def write_bank(self, warps, per_pair, height=24, width=24):
        """``per_pair`` files for each of the pairs (0, 1) and (1, 0), with
        confidences in eighths so that the files tie at many pixels."""
        rng = np.random.default_rng(per_pair)
        warps.mkdir()
        for gid in range(per_pair):
            for src, tgt in ((0, 1), (1, 0)):
                warp = DenseWarpField(rng.uniform(0, width - 1, size=(height, width, 2)),
                                      rng.integers(0, 9, size=(height, width)) / 8, src, tgt)
                write_warp_file(warps / f"warp_g{gid:04d}_{src:03d}_{tgt:03d}.mvwf", warp)
        return warps

    def test_pooled_as_read_equals_all_at_once(self, tmp_path):
        warps = self.write_bank(tmp_path / "warps", per_pair=3)
        bank = cli._load_warp_bank(warps)
        assert sorted(bank) == [(0, 1), (1, 0)]
        for (src, tgt), got in bank.items():
            files = sorted(warps.glob(f"*_{src:03d}_{tgt:03d}.mvwf"))
            want, chosen = select_matches([read_warp_file(p) for p in files])
            assert len(np.unique(chosen)) == 3
            assert (got.source_view, got.target_view) == (src, tgt)
            assert got.targets.tobytes() == want.targets.tobytes()
            assert got.confidence.tobytes() == want.confidence.tobytes()

    def test_memory_does_not_grow_with_files_per_pair(self, tmp_path):
        peaks = {}
        for per_pair in (2, 8):
            warps = self.write_bank(tmp_path / f"n{per_pair}", per_pair, 96, 96)
            tracemalloc.start()
            try:
                cli._load_warp_bank(warps)
                peaks[per_pair] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.2 * peaks[2], peaks


class TestMatch:
    def test_emits_warps_and_manifest(self, matched_dir):
        warps = sorted(matched_dir.glob("*.mvwf"))
        assert len(warps) == 3
        w = read_warp_file(warps[0])
        assert w.targets.shape == (48, 48, 2)
        manifest = json.loads((matched_dir / "manifest.json").read_text())
        assert manifest["groups"][0]["targets"] == [1, 2, 3]
        assert manifest["strides"] == [8, 4, 2, 1]

    def test_coarse_only_pyramid_writes_base_resolution_warps(self, tmp_path,
                                                               planar_scene):
        # the output resolution follows the pyramid: a config that stops at
        # stride 8 and names no upsample factor still writes 48 x 48 warps
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"track_tokens": 32, "matcher_samples": 300,
                                      "targets_per_group": 3, "strides": [8]}))
        out = tmp_path / "warps"
        rc = main(["match", "--scene", str(planar_scene), "--seed", "3",
                   "--out", str(out), "--config", str(config)])
        assert rc == 0
        warps = [read_warp_file(p) for p in sorted(out.glob("*.mvwf"))]
        assert len(warps) == 3
        assert all(w.targets.shape == (48, 48, 2) for w in warps)

    def test_with_group_manifest(self, tmp_path, planar_scene, fast_config):
        gdir = tmp_path / "groups"
        gdir.mkdir()
        (gdir / "groups.json").write_text(json.dumps({
            "groups": [{"source": 0, "targets": [1], "stage": 1},
                       {"source": 1, "targets": [0], "stage": 2}]}))
        out = tmp_path / "warps"
        rc = main(["match", "--scene", str(planar_scene), "--seed", "3",
                   "--out", str(out), "--groups", str(gdir / "groups.json"),
                   "--config", fast_config])
        assert rc == 0
        assert len(sorted(out.glob("*.mvwf"))) == 2

    def test_capped_budget_names_the_groups(self, tmp_path, planar_scene, fast_config,
                                            capsys):
        # every group simulates 20 matches for 32 track tokens; group 1 has no
        # targets, is skipped, and is not named in the capping line
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({
            "groups": [{"source": 0, "targets": [1, 2, 3], "stage": 1},
                       {"source": 1, "targets": [], "stage": 2},
                       {"source": 2, "targets": [0], "stage": 2}]}))
        config = tmp_path / "config.json"
        save_config(config, replace(load_config(fast_config), matcher_samples=20))
        rc = main(["match", "--scene", str(planar_scene), "--seed", "3",
                   "--groups", str(groups), "--out", str(tmp_path / "warps"),
                   "--config", str(config)])
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == [
            "mvmatch match: warning: skipped group(s) 1 with no targets",
            "mvmatch match: warning: track budget 32 exceeds the raw matches of "
            "group(s) 0 (20 matches), 2 (20 matches); capping"]

    def test_config_reaches_the_matcher(self, tmp_path, planar_scene, matched_dir,
                                        fast_config):
        config = tmp_path / "config.json"
        save_config(config, replace(load_config(fast_config), global_temperature=0.05))
        out = tmp_path / "warps"
        rc = main(["match", "--scene", str(planar_scene), "--seed", "3",
                   "--out", str(out), "--config", str(config)])
        assert rc == 0
        names = sorted(p.name for p in matched_dir.glob("*.mvwf"))
        assert names == sorted(p.name for p in out.glob("*.mvwf"))
        for name in names:
            assert (out / name).read_bytes() != (matched_dir / name).read_bytes(), name

    def test_shared_views_render_each_grid_once(self, tmp_path, fast_config, monkeypatch):
        # the 12 groups of a 5-view scene share views; the plan keeps a grid
        # until the last group that reads it, so no grid renders twice, every
        # grid is dropped by the end, and the warps keep the bits of a run
        # whose provider drops nothing
        rc = main(["gen-scene", "--kind", "point-cloud", "--views", "5", "--image-size", "48",
                   "--points", "400", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["sample-groups", "--scene", str(tmp_path / "scene.json"),
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        render = OracleFeatureProvider._render
        rendered, providers = [], []

        def counting(provider, view, stride):
            providers.append(provider)
            rendered.append((view, stride))
            return render(provider, view, stride)

        def match(out):
            return main(["match", "--scene", str(tmp_path / "scene.json"), "--seed", "3",
                         "--groups", str(tmp_path / "groups.json"), "--out", str(out),
                         "--config", fast_config])

        monkeypatch.setattr(OracleFeatureProvider, "_render", counting)
        assert match(tmp_path / "warps") == 0
        assert sorted(rendered) == [(v, s) for v in range(5) for s in (1, 2, 4, 8)]
        assert providers[0]._cache == {}
        groups = json.loads((tmp_path / "warps" / "manifest.json").read_text())["groups"]
        assert len(groups) == 12
        monkeypatch.setattr(OracleFeatureProvider, "release", lambda *args: None)
        assert match(tmp_path / "kept") == 0
        names = sorted(p.name for p in (tmp_path / "warps").glob("*.mvwf"))
        assert names == sorted(p.name for p in (tmp_path / "kept").glob("*.mvwf"))
        for name in names:
            assert ((tmp_path / "warps" / name).read_bytes()
                    == (tmp_path / "kept" / name).read_bytes()), name

    def test_skips_groups_without_targets(self, tmp_path, fast_config, capsys):
        rc = main(["gen-scene", "--views", "3", "--image-size", "48",
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        # image 2's descriptor is orthogonal to the others', so both of its
        # stage-1 groups (ids 2 and 5) come out with no targets
        table = tmp_path / "desc.tsv"
        table.write_text("1\t0\t0\n1\t0.1\t0\n0\t0\t1\n")
        rc = main(["sample-groups", "--descriptors", str(table),
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "warps"
        rc = main(["match", "--scene", str(tmp_path / "scene.json"), "--seed", "3",
                   "--groups", str(tmp_path / "groups.json"), "--out", str(out),
                   "--config", fast_config])
        assert rc == 0
        assert capsys.readouterr().err == \
            "mvmatch match: warning: skipped group(s) 2, 5 with no targets\n"
        # groups 3 and 4 repeat groups 0 and 1, so they reuse their warps
        assert sorted(p.name for p in out.glob("*.mvwf")) == [
            "warp_g0000_000_001.mvwf", "warp_g0001_001_000.mvwf"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [g["id"] for g in manifest["groups"]] == [0, 1, 3, 4]

    def test_repeated_group_runs_once(self, tmp_path, planar_scene, fast_config, monkeypatch,
                                      capsys):
        # group 2 repeats group 0 with its targets reordered: it samples no
        # tracks, runs nothing and writes no warp, and the other groups' files
        # keep the bytes of a run whose manifest has no repeat
        distinct = [{"source": 0, "targets": [1, 2], "stage": 1},
                    {"source": 1, "targets": [0], "stage": 2}]
        repeat = {"source": 0, "targets": [2, 1], "stage": 2}
        simulated, providers = [], []
        simulate, run_group = cli.simulate_matcher, cli.run_group

        def counting_simulate(scene, group, *args, **kwargs):
            simulated.append(group)
            return simulate(scene, group, *args, **kwargs)

        def counting_run(group, provider, tracks, params):
            providers.append(provider)
            return run_group(group, provider, tracks, params)

        monkeypatch.setattr(cli, "simulate_matcher", counting_simulate)
        monkeypatch.setattr(cli, "run_group", counting_run)

        def match(name, groups):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"groups": groups}))
            rc = main(["match", "--scene", str(planar_scene), "--seed", "3",
                       "--groups", str(path), "--out", str(tmp_path / name),
                       "--config", fast_config])
            assert rc == 0
            return tmp_path / name

        once = match("once", distinct)
        assert len(simulated) == len(providers) == 2
        simulated.clear()
        providers.clear()
        capsys.readouterr()
        twice = match("twice", distinct + [repeat])
        assert [(g.source, g.targets) for g in simulated] == [(0, (1, 2)), (1, (0,))]
        assert len(providers) == 2
        assert providers[0]._cache == {}
        assert capsys.readouterr().out == \
            f"wrote 2 group(s) of warps to {twice}; 1 repeated group(s) reuse them\n"
        names = sorted(p.name for p in twice.glob("*.mvwf"))
        assert names == ["warp_g0000_000_001.mvwf", "warp_g0000_000_002.mvwf",
                         "warp_g0001_001_000.mvwf"]
        assert names == sorted(p.name for p in once.glob("*.mvwf"))
        for name in names:
            assert (twice / name).read_bytes() == (once / name).read_bytes(), name
        assert json.loads((twice / "manifest.json").read_text())["groups"] == [
            {"id": 0, "source": 0, "targets": [1, 2]},
            {"id": 1, "source": 1, "targets": [0]},
            {"id": 2, "source": 0, "targets": [2, 1], "same_as": 0}]
        for warps in (once, twice):
            rc = main(["postprocess", "--warps", str(warps), "--out", str(warps / "post"),
                       "--config", fast_config])
            assert rc == 0
        for name in ("sfm_tracks.tsv", "stats.json"):
            assert (once / "post" / name).read_bytes() == (twice / "post" / name).read_bytes()


@pytest.fixture(scope="module")
def both_dirs(tmp_path_factory, planar_scene, fast_config):
    gdir = tmp_path_factory.mktemp("g")
    (gdir / "groups.json").write_text(json.dumps({
        "groups": [{"source": 0, "targets": [1, 2], "stage": 1},
                   {"source": 1, "targets": [0], "stage": 2},
                   {"source": 2, "targets": [0], "stage": 2}]}))
    warps = tmp_path_factory.mktemp("w")
    rc = main(["match", "--scene", str(planar_scene), "--seed", "3",
               "--out", str(warps), "--groups", str(gdir / "groups.json"),
               "--config", fast_config])
    assert rc == 0
    return warps


class TestPostprocessAndEval:
    def test_postprocess(self, tmp_path, both_dirs, fast_config):
        rc = main(["postprocess", "--warps", str(both_dirs), "--seed", "0",
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert 0.0 <= stats["kept_match_rate"] <= 1.0
        header = (tmp_path / "sfm_tracks.tsv").read_text().splitlines()[0]
        assert header.startswith("# V=")

    def test_postprocess_names_pairs_without_reverse_warp(self, tmp_path, matched_dir,
                                                          fast_config, capsys):
        # match without --groups writes only source-0 warps, so no pair has a reverse
        capsys.readouterr()
        rc = main(["postprocess", "--warps", str(matched_dir), "--seed", "0",
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        err = capsys.readouterr().err
        assert err == ("mvmatch postprocess: warning: no reverse warp for pairs "
                       "0->1, 0->2, 0->3; none of their matches can pass the "
                       "reciprocity check\n")
        header = (tmp_path / "sfm_tracks.tsv").read_text().splitlines()[0]
        assert header.endswith("T=0")

    def test_postprocess_silent_when_every_pair_has_reverse(self, tmp_path, both_dirs,
                                                            fast_config, capsys):
        capsys.readouterr()
        rc = main(["postprocess", "--warps", str(both_dirs), "--seed", "0",
                   "--out", str(tmp_path), "--config", fast_config])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_eval_homography(self, tmp_path, both_dirs, planar_scene, fast_config, capsys):
        capsys.readouterr()
        rc = main(["eval-homography", "--scene", str(planar_scene),
                   "--warps", str(both_dirs), "--seed", "0",
                   "--out", str(tmp_path), "--threshold", "1,3,5",
                   "--config", fast_config])
        assert rc == 0
        assert capsys.readouterr().err == ""  # every pair has its reverse
        lines = (tmp_path / "homography_auc.csv").read_text().splitlines()
        assert lines[0] == "solver,threshold_px,auc,pairs"
        assert len(lines) == 7  # 2 solvers x 3 thresholds

    def test_eval_homography_names_pairs_without_reverse_warp(self, tmp_path, matched_dir,
                                                              planar_scene, fast_config,
                                                              capsys):
        # unchecked, this bank wrote an all-zero table of 0 pairs without a word
        capsys.readouterr()
        rc = main(["eval-homography", "--scene", str(planar_scene), "--warps", str(matched_dir),
                   "--out", str(tmp_path), "--threshold", "1,3", "--config", fast_config])
        assert rc == 0
        assert capsys.readouterr().err == (
            "mvmatch eval-homography: warning: no reverse warp for pairs 0->1, 0->2, 0->3; "
            "none of their matches can pass the reciprocity check\n")
        rows = (tmp_path / "homography_auc.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and all(row.endswith(",0.000000,0") for row in rows)

    def test_eval_homography_needs_no_manifest(self, tmp_path, both_dirs, planar_scene,
                                               fast_config):
        bare = copy_warps(both_dirs, tmp_path / "bare")
        for warps, out in ((both_dirs, tmp_path / "a"), (bare, tmp_path / "b")):
            rc = main(["eval-homography", "--scene", str(planar_scene), "--warps", str(warps),
                       "--out", str(out), "--config", fast_config])
            assert rc == 0
        assert (tmp_path / "a" / "homography_auc.csv").read_bytes() == \
            (tmp_path / "b" / "homography_auc.csv").read_bytes()

    def test_postprocess_writes_a_repeated_group_once(self, tmp_path, both_dirs,
                                                      fast_config):
        repeated = copy_warps(both_dirs, tmp_path / "repeated")
        manifest = json.loads((both_dirs / "manifest.json").read_text())
        manifest["groups"].append({"id": 3, "source": 0, "targets": [2, 1]})
        (repeated / "manifest.json").write_text(json.dumps(manifest))
        for warps, out in ((both_dirs, tmp_path / "a"), (repeated, tmp_path / "b")):
            rc = main(["postprocess", "--warps", str(warps), "--out", str(out),
                       "--config", fast_config])
            assert rc == 0
        for name in ("sfm_tracks.tsv", "stats.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_eval_homography_rejects_point_cloud(self, tmp_path, fast_config):
        rc = main(["gen-scene", "--kind", "point-cloud", "--views", "2",
                   "--image-size", "32", "--points", "200", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["eval-homography", "--scene", str(tmp_path / "scene.json"),
                   "--warps", str(tmp_path), "--out", str(tmp_path)])
        assert rc == 2


class TestEvalTriangulation:
    def test_round_trip(self, tmp_path):
        rc = main(["gen-scene", "--kind", "point-cloud", "--views", "4",
                   "--image-size", "64", "--points", "2000", "--seed", "9",
                   "--out", str(tmp_path)])
        assert rc == 0
        scene_path = tmp_path / "scene.json"
        # build a track file from exact projections of a few scene points
        from mvmatch.oracle import load_scene
        scene = load_scene(scene_path)
        lines = ["# V=4\tT=20", "token_id\tview_id\tx\ty"]
        for tid in range(20):
            p = scene.points[tid * 5]
            for v, cam in enumerate(scene.cameras):
                uv, depth = cam.project(p[None])
                if depth[0] > 0:
                    lines.append(f"{tid}\t{v}\t{uv[0,0]:.6f}\t{uv[0,1]:.6f}")
        tracks_path = tmp_path / "tracks.tsv"
        tracks_path.write_text("\n".join(lines) + "\n")
        rc = main(["eval-triangulation", "--scene", str(scene_path),
                   "--tracks", str(tracks_path), "--out", str(tmp_path),
                   "--threshold", "0.01,0.05", "--seed", "0"])
        assert rc == 0
        rows = (tmp_path / "triangulation.csv").read_text().splitlines()
        assert rows[0] == "threshold,accuracy,completeness,triangulated,skipped"
        first = rows[1].split(",")
        assert float(first[1]) == 1.0  # exact tracks triangulate exactly


class TestErrorContract:
    """A bad input ends a subcommand with one stderr line and exit code 2,
    before the command makes its ``--out`` directory."""

    def assert_one_line_error(self, capsys, command, fragment, out):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith(f"mvmatch {command}: error: "), err
        assert fragment in err, err
        assert not out.exists(), f"{command} left {out} behind"

    def test_gen_scene_rejects_size_off_the_coarsest_stride(self, tmp_path, capsys):
        rc = main(["gen-scene", "--image-size", "20", "--out", str(tmp_path / "run")])
        assert rc == 2
        self.assert_one_line_error(capsys, "gen-scene", "not divisible by the coarsest stride 8",
                                   tmp_path / "run")

    # unchecked, a size below 1 wrote a scene that match rejected later with
    # an error naming neither a file nor a key (--image-size 0 silently meant
    # the config's size), fewer than 2 views failed with a message naming no
    # flag after making --out, an empty, negative or non-finite threshold list
    # wrote a CSV with no rows or meaningless ones, all with exit 0, a
    # threshold that is not a number failed without naming the flag, and
    # match failed on a scene file that the coarsest stride does not divide
    # only inside the matcher, without naming the file
    @pytest.mark.parametrize("command, args, fragment", [
        ("gen-scene", ["--image-size", "-8"], "--image-size must be >= 1, got -8"),
        ("gen-scene", ["--image-size", "0"], "--image-size must be >= 1, got 0"),
        ("gen-scene", ["--kind", "point-cloud", "--points", "-5"],
         "--points must be >= 1, got -5"),
        ("gen-scene", ["--views", "1"], "--views must be >= 2, got 1"),
        ("gen-scene", ["--views", "0"], "--views must be >= 2, got 0"),
        ("build-tracks", ["--scene", "{zero_scene}"],
         "scene.json: image size must be >= 1, got (0, 0)"),
        ("match", ["--scene", "{odd_scene}"],
         "odd.json: image size (36, 36) is not divisible by the coarsest stride 8"),
        ("eval-homography", ["--scene", "{scene}", "--warps", "{warps}", "--threshold", ","],
         f"{FLAG_THRESHOLDS_RULE} ','"),
        ("eval-homography", ["--scene", "{scene}", "--warps", "{warps}", "--threshold", "-1"],
         f"{FLAG_THRESHOLDS_RULE} '-1'"),
        ("eval-homography", ["--scene", "{scene}", "--warps", "{warps}", "--threshold", "nan"],
         f"{FLAG_THRESHOLDS_RULE} 'nan'"),
        ("eval-triangulation", ["--scene", "{scene}", "--tracks", "{warps}",
                                "--threshold", "0.01,inf"], f"{FLAG_THRESHOLDS_RULE} '0.01,inf'"),
        ("eval-triangulation", ["--scene", "{scene}", "--tracks", "{warps}",
                                "--threshold", "0.01,abc"], f"{FLAG_THRESHOLDS_RULE} '0.01,abc'"),
    ], ids=["negative-size", "zero-size", "negative-points", "one-view", "zero-views",
            "zero-size-scene-file",
            "scene-file-off-the-coarsest-stride", "empty-threshold", "negative-threshold",
            "nan-threshold", "inf-threshold", "non-number-threshold"])
    def test_bad_size_or_threshold_flag(self, tmp_path, capsys, planar_scene, matched_dir,
                                        command, args, fragment):
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        paths = {"scene": planar_scene, "warps": matched_dir,
                 "zero_scene": tmp_path / "scene.json", "odd_scene": tmp_path / "odd.json"}
        for key, size in (("zero_scene", 0), ("odd_scene", 36)):
            paths[key].write_text(json.dumps({"kind": "planar", "image_size": [size, size],
                                              "noise_seed": 0, "homographies": [eye, eye]}))
        rc = main([command, *(a.format(**paths) for a in args),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        self.assert_one_line_error(capsys, command, fragment, tmp_path / "run")

    # unchecked, gen-scene and match failed inside numpy's seeding with a
    # message naming no flag (gen-scene after making --out), and
    # sample-groups, which draws nothing at random, exited 0
    @pytest.mark.parametrize("command, args", [
        ("gen-scene", []),
        ("match", ["--scene", "{scene}"]),
        ("sample-groups", ["--scene", "{scene}"]),
    ], ids=["gen-scene", "match", "sample-groups"])
    def test_negative_seed(self, tmp_path, capsys, planar_scene, command, args):
        rc = main([command, *(a.format(scene=planar_scene) for a in args),
                   "--seed", "-1", "--out", str(tmp_path / "run")])
        assert rc == 2
        self.assert_one_line_error(capsys, command, "--seed must be >= 0, got -1",
                                   tmp_path / "run")

    # unchecked, match built each group's tracks just before matching it, so
    # it failed after making --out, naming no group, and left the warps of
    # the groups before the bad one behind without a manifest
    @pytest.mark.parametrize("views, groups, gid", [
        (2, None, 0),
        (3, [{"source": 0, "targets": [2], "stage": 1},
             {"source": 0, "targets": [1], "stage": 2}], 1),
    ], ids=["one-group", "second-of-two-groups"])
    def test_group_whose_targets_see_none_of_its_source(self, tmp_path, capsys,
                                                        views, groups, gid):
        # view 1 is moved 1000 px off the others; view 2 sees what view 0 sees
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        away = [[1.0, 0.0, 1000.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"kind": "planar", "image_size": [32, 32], "noise_seed": 0,
                                     "homographies": [eye, away, eye][:views]}))
        args = ["match", "--scene", str(scene), "--out", str(tmp_path / "run")]
        if groups is not None:
            (tmp_path / "groups.json").write_text(json.dumps({"groups": groups}))
            args += ["--groups", str(tmp_path / "groups.json")]
        rc = main(args)
        assert rc == 2
        self.assert_one_line_error(
            capsys, "match",
            f"group {gid} (source 0): no source pixel is covisible with any target",
            tmp_path / "run")

    # unchecked, match wrote an --out holding only manifest.json and exited 0;
    # postprocess then failed on it with "no MVWF files"
    @pytest.mark.parametrize("groups", [
        [],
        [{"source": 0, "targets": [], "stage": 1}, {"source": 1, "targets": [], "stage": 1}],
    ], ids=["empty-manifest", "no-group-with-a-target"])
    def test_manifest_where_no_group_has_a_target(self, tmp_path, capsys, planar_scene,
                                                  groups):
        manifest = tmp_path / "groups.json"
        manifest.write_text(json.dumps({"groups": groups}))
        rc = main(["match", "--scene", str(planar_scene), "--groups", str(manifest),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        self.assert_one_line_error(capsys, "match", f"{manifest}: no group has a target",
                                   tmp_path / "run")

    # unchecked, a NaN point ran the scene chain to exit 0 with triangulation
    # accuracy 0 at every threshold; a NaN rotation entry or an inf
    # translation failed late, naming no file; points with two columns failed
    # inside a numpy product; a NaN homography entry failed in an SVD
    @pytest.mark.parametrize("scene, path, value, fragment", [
        ("cloud", ["points", 3, 1], float("nan"), "points must be a finite (N, 3) array"),
        ("cloud", ["points"], lambda pts: [p[:2] for p in pts],
         "points must be a finite (N, 3) array"),
        ("cloud", ["cameras", 1, "rotation", 0, 2], float("nan"), CAMERA_RULE),
        ("cloud", ["cameras", 1, "translation", 2], float("inf"), CAMERA_RULE),
        ("cloud", ["cameras", 0, "intrinsics", 0, 2], float("nan"), CAMERA_RULE),
        ("planar", ["homographies", 1, 0, 1], float("nan"),
         "homographies must be finite, well-conditioned 3x3"),
    ], ids=["nan-point", "two-column-points", "nan-rotation", "inf-translation",
            "nan-intrinsics", "nan-homography"])
    def test_scene_file_with_non_finite_or_misshaped_values(
            self, tmp_path, capsys, planar_scene, cloud_scene, scene, path, value, fragment):
        payload = json.loads((cloud_scene if scene == "cloud" else planar_scene).read_text())
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        edited = tmp_path / "scene.json"
        edited.write_text(json.dumps(payload))
        rc = main(["sample-groups", "--scene", str(edited), "--budget", "full",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        self.assert_one_line_error(capsys, "sample-groups", f"{edited}: {fragment}",
                                   tmp_path / "run")

    def test_malformed_track_row(self, tmp_path, capsys):
        rc = main(["gen-scene", "--kind", "point-cloud", "--views", "2",
                   "--image-size", "32", "--points", "50", "--out", str(tmp_path)])
        assert rc == 0
        tracks = tmp_path / "tracks.tsv"
        tracks.write_text("# V=2\tT=1\ntoken_id\tview_id\tx\ty\n0\t0\t1.0\t2.0\n0\t1\n")
        capsys.readouterr()
        rc = main(["eval-triangulation", "--scene", str(tmp_path / "scene.json"),
                   "--tracks", str(tracks), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, "eval-triangulation",
                                   "tracks.tsv:4: expected 4 tab-separated fields, got 2",
                                   tmp_path / "out")

    # a negative V ended in numpy's "negative dimensions are not allowed";
    # a file cut short after its header wrote an all-zero table with exit 0
    @pytest.mark.parametrize("text, fragment", [
        ("# V=-2\tT=1\ntoken_id\tview_id\tx\ty\n", "tracks.tsv:1: malformed track-file header"),
        ("# V=3\tT=1", "tracks.tsv: 0 tracks, the header says T=1"),
    ], ids=["negative-views", "cut-after-header"])
    def test_bad_track_header(self, tmp_path, capsys, text, fragment):
        rc = main(["gen-scene", "--kind", "point-cloud", "--views", "3",
                   "--image-size", "32", "--points", "50", "--out", str(tmp_path)])
        assert rc == 0
        tracks = tmp_path / "tracks.tsv"
        tracks.write_text(text)
        capsys.readouterr()
        rc = main(["eval-triangulation", "--scene", str(tmp_path / "scene.json"),
                   "--tracks", str(tracks), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, "eval-triangulation", fragment, tmp_path / "out")

    def run_triangulation_on_view(self, tmp_path, capsys, header_views, view):
        self.run_triangulation_on_row(tmp_path, capsys, header_views, f"0\t{view}\t5.0\t6.0")

    def run_triangulation_on_row(self, tmp_path, capsys, header_views, row):
        rc = main(["gen-scene", "--kind", "point-cloud", "--views", "3",
                   "--image-size", "32", "--points", "50", "--out", str(tmp_path)])
        assert rc == 0
        tracks = tmp_path / "tracks.tsv"
        tracks.write_text(f"# V={header_views}\tT=1\ntoken_id\tview_id\tx\ty\n"
                          f"0\t0\t1.0\t2.0\n0\t1\t3.0\t4.0\n{row}\n")
        capsys.readouterr()
        rc = main(["eval-triangulation", "--scene", str(tmp_path / "scene.json"),
                   "--tracks", str(tracks), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_track_view_without_a_camera(self, tmp_path, capsys):
        # the header admits 8 views, the scene has 3 cameras
        self.run_triangulation_on_view(tmp_path, capsys, 8, 7)
        self.assert_one_line_error(capsys, "eval-triangulation",
                                   "tracks.tsv:5: view 7 outside [0, 3)", tmp_path / "out")

    def test_negative_track_view(self, tmp_path, capsys):
        self.run_triangulation_on_view(tmp_path, capsys, 3, -1)
        self.assert_one_line_error(capsys, "eval-triangulation",
                                   "tracks.tsv:5: view -1 outside [0, 3)", tmp_path / "out")

    @pytest.mark.parametrize("row, fragment", [
        ("0\t2\tnan\t6.0", "tracks.tsv:5: non-finite coordinate in"),
        ("0\t1\t5.0\t6.0", "tracks.tsv:5: token 0 repeats view 1"),
    ], ids=["non-finite", "repeated-view"])
    def test_bad_track_row_for_triangulation(self, tmp_path, capsys, row, fragment):
        self.run_triangulation_on_row(tmp_path, capsys, 3, row)
        self.assert_one_line_error(capsys, "eval-triangulation", fragment, tmp_path / "out")

    def test_file_that_is_not_mvwf(self, tmp_path, capsys):
        warps = tmp_path / "warps"
        warps.mkdir()
        (warps / "warp.mvwf").write_bytes(b"not a warp field")
        rc = main(["sample-groups", "--warps", str(warps), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, "sample-groups", "not an MVWF file", tmp_path / "out")

    # unchecked, these printed DenseWarpField's message without the path, a
    # 0 x 0 header numpy's "zero-size array to reduction operation minimum",
    # a NaN confidence passed the [0, 1] check, and a header cut short ended
    # in a struct.error traceback
    @pytest.mark.parametrize("command", ["sample-groups", "postprocess"])
    @pytest.mark.parametrize("header, records, fragment", [
        ((1, 2, 2, 0, 0), [[1.0, 1.0, 0.5]] * 4, "source_view and target_view must differ"),
        ((1, 2, 2, 0, 1), [[np.nan, 1.0, 0.5]] * 4, "warp targets contain non-finite values"),
        ((1, 2, 2, 0, 1), [[1.0, 1.0, np.nan]] * 4, "confidence must lie in [0, 1]"),
        ((1, 0, 0, 0, 1), [], "MVWF grid must be at least 1 x 1, got 0 x 0"),
        ((1,), [], "truncated MVWF header (8 < 24 bytes)"),
    ], ids=["same-views", "non-finite-targets", "non-finite-confidence", "empty-grid",
            "short-header"])
    def test_bad_warp_file(self, tmp_path, capsys, command, header, records, fragment):
        warps = tmp_path / "warps"
        warps.mkdir()
        (warps / "manifest.json").write_text(json.dumps({"groups": []}))
        path = warps / "warp_g0000_000_001.mvwf"
        path.write_bytes(b"MVWF" + struct.pack(f"<{len(header)}I", *header)
                         + np.asarray(records, dtype="<f4").tobytes())
        rc = main([command, "--warps", str(warps), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, command, f"{path}: {fragment}", tmp_path / "out")

    # unchecked, warps evaluated against a scene with fewer views ended in an
    # IndexError traceback, and warps of another size gave an AUC with exit 0
    @pytest.mark.parametrize("views, size, fragment", [
        (2, 48, "invalid view pair (0, 2) for 2 views"),
        (4, 96, "warps are (48, 48), the scene is (96, 96)"),
    ], ids=["view-outside-the-scene", "size-mismatch"])
    def test_warps_that_do_not_fit_the_scene(self, tmp_path, capsys, both_dirs,
                                             views, size, fragment):
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"kind": "planar", "image_size": [size, size],
                                     "noise_seed": 0, "homographies": [eye] * views}))
        rc = main(["eval-homography", "--scene", str(scene), "--warps", str(both_dirs),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        self.assert_one_line_error(capsys, "eval-homography", f"{both_dirs}: {fragment}",
                                   tmp_path / "run")

    # unchecked, postprocess and eval-homography wrote an empty track file or
    # an all-zero AUC table with exit 0 for a bank with no warps, and warps of
    # two sizes stopped postprocess with a numpy error that named no file
    @pytest.mark.parametrize("command", ["sample-groups", "postprocess", "eval-homography"])
    @pytest.mark.parametrize("sizes, fragment", [
        ((), "no MVWF files under {warps}"),
        (((0, 1, 4), (1, 0, 8)), "{warps}: warps are (4, 4) and (8, 8); a warp bank "
                                 "holds one grid size"),
    ], ids=["empty-bank", "mixed-size-bank"])
    def test_bad_warp_bank(self, tmp_path, capsys, planar_scene, command, sizes, fragment):
        warps = tmp_path / "warps"
        warps.mkdir()
        (warps / "manifest.json").write_text(json.dumps({"groups": []}))
        for gid, (src, tgt, n) in enumerate(sizes):
            write_warp_file(warps / f"warp_g{gid:04d}_{src:03d}_{tgt:03d}.mvwf",
                            uniform_warp(src, tgt, n, n, 0.5))
        scene = ["--scene", str(planar_scene)] if command == "eval-homography" else []
        rc = main([command, *scene, "--warps", str(warps), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, command, fragment.format(warps=warps),
                                   tmp_path / "out")

    # unchecked, a NaN descriptor wrote groups with exit 0, and an empty table
    # printed numpy's warning, then an error that named no file
    @pytest.mark.parametrize("text", ["1\t0.5\nnan\t1\n1\t1\n", ""],
                             ids=["non-finite", "empty"])
    def test_bad_descriptor_table(self, tmp_path, capsys, text):
        table = tmp_path / "desc.tsv"
        table.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["sample-groups", "--descriptors", str(table),
                       "--out", str(tmp_path / "out")])
        assert rc == 2 and not caught, [str(w.message) for w in caught]
        self.assert_one_line_error(capsys, "sample-groups", f"{table}: descriptor table must "
                                   "be non-empty and finite", tmp_path / "out")

    def test_bad_descriptor_table_without_catch_warnings_action(self, tmp_path, capsys,
                                                                monkeypatch):
        # Python 3.10's catch_warnings takes no ``action`` keyword
        class CatchWarnings310(warnings.catch_warnings):
            def __init__(self, *, record=False, module=None):
                super().__init__(record=record, module=module)

        monkeypatch.setattr(warnings, "catch_warnings", CatchWarnings310)
        self.test_bad_descriptor_table(tmp_path, capsys, "")

    def run_on_scene(self, tmp_path, payload):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(payload))
        rc = main(["build-tracks", "--scene", str(scene), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_scene_without_noise_seed(self, tmp_path, capsys):
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        self.run_on_scene(tmp_path, {"kind": "planar", "image_size": [16, 16],
                                     "homographies": [eye, eye]})
        self.assert_one_line_error(capsys, "build-tracks",
                                   "scene.json: missing key 'noise_seed'", tmp_path / "out")

    def test_scene_of_unknown_kind(self, tmp_path, capsys):
        self.run_on_scene(tmp_path, {"kind": "cube", "image_size": [16, 16],
                                     "noise_seed": 0})
        self.assert_one_line_error(capsys, "build-tracks",
                                   "scene.json: unknown scene kind 'cube'", tmp_path / "out")

    def test_group_without_targets_key(self, tmp_path, capsys, planar_scene):
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"groups": [{"source": 0, "stage": 1}]}))
        rc = main(["match", "--scene", str(planar_scene), "--groups", str(groups),
                   "--out", str(tmp_path / "warps")])
        assert rc == 2
        self.assert_one_line_error(capsys, "match", "groups.json: missing key 'targets'",
                                   tmp_path / "warps")

    def test_scene_that_is_not_an_object(self, tmp_path, capsys):
        self.run_on_scene(tmp_path, [])
        self.assert_one_line_error(capsys, "build-tracks",
                                   "scene.json: a scene must be a JSON object",
                                   tmp_path / "out")

    def test_group_manifest_with_groups_not_a_list(self, tmp_path, capsys, planar_scene):
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"groups": {"a": 1}}))
        rc = main(["match", "--scene", str(planar_scene), "--groups", str(groups),
                   "--out", str(tmp_path / "warps")])
        assert rc == 2
        self.assert_one_line_error(capsys, "match", "groups.json: a group manifest must "
                                   'be a JSON object whose "groups" is a list of objects',
                                   tmp_path / "warps")

    def test_group_with_a_string_source(self, tmp_path, capsys, planar_scene):
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"groups": [{"source": "a", "targets": [1],
                                                  "stage": 1}]}))
        rc = main(["match", "--scene", str(planar_scene), "--groups", str(groups),
                   "--out", str(tmp_path / "warps")])
        assert rc == 2
        self.assert_one_line_error(capsys, "match", "groups.json: a group needs an int "
                                   "source and stage and a list of int targets",
                                   tmp_path / "warps")

    def test_group_with_a_view_the_scene_lacks(self, tmp_path, capsys, planar_scene):
        # checked only when the group was matched, after --out was made
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"groups": [{"source": 0, "targets": [1], "stage": 1},
                                                 {"source": 0, "targets": [9], "stage": 1}]}))
        rc = main(["match", "--scene", str(planar_scene), "--groups", str(groups),
                   "--out", str(tmp_path / "warps")])
        assert rc == 2
        self.assert_one_line_error(capsys, "match", "groups.json: group(s) 1 name a view "
                                   "outside [0, 4)", tmp_path / "warps")

    def test_warp_manifest_without_groups(self, tmp_path, capsys):
        warps = tmp_path / "warps"
        warps.mkdir()
        (warps / "manifest.json").write_text("{}")
        rc = main(["postprocess", "--warps", str(warps), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, "postprocess",
                                   "manifest.json: missing key 'groups'", tmp_path / "out")

    # unchecked, a manifest that is not an object or whose groups are not a
    # list ended in a TypeError traceback with exit 1, and string targets or
    # a source among its targets gave one line that did not name the file
    @pytest.mark.parametrize("manifest, fragment", [
        ([1, 2], 'a group manifest must be a JSON object whose "groups" is a list'),
        ({"groups": 5}, 'a group manifest must be a JSON object whose "groups" is a list'),
        ({"groups": [{"id": 0, "source": 0, "targets": "ab"}]},
         "a group needs an int source and a list of int targets"),
        ({"groups": [{"id": 0, "source": 1, "targets": [1, 2]}]},
         "source must not appear among the targets"),
    ], ids=["not-an-object", "groups-not-a-list", "string-targets", "source-among-targets"])
    @pytest.mark.parametrize("command", ["postprocess"])  # the one reader of the manifest
    def test_bad_warp_manifest(self, tmp_path, capsys, command, manifest, fragment):
        warps = tmp_path / "warps"
        warps.mkdir()
        (warps / "manifest.json").write_text(json.dumps(manifest))
        rc = main([command, "--warps", str(warps), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, command, f"manifest.json: {fragment}",
                                   tmp_path / "out")

    def test_config_with_scalar_strides(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"strides": 8}')
        rc = main(["gen-scene", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, "gen-scene",
                                   "config.json: strides must be a list, got 8", tmp_path / "out")

    def test_config_with_string_track_tokens(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"track_tokens": "32"}')
        rc = main(["gen-scene", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, "gen-scene",
                                   "config.json: track_tokens must be int, got '32'",
                                   tmp_path / "out")

    def test_config_with_a_string_stride(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"strides": [8, "4"]}')
        rc = main(["gen-scene", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, "gen-scene",
                                   "config.json: strides must be a list of int, got [8, '4']",
                                   tmp_path / "out")

    def test_config_with_boolean_for_a_number(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"sigma": true}')
        rc = main(["gen-scene", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, "gen-scene",
                                   "config.json: sigma must be float, got True", tmp_path / "out")

    @pytest.mark.parametrize("key, value, requirement", [
        ("matcher_noise_sigma", -0.5, "must be >= 0, got -0.5"),
        ("targets_per_group", 0, "must be >= 1, got 0"),
        ("matcher_samples", 0, "must be >= 1, got 0"),
        ("track_tokens", -3, "must be >= 1, got -3"),
        ("matcher_outlier_rate", 1.0, "must lie in [0, 1), got 1.0"),
        ("matcher_outlier_rate", -0.1, "must lie in [0, 1), got -0.1"),
    ])
    def test_config_with_track_value_out_of_range(self, tmp_path, capsys, planar_scene,
                                                  key, value, requirement):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        rc = main(["build-tracks", "--scene", str(planar_scene), "--config", str(config),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        self.assert_one_line_error(capsys, "build-tracks",
                                   f"config.json: {key} {requirement}", tmp_path / "run")

    # unchecked, a negative global temperature matches every pixel to its
    # least similar anchor and exits 0, and a zero one fails deep in the
    # matcher with an error that names neither the file nor the key
    @pytest.mark.parametrize("key, value", [
        ("global_temperature", -0.002), ("global_temperature", 0.0),
        ("softargmax_temperature", 0.0), ("softargmax_temperature", -0.05),
        ("sigma", -1.0), ("sigma", float("inf")),
    ])
    def test_config_with_matcher_value_out_of_range(self, tmp_path, capsys, planar_scene,
                                                    key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        rc = main(["match", "--scene", str(planar_scene), "--config", str(config),
                   "--out", str(tmp_path / "warps")])
        assert rc == 2
        self.assert_one_line_error(capsys, "match", f"config.json: {key} must be finite "
                                                    f"and > 0, got {value!r}", tmp_path / "warps")

    # unchecked, empty strides end in an IndexError traceback, increasing ones
    # in a provider stride mismatch, a zero feature_dim in an error that
    # names neither the file nor the key; no fusion iterations or a fusion
    # level 0 run and silently do nothing, an upsample factor other than the
    # last stride would contradict the output resolution that match takes
    # from the pyramid, and a zero base resolution writes a 0 x 0 scene that
    # match rejects without naming the file or the key. The target
    # alignment is no longer a setting, so naming it is an unknown key.
    @pytest.mark.parametrize("key, value, requirement", [
        ("strides", [], STRIDES_RULE),
        ("strides", [1, 2], STRIDES_RULE),
        ("strides", [8, 8, 4], STRIDES_RULE),
        ("strides", [8, 3, 1], STRIDES_RULE),
        ("strides", [2, 1, 0], STRIDES_RULE),
        ("feature_dim", 0, "must be >= 1"),
        ("hidden_dim", -4, "must be >= 1"),
        ("upsample_factor", 0, "must equal the last stride 1"),
        ("upsample_factor", -2, "must equal the last stride 1"),
        ("upsample_factor", 3, "must equal the last stride 1"),
        ("mvfuse_iters", 0, "must be >= 1 (mvfuse_levels [] turns fusion off)"),
        ("mvfuse_iters", -1, "must be >= 1 (mvfuse_levels [] turns fusion off)"),
        ("mvfuse_levels", [0], "entries must be >= 1"),
        ("mvfuse_levels", [4, -1], "entries must be >= 1"),
        ("mvfuse_alignment", "bogus", "unknown config keys: ['mvfuse_alignment']"),
        ("mvfuse_alignment", "reverse", "unknown config keys: ['mvfuse_alignment']"),
        ("base_resolution", 0, "must be >= 1"),
    ])
    def test_config_with_bad_strides_or_dimension(self, tmp_path, capsys, planar_scene,
                                                  key, value, requirement):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        rc = main(["match", "--scene", str(planar_scene), "--config", str(config),
                   "--out", str(tmp_path / "warps")])
        assert rc == 2
        message = requirement if requirement.startswith("unknown") \
            else f"{key} {requirement}, got {value!r}"
        self.assert_one_line_error(capsys, "match", f"config.json: {message}",
                                   tmp_path / "warps")

    def test_config_with_one_stride_loads(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"strides": [8], "feature_dim": 1, "hidden_dim": 1}')
        loaded = load_config(config)
        assert (loaded.strides, loaded.feature_dim, loaded.hidden_dim) == ((8,), 1, 1)
        # fusion levels past the pyramid are allowed: the coarse-only
        # benchmark config keeps the default (4, 1) with one stride
        config.write_text('{"strides": [8], "upsample_factor": 8}')
        loaded = load_config(config)
        assert (loaded.strides, loaded.upsample_factor, loaded.mvfuse_levels) \
            == ((8,), 8, PipelineConfig().mvfuse_levels)
        config.write_text('{"strides": [8], "upsample_factor": 1}')
        with pytest.raises(ValueError, match="config.json: upsample_factor must equal "
                                             "the last stride 8, got 1"):
            load_config(config)

    # unchecked, tau >= 1 or a negative eps_p keep no match and write 0
    # tracks, a negative max_keypoints keeps every keypoint as 0 does, a
    # zero NMS radius fails with an error that names neither the file nor
    # the key, and an empty, negative or non-finite evaluation threshold
    # list writes a CSV with no rows or meaningless ones. Fewer than 4
    # evaluation matches write "0 pairs" and AUC 0 with exit 0, no RANSAC
    # iterations or a non-positive RANSAC threshold fail with a misleading
    # "no model reached 4 inliers", a beta outside (0, 1) fails without
    # naming the file or the key, and a negative lam divides by zero in
    # group sampling and exits 0
    @pytest.mark.parametrize("key, value, requirement", [
        ("tau", 1.5, "must lie in [0, 1)"),
        ("tau", 1.0, "must lie in [0, 1)"),
        ("tau", -0.1, "must lie in [0, 1)"),
        ("eps_p", -1, "must be finite and >= 0"),
        ("eps_p", float("inf"), "must be finite and >= 0"),
        ("max_keypoints", -3, "must be >= 0 (0 keeps every keypoint)"),
        ("nms_radius", 0, "must be >= 1"),
        ("homography_thresholds", [], THRESHOLDS_RULE),
        ("homography_thresholds", [1.0, -1.0], THRESHOLDS_RULE),
        ("triangulation_thresholds", [float("nan")], THRESHOLDS_RULE),
        ("triangulation_thresholds", [0.01, float("inf")], THRESHOLDS_RULE),
        ("eval_max_matches", 3, "must be >= 4"),
        ("eval_max_matches", 0, "must be >= 4"),
        ("ransac_iters", 0, "must be >= 1"),
        ("ransac_threshold", 0.0, "must be finite and > 0"),
        ("ransac_threshold", -1.0, "must be finite and > 0"),
        ("ransac_threshold", float("inf"), "must be finite and > 0"),
        ("beta", 1.5, "must lie in (0, 1)"),
        ("beta", 0.0, "must lie in (0, 1)"),
        ("lam", -1, "must be finite and >= 0"),
        ("lam", float("nan"), "must be finite and >= 0"),
    ])
    def test_config_with_postprocess_value_out_of_range(self, tmp_path, capsys, matched_dir,
                                                        key, value, requirement):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        rc = main(["postprocess", "--warps", str(matched_dir), "--config", str(config),
                   "--out", str(tmp_path / "post")])
        assert rc == 2
        self.assert_one_line_error(capsys, "postprocess",
                                   f"config.json: {key} {requirement}, got {value!r}",
                                   tmp_path / "post")

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[]")
        rc = main(["gen-scene", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_one_line_error(capsys, "gen-scene",
                                   "config.json: a config must be a JSON object", tmp_path / "out")

    def assert_names_unparsed_file(self, capsys, command, path, out):
        self.assert_one_line_error(capsys, command, f"error: {path}: not valid JSON: ", out)

    def test_scene_that_is_not_json(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text("not json")
        rc = main(["build-tracks", "--scene", str(scene), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_names_unparsed_file(capsys, "build-tracks", scene, tmp_path / "out")

    def test_config_that_is_not_json(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"sigma": 1.0,}')
        rc = main(["gen-scene", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_names_unparsed_file(capsys, "gen-scene", config, tmp_path / "out")

    def test_group_manifest_that_is_not_json(self, tmp_path, capsys, planar_scene):
        groups = tmp_path / "groups.json"
        groups.write_text("")
        rc = main(["match", "--scene", str(planar_scene), "--groups", str(groups),
                   "--out", str(tmp_path / "warps")])
        assert rc == 2
        self.assert_names_unparsed_file(capsys, "match", groups, tmp_path / "warps")

    def test_warp_manifest_that_is_not_json(self, tmp_path, capsys):
        warps = tmp_path / "warps"
        warps.mkdir()
        (warps / "manifest.json").write_text("{groups: []}")
        rc = main(["postprocess", "--warps", str(warps), "--out", str(tmp_path / "out")])
        assert rc == 2
        self.assert_names_unparsed_file(capsys, "postprocess", warps / "manifest.json",
                                        tmp_path / "out")


class TestDeterminism:
    def test_cli_outputs_byte_identical(self, tmp_path, planar_scene, fast_config):
        outs = []
        for run in ("a", "b"):
            d = tmp_path / run
            rc = main(["match", "--scene", str(planar_scene), "--seed", "7",
                       "--out", str(d), "--config", fast_config])
            assert rc == 0
            rc = main(["postprocess", "--warps", str(d), "--seed", "7",
                       "--out", str(d / "post"), "--config", fast_config])
            assert rc == 0
            outs.append(d)
        for rel in sorted(p.relative_to(outs[0])
                          for p in outs[0].rglob("*") if p.is_file()):
            a = (outs[0] / rel).read_bytes()
            b = (outs[1] / rel).read_bytes()
            assert a == b, f"{rel} differs between identical runs"


class TestConfigFile:
    def test_init_config_round_trip(self, tmp_path):
        rc = main(["init-config", "--out", str(tmp_path), "--seed", "0"])
        assert rc == 0
        cfg = load_config(tmp_path / "config.json")
        assert cfg == PipelineConfig()
        # a saved config leaves out upsample_factor, which load_config checks
        # against the last stride when a file gives it
        for written in (PipelineConfig(), PipelineConfig(strides=(8, 4)),
                        PipelineConfig(strides=(16, 8))):
            save_config(tmp_path / "config.json", written)
            assert load_config(tmp_path / "config.json") == written

    def test_sample_groups_reads_targets_per_group(self, tmp_path, planar_scene,
                                                   fast_config):
        config = tmp_path / "config.json"
        save_config(config, replace(load_config(fast_config), targets_per_group=1))
        written = []
        for name, cfg in (("shipped", fast_config), ("one", str(config))):
            rc = main(["sample-groups", "--scene", str(planar_scene), "--seed", "0",
                       "--out", str(tmp_path / name), "--config", cfg])
            assert rc == 0
            written.append(json.loads((tmp_path / name / "groups.json").read_text()))
        assert written[0] != written[1]
        assert all(len(g["targets"]) == 1 for g in written[1]["groups"])

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus": 1}')
        from mvmatch.config import load_config
        with pytest.raises(ValueError, match="bogus"):
            load_config(path)
