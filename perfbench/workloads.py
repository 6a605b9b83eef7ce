"""Benchmark workloads: inputs made from a seed, one operation, output checks.

Every workload writes its inputs (scene, config, group manifest) with the
public API, runs its operation through ``mvmatch.cli.main`` only, and checks
the files the operation wrote against the scene's ground truth.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mvmatch import cli
from mvmatch.config import PipelineConfig, save_config
from mvmatch.grids import read_warp_file
from mvmatch.grouping import ImageGroup, write_group_manifest
from mvmatch.oracle import gt_warp, load_scene


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "planar" or "point-cloud"
    views: int
    image_size: int
    config: dict = field(default_factory=dict)  # overrides of the shipped config
    epe_bound_px: float = 0.0  # planar: every written warp's EPE must stay below this

    # -- inputs ------------------------------------------------------------

    def setup(self, work: Path, seed: int) -> None:
        """Write scene.json, config.json and (planar) groups.json into ``work``."""
        _cli("gen-scene", "--kind", self.kind, "--views", self.views,
             "--image-size", self.image_size, "--seed", seed, "--out", work)
        save_config(work / "config.json", PipelineConfig(**self.config))
        if self.kind == "planar":
            write_group_manifest(work / "groups.json",
                                 [ImageGroup(0, tuple(range(1, self.views)))], [])

    # -- the timed operation -----------------------------------------------

    def op(self, work: Path, out: Path, seed: int) -> int:
        """One operation; returns the first non-zero exit code, else 0."""
        scene, config = work / "scene.json", work / "config.json"
        if self.kind == "planar":
            return _cli("match", "--scene", scene, "--groups", work / "groups.json",
                        "--config", config, "--seed", seed, "--out", out / "warps")
        # With 5 views the full budget always yields 12 groups, so every seed
        # gives the same amount of matching work.
        steps = (
            ("sample-groups", "--scene", scene, "--budget", "full",
             "--config", config, "--out", out / "groups"),
            ("match", "--scene", scene, "--groups", out / "groups" / "groups.json",
             "--config", config, "--seed", seed, "--out", out / "warps"),
            ("postprocess", "--warps", out / "warps", "--config", config,
             "--out", out / "post"),
            ("eval-triangulation", "--scene", scene,
             "--tracks", out / "post" / "sfm_tracks.tsv", "--config", config,
             "--out", out / "eval"),
        )
        for step in steps:
            code = _cli(*step)
            if code:
                return code
        return 0

    # -- output checks (outside the timed section) ---------------------------

    def check(self, work: Path, out: Path) -> tuple[dict[str, float], list[str]]:
        """Quality figures and the list of failed checks for one operation."""
        scene = load_scene(work / "scene.json")
        epes = _warp_epes(scene, sorted((out / "warps").glob("*.mvwf")))
        problems = []
        if not epes:
            problems.append("no MVWF files written")
        quality = {"epe_px": float(np.mean(list(epes.values()))) if epes else 0.0}
        if self.kind == "planar":
            for name, epe in epes.items():
                if not epe < self.epe_bound_px:
                    problems.append(f"{name}: EPE {epe:.3f} px >= {self.epe_bound_px} px")
            return quality, problems
        with open(out / "post" / "sfm_tracks.tsv") as f:
            tracks = int(f.readline().split("T=")[1])
        rows = (out / "eval" / "triangulation.csv").read_text().splitlines()
        header = rows[0].split(",")
        at_5cm = dict(zip(header, (float(x) for x in rows[-1].split(","))))
        if at_5cm["threshold"] != 0.05:
            problems.append(f"last triangulation threshold is {at_5cm['threshold']}, not 0.05")
        quality.update(tracks=tracks, triangulated=at_5cm["triangulated"],
                       completeness_5cm=at_5cm["completeness"],
                       accuracy_5cm=at_5cm["accuracy"])
        if tracks <= 0:
            problems.append("postprocess wrote 0 tracks")
        if at_5cm["triangulated"] <= 0:
            problems.append("0 points triangulated")
        return quality, problems


def _cli(*argv) -> int:
    """Run ``mvmatch.cli.main`` with its progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _warp_epes(scene, paths) -> dict[str, float]:
    """Mean end-point error per written warp over covisible source pixels."""
    epes = {}
    for path in paths:
        warp = read_warp_file(path)
        gt = gt_warp(scene, warp.source_view, warp.target_view)
        covisible = gt.confidence > 0
        if covisible.any():
            err = np.linalg.norm(warp.targets - gt.targets, axis=-1)[covisible]
            epes[path.name] = float(err.mean())
    return epes


def output_digest(out: Path) -> dict[str, str]:
    """sha256 of every file an operation wrote, by path relative to ``out``."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("group-planar-168", "planar", views=5, image_size=168,
             config={"matcher_samples": 800, "track_tokens": 128, "base_resolution": 168},
             epe_bound_px=2.0),
    Workload("coarse-planar-672", "planar", views=5, image_size=672,
             config={"strides": (8,), "upsample_factor": 8},
             epe_bound_px=3.0),
    # 800 samples into 128 tokens keep track building, whose cost varies with
    # each scene's visibility partitions, from dominating the time.
    Workload("scene-pc-48", "point-cloud", views=5, image_size=48,
             config={"matcher_samples": 800, "track_tokens": 128}),
)}

# A seed kept out of tuning, for later claims to be re-checked on.
HELD_OUT_SEED = 9001
