"""Peak memory of the shipped ``match``: one in-process run at ``PipelineConfig()``.

Run:  python benchmarks/match_memory.py

Writes a 672 px planar scene with 5 views at seed 1 (``gen-scene``), then
runs ``match`` on it with the shipped config, whose default group is source
0 and targets 1-4, and prints one JSON line: the match's wall time, the
process's peak RSS (``ru_maxrss``) in MB, how many feature grids the
provider rendered, and the sha256 of each warp file written. The peak
includes the scene step, which is small. A run takes about 10 s on 2 CPUs;
compare runs of two checkouts in alternating pairs, since the host's speed
drifts between runs.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from mvmatch import cli  # noqa: E402
from mvmatch.features import OracleFeatureProvider  # noqa: E402

SEED = 1
VIEWS = 5


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code:
        sys.exit(f"{argv[0]} exited with code {code}")


def measure() -> dict:
    render = OracleFeatureProvider._render
    renders = 0

    def counting(provider, view, stride):
        nonlocal renders
        renders += 1
        return render(provider, view, stride)

    OracleFeatureProvider._render = counting
    try:
        with tempfile.TemporaryDirectory() as tmp:
            work, out = Path(tmp) / "work", Path(tmp) / "warps"
            _cli("gen-scene", "--kind", "planar", "--views", VIEWS, "--seed", SEED,
                 "--out", work)
            start = time.perf_counter()
            _cli("match", "--scene", work / "scene.json", "--seed", SEED, "--out", out)
            wall = time.perf_counter() - start
            warps = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.glob("*.mvwf"))}
    finally:
        OracleFeatureProvider._render = render
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"wall_s": round(wall, 3), "ru_maxrss_mb": round(peak_kb / 1024, 1),
            "renders": renders, "warps_sha256": warps}


def main():
    print(json.dumps(measure(), sort_keys=True))


if __name__ == "__main__":
    main()
