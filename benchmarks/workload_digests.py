"""Print the sha256 of every file the benchmark workloads write, as sorted JSON.

Run:  python benchmarks/workload_digests.py > digests.json

Each workload of ``perfbench/workloads.py`` (imported, not changed) writes
its inputs and runs its operation at seeds 1, 2 and 9001 (the held-out
seed), and ``group-planar-168`` runs once more at ``residual_gain`` 0.05
and seed 1, so that the correlation volume, the conv head and MVFuse reach
its warps too. Each key is ``<workload>/<seed>/<path under the operation's
output directory>`` and each value ``workloads.output_digest``'s sha256. A
change meant to keep every output bit for bit prints the same JSON before
and after it; compare at OPENBLAS_NUM_THREADS=1 and at 2. A failed
operation stops the script with its exit code.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import HELD_OUT_SEED, WORKLOADS, output_digest  # noqa: E402

SEEDS = (1, 2, HELD_OUT_SEED)
GAIN = 0.05


def runs():
    """(label, workload, seed) of every operation whose files are digested."""
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            yield f"{name}/{seed}", workload, seed
    planar = WORKLOADS["group-planar-168"]
    gained = dataclasses.replace(planar, config={**planar.config, "residual_gain": GAIN})
    yield f"{planar.name}+gain{GAIN}/1", gained, 1


def digests() -> dict[str, str]:
    found = {}
    for label, workload, seed in runs():
        with tempfile.TemporaryDirectory() as tmp:
            work, out = Path(tmp) / "work", Path(tmp) / "out"
            work.mkdir()
            workload.setup(work, seed)
            code = workload.op(work, out, seed)
            if code:
                sys.exit(f"{label}: the operation exited with code {code}")
            found.update({f"{label}/{path}": digest
                          for path, digest in output_digest(out).items()})
    return found


def main():
    print(json.dumps(digests(), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
