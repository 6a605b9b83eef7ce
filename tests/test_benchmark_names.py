"""The benchmark's tracer wraps mvmatch functions by name (``perfbench/tracing.py``).

A renamed or removed traced name fails here with AttributeError, not first in
a ``--trace 1`` benchmark run. One traced ``run_group`` also checks what the
refine-level wrapper reads (the state's level, the level weights' stride, the
result's warps and the provider's oracle).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTRUMENT = """
import mvmatch
from mvmatch import cli
from mvmatch.features import OracleFeatureProvider
from mvmatch.grouping import ImageGroup
from mvmatch.oracle import make_planar_scene
from tracing import Tracer, instrument, per_layer_metrics
tracer = Tracer()
instrument(tracer)
tracer.op = 0
scene = make_planar_scene(3, (32, 32), seed=1)
provider = OracleFeatureProvider(scene, dim=32, seed=1)
cli.run_group(ImageGroup(0, (1, 2)), provider, [], cli.init_matcher_params(seed=1))
metrics = per_layer_metrics(tracer, 1)
assert metrics["matcher.refine_level.L1.total_s"] > 0, metrics
assert metrics["matcher.refine_level.L1.moved_frac"] > 0, metrics
print(mvmatch.__file__)
"""


def test_tracer_finds_every_traced_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _INSTRUMENT], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()) == ROOT / "src" / "mvmatch" / "__init__.py"
