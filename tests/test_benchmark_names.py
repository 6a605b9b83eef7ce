"""The benchmark's tracer wraps mvmatch functions by name (``perfbench/tracing.py``).

A renamed or removed traced name fails here with AttributeError, not first in
a ``--trace 1`` benchmark run; a removed name that
``benchmarks/bench_kernels.py``, ``benchmarks/workload_digests.py`` or
``benchmarks/match_memory.py`` imports fails here with ImportError. One
traced ``run_group`` also checks what the refine-level wrapper reads (the
state's level, the level weights' stride, the result's warps and the
provider's oracle). The workloads' configs, written by
``perfbench/workloads.py``, must load with ``load_config``.
"""

import json
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


_WORKLOAD_CONFIGS = """
import tempfile
from pathlib import Path
from mvmatch.config import load_config
from workloads import WORKLOADS
for name, workload in WORKLOADS.items():
    with tempfile.TemporaryDirectory() as tmp:
        workload.setup(Path(tmp), 1)
        load_config(Path(tmp) / "config.json")
    print(name)
"""


def test_every_workload_config_loads():
    # the workloads write their configs with PipelineConfig, which load_config
    # does not check; a value it rejects would show only as failed runs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _WORKLOAD_CONFIGS], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert done.stdout.split() == [w["name"] for w in declared]


def test_kernel_benchmark_imports():
    # run_name "bench" runs each script's imports and definitions, not main
    for name in ("bench_kernels.py", "workload_digests.py", "match_memory.py"):
        script = ROOT / "benchmarks" / name
        done = subprocess.run(
            [sys.executable, "-c",
             f"import runpy; runpy.run_path({str(script)!r}, run_name='bench')"],
            capture_output=True, text=True)
        assert done.returncode == 0, f"{name}: {done.stderr}"
