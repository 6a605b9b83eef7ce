"""The benchmark's tracer wraps mvmatch functions by name (``perfbench/tracing.py``).

A renamed or removed traced name fails here with AttributeError, not first in
a ``--trace 1`` benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTRUMENT = """
import mvmatch
from tracing import Tracer, instrument
instrument(Tracer())
print(mvmatch.__file__)
"""


def test_tracer_finds_every_traced_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _INSTRUMENT], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()) == ROOT / "src" / "mvmatch" / "__init__.py"
