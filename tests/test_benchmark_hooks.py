"""The benchmark's traced child finds every package name it wraps.

``perfbench/tracing.py`` and ``perfbench/child.py`` look the traced
functions, methods and entry points up by name, so renaming or deleting one
breaks the benchmark run; this test makes it break the suite first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_traced_selftest_spans_every_layer_it_runs(tmp_path):
    probe = tmp_path / "probe.json"
    # no bytecode written into the checkout's perfbench/
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(CHILD), str(probe), "1", "cli", "selftest"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = {span[0] for span in json.loads(probe.read_text())["spans"]}
    assert {"radon.build", "radon.forward", "radon.adjoint", "bvp.solve",
            "spectral.svd"} <= names
