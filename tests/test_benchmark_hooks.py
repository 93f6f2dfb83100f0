"""The benchmark's traced child finds every package name it wraps.

``perfbench/tracing.py`` and ``perfbench/child.py`` look the traced
functions, methods and entry points up by name, so renaming or deleting one
breaks the benchmark run; these tests make it break the suite first.  Its
stop index counts the forward spans of each solve, which holds only while
worker threads open no spans.
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


def test_traced_desk_stop_index_counts_forwards_on_two_threads(tmp_path):
    # the desk products run on two threads; the tracer's span stack is not
    # thread-safe, so only the calling thread may open spans
    probe, out = tmp_path / "probe.json", tmp_path / "out"
    cfg = tmp_path / "task.cfg"
    cfg.write_text("experiment=RadonRecon\nn=64\nn_offsets=100\nn_angles=60\n"
                   "phantom=shepp_logan\ns=0\nnoise_rel=0.1\nseed=0\n")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(CHILD), str(probe), "1", "cli", "run",
                           "--config", str(cfg), "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spans = json.loads(probe.read_text())["spans"]

    def in_landweber(i):  # and not in its norm estimate
        while i >= 0 and spans[i][0] not in ("inverse.landweber", "inverse.power"):
            i = spans[i][3]
        return i >= 0 and spans[i][0] == "inverse.landweber"

    forwards = sum(name == "radon.forward" and in_landweber(i)
                   for i, (name, *_) in enumerate(spans))
    summary = json.loads((out / "summary.json").read_text())
    # perfbench's rule: one forward for the zero start, one per iteration
    assert summary["results"]["s0"]["stop_index"] == forwards - 1 > 0
