"""Every CLI output pinned by its sha256 in ``golden.json``, and the same
bytes under one or two BLAS threads, on one CPU or on all.

One small run per experiment, plus ``selftest``'s stdout, is run in-process
from a scratch directory with a relative ``--out``, so that ``summary.json``'s
``out_dir`` is the same on every machine.  A declared output change
regenerates the file in the same change:

    PYTHONPATH=src python tests/test_golden.py

which prints the keys whose digest moved against the file it replaces, one
a line, or ``none``.

The digests hold for the recorded python/numpy/scipy versions; under other
versions a mismatch says so.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import sobolev_adjoint
from sobolev_adjoint.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

RUNS = {
    "radon": "experiment=RadonRecon\nn=32\nn_offsets=48\nn_angles=30\n"
             "phantom=smooth\ns=0.5\nseed=3\n",
    "crosscheck": "experiment=CrossCheck1D\nn=256\nseed=3\n",
    "smoothing2d": "experiment=AdjointSmoothing2D\nn=65\nseed=3\n",
    "norm_equivalence": "experiment=NormEquivalence\n",
    "kernel_asymptotics": "experiment=KernelAsymptotics\n",
}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def output_digests() -> dict:
    """sha256 of every output file, keyed 'run/file', run in the current
    directory."""
    digests = {}
    for name, text in RUNS.items():
        Path(f"{name}.cfg").write_text(text, encoding="ascii")
        code = main(["run", "--config", f"{name}.cfg", "--out", name])
        assert code == 0, f"{name} exited {code}"
        for path in sorted(Path(name).iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["selftest"]) == 0
    digests["selftest/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


def test_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    monkeypatch.chdir(tmp_path)
    digests = output_digests()
    moved = sorted(key for key in golden["sha256"].keys() | digests.keys()
                   if golden["sha256"].get(key) != digests.get(key))
    note = ("" if golden["versions"] == versions() else
            f"; the digests were recorded under {golden['versions']}, "
            f"this run has {versions()}")
    assert not moved, f"outputs moved: {moved}{note}"


# a desk RadonRecon, whose products take two map groups on two CPUs and one
# on one (29 steps), and a CrossCheck1D
THREAD_RUNS = {
    "radon": "experiment=RadonRecon\nn=64\nn_offsets=100\nn_angles=60\n"
             "phantom=smooth\ns=0\nseed=4\n",
    "crosscheck": "experiment=CrossCheck1D\nn=256\nseed=4\n",
}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="CPU affinity cannot be set on this platform")
@pytest.mark.parametrize("name", sorted(THREAD_RUNS))
def test_outputs_do_not_depend_on_threads_or_cpus(tmp_path, name):
    # {1, 2} BLAS threads x {one CPU, every CPU of this process}, set on each
    # child only; the relative --out keeps summary.json's out_dir the same
    cpus = os.sched_getaffinity(0)
    src = Path(sobolev_adjoint.__file__).resolve().parents[1]
    outputs = {}
    for threads in ("1", "2"):
        for mask in ({min(cpus)}, cpus):
            cwd = tmp_path / f"threads{threads}_cpus{len(mask)}"
            cwd.mkdir()
            (cwd / "run.cfg").write_text(THREAD_RUNS[name], encoding="ascii")
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "sobolev_adjoint.cli", "run",
                            "--config", "run.cfg", "--out", "out"], cwd=cwd, env=env,
                           check=True, timeout=120,
                           preexec_fn=lambda mask=mask: os.sched_setaffinity(0, mask))
            outputs[cwd.name] = {p.name: p.read_bytes() for p in (cwd / "out").iterdir()}
    first, *rest = outputs.values()
    assert len(first) >= 2
    assert all(other == first for other in rest), \
        [key for key, other in outputs.items() if other != first]


if __name__ == "__main__":
    before = json.loads(GOLDEN.read_text(encoding="ascii"))["sha256"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            doc = {"versions": versions(), "sha256": output_digests()}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(doc['sha256'])} digests to {GOLDEN}", file=sys.stderr)
    moved = sorted(key for key in before.keys() | doc["sha256"].keys()
                   if before.get(key) != doc["sha256"].get(key))
    print("\n".join(moved) or "none")
