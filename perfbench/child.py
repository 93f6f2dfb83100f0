"""One benchmark process: import the package from the checkout and run a task.

    python3 perfbench/child.py PROBE_JSON TRACE(0|1) cli ARGS...
    python3 perfbench/child.py PROBE_JSON 0 info

Writes PROBE_JSON with the moment of the first call into a compute layer
(``time.monotonic``, shared by all processes on the machine) and, when
traced, the spans.  Exits with the task's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# Calls that start the compute phase; everything before them is set-up.
ENTRY_POINTS = [("cli", "landweber"), ("cli", "_crosscheck_table"),
                ("bvp", "solve_neumann_helmholtz")]


def main(argv) -> int:
    probe_path, traced, task, args = Path(argv[0]), argv[1] == "1", argv[2], argv[3:]
    sys.path.insert(0, str(SRC))
    tracer = None
    if traced:
        import tracing  # the script's own directory leads sys.path
        tracer = tracing.Tracer()
        import_span = tracer.open("cli.import")
    import sobolev_adjoint
    import sobolev_adjoint.cli
    if tracer is not None:
        tracer.close(import_span)
    if not Path(sobolev_adjoint.__file__).resolve().is_relative_to(SRC):
        print(f"sobolev_adjoint imported from {sobolev_adjoint.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 90

    probe: dict = {"first_compute": None}
    if task == "info":
        import numpy
        import scipy
        probe["versions"] = {"python": sys.version.split()[0],
                             "numpy": numpy.__version__, "scipy": scipy.__version__}
        probe_path.write_text(json.dumps(probe))
        return 0

    if tracer is not None:
        tracing.install(tracer)
    mods = {name: sys.modules["sobolev_adjoint." + name] for name in ("cli", "bvp")}
    for mod, attr in ENTRY_POINTS:
        fn = getattr(mods[mod], attr)

        def marked(*a, _fn=fn, **kw):
            if probe["first_compute"] is None:
                probe["first_compute"] = time.monotonic()
            return _fn(*a, **kw)
        setattr(mods[mod], attr, marked)

    run = lambda: sobolev_adjoint.cli.main(args)
    if tracer is not None:
        run = tracer.wrap("cli.main", run)
    rc = run()
    if tracer is not None:
        probe["spans"] = tracer.spans
    probe_path.write_text(json.dumps(probe))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
