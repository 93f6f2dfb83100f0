"""In-memory spans around the public functions of each sobolev_adjoint module.

The wrappers are installed from outside the package: every module attribute
that is bound to a traced function is replaced, so that names imported with
``from .core import fft_forward`` are traced as well as ``core.fft_forward``.
A span is ``[name, start, end, parent, meta]``; ``parent`` is the index of the
enclosing span, or -1.  Layers are the prefix of the span name.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

# (module, attribute, span name); the layer is the span name's prefix.
FUNCTIONS = [
    ("core", "fft_forward", "core.fft"),
    ("core", "fft_inverse", "core.fft"),
    ("multiplier", "adjoint_embedding", "multiplier.smooth"),
    ("multiplier", "sobolev_inner", "multiplier.inner"),
    ("radon", "write_pgm", "radon.io"),
    ("radon", "write_csv", "radon.io"),
    ("radon", "shepp_logan", "radon.phantom"),
    ("radon", "smooth_phantom", "radon.phantom"),
    ("inverse", "add_noise", "inverse.noise"),
    ("inverse", "estimate_operator_norm", "inverse.power"),
    ("inverse", "landweber", "inverse.landweber"),
    ("kernel", "periodized_kernel_samples", "kernel.lattice"),
    ("kernel", "convolve_adjoint", "kernel.convolve"),
    ("bvp", "solve_neumann_helmholtz", "bvp.solve"),
    ("bvp", "solve_dirichlet_poisson_2d", "bvp.solve"),
    ("bvp", "solve_1d_order2m", "bvp.solve"),
    ("bvp", "solve_torus_helmholtz", "bvp.solve"),
    ("bvp", "variational_gap", "bvp.check"),
    ("bvp", "mass_inner", "bvp.check"),
    ("bvp", "h1_inner", "bvp.check"),
    ("spectral", "svd_from_multiplier", "spectral.svd"),
    ("discrete", "assemble", "discrete.assemble"),
    ("discrete", "projected_adjoint", "discrete.apply"),
    ("wavelet", "fwt", "wavelet.apply"),
    ("wavelet", "ifwt", "wavelet.apply"),
    ("wavelet", "adjoint_embedding_wavelet", "wavelet.apply"),
]

# (module, class, method, span name)
METHODS = [
    ("radon", "RadonOperator", "__init__", "radon.build"),
    ("radon", "RadonOperator", "forward", "radon.forward"),
    ("radon", "RadonOperator", "adjoint", "radon.adjoint"),
    ("spectral", "SingularSystem", "apply_adjoint", "spectral.apply"),
]

LAYERS = ("cli", "core", "multiplier", "radon", "inverse", "kernel", "bvp",
          "spectral", "discrete", "wavelet")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, meta=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if meta is not None:
                self.spans[idx][4] = meta(args, kwargs)
            return out
        return traced


def _build_meta(args, kwargs):
    mat = args[0].matrix
    return {"nnz": int(mat.nnz), "rows": int(mat.shape[0]),
            "cols": int(mat.shape[1])}


def _io_meta(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


_META = {"radon.build": _build_meta, "radon.io": _io_meta}


def rebind(old, new) -> None:
    """Point every sobolev_adjoint module attribute bound to ``old`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if name != "sobolev_adjoint" and not name.startswith("sobolev_adjoint."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    pkg = "sobolev_adjoint."
    for mod, attr, span in FUNCTIONS:
        orig = getattr(sys.modules[pkg + mod], attr)
        rebind(orig, tracer.wrap(span, orig, _META.get(span)))
    for mod, cls_name, meth, span in METHODS:
        cls = getattr(sys.modules[pkg + mod], cls_name)
        setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), _META.get(span)))


# -- aggregation (run in the benchmark process over the written spans) ----------

def self_times(spans) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _nearest(spans, idx: int, names) -> int:
    """Index of the closest enclosing span named in ``names``, or -1."""
    p = spans[idx][3]
    while p >= 0 and spans[p][0] not in names:
        p = spans[p][3]
    return p


def summarize(processes) -> tuple[dict, dict]:
    """Per-layer figures of one traced round, and the durations of each span.

    ``processes`` is a list of (spans, wall_s) pairs, one per child process.
    """
    layer_self = dict.fromkeys(LAYERS, 0.0)
    span_self: dict[str, float] = {}
    span_calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    wall = 0.0
    nnz = matvec_bytes = io_bytes = 0
    iterations = power_iters = useful = matvecs = 0
    stop_indices = []
    for spans, wall_s in processes:
        wall += wall_s
        selfs = self_times(spans)
        per_op_bytes = 0
        per_solve: dict[int, int] = {}
        for i, (name, start, end, parent, meta) in enumerate(spans):
            layer_self[name.split(".", 1)[0]] += selfs[i]
            span_self[name] = span_self.get(name, 0.0) + selfs[i]
            span_calls[name] = span_calls.get(name, 0) + 1
            durations.setdefault(name, []).append(end - start)
            if name == "radon.build":
                nnz += meta["nnz"]
                # CSR matvec traffic: values + column indices + row pointers,
                # the input vector and the output vector, all read or written once
                per_op_bytes = (12 * meta["nnz"] + 4 * (meta["rows"] + 1)
                                + 8 * (meta["rows"] + meta["cols"]))
            elif name == "radon.io":
                io_bytes += meta["bytes"]
            elif name in ("radon.forward", "radon.adjoint"):
                matvecs += 1
                matvec_bytes += per_op_bytes
                owner = _nearest(spans, i, ("inverse.power", "inverse.landweber"))
                if owner < 0:
                    continue
                if spans[owner][0] == "inverse.power":
                    power_iters += name == "radon.forward"
                else:
                    useful += 1
                    if name == "radon.forward":
                        per_solve[owner] = per_solve.get(owner, 0) + 1
        # one forward for the initial residual, one per iteration after it
        for solve, forwards in sorted(per_solve.items()):
            iterations += forwards - 1
            stop_indices.append(forwards - 1)
    covered = sum(layer_self.values())

    def median_us(name):
        vals = durations.get(name)
        return 1e6 * statistics.median(vals) if vals else 0.0

    def total(name):
        return sum(durations.get(name, ()), 0.0)

    out = {f"{layer}.self_share": layer_self[layer] / wall for layer in LAYERS}
    out.update({
        "trace.wall_s": wall,
        "trace.coverage": covered / wall,
        "cli.import_s": span_self.get("cli.import", 0.0),
        "cli.self_s": span_self.get("cli.main", 0.0),
        "core.fft_calls": span_calls.get("core.fft", 0),
        "core.fft_s": span_self.get("core.fft", 0.0),
        "multiplier.smooth_calls": span_calls.get("multiplier.smooth", 0),
        "multiplier.smooth_us": median_us("multiplier.smooth"),
        "multiplier.inner_calls": span_calls.get("multiplier.inner", 0),
        "multiplier.inner_s": total("multiplier.inner"),
        "radon.build_s": total("radon.build"),
        "radon.nnz": nnz,
        "radon.forward_calls": span_calls.get("radon.forward", 0),
        "radon.forward_us": median_us("radon.forward"),
        "radon.adjoint_calls": span_calls.get("radon.adjoint", 0),
        "radon.adjoint_us": median_us("radon.adjoint"),
        "radon.matvec_bytes": matvec_bytes,
        "radon.io_s": total("radon.io"),
        "radon.io_bytes": io_bytes,
        "inverse.iterations": iterations,
        "inverse.power_iters": power_iters,
        "inverse.self_s": layer_self["inverse"],
        "inverse.useful_matvec_ratio": useful / matvecs if matvecs else 0.0,
        "kernel.lattice_s": total("kernel.lattice"),
        "kernel.convolve_calls": span_calls.get("kernel.convolve", 0),
        "kernel.convolve_s": total("kernel.convolve"),
        "bvp.solve_calls": span_calls.get("bvp.solve", 0),
        "bvp.solve_s": total("bvp.solve"),
        "bvp.check_s": total("bvp.check"),
        "spectral.svd_s": span_self.get("spectral.svd", 0.0),
        "discrete.assemble_s": total("discrete.assemble"),
        "discrete.apply_s": total("discrete.apply"),
        "wavelet.calls": span_calls.get("wavelet.apply", 0),
        "wavelet.apply_s": layer_self["wavelet"],
        "stop_indices": stop_indices,
    })
    return out, durations
