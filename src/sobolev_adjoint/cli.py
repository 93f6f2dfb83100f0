"""Experiment runner: cross-validation of the smoothing backends and the
tomography reproduction, driven by key=value config files.

Exit codes: 0 success, 2 config error (naming its key, also a size whose
largest array passes the shared cap, or a config file that cannot be read
as UTF-8, or an ``out_dir`` that cannot be made or an output in it that
cannot be written), 3 numerical failure (also an allocation that fails),
4 stopping rule never satisfied.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import bvp, discrete, kernel, multiplier, radon, spectral, wavelet
from .core import (Domain, GridFn, _require_counts, _require_nonnegative_finite,
                   check_adjoint, l2_norm)
from .inverse import (
    DiscrepancyStop,
    InverseProblem,
    StoppingRuleNotMet,
    add_noise,
    landweber,
)
from .multiplier import NormVariant, SobolevSpec

PHANTOMS = ("smooth", "shepp_logan")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    backend: str = "multiplier"
    s: float = 0.5
    n: int = 64
    n_offsets: int = 100
    n_angles: int = 60
    noise_rel: float = 0.10
    tau: float = 1.01
    step: float = 0.0  # 0 -> automatic 0.9/||A||^2
    max_iter: int = 20000
    seed: int = 1234
    phantom: str = "smooth"
    out_dir: str = "out"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}

_CROSSCHECK_KMAX = 16  # CrossCheck1D's band |k| <= 16; its SVD and Gram span it
# the cap on each experiment's largest array, in entries: RadonRecon's matrix bound
# is ~21.9M at full scale, ~174M at twice that along every axis (401, 600, 360)
_MAX_ENTRIES = 200_000_000


def _convert(key: str, raw: str, line_no: int):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: cannot parse {key}={raw!r}") from exc


def _largest_array(cfg: RunConfig) -> int:
    """Entries in the experiment's largest array: integer arithmetic, no allocation."""
    n = cfg.n
    if cfg.experiment == "CrossCheck1D":  # the kernel lattice's 2 ceil(radius n) + 1
        return 2 * kernel._MAX_RADIUS * n + 1  # samples outgrow the 33-row bases
    if cfg.experiment == "AdjointSmoothing2D":  # the DCT-I's n x 2(n - 1) extension
        return n * 2 * (n - 1)
    if cfg.experiment == "RadonRecon":  # the n x n image, or the matrix bound
        return max(n * n, radon.RadonGeometry(n, cfg.n_offsets, cfg.n_angles).entry_bound)
    return 0


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; "
                          f"choose one of {', '.join(EXPERIMENTS)}")
    if cfg.backend != "multiplier":
        raise ConfigError(f"backend {cfg.backend!r} is not supported: no experiment "
                          "selects its smoother by this key, so only 'multiplier' "
                          "is accepted")
    if cfg.phantom not in PHANTOMS:
        raise ConfigError(f"unknown phantom {cfg.phantom!r}")
    try:  # each message names its key: step=0 selects the automatic step
        _require_nonnegative_finite(s=cfg.s, noise_rel=cfg.noise_rel, step=cfg.step)
        DiscrepancyStop(cfg.tau)
        _require_counts(2, n=cfg.n)
        _require_counts(1, n_offsets=cfg.n_offsets, n_angles=cfg.n_angles,
                        max_iter=cfg.max_iter)
        _require_counts(0, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.experiment == "CrossCheck1D" and cfg.s == 0:
        raise ConfigError("s=0 leaves CrossCheck1D's kernel route nothing to "
                          "smooth: use s > 0")
    if cfg.experiment == "CrossCheck1D" and cfg.n <= 2 * _CROSSCHECK_KMAX:
        raise ConfigError(f"CrossCheck1D needs n > {2 * _CROSSCHECK_KMAX}, got n={cfg.n}")
    if cfg.experiment == "RadonRecon":
        if cfg.n < 16:
            raise ConfigError(f"n={cfg.n} is too small for RadonRecon: "
                              "the phantoms need n >= 16")
        if cfg.noise_rel == 0:
            raise ConfigError("noise_rel=0 leaves RadonRecon's discrepancy "
                              "stopping without a noise level: use noise_rel > 0")
    entries = _largest_array(cfg)
    if entries > _MAX_ENTRIES:
        sizes = (f"n={cfg.n}, n_offsets={cfg.n_offsets}, n_angles={cfg.n_angles}"
                 if cfg.experiment == "RadonRecon" else f"n={cfg.n}")
        raise ConfigError(f"{sizes}: {cfg.experiment}'s largest array has "
                          f"{entries:,} entries, above the cap of {_MAX_ENTRIES:,}")
    if not cfg.out_dir:
        raise ConfigError("out_dir is empty: name the output directory")
    return cfg


def parse_config(text: str, experiment: str | None = None) -> RunConfig:
    """Parse key=value lines ('#' comments) into a validated RunConfig."""
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = _convert(key, raw, line_no)
    if experiment is not None:
        values["experiment"] = experiment
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    _, defaults = _EXPERIMENTS.get(values["experiment"], (None, {}))
    return _validate(RunConfig(**{**defaults, **values}))


# -- backends for the 1D cross check ---------------------------------------------

def _bandlimited(dom: Domain, kmax: int, seed: int) -> GridFn:
    rng = np.random.default_rng(seed)
    x = dom.axes()[0]
    length = dom.lengths[0]
    vals = np.zeros(dom.grid_size)
    for k in range(1, kmax + 1):
        a, b = rng.standard_normal(2)
        vals += a * np.cos(2 * np.pi * k * x / length) \
            + b * np.sin(2 * np.pi * k * x / length)
    return GridFn(dom, vals)


def _crosscheck_table(n: int, s: float, seed: int):
    dom = Domain.torus(1, n)
    spec = SobolevSpec(s, NormVariant.BESSEL_V1)
    u = _bandlimited(dom, _CROSSCHECK_KMAX, seed)
    ops = {"multiplier": multiplier.adjoint_linop(dom, spec),
           "kernel": kernel.adjoint_linop(dom, s)}
    if s == int(s) and int(s) in (1, 2):
        ops["bvp"] = bvp.adjoint_linop(dom, int(s))
    svd = spectral.svd_from_multiplier(spec, dom, 2 * _CROSSCHECK_KMAX + 1)
    ops["svd"] = svd.adjoint_linop()
    basis, _ = discrete.fourier_mode_basis(dom, _CROSSCHECK_KMAX)
    ops["discrete"] = discrete.adjoint_linop(discrete.assemble(
        dom, basis, basis, lambda d, a, b: multiplier.sobolev_gram(d, a, b, spec)))
    results = {name: GridFn(dom, op.apply(u).values.real) for name, op in ops.items()}
    scale = l2_norm(u)
    names = list(results)
    rows = [(a, b, l2_norm(results[a] - results[b]) / scale)
            for i, a in enumerate(names) for b in names[i + 1:]]
    # the kernel and BVP routes: 1e-3 of u and 1e-2 of the smoothed output E u,
    # the tighter once ||E u|| < ||u|| / 10, as for s >= 0.5 here
    kernel_bvp_gate = min(1e-3, 1e-2 * l2_norm(results["multiplier"]) / scale)
    gates = {("multiplier", "kernel"): kernel_bvp_gate,
             ("multiplier", "svd"): 1e-10,
             ("multiplier", "discrete"): 1e-12,
             ("multiplier", "bvp"): kernel_bvp_gate}
    failures = [f"{a} vs {b}: {rel:.3e}" for a, b, rel in rows
                if (a, b) in gates and rel > gates[(a, b)]]
    return rows, failures


def _run_crosscheck(cfg: RunConfig, out: Path) -> int:
    rows, failures = _crosscheck_table(cfg.n, cfg.s, cfg.seed)
    _write_table(out / "crosscheck.csv", "crosscheck-1d: pairwise relative L2 "
                 "discrepancies between smoothing backends",
                 "backend_a,backend_b,rel_l2", "{},{},{:.17g}\n", rows)
    _summary(out, cfg, {
        "pairs": {f"{a}|{b}": rel for a, b, rel in rows},
        "failures": failures,
    })
    for failure in failures:
        print(f"backends disagree: {failure}", file=sys.stderr)
    return 3 if failures else 0


def _run_smoothing_2d(cfg: RunConfig, out: Path) -> int:
    dom = Domain.rectangle(1.0, 1.0, cfg.n, cfg.n)
    X, Y = np.meshgrid(*dom.axes(), indexing="ij")
    rng = np.random.default_rng(cfg.seed)
    bumps = (np.exp(-((X - 0.35) ** 2 + (Y - 0.6) ** 2) / 0.01)
             + 0.7 * np.exp(-((X - 0.7) ** 2 + (Y - 0.3) ** 2) / 0.005))
    u = GridFn(dom, (bumps + 0.2 * rng.standard_normal(X.shape)).ravel())
    z = bvp.solve_neumann_helmholtz(u)
    radon.write_pgm(out / "input.pgm", u.to_array().real,
                    comment="adjoint-smoothing-2d: input")
    radon.write_pgm(out / "smoothed.pgm", z.to_array().real,
                    comment="adjoint-smoothing-2d: order-1 smoothing via Neumann solve")
    spec2 = bvp.BvpSpec(1, bvp.BoundaryKind.NEUMANN_LIKE, dom)
    _summary(out, cfg, {
        "input_l2": l2_norm(u),
        "smoothed_l2": l2_norm(z),
        "variational_gap": bvp.variational_gap(z, u, spec2),
    })
    return 0


def _run_radon(cfg: RunConfig, out: Path) -> int:
    geom = radon.RadonGeometry(cfg.n, cfg.n_offsets, cfg.n_angles)
    op = radon.RadonOperator(geom)
    linop = op.as_linop()
    ph = (radon.smooth_phantom(cfg.n, seed=cfg.seed) if cfg.phantom == "smooth"
          else radon.shepp_logan(cfg.n))
    y = op.forward(ph)
    ydelta, delta = add_noise(y, cfg.noise_rel, seed=cfg.seed)
    radon.write_pgm(out / "phantom.pgm", ph.to_array(),
                    comment=f"radon-recon: {cfg.phantom} ground truth")
    radon.write_csv(out / "sinogram.csv", ydelta.to_array(),
                    header="radon-recon: noisy sinogram (offsets x angles)")
    err_spec = SobolevSpec(cfg.s if cfg.s > 0 else 0.5, NormVariant.TORUS_S)
    report = {"delta": delta, "tau": cfg.tau}
    errors = {}
    for s in dict.fromkeys((0.0, cfg.s)):  # s=0 needs one solve, not two
        tag = f"s{s:g}".replace(".", "p")
        emb = multiplier.adjoint_linop(linop.domain, SobolevSpec(s)) if s > 0 else None
        problem = InverseProblem(linop, ydelta, noise_level=delta, embedding=emb)
        step = cfg.step if cfg.step > 0 else None
        u, log = landweber(problem, step=step, max_iter=cfg.max_iter,
                           stop=DiscrepancyStop(cfg.tau))
        rec = GridFn(u.domain, u.values.real)
        diff = rec - ph
        rel_l2 = l2_norm(diff) / l2_norm(ph)
        rel_hs = (multiplier.sobolev_norm(diff, err_spec)
                  / multiplier.sobolev_norm(ph, err_spec))
        errors[s] = rel_hs
        radon.write_pgm(out / f"recon_{tag}.pgm", rec.to_array().real,
                        comment=f"radon-recon: landweber reconstruction, order {s:g}")
        radon.write_csv(out / f"residuals_{tag}.csv",
                        np.array(log.residuals)[:, None],
                        header=f"radon-recon: residual history, order {s:g}")
        report[tag] = {
            "stop_index": len(log.residuals) - 1,
            "final_residual": log.residuals[-1],
            "residual_history": f"residuals_{tag}.csv",
            "rel_error_l2": rel_l2,
            "rel_error_sobolev": rel_hs,
        }
    if cfg.s > 0:
        report["sobolev_error_reduction"] = (errors[0.0] - errors[cfg.s]) / errors[0.0]
    _summary(out, cfg, report)
    return 0


def _run_norm_equivalence(cfg: RunConfig, out: Path) -> int:
    orders = (1.0, 1.5, 2.0, 3.0)
    rows = []
    ok = True
    for s in orders:
        v1 = SobolevSpec(s, NormVariant.BESSEL_V1)
        v2 = SobolevSpec(s, NormVariant.BESSEL_V2)
        for k in range(0, 65):
            w1 = multiplier.sobolev_weight(k, v1)
            w2 = multiplier.sobolev_weight(k, v2)
            lo, hi = 0.5 * w2, 2.0 ** (s - 1) * w2
            ok = ok and (lo <= w1 <= hi)
            rows.append((s, k, w1 / lo - 1.0, hi / w1 - 1.0))
    _write_table(out / "margins.csv", "norm-equivalence: sandwich margins per frequency",
                 "s,k,lower_margin,upper_margin", "{},{},{:.17g},{:.17g}\n", rows)
    _summary(out, cfg, {
        "holds": ok,
        "min_lower_margin": min(r[2] for r in rows),
        "min_upper_margin": min(r[3] for r in rows),
    })
    return 0 if ok else 3


def _run_kernel_asymptotics(cfg: RunConfig, out: Path) -> int:
    cases = [
        ("large_x_n1_s2", kernel.KernelSpec(2.0, 1),
         kernel.AsymptoticRegime.LARGE_X, np.array([20.0]), 0.05),
        ("small_x_n2_s1", kernel.KernelSpec(1.0, 2),
         kernel.AsymptoticRegime.SMALL_X_S_LT_N, np.array([1e-3]), 0.05),
        ("small_x_n1_s1", kernel.KernelSpec(1.0, 1),
         kernel.AsymptoticRegime.SMALL_X_S_EQ_N, np.array([1e-4]), 0.10),
        ("const_n1_s2", kernel.KernelSpec(2.0, 1),
         kernel.AsymptoticRegime.SMALL_X_S_GT_N, np.array([1e-3]), 0.05),
    ]
    rows = []
    ok = True
    for name, spec, regime, xs, threshold in cases:
        dev = kernel.kernel_asymptotics_check(spec, regime, xs)
        rows.append((name, dev, threshold))
        ok = ok and dev < threshold
    _write_table(out / "ratios.csv", "kernel-asymptotics: max ratio deviation per regime",
                 "case,deviation,threshold", "{},{:.17g},{}\n", rows)
    _summary(out, cfg, {name: dev for name, dev, _ in rows} | {"holds": ok})
    return 0 if ok else 3


def _write_table(path: Path, comment: str, header: str, line: str, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {comment}\n{header}\n")
        fh.writelines(line.format(*row) for row in rows)


def _summary(out: Path, cfg: RunConfig, payload: dict) -> None:
    doc = {"config": {f.name: getattr(cfg, f.name) for f in fields(RunConfig)},
           "results": payload}
    with open(out / "summary.json", "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


# each experiment's runner and the RunConfig defaults it overrides
_EXPERIMENTS = {
    "CrossCheck1D": (_run_crosscheck, {"n": 1024, "s": 1.0}),
    "AdjointSmoothing2D": (_run_smoothing_2d, {"n": 65, "s": 1.0}),
    "RadonRecon": (_run_radon, {"n": 64, "s": 0.5}),
    "NormEquivalence": (_run_norm_equivalence, {}),
    "KernelAsymptotics": (_run_kernel_asymptotics, {}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    try:  # a file at the path or above it, or no permission
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir={cfg.out_dir!r} cannot be made: {exc}") from exc
    runner, _ = _EXPERIMENTS[cfg.experiment]
    try:
        return runner(cfg, out)
    except StoppingRuleNotMet as exc:
        print(f"stopping rule not satisfied: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # only the outputs touch files: the error names the file
        raise ConfigError(f"an output in out_dir={cfg.out_dir!r} cannot be "
                          f"written: {exc}") from exc
    except (ArithmeticError, MemoryError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def selftest() -> int:
    """Compact cross-representation suite; prints one pass/fail line each."""
    checks = []

    rows, failures = _crosscheck_table(512, 1.0, seed=7)
    checks.append(("crosscheck-1d backends", not failures))

    dom = Domain.torus(1, 64)
    atom_ok = True
    for j in (0, 2):
        approx, details = wavelet.fwt(GridFn(dom, np.zeros(64)), wavelet.DB4, 4)
        details[j][1] = 1.0  # the analysis of zero is zero: one unit coefficient
        atom = wavelet.ifwt(dom, wavelet.DB4, approx, details)
        out = wavelet.adjoint_embedding_wavelet(atom, 1.0, wavelet.DB4, 4)
        atom_ok &= bool(np.max(np.abs(out.values - 2.0 ** (-2 * j) * atom.values))
                        < 1e-12)
    checks.append(("wavelet atom eigenvalues", atom_ok))

    idom = Domain.interval(0.0, 1.0, 129)
    gap = check_adjoint(bvp.adjoint_linop(idom, 1), trials=1, seed=0)
    checks.append(("bvp adjoint identity", gap < 1e-9))

    geom = radon.RadonGeometry(16, 24, 8)
    defect = check_adjoint(radon.RadonOperator(geom).as_linop(), trials=10, seed=3)
    checks.append(("radon adjoint defect", defect < 1e-10))

    width = max(len(name) for name, _ in checks)
    all_ok = True
    for name, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
        all_ok &= ok
    return 0 if all_ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sobolev-adjoint",
        description="Smoothing-operator cross-validation and tomography "
                    "experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, type=Path)
    run_p.add_argument("--experiment", choices=EXPERIMENTS)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", type=Path)
    sub.add_parser("selftest", help="run the cross-representation self test")
    args = parser.parse_args(argv)

    if args.command == "selftest":
        return selftest()
    try:  # an OSError here is the config file's: run() makes its own ConfigErrors
        cfg = parse_config(args.config.read_text("utf-8"), args.experiment)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = str(args.out)
        if overrides:
            cfg = _validate(replace(cfg, **overrides))
        return run(cfg)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
