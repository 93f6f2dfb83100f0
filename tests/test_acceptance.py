"""End-to-end acceptance suite: one test per criterion, each printing a
pass/fail line with the measured figures (run with ``pytest -s`` to see
them on a green run).
"""

import time
from functools import partial

import numpy as np

from sobolev_adjoint.core import (
    Domain,
    GridFn,
    LinOp,
    check_adjoint,
    fft_forward,
    inner,
    l2_norm,
)
from sobolev_adjoint import bvp, discrete, kernel, multiplier, spectral, wavelet
from sobolev_adjoint.inverse import (
    DiscrepancyStop,
    InverseProblem,
    add_noise,
    landweber,
    landweber_hilbert_scale,
    tikhonov,
)
from sobolev_adjoint.multiplier import (
    NormVariant,
    SobolevSpec,
    adjoint_embedding,
    sobolev_norm,
    sobolev_weight,
)
from sobolev_adjoint.radon import (
    RadonGeometry,
    RadonOperator,
    shepp_logan,
    smooth_phantom,
)


def bandlimited(dom, kmax, seed):
    rng = np.random.default_rng(seed)
    x = dom.axes()[0]
    vals = np.zeros(dom.grid_size)
    for k in range(1, kmax + 1):
        a, b = rng.standard_normal(2)
        vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    return GridFn(dom, vals)


def diagonal_linop(domain, symbol):
    """Spectral multiplier operator with the given FFT-layout symbol."""
    def times(sym):
        return lambda u: GridFn(domain, np.fft.ifftn(
            fft_forward(u) * sym / np.prod(domain.spacing)).ravel())

    return LinOp(times(symbol), times(np.conj(symbol)), inner, inner, domain, domain)


def test_criterion_01_cross_representation_agreement():
    t0 = time.monotonic()
    s = 1.0
    spec = SobolevSpec(s, NormVariant.BESSEL_V1)
    dom = Domain.torus(1, 1024)
    u = bandlimited(dom, 16, seed=101)
    mult = multiplier.adjoint_linop(dom, spec)
    basis, _ = discrete.fourier_mode_basis(dom, 16)
    gram = discrete.assemble(dom, basis, basis,
                             partial(multiplier.sobolev_gram, spec=spec))
    ops = {"kernel": kernel.adjoint_linop(dom, s),
           "svd": spectral.svd_from_multiplier(spec, dom, 33).adjoint_linop(),
           "gram": discrete.adjoint_linop(gram)}
    ref = mult.apply(u)
    d_kernel, d_svd, d_gram = (l2_norm(GridFn(dom, op.apply(u).values.real) - ref)
                               / l2_norm(u) for op in ops.values())
    assert d_kernel < 1e-3  # multiplier vs kernel convolution
    assert d_svd < 1e-10  # multiplier vs SVD reconstruction
    assert d_gram < 1e-12  # multiplier vs Fourier-mode Gram path

    # multiplier vs finite-difference solve: O(h^2) with Richardson ratio 3.5-4.5
    fd_err = []
    for n in (512, 1024, 2048):
        dn = Domain.torus(1, n)
        un = bandlimited(dn, 16, seed=101)
        zn = bvp.solve_torus_helmholtz(un, 1)
        rn = adjoint_embedding(un, spec)
        fd_err.append(l2_norm(zn - rn) / l2_norm(un))
    ratios = [a / b for a, b in zip(fd_err, fd_err[1:])]
    assert all(3.5 < r < 4.5 for r in ratios)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: kernel {d_kernel:.2e} (<1e-3), "
          f"fd ratios {ratios[0]:.2f}/{ratios[1]:.2f} (3.5-4.5), "
          f"svd {d_svd:.2e} (<1e-10), gram {d_gram:.2e} (<1e-12), "
          f"{elapsed:.1f}s (<10s)")


def test_criterion_02_closed_form_kernels_and_asymptotics():
    t0 = time.monotonic()
    worst = 0.0
    for s in (2.0, 4.0):
        closed = kernel.KernelSpec(s, 1)  # N = 1, s in {2, 4}: the closed form
        for x in np.geomspace(0.02, 10.0, 50):
            a = kernel.kernel_eval(closed, x)
            # G_s from K_nu and Gamma (scipy.special), independent of the closed form
            b = (kernel.bessel_k((1 - s) / 2, x) * x ** ((s - 1) / 2)
                 / (2 ** ((s - 1) / 2) * np.sqrt(np.pi) * kernel.gamma_fn(s / 2)))
            worst = max(worst, abs(a - b) / a)
    assert worst < 1e-7

    devs = {
        "large": kernel.kernel_asymptotics_check(
            kernel.KernelSpec(2.0, 1),
            kernel.AsymptoticRegime.LARGE_X, np.array([20.0])),
        "s<N": kernel.kernel_asymptotics_check(
            kernel.KernelSpec(1.0, 2), kernel.AsymptoticRegime.SMALL_X_S_LT_N,
            np.array([1e-3])),
        "s=N": kernel.kernel_asymptotics_check(
            kernel.KernelSpec(1.0, 1), kernel.AsymptoticRegime.SMALL_X_S_EQ_N,
            np.array([1e-4])),
    }
    assert devs["large"] < 0.05 and devs["s<N"] < 0.05 and devs["s=N"] < 0.10
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: closed-vs-scipy.special {worst:.2e} (<1e-7), "
          f"asymptote deviations {devs['large']:.3f}/{devs['s<N']:.3f}/"
          f"{devs['s=N']:.3f}, {elapsed:.1f}s (<5s)")


def test_criterion_03_norm_equivalence_sandwich():
    t0 = time.monotonic()
    min_lower = min_upper = np.inf
    for s in (1.0, 1.5, 2.0, 3.0):
        v1 = SobolevSpec(s, NormVariant.BESSEL_V1)
        v2 = SobolevSpec(s, NormVariant.BESSEL_V2)
        for k in range(0, 65):
            w1 = sobolev_weight(k, v1)
            w2 = sobolev_weight(k, v2)
            lo, hi = 0.5 * w2, 2.0 ** (s - 1) * w2
            assert lo <= w1 <= hi
            if k > 0:
                min_lower = min(min_lower, w1 / lo - 1.0)
                min_upper = min(min_upper, hi / w1 - 1.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS: sandwich holds for s in {{1,1.5,2,3}}, |k|<=64; "
          f"strictness margins lower {min_lower:.2e}, upper {min_upper:.2e}, "
          f"{elapsed:.2f}s (<1s)")


def test_criterion_04_adjointness_everywhere():
    dom = Domain.torus(1, 64)
    spec = SobolevSpec(1.0, NormVariant.TORUS_S)
    mult = multiplier.adjoint_linop(dom, spec)
    basis, _ = discrete.fourier_mode_basis(dom, 4)
    ops = {
        "multiplier": (mult, 11),
        "wavelet": (wavelet.adjoint_linop(dom, 0.75, wavelet.DB4, 4), 12),
        "discrete": (discrete.adjoint_linop(
            discrete.assemble(dom, basis, basis,
                              partial(multiplier.sobolev_gram, spec=spec))), 13),
        "bvp": (bvp.adjoint_linop(Domain.interval(0.0, 1.0, 129), 1), 14),
    }
    defects = {name: check_adjoint(op, trials=20, seed=seed)
               for name, (op, seed) in ops.items()}

    assert defects["multiplier"] < 1e-10
    assert defects["wavelet"] < 1e-10
    assert defects["discrete"] < 1e-10
    assert defects["bvp"] < 1e-9
    print("\nACCEPTANCE 4 PASS: adjoint defects "
          + ", ".join(f"{k} {v:.1e}" for k, v in defects.items())
          + " (<1e-10; bvp <1e-9), 20 trials each")


def test_criterion_05_eigenexpansion_vs_bvp_oracle():
    t0 = time.monotonic()
    grid = Domain.rectangle(1.0, 1.0, 129, 129)  # 128 cells per side
    u = GridFn(grid, np.ones(129 * 129))
    eigs = spectral.rectangle_dirichlet_eigs(grid, 10, 10)
    assert eigs.count == 100
    z_eig = eigs.adjoint_linop().apply(u)
    z_fd = bvp.solve_dirichlet_poisson_2d(u)
    rel = l2_norm(z_eig - z_fd) / l2_norm(z_fd)
    elapsed = time.monotonic() - t0
    assert rel < 2e-2
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 5 PASS: eigenexpansion vs FD solve {rel:.2e} (<2e-2), "
          f"{elapsed:.1f}s (<30s)")


def test_criterion_06_hilbert_scale_reductions():
    dom = Domain.torus(1, 64)
    rng = np.random.default_rng(21)
    symbol = rng.uniform(0.3, 1.0, 64)
    y = GridFn(dom, rng.standard_normal(64))
    spec = SobolevSpec(1.0, NormVariant.TORUS_S)
    plain = InverseProblem(diagonal_linop(dom, symbol), y)
    embedded = InverseProblem(plain.forward, y,
                              embedding=multiplier.adjoint_linop(dom, spec))
    step = 0.5
    worst_a0 = worst_a1 = 0.0
    for k in range(1, 51):
        u_a0, _ = landweber_hilbert_scale(plain, spec, a=0.0, step=step, max_iter=k)
        u_emb, _ = landweber(embedded, step=step, max_iter=k)
        worst_a0 = max(worst_a0, float(np.max(np.abs(u_a0.values - u_emb.values))))
        u_a1, _ = landweber_hilbert_scale(plain, spec, a=1.0, step=step, max_iter=k)
        u_l2, _ = landweber(plain, step=step, max_iter=k)
        worst_a1 = max(worst_a1, float(np.max(np.abs(u_a1.values - u_l2.values))))
    assert worst_a0 < 1e-10
    assert worst_a1 < 1e-10
    print(f"\nACCEPTANCE 6 PASS: iterate-by-iterate over 50 steps, "
          f"a=0 vs embedded {worst_a0:.1e}, a=1 vs plain {worst_a1:.1e} (<1e-10)")


def test_criterion_07_radon_experiment_desk_scale():
    t0 = time.monotonic()
    geom = RadonGeometry(64, 100, 60)
    op = RadonOperator(geom)
    linop = op.as_linop()
    err_spec = SobolevSpec(0.5, NormVariant.TORUS_S)
    tau = 1.01
    errors = {}
    for name, ph in (("smooth", smooth_phantom(64, seed=0)),
                     ("shepp_logan", shepp_logan(64))):
        y = op.forward(ph)
        ydelta, delta = add_noise(y, 0.10, seed=42)
        for s in (0.0, 0.5):
            emb = (multiplier.adjoint_linop(linop.domain, SobolevSpec(s))
                   if s > 0 else None)
            problem = InverseProblem(linop, ydelta, noise_level=delta, embedding=emb)
            u, log = landweber(problem, max_iter=20000, stop=DiscrepancyStop(tau))
            assert log.residuals[-1] <= tau * delta  # (a) termination
            diff = GridFn(u.domain, (u - ph).values.real)
            errors[(name, s)] = (sobolev_norm(diff, err_spec)
                                 / sobolev_norm(ph, err_spec))

    # (b) smooth phantom: embedding strictly reduces the Sobolev error >= 10%
    reduction = (errors[("smooth", 0.0)] - errors[("smooth", 0.5)]) \
        / errors[("smooth", 0.0)]
    assert errors[("smooth", 0.5)] < errors[("smooth", 0.0)]
    assert reduction >= 0.10

    # (c) shepp-logan: errors comparable, |e0 - e05| / max < 15%
    e0, e5 = errors[("shepp_logan", 0.0)], errors[("shepp_logan", 0.5)]
    sl_diff = abs(e0 - e5) / max(e0, e5)
    assert sl_diff < 0.15

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7 PASS: all runs hit tau*delta; smooth reduction "
          f"{reduction * 100:.0f}% (>=10%, reference figure 25%), "
          f"shepp-logan difference {sl_diff * 100:.1f}% (<15%), "
          f"{elapsed:.0f}s (<120s)")


def test_criterion_08_tikhonov_range_property():
    spec = SobolevSpec(0.5, NormVariant.TORUS_S)

    def range_defect(problem, alpha):
        u = tikhonov(problem, alpha, tol=1e-13)
        fw = problem.forward
        rhs = problem.smooth(fw.apply_adjoint(problem.data)
                             - fw.apply_adjoint(fw.apply(u)))
        return l2_norm((1.0 / alpha) * rhs - u) / l2_norm(u)

    # diagonal problem
    dom = Domain.torus(1, 64)
    rng = np.random.default_rng(31)
    symbol = rng.uniform(0.2, 1.0, 64)
    diag = InverseProblem(diagonal_linop(dom, symbol),
                          GridFn(dom, rng.standard_normal(64)),
                          embedding=multiplier.adjoint_linop(dom, spec))
    d_diag = max(range_defect(diag, float(a)) for a in np.geomspace(1e-3, 1.0, 10))
    assert d_diag < 1e-8

    # desk-scale radon problem, alpha from a 10-point logarithmic sweep
    geom = RadonGeometry(64, 100, 60)
    op = RadonOperator(geom)
    ph = smooth_phantom(64, seed=0)
    ydelta, delta = add_noise(op.forward(ph), 0.10, seed=42)
    emb = multiplier.adjoint_linop(geom.image_domain, spec)
    problem = InverseProblem(op.as_linop(), ydelta, noise_level=delta, embedding=emb)
    best = None
    for alpha in np.geomspace(1e-3, 1e2, 10):
        u = tikhonov(problem, float(alpha), tol=1e-13)
        diff = GridFn(u.domain, (u - ph).values.real)
        err = sobolev_norm(diff, spec)
        if best is None or err < best[1]:
            best = (float(alpha), err)
    d_radon = range_defect(problem, best[0])
    assert d_radon < 1e-8
    print(f"\nACCEPTANCE 8 PASS: range-property defect diagonal {d_diag:.1e}, "
          f"radon {d_radon:.1e} at swept alpha {best[0]:.2e} (<1e-8)")


def test_criterion_09_wavelet_eigen_structure():
    dom = Domain.torus(1, 64)
    zero = GridFn(dom, np.zeros(64))
    worst = 0.0
    count = 0
    for basis in (wavelet.HAAR, wavelet.DB4):
        for s in (0.5, 1.0):
            for levels in (2, 4, 6):
                zero_approx, zero_details = wavelet.fwt(zero, basis, levels)
                # approximation atoms: eigenvalue 1
                for i in range(zero_approx.size):
                    approx = np.zeros_like(zero_approx)
                    approx[i] = 1.0
                    atom = wavelet.ifwt(dom, basis, approx, zero_details)
                    out = wavelet.adjoint_embedding_wavelet(atom, s, basis, levels)
                    worst = max(worst, float(np.max(np.abs(out.values - atom.values))))
                    count += 1
                # detail atoms at level j: eigenvalue 2^(-2js)
                for j, d in enumerate(zero_details):
                    for i in range(d.size):
                        details = [np.zeros_like(dd) for dd in zero_details]
                        details[j][i] = 1.0
                        atom = wavelet.ifwt(dom, basis, zero_approx, details)
                        out = wavelet.adjoint_embedding_wavelet(atom, s, basis,
                                                                levels)
                        lam = 2.0 ** (-2 * j * s)
                        worst = max(worst, float(np.max(np.abs(
                            out.values - lam * atom.values))))
                        count += 1
    assert worst < 1e-12
    print(f"\nACCEPTANCE 9 PASS: {count} atoms across Haar/DB4, s in {{0.5,1}}, "
          f"levels <= 6; max eigen defect {worst:.1e} (<1e-12)")


def test_criterion_10_special_functions():
    j01 = spectral.bessel_j_zero(0, 1)
    assert 2.40 <= j01 <= 2.41
    assert abs(spectral.bessel_j(0, j01)) < 1e-9
    k_half = kernel.bessel_k(0.5, 1.0)
    ref = np.sqrt(np.pi / 2.0) * np.exp(-1.0)
    assert abs(k_half - ref) < 1e-8
    assert abs(kernel.gamma_fn(5.0) - 24.0) < 1e-12
    print(f"\nACCEPTANCE 10 PASS: j01={j01:.9f} in [2.40, 2.41], "
          f"|J0(j01)|={abs(spectral.bessel_j(0, j01)):.1e} (<1e-9), "
          f"K_1/2(1) defect {abs(k_half - ref):.1e} (<1e-8), "
          f"Gamma(5) defect {abs(kernel.gamma_fn(5.0) - 24.0):.1e} (<1e-12)")
