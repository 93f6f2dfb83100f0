import numpy as np
import pytest
import scipy.special

from sobolev_adjoint import kernel
from sobolev_adjoint.core import Domain, GridFn, l2_norm
from sobolev_adjoint.kernel import (
    AsymptoticRegime,
    KernelSpec,
    bessel_k,
    convolve_adjoint,
    gamma_fn,
    kernel_asymptotics_check,
    kernel_eval,
    kernel_lattice,
    periodized_kernel_samples,
)
from sobolev_adjoint.multiplier import NormVariant, SobolevSpec, adjoint_embedding


def bandlimited(dom, kmax, seed):
    rng = np.random.default_rng(seed)
    x = dom.axes()[0]
    length = dom.lengths[0]
    u = np.zeros(dom.grid_size)
    for k in range(1, kmax + 1):
        a, b = rng.standard_normal(2)
        u += a * np.cos(2 * np.pi * k * x / length) + b * np.sin(2 * np.pi * k * x / length)
    return GridFn(dom, u)


# -- gamma ------------------------------------------------------------------

def test_gamma_known_values():
    assert abs(gamma_fn(1.0) - 1.0) < 1e-14
    assert abs(gamma_fn(0.5) - np.sqrt(np.pi)) < 1e-14
    assert abs(gamma_fn(5.0) - 24.0) < 1e-12


def test_gamma_against_independent_oracle():
    for x in np.geomspace(0.1, 30.0, 23):
        ref = scipy.special.gamma(x)
        assert abs(gamma_fn(x) - ref) < 1e-10 * ref


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-1.5)


# -- bessel K ---------------------------------------------------------------

def test_bessel_k_half_integer_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    for x in (0.3, 1.0, 4.0):
        ref = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
        assert abs(bessel_k(0.5, x) - ref) < 1e-8 * ref
    assert abs(bessel_k(0.5, 1.0) - 0.4610685044478945) < 1e-9


def test_bessel_k_symmetry_in_order():
    rng = np.random.default_rng(0)
    for _ in range(5):
        nu = rng.uniform(0.1, 4.0)
        x = rng.uniform(0.05, 10.0)
        assert bessel_k(-nu, x) == bessel_k(nu, x)


def test_bessel_k_large_x_asymptotic():
    # K_0(10) ~ sqrt(pi/20) e^{-10}
    ratio = bessel_k(0.0, 10.0) / (np.sqrt(np.pi / 20.0) * np.exp(-10.0))
    assert abs(ratio - 1.0) < 0.02


def test_bessel_k_against_independent_oracle():
    for nu in (0.0, 0.5, 1.0, 2.5, 5.0):
        for x in np.geomspace(0.01, 30.0, 9):
            ref = scipy.special.kv(nu, x)
            assert abs(bessel_k(nu, x) - ref) < 1e-8 * ref


def test_bessel_k_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)


# -- kernel values ----------------------------------------------------------

def test_kernel_closed_forms():
    g2 = KernelSpec(2.0, 1)
    assert abs(kernel_eval(g2, 0.0) - 0.5) < 1e-14
    assert abs(kernel_eval(g2, 1.0) - np.exp(-1) / 2) < 1e-14
    assert abs(kernel_eval(g2, 1.0) - 0.18393972058572117) < 1e-12
    g4 = KernelSpec(4.0, 1)
    assert abs(kernel_eval(g4, 1.0) - np.exp(-1) * 2 / 4) < 1e-14


def knu_kernel(s, x):
    """G_s on N = 1 written out from K_nu and Gamma, as the module docstring gives it."""
    return (bessel_k((1 - s) / 2, x) * x ** ((s - 1) / 2)
            / (2 ** ((s - 1) / 2) * np.sqrt(np.pi) * gamma_fn(s / 2)))


def test_closed_form_vs_integral_knu():
    for s in (2.0, 4.0):
        closed = KernelSpec(s, 1)
        assert closed.has_closed_form
        for x in np.geomspace(0.02, 10.0, 50):
            a, b = kernel_eval(closed, x), knu_kernel(s, x)
            assert abs(a - b) < 1e-7 * a


def test_kernel_singularity_and_mode_errors():
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec(1.0, 2), 0.0)  # s <= N singular at origin


def test_kernel_positive_and_decreasing():
    for spec in (KernelSpec(2.0, 1), KernelSpec(1.0, 2), KernelSpec(3.0, 1)):
        xs = np.geomspace(0.01, 12.0, 40)
        vals = np.array([kernel_eval(spec, x) for x in xs])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


# -- asymptotics -------------------------------------------------------------

def test_asymptotics_large_x():
    dev = kernel_asymptotics_check(KernelSpec(2.0, 1),
                                   AsymptoticRegime.LARGE_X, np.array([20.0]))
    assert dev < 0.05


def test_asymptotics_small_x_s_lt_n():
    # G_1 * |x| -> 1/(2 pi) as x -> 0 in 2D
    dev = kernel_asymptotics_check(KernelSpec(1.0, 2),
                                   AsymptoticRegime.SMALL_X_S_LT_N,
                                   np.array([1e-3]))
    assert dev < 0.05


def test_asymptotics_small_x_s_eq_n():
    # G_1(x)/log(1/|x|) -> 1/pi in 1D
    dev = kernel_asymptotics_check(KernelSpec(1.0, 1),
                                   AsymptoticRegime.SMALL_X_S_EQ_N,
                                   np.array([1e-4]))
    assert dev < 0.10


def test_asymptotics_small_x_s_gt_n():
    dev = kernel_asymptotics_check(KernelSpec(2.0, 1),
                                   AsymptoticRegime.SMALL_X_S_GT_N,
                                   np.array([1e-3]))
    assert dev < 0.01


def test_asymptotics_regime_consistency():
    with pytest.raises(ValueError):
        kernel_asymptotics_check(KernelSpec(2.0, 1),
                                 AsymptoticRegime.SMALL_X_S_LT_N, np.array([1e-3]))


# -- convolution route --------------------------------------------------------

def test_unit_mass_on_truncated_line():
    for s, n, width in ((1.0, 1024, 20.0), (1.5, 1024, 20.0), (2.0, 2048, 20.0)):
        h = 2 * width / n
        vals = kernel_lattice(KernelSpec(2 * s, 1), h, n // 2)
        mass = h * (vals[0] + 2 * np.sum(vals[1:n // 2]) + vals[n // 2])
        assert 1 - 1e-3 <= mass <= 1.0


def test_convolve_preserves_constants():
    dom = Domain.torus(1, 256)
    out = convolve_adjoint(GridFn(dom, 2.5 * np.ones(256)), 1.0)
    assert np.max(np.abs(out.values - 2.5)) < 1e-6


def test_convolve_matches_multiplier_torus():
    for s in (1.0, 2.0):
        dom = Domain.torus(1, 1024)
        u = bandlimited(dom, 16, 3)
        a = convolve_adjoint(u, s)
        b = adjoint_embedding(u, SobolevSpec(s, NormVariant.BESSEL_V1))
        assert l2_norm(a - b) / l2_norm(u) < 1e-3


def test_convolve_matches_multiplier_narrow_bump_on_line():
    dom = Domain.real_line(20.0, 1024)
    x = dom.axes()[0]
    u = GridFn(dom, np.exp(-x**2 / (2 * 0.5**2)))
    a = convolve_adjoint(u, 1.0)
    b = adjoint_embedding(u, SobolevSpec(1.0, NormVariant.BESSEL_V1))
    assert l2_norm(a - b) / l2_norm(u) < 1e-3


def test_convolve_knu_path():
    dom = Domain.real_line(20.0, 1024)
    u = bandlimited(dom, 16, 5)
    a = convolve_adjoint(u, 1.5)
    b = adjoint_embedding(u, SobolevSpec(1.5, NormVariant.BESSEL_V1))
    assert l2_norm(a - b) / l2_norm(u) < 1e-3


@pytest.mark.parametrize("dom", [Domain.torus(1, 63), Domain.torus(1, 64),
                                 Domain.real_line(6.0, 127), Domain.real_line(6.0, 128)],
                         ids=["torus-odd", "torus-even", "line-odd", "line-even"])
@pytest.mark.parametrize("s", [1.0, 0.75], ids=["closed-form", "knu"])
def test_convolve_equals_direct_circulant_product(dom, s):
    # independent of any FFT: sum_j h * g[(i - j) mod n] * u[j] over the folded kernel
    n, h = dom.shape[0], dom.spacing[0]
    g = periodized_kernel_samples(KernelSpec(2 * s, 1), dom)
    circulant = h * g[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    rng = np.random.default_rng(n)
    for vals in (rng.standard_normal(n),
                 rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        direct = circulant @ vals
        out = convolve_adjoint(GridFn(dom, vals), s)
        assert out.is_real == np.isrealobj(vals)
        assert np.linalg.norm(out.values - direct) <= 1e-12 * np.linalg.norm(direct)


def test_closed_form_orders_need_no_special_functions(monkeypatch):
    # s = 1, 2 convolve with G_2 and G_4, whose closed forms bound their own
    # tails: that route calls neither Gamma nor K_nu, so loads no scipy.special
    doms = [Domain.torus(1, 256), Domain.real_line(20.0, 1024)]
    want = [kernel._convolution_eigenvalues.__wrapped__(d, s) for d in doms for s in (1.0, 2.0)]
    # the radii a scan of the large-x asymptote, the K_nu route's tail, gives
    radii = [next(r for r in np.arange(5.0, 200.0) if kernel._asymptote(
        KernelSpec(order, 1), AsymptoticRegime.LARGE_X, np.array([r]))[0] < 1e-13)
        for order in (2.0, 4.0)]
    assert radii == [30.0, 33.0]

    def unavailable(*args):
        raise RuntimeError("a special function was called")

    monkeypatch.setattr(kernel, "gamma_fn", unavailable)
    monkeypatch.setattr(kernel, "_bessel_k_vec", unavailable)
    assert [kernel._truncation_radius(KernelSpec(order, 1))
            for order in (2.0, 4.0)] == radii
    got = [kernel._convolution_eigenvalues.__wrapped__(d, s) for d in doms for s in (1.0, 2.0)]
    assert [lam.tobytes() for lam in got] == [lam.tobytes() for lam in want]
    with pytest.raises(RuntimeError, match="special function"):  # K_nu's route does
        kernel._convolution_eigenvalues.__wrapped__(doms[0], 0.75)


def test_convolve_rejects_unsupported_domains():
    dom = Domain.interval(0.0, 1.0, 33)
    with pytest.raises(ValueError):
        convolve_adjoint(GridFn(dom, np.zeros(33)), 1.0)
    dom2 = Domain.torus(2, 16)
    with pytest.raises(ValueError):
        convolve_adjoint(GridFn(dom2, np.zeros(256)), 1.0)
