import numpy as np
import pytest

from sobolev_adjoint.core import (
    Domain,
    GridFn,
    LinOp,
    fft_forward,
    inner,
    l2_norm,
)
from sobolev_adjoint.inverse import (
    DiscrepancyStop,
    DivergenceError,
    InverseProblem,
    StoppingRuleNotMet,
    add_noise,
    estimate_operator_norm,
    landweber,
    landweber_hilbert_scale,
    tikhonov,
)
from sobolev_adjoint.multiplier import (
    NormVariant,
    SobolevSpec,
    sobolev_norm,
    weight_grid,
)

SPEC = SobolevSpec(1.0, NormVariant.TORUS_S)


def identity_linop(n=64):
    dom = Domain.torus(1, n)
    return LinOp(lambda u: u, lambda u: u, inner, inner, dom, dom)


def diagonal_linop(domain, symbol):
    """Spectral multiplier operator with the given FFT-layout symbol."""
    def apply(u):
        c = fft_forward(u)
        return GridFn(domain, np.fft.ifftn(c.coeffs * symbol /
                                           np.prod(domain.spacing)).ravel())

    def apply_adjoint(u):
        c = fft_forward(u)
        return GridFn(domain, np.fft.ifftn(c.coeffs * np.conj(symbol)
                                           / np.prod(domain.spacing)).ravel())

    return LinOp(apply, apply_adjoint, inner, inner, domain, domain)


def rand_fn(n, seed):
    return GridFn(Domain.torus(1, n), np.random.default_rng(seed).standard_normal(n))


# -- noise ----------------------------------------------------------------------

def test_add_noise_zero_level():
    y = rand_fn(64, 0)
    noisy, delta = add_noise(y, 0.0, seed=1)
    assert delta == 0.0
    assert np.array_equal(noisy.values, y.values)


def test_add_noise_exact_relative_level_and_determinism():
    y = rand_fn(64, 0)
    noisy, delta = add_noise(y, 0.1, seed=2)
    assert abs(l2_norm(noisy - y) / l2_norm(y) - 0.1) < 1e-12
    assert abs(delta - 0.1 * l2_norm(y)) < 1e-14
    again, _ = add_noise(y, 0.1, seed=2)
    assert np.array_equal(noisy.values, again.values)
    other, _ = add_noise(y, 0.1, seed=3)
    assert not np.array_equal(noisy.values, other.values)


def test_add_noise_rejects_zero_data():
    y = GridFn(Domain.torus(1, 16), np.zeros(16))
    with pytest.raises(ValueError):
        add_noise(y, 0.1, seed=0)


# -- landweber -------------------------------------------------------------------

def test_landweber_identity_scalar_recursion():
    y = rand_fn(64, 1)
    problem = InverseProblem(identity_linop(), y)
    step = 0.7
    u, log = landweber(problem, step=step, max_iter=20)
    for k, res in enumerate(log.residuals):
        assert abs(res - (1 - step) ** k * l2_norm(y)) < 1e-12 * l2_norm(y)
    assert l2_norm(u - y) < (1 - step) ** 20 * l2_norm(y) + 1e-12


def test_landweber_diagonal_per_mode_recursion():
    dom = Domain.torus(1, 32)
    rng = np.random.default_rng(2)
    symbol = rng.uniform(0.2, 1.0, 32)
    op = diagonal_linop(dom, symbol)
    y = GridFn(dom, rng.standard_normal(32))
    step = 0.8
    u, log = landweber(InverseProblem(op, y), step=step, max_iter=15)
    y_hat = fft_forward(y).coeffs
    u_hat = fft_forward(u).coeffs
    # per-mode geometric recursion: u_m = (1 - (1 - w a^2)^k) y_m / a
    expect = (1 - (1 - step * symbol**2) ** 15) * y_hat / symbol
    assert np.max(np.abs(u_hat - expect)) < 1e-12


def test_landweber_default_step_monotone_residual():
    dom = Domain.torus(1, 32)
    symbol = np.random.default_rng(3).uniform(0.2, 2.0, 32)
    problem = InverseProblem(diagonal_linop(dom, symbol), rand_fn(32, 4))
    norm_est = estimate_operator_norm(problem)
    assert abs(norm_est - symbol.max()) < 1e-2 * symbol.max()
    _, log = landweber(problem, max_iter=40)
    assert all(a >= b - 1e-14 for a, b in zip(log.residuals, log.residuals[1:]))


def test_landweber_divergence_detector():
    problem = InverseProblem(identity_linop(32), rand_fn(32, 5))
    with pytest.raises(DivergenceError) as exc:
        landweber(problem, step=25.0, max_iter=50)
    assert len(exc.value.log.residuals) >= 2


def test_landweber_embedded_iterates_in_smoother_range():
    dom = Domain.torus(1, 64)
    symbol = np.random.default_rng(6).uniform(0.5, 1.5, 64)
    y = rand_fn(64, 7)
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=SPEC)
    u1, _ = landweber(problem, step=0.3, max_iter=1)
    # first iterate from zero carries the inverse weight spectrally
    w = weight_grid(dom, SPEC)
    lifted = fft_forward(u1).coeffs * w
    grad_hat = 0.3 * np.conj(symbol) * fft_forward(y).coeffs
    assert np.max(np.abs(lifted - grad_hat)) < 1e-12


def test_landweber_discrepancy_stop_and_nontermination():
    y = rand_fn(64, 8)
    noisy, delta = add_noise(y, 0.05, seed=9)
    problem = InverseProblem(identity_linop(), noisy, noise_level=delta)
    u, log = landweber(problem, step=0.5, max_iter=200,
                       stop=DiscrepancyStop(1.01))
    assert log.residuals[-1] <= 1.01 * delta
    assert all(r > 1.01 * delta for r in log.residuals[:-1])
    with pytest.raises(StoppingRuleNotMet):
        landweber(problem, step=0.5, max_iter=2, stop=DiscrepancyStop(1.01))


def test_discrepancy_rule_rejects_tau_at_most_one_and_clean_data():
    for tau in (0.9, 1.0):
        with pytest.raises(ValueError):
            DiscrepancyStop(tau)
    calls = []
    dom = Domain.torus(1, 32)
    op = LinOp(lambda u: calls.append(1) or u, lambda u: u, inner, inner, dom, dom)
    problem = InverseProblem(op, rand_fn(32, 24))  # clean data: no noise level
    with pytest.raises(ValueError, match="noise level"):
        landweber(problem, max_iter=5, stop=DiscrepancyStop(1.01))
    assert calls == []  # rejected before the step estimate touches G


def test_landweber_smoother_backend_override():
    # convolution backend tracks the default multiplier backend closely
    from sobolev_adjoint.kernel import convolve_adjoint

    dom = Domain.torus(1, 256)
    x = dom.axes()[0]
    vals = np.zeros(256)
    rng = np.random.default_rng(22)
    for k in range(1, 9):
        a, b = rng.standard_normal(2)
        vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    y = GridFn(dom, vals)
    symbol = rng.uniform(0.4, 1.0, 256)
    spec = SobolevSpec(1.0, NormVariant.BESSEL_V1)
    base = InverseProblem(diagonal_linop(dom, symbol), y, embedding=spec)
    alt = InverseProblem(diagonal_linop(dom, symbol), y, embedding=spec,
                         smoother=lambda u: convolve_adjoint(u, 1.0))
    u_mult, _ = landweber(base, step=0.5, max_iter=10)
    u_conv, _ = landweber(alt, step=0.5, max_iter=10)
    assert l2_norm(u_conv - u_mult) / l2_norm(u_mult) < 1e-3


# -- hilbert scale ----------------------------------------------------------------

def test_hilbert_scale_a0_matches_embedded():
    dom = Domain.torus(1, 64)
    symbol = np.random.default_rng(10).uniform(0.3, 1.0, 64)
    y = rand_fn(64, 11)
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=SPEC)
    u_a0, log_a0 = landweber_hilbert_scale(problem, a=0.0, step=0.5, max_iter=25)
    u_emb, log_emb = landweber(problem, step=0.5, max_iter=25)
    assert np.max(np.abs(u_a0.values - u_emb.values)) < 1e-13
    assert np.allclose(log_a0.residuals, log_emb.residuals, rtol=0, atol=1e-13)


def test_hilbert_scale_a1_matches_plain_l2():
    dom = Domain.torus(1, 64)
    symbol = np.random.default_rng(12).uniform(0.3, 1.0, 64)
    y = rand_fn(64, 13)
    embedded = InverseProblem(diagonal_linop(dom, symbol), y, embedding=SPEC)
    plain = InverseProblem(diagonal_linop(dom, symbol), y)
    u_a1, _ = landweber_hilbert_scale(embedded, a=1.0, step=0.5, max_iter=50)
    u_l2, _ = landweber(plain, step=0.5, max_iter=50)
    assert np.max(np.abs(u_a1.values - u_l2.values)) < 1e-10


def test_hilbert_scale_half_per_mode_oracle():
    dom = Domain.torus(1, 32)
    rng = np.random.default_rng(14)
    symbol = rng.uniform(0.3, 1.0, 32)
    y = GridFn(dom, rng.standard_normal(32))
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=SPEC)
    a, step, iters = 0.5, 0.6, 12
    u, _ = landweber_hilbert_scale(problem, a=a, step=step, max_iter=iters)
    w = weight_grid(dom, SPEC)
    factor = step * w ** (a - 1.0) * symbol**2
    y_hat = fft_forward(y).coeffs
    expect = (1 - (1 - factor) ** iters) * y_hat / symbol
    assert np.max(np.abs(fft_forward(u).coeffs - expect)) < 1e-12


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_hilbert_scale_default_step_sized_for_iterated_operator(a):
    # symbol 1 except 0.2 on the constant mode: the embedded operator's norm
    # sits on that mode, the preconditioned one's on the first nonzero modes
    dom = Domain.torus(1, 64)
    symbol = np.ones(64)
    symbol[0] = 0.2
    spec = SobolevSpec(1.0)
    problem = InverseProblem(diagonal_linop(dom, symbol), rand_fn(64, 23),
                             embedding=spec)
    u, log = landweber_hilbert_scale(problem, a=a, max_iter=50)
    assert len(log.residuals) == 51
    assert all(r0 >= r1 - 1e-14 for r0, r1 in zip(log.residuals, log.residuals[1:]))
    if a == 0.0:
        u_emb, log_emb = landweber(problem, max_iter=50)
        assert np.array_equal(u.values, u_emb.values)
        assert log.residuals == log_emb.residuals


def test_hilbert_scale_requires_embedding_and_range():
    problem = InverseProblem(identity_linop(), rand_fn(64, 15))
    with pytest.raises(ValueError):
        landweber_hilbert_scale(problem, a=0.5)
    problem_s = InverseProblem(identity_linop(), rand_fn(64, 15), embedding=SPEC)
    with pytest.raises(ValueError):
        landweber_hilbert_scale(problem_s, a=1.5)


def test_hilbert_scale_rejects_custom_smoother():
    # the scale is the multiplier's: with the convolution backend, a = 0
    # would iterate w^-1, not the problem's smoother, so it is refused
    from sobolev_adjoint.kernel import convolve_adjoint

    dom = Domain.torus(1, 256)
    rng = np.random.default_rng(24)
    problem = InverseProblem(diagonal_linop(dom, rng.uniform(0.4, 1.0, 256)),
                             rand_fn(256, 25),
                             embedding=SobolevSpec(1.0, NormVariant.BESSEL_V1),
                             smoother=lambda u: convolve_adjoint(u, 1.0))
    for a in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="smoother"):
            landweber_hilbert_scale(problem, a=a, step=0.5, max_iter=5)


# -- tikhonov ---------------------------------------------------------------------

def test_tikhonov_identity_scalar():
    y = rand_fn(64, 16)
    u = tikhonov(InverseProblem(identity_linop(), y), alpha=0.3)
    assert np.max(np.abs(u.values - y.values / 1.3)) < 1e-10


def test_tikhonov_diagonal_per_mode_formula():
    dom = Domain.torus(1, 64)
    rng = np.random.default_rng(17)
    symbol = rng.uniform(0.2, 1.0, 64)
    y = GridFn(dom, rng.standard_normal(64))
    alpha = 0.05
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=SPEC)
    u = tikhonov(problem, alpha)
    w = weight_grid(dom, SPEC)
    expect = np.conj(symbol) * fft_forward(y).coeffs / (np.abs(symbol) ** 2
                                                        + alpha * w)
    assert np.max(np.abs(fft_forward(u).coeffs - expect)) < 1e-10


def test_tikhonov_overregularization_limit():
    y = rand_fn(64, 18)
    problem = InverseProblem(identity_linop(), y, embedding=SPEC)
    norms = [l2_norm(tikhonov(problem, alpha)) for alpha in (1.0, 10.0, 100.0)]
    assert norms[0] > norms[1] > norms[2]
    assert norms[-1] < 0.02 * l2_norm(y)


def test_tikhonov_minimizer_property():
    dom = Domain.torus(1, 32)
    rng = np.random.default_rng(19)
    symbol = rng.uniform(0.2, 1.0, 32)
    y = GridFn(dom, rng.standard_normal(32))
    alpha = 0.1
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=SPEC)
    u = tikhonov(problem, alpha)

    def functional(v):
        r = problem.forward.apply(v) - y
        return l2_norm(r) ** 2 + alpha * sobolev_norm(v, SPEC) ** 2

    base = functional(u)
    for seed in range(5):
        d = GridFn(dom, np.random.default_rng(seed).standard_normal(32))
        assert base <= functional(u + 1e-4 * d) + 1e-12


def test_tikhonov_range_property():
    # minimizer identity u = (1/alpha) smooth(G* y - G* G u)
    dom = Domain.torus(1, 64)
    rng = np.random.default_rng(20)
    symbol = rng.uniform(0.2, 1.0, 64)
    y = GridFn(dom, rng.standard_normal(64))
    alpha = 0.07
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=SPEC)
    u = tikhonov(problem, alpha)
    fw = problem.forward
    rhs = problem.smooth(fw.apply_adjoint(y) - fw.apply_adjoint(fw.apply(u)))
    recon = (1.0 / alpha) * rhs
    assert l2_norm(recon - u) < 1e-8 * l2_norm(u)


def test_tikhonov_continuity_in_alpha():
    # finite-difference d(alpha) check against the implicit diagonal formula
    dom = Domain.torus(1, 32)
    rng = np.random.default_rng(21)
    symbol = rng.uniform(0.3, 1.0, 32)
    y = GridFn(dom, rng.standard_normal(32))
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=SPEC)
    alpha, d_alpha = 0.1, 1e-4
    u0 = tikhonov(problem, alpha)
    u1 = tikhonov(problem, alpha + d_alpha)
    fd = (u1.values - u0.values) / d_alpha
    w = weight_grid(dom, SPEC)
    denom = np.abs(symbol) ** 2 + alpha * w
    pred_hat = -w * np.conj(symbol) * fft_forward(y).coeffs / denom**2
    pred = np.fft.ifft(pred_hat / dom.spacing[0])
    rel = np.max(np.abs(fd - pred)) / np.max(np.abs(pred))
    assert rel < 0.01
