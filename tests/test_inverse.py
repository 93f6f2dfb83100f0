from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from sobolev_adjoint import kernel, multiplier, wavelet
from sobolev_adjoint.radon import RadonGeometry, RadonOperator, shepp_logan, smooth_phantom
from sobolev_adjoint.multiplier import (
    NormVariant,
    SobolevSpec,
    sobolev_norm,
    weight_grid,
)

SPEC = SobolevSpec(1.0, NormVariant.TORUS_S)


def emb(dom=Domain.torus(1, 64), spec=SPEC):
    return multiplier.adjoint_linop(dom, spec)


def identity_linop(n=64):
    dom = Domain.torus(1, n)
    return LinOp(lambda u: u, lambda u: u, inner, inner, dom, dom)


def diagonal_linop(domain, symbol):
    """Spectral multiplier operator with the given FFT-layout symbol."""
    def times(sym):
        return lambda u: GridFn(domain, np.fft.ifftn(
            fft_forward(u) * sym / np.prod(domain.spacing)).ravel())

    return LinOp(times(symbol), times(np.conj(symbol)), inner, inner, domain, domain)


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


@pytest.mark.parametrize("rel", [np.nan, np.inf, -0.1])
def test_add_noise_rejects_a_level_that_is_not_finite_and_nonnegative(rel):
    with pytest.raises(ValueError, match="rel="):
        add_noise(rand_fn(8, 0), rel, seed=0)


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
    y_hat = fft_forward(y)
    u_hat = fft_forward(u)
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


def _dense_normal_eigenvalues(problem):
    # G smooth(G* .) column by column on the data grid, where it is Hermitian
    fw = problem.forward
    n = fw.codomain.grid_size
    cols = [fw.apply(problem.smooth(fw.apply_adjoint(GridFn(fw.codomain, e)))).values
            for e in np.eye(n)]
    m = np.array(cols).T
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(n=st.integers(8, 64), complex_symbol=st.booleans(),
       low=st.sampled_from([0.0, 0.2, 0.9]),
       smoother=st.sampled_from(["none", "embedding", -1.0, 0.0, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_operator_norm_matches_dense_top_eigenvalue(n, complex_symbol, low, smoother,
                                                    seed):
    dom = Domain.torus(1, n)
    rng = np.random.default_rng(seed)
    symbol = rng.uniform(low, 2.0, n)
    if complex_symbol:
        symbol = symbol * np.exp(2j * np.pi * rng.uniform(size=n))
    if smoother == "none":
        smooth = None
    elif smoother == "embedding":
        smooth = emb(dom)
    else:  # the smoother landweber_hilbert_scale iterates with at a = smoother
        smooth = multiplier.adjoint_linop(dom, SPEC, 1.0 - smoother)
    problem = InverseProblem(diagonal_linop(dom, symbol), rand_fn(n, seed % 1000),
                             embedding=smooth)
    eig = _dense_normal_eigenvalues(problem)
    got = estimate_operator_norm(problem) ** 2
    assert got <= eig[-1] * (1.0 + 1e-13)  # Ritz values lie inside the spectrum
    if eig[-2] <= 0.95 * eig[-1]:
        assert abs(got - eig[-1]) <= 1e-10 * eig[-1]


def _counting(op: LinOp, calls: list) -> LinOp:
    return replace(op, apply=lambda u: calls.append(1) or op.apply(u))


@pytest.mark.parametrize("scale", [1.0, 0.0])
def test_operator_norm_stops_on_an_invariant_subspace(scale):
    # the identity and the zero map: one product, beta = 0, no division by it
    calls = []
    dom = Domain.torus(1, 64)
    op = LinOp(lambda u: scale * u, lambda u: scale * u, inner, inner, dom, dom)
    with np.errstate(all="raise"):
        got = estimate_operator_norm(InverseProblem(_counting(op, calls), rand_fn(64, 5)))
    assert len(calls) == 1
    assert abs(got - scale) <= 1e-15


def _power_norm(problem, iters):
    v = GridFn(problem.forward.domain,
               np.random.default_rng(0).standard_normal(problem.forward.domain.grid_size))
    for _ in range(iters):
        w = problem.smooth(problem.forward.apply_adjoint(problem.forward.apply(v)))
        lam = l2_norm(w) / l2_norm(v)
        v = w * (1.0 / l2_norm(w))
    return np.sqrt(lam)


@pytest.fixture(scope="module")
def desk_radon():
    op = RadonOperator(RadonGeometry.desk_scale())
    linop = op.as_linop()
    return linop, op.forward(shepp_logan(64))


@pytest.mark.parametrize("s", [0.0, 0.5])
def test_operator_norm_on_the_desk_radon_problem(desk_radon, s):
    linop, y = desk_radon
    embedding = multiplier.adjoint_linop(linop.domain, SobolevSpec(s)) if s else None
    calls = []
    problem = InverseProblem(_counting(linop, calls), y, embedding=embedding)
    got = estimate_operator_norm(problem)
    assert len(calls) <= 15  # 11 at s=0 and 7 at s=0.5; 30 power steps before
    assert abs(got - _power_norm(problem, 150)) <= 1e-14 * got


def test_landweber_records_its_default_step(desk_radon):
    linop, y = desk_radon
    problem = InverseProblem(linop, y)
    _, log = landweber(problem, max_iter=2)
    assert log.step == 0.9 / log.norm_estimate ** 2
    assert log.norm_estimate == estimate_operator_norm(problem)
    _, given_step = landweber(problem, step=log.step, max_iter=2)
    assert given_step.step is None and given_step.norm_estimate is None
    assert given_step.residuals == log.residuals


def test_landweber_solve_loop_calls_no_blas(desk_radon, monkeypatch):
    from sobolev_adjoint import inverse
    linop, y = desk_radon
    smooth = multiplier.adjoint_linop(linop.domain, SobolevSpec(0.5))
    problem = InverseProblem(linop, y, embedding=smooth)

    def blas(*args, **kwargs):
        raise AssertionError("BLAS call")

    for name in ("dot", "vdot", "inner"):
        monkeypatch.setattr(np, name, blas)
    monkeypatch.setattr(np.linalg, "norm", blas)
    _, log = landweber(problem, max_iter=3)
    assert len(log.residuals) == 4 and log.step > 0.0
    # landweber looks the estimator up as a module global, which tracing rebinds
    monkeypatch.setattr(inverse, "estimate_operator_norm", lambda p: 2.0)
    _, log = landweber(problem, max_iter=1)
    assert log.norm_estimate == 2.0 and log.step == 0.9 / 4.0


def test_landweber_divergence_detector():
    problem = InverseProblem(identity_linop(32), rand_fn(32, 5))
    with pytest.raises(DivergenceError) as exc:
        landweber(problem, step=25.0, max_iter=50)
    assert len(exc.value.log.residuals) >= 2


def test_landweber_embedded_iterates_in_smoother_range():
    dom = Domain.torus(1, 64)
    symbol = np.random.default_rng(6).uniform(0.5, 1.5, 64)
    y = rand_fn(64, 7)
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=emb())
    u1, _ = landweber(problem, step=0.3, max_iter=1)
    # first iterate from zero carries the inverse weight spectrally
    w = weight_grid(dom, SPEC)
    lifted = fft_forward(u1) * w
    grad_hat = 0.3 * np.conj(symbol) * fft_forward(y)
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


# error(2.5%) / error(20%) in H^0.5 over the sweep below measured 0.369-0.372
# (smooth phantom, 18 -> 53-54 steps) and 0.420-0.434 (Shepp-Logan, 18-19 ->
# 135-140 steps) on seeds 0-1
_SWEEP_RATE = 0.5


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("phantom", ["smooth", "shepp_logan"])
def test_landweber_error_falls_with_the_noise(phantom, seed):
    # Landweber stopped by the discrepancy principle is a regularization
    # method: its error goes to 0 with the noise level (Engl, Hanke & Neubauer
    # 1996, ch. 6).  Plain L2 solves at the golden geometry, seeded as the
    # cli's RadonRecon seeds a run
    linop = RadonOperator(RadonGeometry(32, 48, 30)).as_linop()
    ph = smooth_phantom(32, seed=seed) if phantom == "smooth" else shepp_logan(32)
    y = linop.apply(ph)
    spec = SobolevSpec(0.5, NormVariant.TORUS_S)
    errors, stops = [], []
    for rel in (0.20, 0.10, 0.05, 0.025):
        noisy, delta = add_noise(y, rel, seed=seed)
        u, log = landweber(InverseProblem(linop, noisy, noise_level=delta), max_iter=1000,
                           stop=DiscrepancyStop(1.01))
        # the stop is the first residual at or below tau * delta
        assert log.residuals[-1] <= 1.01 * delta < min(log.residuals[:-1])
        errors.append(sobolev_norm(GridFn(u.domain, u.values.real) - ph, spec)
                      / sobolev_norm(ph, spec))
        stops.append(len(log.residuals) - 1)
    assert all(b < a for a, b in zip(errors, errors[1:])), errors  # at every halving
    assert stops == sorted(stops), stops
    assert errors[-1] / errors[0] <= _SWEEP_RATE, errors


def test_discrepancy_rule_rejects_tau_at_most_one_and_clean_data():
    for tau in (0.9, 1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau"):
            DiscrepancyStop(tau)
    calls = []
    dom = Domain.torus(1, 32)
    op = LinOp(lambda u: calls.append(1) or u, lambda u: u, inner, inner, dom, dom)
    problem = InverseProblem(op, rand_fn(32, 24))  # clean data: no noise level
    with pytest.raises(ValueError, match="noise level"):
        landweber(problem, max_iter=5, stop=DiscrepancyStop(1.01))
    assert calls == []  # rejected before the step estimate touches G


def test_solvers_reject_bad_inputs_at_entry():
    calls = []
    dom = Domain.torus(1, 32)
    op = LinOp(lambda u: calls.append(1) or u, lambda u: u, inner, inner, dom, dom)
    y = rand_fn(32, 25)
    for level in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="noise_level"):
            InverseProblem(op, y, noise_level=level)
    problem = InverseProblem(op, y)
    for step in (np.nan, np.inf, 0.0, -0.5):
        with pytest.raises(ValueError, match="step"):
            landweber(problem, step=step)
    for max_iter in (-5, 2.5):
        with pytest.raises(ValueError, match="max_iter"):
            landweber(problem, step=0.5, max_iter=max_iter)
    for alpha in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="alpha"):
            tikhonov(problem, alpha)
    for tol in (np.nan, np.inf, 0.0, -1e-12):
        with pytest.raises(ValueError, match="tol"):
            tikhonov(problem, 1.0, tol=tol)
    assert calls == []  # every one is rejected before G is applied
    # a map whose smooth(G* G .) vanishes has no default step
    zero = LinOp(lambda u: 0.0 * u, lambda u: 0.0 * u, inner, inner, dom, dom)
    with pytest.raises(ValueError, match="norm estimate 0.0"):
        landweber(InverseProblem(zero, y), max_iter=1)
    _, log = landweber(InverseProblem(zero, y), step=0.5, max_iter=0)
    assert log.residuals == [l2_norm(y)]


def test_landweber_smoother_backend_override():
    # convolution backend tracks the multiplier backend closely
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
    base = InverseProblem(diagonal_linop(dom, symbol), y, embedding=emb(dom, spec))
    alt = InverseProblem(diagonal_linop(dom, symbol), y,
                         embedding=kernel.adjoint_linop(dom, 1.0))
    u_mult, _ = landweber(base, step=0.5, max_iter=10)
    u_conv, _ = landweber(alt, step=0.5, max_iter=10)
    assert l2_norm(u_conv - u_mult) / l2_norm(u_mult) < 1e-3


# -- hilbert scale ----------------------------------------------------------------

def test_hilbert_scale_a0_matches_embedded():
    dom = Domain.torus(1, 64)
    symbol = np.random.default_rng(10).uniform(0.3, 1.0, 64)
    y = rand_fn(64, 11)
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=emb())
    u_a0, log_a0 = landweber_hilbert_scale(problem, SPEC, a=0.0, step=0.5,
                                           max_iter=25)
    u_emb, log_emb = landweber(problem, step=0.5, max_iter=25)
    assert np.max(np.abs(u_a0.values - u_emb.values)) < 1e-13
    assert np.allclose(log_a0.residuals, log_emb.residuals, rtol=0, atol=1e-13)


def test_hilbert_scale_a1_matches_plain_l2():
    dom = Domain.torus(1, 64)
    symbol = np.random.default_rng(12).uniform(0.3, 1.0, 64)
    y = rand_fn(64, 13)
    plain = InverseProblem(diagonal_linop(dom, symbol), y)
    u_a1, _ = landweber_hilbert_scale(plain, SPEC, a=1.0, step=0.5, max_iter=50)
    u_l2, _ = landweber(plain, step=0.5, max_iter=50)
    assert np.max(np.abs(u_a1.values - u_l2.values)) < 1e-10


def test_hilbert_scale_half_per_mode_oracle():
    dom = Domain.torus(1, 32)
    rng = np.random.default_rng(14)
    symbol = rng.uniform(0.3, 1.0, 32)
    y = GridFn(dom, rng.standard_normal(32))
    problem = InverseProblem(diagonal_linop(dom, symbol), y)
    a, step, iters = 0.5, 0.6, 12
    u, _ = landweber_hilbert_scale(problem, SPEC, a=a, step=step, max_iter=iters)
    w = weight_grid(dom, SPEC)
    factor = step * w ** (a - 1.0) * symbol**2
    y_hat = fft_forward(y)
    expect = (1 - (1 - factor) ** iters) * y_hat / symbol
    assert np.max(np.abs(fft_forward(u) - expect)) < 1e-12


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_hilbert_scale_default_step_sized_for_iterated_operator(a):
    # symbol 1 except 0.2 on the constant mode: the embedded operator's norm
    # sits on that mode, the preconditioned one's on the first nonzero modes
    dom = Domain.torus(1, 64)
    symbol = np.ones(64)
    symbol[0] = 0.2
    spec = SobolevSpec(1.0)
    problem = InverseProblem(diagonal_linop(dom, symbol), rand_fn(64, 23),
                             embedding=emb(dom, spec))
    u, log = landweber_hilbert_scale(problem, spec, a=a, max_iter=50)
    assert len(log.residuals) == 51
    assert all(r0 >= r1 - 1e-14 for r0, r1 in zip(log.residuals, log.residuals[1:]))
    if a == 0.0:
        u_emb, log_emb = landweber(problem, max_iter=50)
        assert np.array_equal(u.values, u_emb.values)
        assert log.residuals == log_emb.residuals


def test_hilbert_scale_requires_range():
    problem = InverseProblem(identity_linop(), rand_fn(64, 15))
    with pytest.raises(ValueError):
        landweber_hilbert_scale(problem, SPEC, a=1.5)


def test_problem_rejects_embedding_on_another_domain():
    with pytest.raises(ValueError, match="domain"):
        InverseProblem(identity_linop(32), rand_fn(32, 26), embedding=emb())


# -- tikhonov ---------------------------------------------------------------------

def test_tikhonov_identity_scalar():
    dom, calls = Domain.torus(1, 64), []
    op = LinOp(lambda u: calls.append(1) or u, lambda u: u, inner, inner, dom, dom)
    y = rand_fn(64, 16)
    u = tikhonov(InverseProblem(op, y), alpha=0.3)
    assert np.max(np.abs(u.values - y.values / 1.3)) < 1e-10
    # CGLS converges in one step, and the zero start costs no forward product
    assert len(calls) == 1


def test_tikhonov_diagonal_per_mode_formula():
    dom = Domain.torus(1, 64)
    rng = np.random.default_rng(17)
    symbol = rng.uniform(0.2, 1.0, 64)
    y = GridFn(dom, rng.standard_normal(64))
    alpha = 0.05
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=emb(dom))
    u = tikhonov(problem, alpha)
    w = weight_grid(dom, SPEC)
    expect = np.conj(symbol) * fft_forward(y) / (np.abs(symbol) ** 2
                                                 + alpha * w)
    assert np.max(np.abs(fft_forward(u) - expect)) < 1e-10


def test_tikhonov_overregularization_limit():
    y = rand_fn(64, 18)
    problem = InverseProblem(identity_linop(), y, embedding=emb())
    norms = [l2_norm(tikhonov(problem, alpha)) for alpha in (1.0, 10.0, 100.0)]
    assert norms[0] > norms[1] > norms[2]
    assert norms[-1] < 0.02 * l2_norm(y)


def test_tikhonov_minimizer_property():
    dom = Domain.torus(1, 32)
    rng = np.random.default_rng(19)
    symbol = rng.uniform(0.2, 1.0, 32)
    y = GridFn(dom, rng.standard_normal(32))
    alpha = 0.1
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=emb(dom))
    u = tikhonov(problem, alpha)

    def functional(v):
        r = problem.forward.apply(v) - y
        return l2_norm(r) ** 2 + alpha * sobolev_norm(v, SPEC) ** 2

    base = functional(u)
    for seed in range(5):
        d = GridFn(dom, np.random.default_rng(seed).standard_normal(32))
        assert base <= functional(u + 1e-4 * d) + 1e-12


def tikhonov_range_defect(problem, alpha):
    """The solve and its relative defect in u = (1/alpha) smooth(G* y - G* G u)."""
    u = tikhonov(problem, alpha)
    fw = problem.forward
    rhs = problem.smooth(fw.apply_adjoint(problem.data) - fw.apply_adjoint(fw.apply(u)))
    return u, l2_norm((1.0 / alpha) * rhs - u) / l2_norm(u)


def test_tikhonov_range_property():
    # minimizer identity u = (1/alpha) smooth(G* y - G* G u)
    dom = Domain.torus(1, 64)
    rng = np.random.default_rng(20)
    symbol = rng.uniform(0.2, 1.0, 64)
    y = GridFn(dom, rng.standard_normal(64))
    alpha = 0.07
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=emb(dom))
    assert tikhonov_range_defect(problem, alpha)[1] < 1e-8


@pytest.mark.parametrize("make", [
    lambda dom: kernel.adjoint_linop(dom, 1.0),
    lambda dom: wavelet.adjoint_linop(dom, 1.0, wavelet.DB4, 4),
], ids=["kernel", "wavelet"])
def test_tikhonov_minimizes_in_the_embedding_norm(make):
    # the solve reads only the smoother and L2 products; the H^s functional
    # they stand for is checked here in the embedding's own inner product
    dom = Domain.torus(1, 256)
    rng = np.random.default_rng(27)
    op = make(dom)
    problem = InverseProblem(diagonal_linop(dom, rng.uniform(0.2, 1.0, 256)),
                             GridFn(dom, rng.standard_normal(256)), embedding=op)
    alpha = 0.05
    u, defect = tikhonov_range_defect(problem, alpha)
    assert defect < 1e-8

    def functional(v):
        r = problem.forward.apply(v) - problem.data
        return l2_norm(r) ** 2 + alpha * op.codomain_inner(v, v).real

    base = functional(u)
    for seed in range(5):
        d = GridFn(dom, np.random.default_rng(seed).standard_normal(256))
        assert base <= functional(u + 1e-4 * d)


@pytest.mark.parametrize("n, make", [
    # the a=-1 Hilbert-scale smoother, whose codomain_inner is adjoint only
    # to about eps * sqrt(max w^2)
    (256, lambda dom: multiplier.adjoint_linop(dom, SobolevSpec(3.0), 2.0)),
    # where kernel_inner raises: a convolution eigenvalue rounds to <= 0
    (1024, lambda dom: kernel.adjoint_linop(dom, 3.0)),
], ids=["multiplier-scale-2", "kernel-n1024-s3"])
@pytest.mark.parametrize("alpha", [1e-3, 0.05])
def test_tikhonov_solves_where_the_embedding_inner_product_fails(n, make, alpha):
    dom = Domain.torus(1, n)
    rng = np.random.default_rng(27)
    problem = InverseProblem(diagonal_linop(dom, rng.uniform(0.2, 1.0, n)),
                             GridFn(dom, rng.standard_normal(n)), embedding=make(dom))
    assert tikhonov_range_defect(problem, alpha)[1] < 1e-8


def test_tikhonov_raises_on_a_residual_that_is_not_finite():
    # the residual norm^2 overflows at once, and inf <= tol * inf holds:
    # a numerical failure, not the zero start returned as the solution
    y = GridFn(Domain.torus(1, 64), np.full(64, 1e300))
    with pytest.warns(RuntimeWarning), pytest.raises(RuntimeError, match="not finite"):
        tikhonov(InverseProblem(identity_linop(), y), alpha=0.3)


def test_tikhonov_continuity_in_alpha():
    # finite-difference d(alpha) check against the implicit diagonal formula
    dom = Domain.torus(1, 32)
    rng = np.random.default_rng(21)
    symbol = rng.uniform(0.3, 1.0, 32)
    y = GridFn(dom, rng.standard_normal(32))
    problem = InverseProblem(diagonal_linop(dom, symbol), y, embedding=emb(dom))
    alpha, d_alpha = 0.1, 1e-4
    u0 = tikhonov(problem, alpha)
    u1 = tikhonov(problem, alpha + d_alpha)
    fd = (u1.values - u0.values) / d_alpha
    w = weight_grid(dom, SPEC)
    denom = np.abs(symbol) ** 2 + alpha * w
    pred_hat = -w * np.conj(symbol) * fft_forward(y) / denom**2
    pred = np.fft.ifft(pred_hat / dom.spacing[0])
    rel = np.max(np.abs(fd - pred)) / np.max(np.abs(pred))
    assert rel < 0.01
