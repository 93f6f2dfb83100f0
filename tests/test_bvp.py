from functools import reduce

import numpy as np
import pytest
import scipy.fft
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings, strategies as st

from sobolev_adjoint import bvp
from sobolev_adjoint.core import Domain, GridFn, l2_norm
from sobolev_adjoint.bvp import (
    BoundaryKind,
    BvpSpec,
    h1_inner,
    mass_inner,
    solve_1d_order2m,
    solve_dirichlet_poisson_2d,
    solve_neumann_helmholtz,
    solve_torus_helmholtz,
    variational_gap,
)
from sobolev_adjoint.multiplier import NormVariant, SobolevSpec, adjoint_embedding


def neumann_errors(ns):
    errs = []
    for n in ns:
        dom = Domain.interval(0.0, 1.0, n)
        x = dom.axes()[0]
        u = GridFn(dom, (1 + 4 * np.pi**2) * np.cos(2 * np.pi * x))
        z = solve_neumann_helmholtz(u)
        errs.append(np.max(np.abs(z.values - np.cos(2 * np.pi * x))))
    return errs


def test_neumann_constants():
    dom = Domain.interval(0.0, 1.0, 65)
    z = solve_neumann_helmholtz(GridFn(dom, 3.0 * np.ones(65)))
    assert np.max(np.abs(z.values - 3.0)) < 1e-12


def test_neumann_manufactured_solution_second_order():
    errs = neumann_errors((65, 129, 257))
    assert errs[0] < 1e-3
    for a, b in zip(errs, errs[1:]):
        assert 3.5 < a / b < 4.5  # Richardson ratio under mesh halving


def test_neumann_2d_manufactured_solution():
    errs = []
    for n in (33, 65):
        dom = Domain.rectangle(1.0, 1.0, n, n)
        X, Y = np.meshgrid(*dom.axes(), indexing="ij")
        exact = np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
        u = GridFn(dom, ((1 + 8 * np.pi**2) * exact).ravel())
        z = solve_neumann_helmholtz(u)
        errs.append(np.max(np.abs(z.values - exact.ravel())))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_order2m_m1_dirichlet_analytic():
    # -z'' = 1, z(0) = z(1) = 0  ->  z = x(1-x)/2, exact for quadratics
    dom = Domain.interval(0.0, 1.0, 129)
    x = dom.axes()[0]
    z = solve_1d_order2m(GridFn(dom, np.ones(129)), 1, BoundaryKind.DIRICHLET)
    assert np.max(np.abs(z.values - x * (1 - x) / 2)) < 1e-12


def test_order2m_m1_natural_matches_neumann():
    dom = Domain.interval(0.0, 1.0, 129)
    rng = np.random.default_rng(0)
    u = GridFn(dom, rng.standard_normal(129))
    a = solve_1d_order2m(u, 1, BoundaryKind.NEUMANN_LIKE)
    b = solve_neumann_helmholtz(u)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_order2m_m2_dirichlet_analytic_second_order():
    # z'''' = 1 with z = z' = 0 at both ends  ->  z = x^2 (1-x)^2 / 24
    errs = []
    for n in (65, 129, 257):
        dom = Domain.interval(0.0, 1.0, n)
        x = dom.axes()[0]
        z = solve_1d_order2m(GridFn(dom, np.ones(n)), 2, BoundaryKind.DIRICHLET)
        errs.append(np.max(np.abs(z.values - x**2 * (1 - x) ** 2 / 24)))
    assert errs[-1] < 1e-6
    for a, b in zip(errs, errs[1:]):
        assert 3.5 < a / b < 4.5


def test_order2m_m2_natural_variant():
    dom = Domain.interval(0.0, 1.0, 129)
    u = GridFn(dom, np.random.default_rng(4).standard_normal(129))
    z = solve_1d_order2m(u, 2, BoundaryKind.NEUMANN_LIKE)
    spec = BvpSpec(2, BoundaryKind.NEUMANN_LIKE, dom)
    assert variational_gap(z, u, spec) < 1e-9
    zc = solve_1d_order2m(GridFn(dom, 2.0 * np.ones(129)), 2, BoundaryKind.NEUMANN_LIKE)
    assert np.max(np.abs(zc.values - 2.0)) < 1e-6  # direct solve at cond ~ 1/h^3


def test_order2m_rejects_unsupported():
    dom = Domain.interval(0.0, 1.0, 33)
    u = GridFn(dom, np.ones(33))
    with pytest.raises(ValueError):
        solve_1d_order2m(u, 3, BoundaryKind.DIRICHLET)
    with pytest.raises(ValueError):
        solve_1d_order2m(GridFn(Domain.torus(1, 32), np.ones(32)), 1,
                         BoundaryKind.DIRICHLET)


@pytest.mark.parametrize("bc", [BoundaryKind.NEUMANN_LIKE, BoundaryKind.DIRICHLET])
def test_order2_solve_of_complex_data_is_the_real_and_imaginary_solves(bc):
    # the banded solve takes real right-hand sides: complex data is split
    dom = Domain.interval(0.0, 1.0, 65)
    re, im = np.random.default_rng(29).standard_normal((2, 65))
    u = GridFn(dom, re + 1j * im)
    z = solve_1d_order2m(u, 2, bc)
    parts = [solve_1d_order2m(GridFn(dom, v), 2, bc).values for v in (re, im)]
    assert np.array_equal(z.values, parts[0] + 1j * parts[1])
    assert variational_gap(z, u, BvpSpec(2, bc, dom)) < 1e-12


def test_dirichlet_poisson_2d_analytic():
    errs = []
    for n in (33, 65):
        dom = Domain.rectangle(1.0, 1.0, n, n)
        X, Y = np.meshgrid(*dom.axes(), indexing="ij")
        exact = np.sin(np.pi * X) * np.sin(np.pi * Y)
        u = GridFn(dom, (2 * np.pi**2 * exact).ravel())
        z = solve_dirichlet_poisson_2d(u)
        errs.append(np.max(np.abs(z.values - exact.ravel())))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert errs[1] < 5e-4


def _sparse_form(spec):
    """(A, mass, active) of ``A z[active] = (M u)[active]``, assembled as
    sparse matrices independently of ``bvp``'s bands: Kronecker sums of
    three-point stiffness and trapezoid mass for order 1, ``h D2^T D2`` and
    the clamped 7/6/-4/1 stencil for order 2."""
    dom, neumann = spec.domain, spec.bc is BoundaryKind.NEUMANN_LIKE
    masses = []
    for n, h in zip(dom.shape, dom.spacing):
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        masses.append(scipy.sparse.diags(w))
    m_diag = reduce(scipy.sparse.kron, masses).diagonal()
    interior = np.zeros(dom.shape, bool)
    interior[(slice(1, -1),) * dom.ndim] = True
    active = slice(None) if neumann else interior.ravel()
    if spec.order_m == 2:
        (n,), (h,) = dom.shape, dom.spacing
        if not neumann:
            main = np.full(n - 2, 6.0)
            main[0] = main[-1] = 7.0
            return scipy.sparse.diags(
                [np.ones(n - 4), np.full(n - 3, -4.0), main, np.full(n - 3, -4.0),
                 np.ones(n - 4)], [-2, -1, 0, 1, 2]).tocsr() / h**3, m_diag, active
        D2 = scipy.sparse.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(n - 2, n)) / h**2
        return (h * (D2.T @ D2) + scipy.sparse.diags(m_diag)).tocsr(), m_diag, active
    stiffness = []
    for n, h in zip(dom.shape, dom.spacing):
        main = np.full(n, 2.0 / h)
        main[0] = main[-1] = 1.0 / h
        off = np.full(n - 1, -1.0 / h)
        stiffness.append(scipy.sparse.diags([off, main, off], [-1, 0, 1]))
    A = sum(reduce(scipy.sparse.kron, masses[:d] + [K] + masses[d + 1:])
            for d, K in enumerate(stiffness))
    A = A + scipy.sparse.diags(m_diag) if neumann else A.tocsr()[active][:, active]
    return A.tocsr(), m_diag, active


def _order1_solve(u, bc):
    if bc is BoundaryKind.NEUMANN_LIKE:
        return solve_neumann_helmholtz(u)
    if u.domain.ndim == 1:
        return solve_1d_order2m(u, 1, bc)
    return solve_dirichlet_poisson_2d(u)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32])
@pytest.mark.parametrize("dom", [
    pytest.param(Domain.rectangle(1.0, 1.0, 17, 9), id="rectangle-17x9"),
    pytest.param(Domain.rectangle(0.75, 2.0, 9, 33), id="rectangle-9x33"),
    pytest.param(Domain.interval(0.0, 1.0, 33), id="interval-33"),
    pytest.param(Domain.interval(-0.5, 1.5, 64), id="interval-64"),
])
def test_order1_solves_match_sparse_direct_solve(dom, dtype):
    # Non-square grids with unequal spacings: a transposed eigenvalue axis
    # or a swapped spacing would show here, not on square grids.  The
    # intervals (odd and even n, shifted origin) run the same path in 1D.
    rng = np.random.default_rng(dom.grid_size)
    vals = rng.standard_normal(dom.grid_size)
    if dtype is np.complex128:
        vals = vals + 1j * rng.standard_normal(dom.grid_size)
    vals = vals.astype(dtype)
    u = GridFn(dom, vals)
    for bc in BoundaryKind:
        spec = BvpSpec(1, bc, dom)
        z = _order1_solve(u, bc)
        assert z.values.dtype == np.result_type(dtype, np.float64)
        A, m_diag, active = _sparse_form(spec)
        ref = np.zeros(dom.grid_size, dtype=np.complex128)
        ref[active] = scipy.sparse.linalg.spsolve(
            A.tocsc(), (m_diag * vals)[active].astype(np.complex128))
        assert np.linalg.norm(z.values - ref) < 1e-10 * np.linalg.norm(ref)
        assert variational_gap(z, u, spec) < 1e-12


@st.composite
def form_specs(draw):
    """A BvpSpec: both orders and conditions on intervals, order 1 on rectangles."""
    bc = draw(st.sampled_from(list(BoundaryKind)))
    length = draw(st.sampled_from([1.0, 0.75, 2.0]))
    if draw(st.booleans()):
        nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
        return BvpSpec(1, bc, Domain.rectangle(length, 1.0, nx, ny))
    m = draw(st.integers(1, 2))
    least = 4 if (m, bc) == (2, BoundaryKind.DIRICHLET) else 2
    return BvpSpec(m, bc, Domain.interval(0.0, length, draw(st.integers(least, 40))))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(spec=form_specs(), rows=st.integers(1, 3), complex_=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_bands_match_the_sparse_form(spec, rows, complex_, seed):
    A, m_diag, active = _sparse_form(spec)
    terms, mass, band_active = bvp._forms_for_spec(spec)
    assert np.array_equal(mass, m_diag)
    assert np.array_equal(np.arange(spec.domain.grid_size)[active],
                          np.arange(spec.domain.grid_size)[band_active])
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, A.shape[0]))
    if complex_:
        x = x + 1j * rng.standard_normal(x.shape)
    ref = (A @ x.T).T
    assert np.max(np.abs(bvp._apply_form(terms, x) - ref), initial=0.0) <= \
        1e-14 * np.max(np.abs(ref), initial=0.0)
    diag = A.diagonal()
    assert np.max(np.abs(bvp._form_diagonal(terms) - diag), initial=0.0) <= \
        1e-14 * np.max(diag, initial=0.0)
    if spec.order_m == 2:
        u = GridFn(spec.domain, rng.standard_normal(spec.domain.grid_size))
        z = solve_1d_order2m(u, 2, spec.bc)
        assert variational_gap(z, u, spec) < 1e-12


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(odd=st.booleans(), dtype=st.sampled_from([np.float64, np.float32, np.complex128]),
       points=st.lists(st.integers(2, 40), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1))
@example(odd=True, dtype=np.float64, points=[3], seed=0)
@example(odd=True, dtype=np.complex128, points=[3, 10], seed=1)
def test_type1_transforms_match_scipy(odd, dtype, points, seed):
    # per axis of a grid: the DCT-I takes every point, the DST-I the interior
    shape = tuple(n - 2 if odd else n for n in points)
    assume(min(shape) > 0)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(shape)
    x = x.astype(dtype)
    exact = x.astype(np.result_type(dtype, np.float64))
    forward, inverse = ((scipy.fft.dstn, scipy.fft.idstn) if odd
                        else (scipy.fft.dctn, scipy.fft.idctn))
    bound = 1e-13 * np.linalg.norm(exact)
    y = bvp._trig1(x, odd)
    assert y.dtype == exact.dtype
    assert np.linalg.norm(y - forward(exact, type=1)) <= bound
    assert np.linalg.norm(bvp._trig1(x, odd, inverse=True)
                          - inverse(exact, type=1)) <= bound
    assert np.linalg.norm(bvp._trig1(y, odd, inverse=True) - exact) <= bound


def test_variational_gap_solver_vs_perturbed():
    dom = Domain.interval(0.0, 1.0, 129)
    rng = np.random.default_rng(1)
    u = GridFn(dom, rng.standard_normal(129))
    z = solve_neumann_helmholtz(u)
    spec = BvpSpec(1, BoundaryKind.NEUMANN_LIKE, dom)
    assert variational_gap(z, u, spec) < 1e-9
    zp = GridFn(dom, z.values + 1e-3 * rng.standard_normal(129))
    assert variational_gap(zp, u, spec) > 1e-5
    zero = GridFn(dom, np.zeros(129))
    assert variational_gap(zero, zero, spec) == 0.0


def test_variational_gap_other_specs():
    dom = Domain.interval(0.0, 1.0, 65)
    rng = np.random.default_rng(2)
    u = GridFn(dom, rng.standard_normal(65))
    z1 = solve_1d_order2m(u, 1, BoundaryKind.DIRICHLET)
    spec1 = BvpSpec(1, BoundaryKind.DIRICHLET, dom)
    assert variational_gap(z1, u, spec1) < 1e-9
    z2 = solve_1d_order2m(u, 2, BoundaryKind.DIRICHLET)
    spec2 = BvpSpec(2, BoundaryKind.DIRICHLET, dom)
    assert variational_gap(z2, u, spec2) < 1e-9


def test_forms_are_assembled_once_per_spec():
    dom = Domain.rectangle(1.0, 1.5, 23, 19)
    u = GridFn(dom, np.random.default_rng(3).standard_normal(dom.grid_size))
    z = solve_neumann_helmholtz(u)
    spec = BvpSpec(1, BoundaryKind.NEUMANN_LIKE, dom)
    bvp._forms_for_spec.cache_clear()
    gaps = [variational_gap(z, u, spec) for _ in range(2)]
    # the H^1 inner product reads the same Neumann form
    h1_inner(z, u)
    bvp.h1_gram(dom, z.values[None], u.values[None])
    info = bvp._forms_for_spec.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert gaps[0] == gaps[1] < 1e-12
    _, _, active = bvp._forms_for_spec(BvpSpec(1, BoundaryKind.DIRICHLET, dom))
    assert not active.flags.writeable  # shared through the cache


def test_bvpspec_invariants():
    dom = Domain.interval(0.0, 1.0, 33)
    with pytest.raises(ValueError):
        BvpSpec(0, BoundaryKind.DIRICHLET, dom)
    with pytest.raises(ValueError):
        BvpSpec(3, BoundaryKind.DIRICHLET, dom)
    with pytest.raises(ValueError):
        BvpSpec(2, BoundaryKind.NEUMANN_LIKE, Domain.rectangle(1.0, 1.0, 9, 9))
    for other in (Domain.torus(1, 32), Domain.cells((2.0, 2.0), (16, 16), (-1.0, -1.0))):
        for bc in BoundaryKind:
            with pytest.raises(ValueError):
                BvpSpec(1, bc, other)
    torus = GridFn(Domain.torus(1, 32), np.ones(32))
    with pytest.raises(ValueError):
        mass_inner(torus, torus)
    with pytest.raises(ValueError):
        h1_inner(torus, torus)


@pytest.mark.parametrize("bc", list(BoundaryKind), ids=lambda bc: bc.name)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", range(2, 7))
def test_small_interval_grids_solve_or_are_rejected(n, m, bc):
    dom = Domain.interval(0.0, 1.0, n)
    u = GridFn(dom, np.random.default_rng(n).standard_normal(n))
    if m == 2 and bc is BoundaryKind.DIRICHLET and n < 4:
        with pytest.raises(ValueError, match=f"got {n}"):
            BvpSpec(m, bc, dom)
        with pytest.raises(ValueError, match=f"got {n}"):
            solve_1d_order2m(u, m, bc)
        return
    z = solve_1d_order2m(u, m, bc)
    assert np.all(np.isfinite(z.values))
    assert variational_gap(z, u, BvpSpec(m, bc, dom)) < 1e-9


def test_discrete_adjoint_identity():
    # <z, v>_H1 == <u, v>_L2 with the matching discrete inner products
    dom = Domain.interval(0.0, 1.0, 129)
    rng = np.random.default_rng(3)
    u = GridFn(dom, rng.standard_normal(129))
    z = solve_neumann_helmholtz(u)
    for seed in range(5):
        v = GridFn(dom, np.random.default_rng(seed).standard_normal(129))
        lhs = h1_inner(z, v)
        rhs = mass_inner(u, v)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    dom2 = Domain.rectangle(1.0, 1.0, 33, 33)
    u2 = GridFn(dom2, rng.standard_normal(33 * 33))
    z2 = solve_neumann_helmholtz(u2)
    v2 = GridFn(dom2, rng.standard_normal(33 * 33))
    assert abs(h1_inner(z2, v2) - mass_inner(u2, v2)) < 1e-9 * abs(mass_inner(u2, v2))


def test_smoothing_regularity_bound():
    # discrete H^2 seminorm of the solution stays controlled by ||u||_L2
    ratios = []
    for n in (65, 129, 257):
        dom = Domain.interval(0.0, 1.0, n)
        h = dom.spacing[0]
        u = GridFn(dom, np.random.default_rng(7).standard_normal(n))
        z = solve_neumann_helmholtz(u)
        d2 = np.diff(z.values, 2) / h**2
        ratios.append(np.sqrt(h * np.sum(d2**2)) / l2_norm(u))
    assert max(ratios) < 2.0  # bounded across refinements


def test_torus_solve_agrees_with_multiplier_at_order_h2():
    errs = []
    for n in (256, 512, 1024):
        dom = Domain.torus(1, n)
        x = dom.axes()[0]
        vals = np.zeros(n)
        rng = np.random.default_rng(1)
        for k in range(1, 17):
            a, b = rng.standard_normal(2)
            vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
        u = GridFn(dom, vals)
        zt = solve_torus_helmholtz(u, 1)
        zm = adjoint_embedding(u, SobolevSpec(1.0, NormVariant.BESSEL_V1))
        errs.append(l2_norm(zt - zm) / l2_norm(u))
    for a, b in zip(errs, errs[1:]):
        assert 3.5 < a / b < 4.5


@pytest.mark.parametrize("n", [31, 32])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_torus_solve_inverts_periodic_stencil(n, m, dtype):
    dom = Domain.torus(1, n)
    h = dom.spacing[0]
    rng = np.random.default_rng(100 * n + m)
    u = rng.standard_normal(n).astype(dtype)
    if dtype is np.complex128:
        u += 1j * rng.standard_normal(n)
    z = solve_torus_helmholtz(GridFn(dom, u), m).values
    assert z.dtype == dtype
    r = z
    for _ in range(m):
        r = r - (np.roll(r, 1) - 2.0 * r + np.roll(r, -1)) / h**2
    # normwise backward error: rounding in z is amplified by the stencil,
    # whose norm is at most (1 + 4/h^2)^m, so the residual is measured on
    # that scale rather than against |u| alone
    scale = (1.0 + 4.0 / h**2) ** m * np.linalg.norm(z) + np.linalg.norm(u)
    assert np.linalg.norm(r - u) <= 1e-12 * scale
