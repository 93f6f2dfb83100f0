import numpy as np
import pytest
import scipy.sparse.linalg

from sobolev_adjoint import bvp
from sobolev_adjoint.core import Domain, GridFn, l2_norm
from sobolev_adjoint.bvp import (
    BcVariant,
    BoundaryKind,
    BvpSpec,
    NormChoice,
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
    z = solve_1d_order2m(GridFn(dom, np.ones(129)), 1, BcVariant.DIRICHLET_DJ)
    assert np.max(np.abs(z.values - x * (1 - x) / 2)) < 1e-12


def test_order2m_m1_natural_matches_neumann():
    dom = Domain.interval(0.0, 1.0, 129)
    rng = np.random.default_rng(0)
    u = GridFn(dom, rng.standard_normal(129))
    a = solve_1d_order2m(u, 1, BcVariant.NATURAL_DJ)
    b = solve_neumann_helmholtz(u)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_order2m_m2_dirichlet_analytic_second_order():
    # z'''' = 1 with z = z' = 0 at both ends  ->  z = x^2 (1-x)^2 / 24
    errs = []
    for n in (65, 129, 257):
        dom = Domain.interval(0.0, 1.0, n)
        x = dom.axes()[0]
        z = solve_1d_order2m(GridFn(dom, np.ones(n)), 2, BcVariant.DIRICHLET_DJ)
        errs.append(np.max(np.abs(z.values - x**2 * (1 - x) ** 2 / 24)))
    assert errs[-1] < 1e-6
    for a, b in zip(errs, errs[1:]):
        assert 3.5 < a / b < 4.5


def test_order2m_m2_natural_variant():
    dom = Domain.interval(0.0, 1.0, 129)
    u = GridFn(dom, np.random.default_rng(4).standard_normal(129))
    z = solve_1d_order2m(u, 2, BcVariant.NATURAL_DJ)
    spec = BvpSpec(2, BoundaryKind.NEUMANN_LIKE, dom, NormChoice.SIMPLE_PLUS_L2)
    assert variational_gap(z, u, spec) < 1e-9
    zc = solve_1d_order2m(GridFn(dom, 2.0 * np.ones(129)), 2, BcVariant.NATURAL_DJ)
    assert np.max(np.abs(zc.values - 2.0)) < 1e-6  # direct solve at cond ~ 1/h^3


def test_order2m_rejects_unsupported():
    dom = Domain.interval(0.0, 1.0, 33)
    u = GridFn(dom, np.ones(33))
    with pytest.raises(ValueError):
        solve_1d_order2m(u, 3, BcVariant.DIRICHLET_DJ)
    with pytest.raises(ValueError):
        solve_1d_order2m(GridFn(Domain.torus(1, 32), np.ones(32)), 1,
                         BcVariant.DIRICHLET_DJ)


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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32])
@pytest.mark.parametrize("a, b, nx, ny", [(1.0, 1.0, 17, 9), (0.75, 2.0, 9, 33)])
def test_rectangle_solves_match_sparse_direct_solve(a, b, nx, ny, dtype):
    # Non-square grids with unequal spacings: a transposed eigenvalue axis
    # or a swapped spacing would show here, not on square grids.
    dom = Domain.rectangle(a, b, nx, ny)
    rng = np.random.default_rng(nx * ny)
    vals = rng.standard_normal(nx * ny)
    if dtype is np.complex128:
        vals = vals + 1j * rng.standard_normal(nx * ny)
    vals = vals.astype(dtype)
    u = GridFn(dom, vals)
    cases = [
        (solve_neumann_helmholtz, bvp._forms_rectangle_neumann,
         BvpSpec(1, BoundaryKind.NEUMANN_LIKE, dom)),
        (solve_dirichlet_poisson_2d, bvp._forms_rectangle_dirichlet,
         BvpSpec(1, BoundaryKind.DIRICHLET, dom, NormChoice.SEMINORM_ONLY)),
    ]
    for solve, forms, spec in cases:
        z = solve(u)
        assert z.values.dtype == np.result_type(dtype, np.float64)
        A, m_diag, active = forms(dom)
        ref = np.zeros(nx * ny, dtype=np.complex128)
        ref[active] = scipy.sparse.linalg.spsolve(
            A.tocsc(), (m_diag * vals)[active].astype(np.complex128))
        assert np.linalg.norm(z.values - ref) < 1e-10 * np.linalg.norm(ref)
        assert variational_gap(z, u, spec) < 1e-12


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
    z1 = solve_1d_order2m(u, 1, BcVariant.DIRICHLET_DJ)
    spec1 = BvpSpec(1, BoundaryKind.DIRICHLET, dom, NormChoice.SEMINORM_ONLY)
    assert variational_gap(z1, u, spec1) < 1e-9
    z2 = solve_1d_order2m(u, 2, BcVariant.DIRICHLET_DJ)
    spec2 = BvpSpec(2, BoundaryKind.DIRICHLET, dom, NormChoice.SEMINORM_ONLY)
    assert variational_gap(z2, u, spec2) < 1e-9


def test_bvpspec_invariants():
    dom = Domain.interval(0.0, 1.0, 33)
    with pytest.raises(ValueError):
        BvpSpec(1, BoundaryKind.NEUMANN_LIKE, dom, NormChoice.SEMINORM_ONLY)
    with pytest.raises(ValueError):
        BvpSpec(0, BoundaryKind.DIRICHLET, dom)


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
