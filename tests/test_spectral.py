import numpy as np
import pytest
import scipy.special

from sobolev_adjoint.core import Domain, GridFn, inner, l2_norm, quad_weight
from sobolev_adjoint.bvp import solve_dirichlet_poisson_2d
from sobolev_adjoint.multiplier import (
    NormVariant,
    SobolevSpec,
    adjoint_embedding,
    sobolev_inner,
)
from sobolev_adjoint.spectral import (
    bessel_j,
    bessel_j_zero,
    disk_dirichlet_eigs,
    rectangle_dirichlet_eigs,
    svd_from_multiplier,
)


def test_bessel_j_values():
    assert bessel_j(0, 0.0) == 1.0
    assert abs(bessel_j(1, 0.0)) < 1e-15
    for m in (0, 1, 2, 5, 10):
        for x in np.linspace(0.1, 60.0, 25):
            assert abs(bessel_j(m, x) - scipy.special.jv(m, x)) < 1e-10


def test_bessel_j_zero_values():
    j01 = bessel_j_zero(0, 1)
    assert 2.40 <= j01 <= 2.41
    assert abs(j01 - 2.404825557695773) < 1e-10
    assert abs(bessel_j(0, j01)) < 1e-9
    assert abs(bessel_j_zero(1, 1) - 3.8317059702075125) < 1e-10


def test_bessel_j_zero_table_against_oracle():
    for m in (0, 1, 3, 7, 10):
        ref = scipy.special.jn_zeros(m, 20)
        for n in (1, 5, 20):
            assert abs(bessel_j_zero(m, n) - ref[n - 1]) < 1e-9


def test_rectangle_eigs_values_and_orthonormality():
    grid = Domain.rectangle(1.0, 1.0, 129, 129)
    eigs = rectangle_dirichlet_eigs(grid, 4, 4)
    assert abs(eigs.sigmas[0] ** -2 - 2 * np.pi**2) < 1e-12
    assert np.all(np.diff(eigs.sigmas) <= 0)
    gram = quad_weight(grid) * eigs.basis @ eigs.basis.T
    assert np.max(np.abs(gram - np.eye(eigs.count))) < 1e-8


def test_rectangle_eigs_reject_empty_systems():
    grid = Domain.rectangle(1.0, 1.0, 9, 9)
    for max_m, max_n, name in ((0, 3, "max_m"), (3, 0, "max_n")):
        with pytest.raises(ValueError, match=name):
            rectangle_dirichlet_eigs(grid, max_m, max_n)


def test_rectangle_eigs_satisfy_fd_laplacian():
    grid = Domain.rectangle(1.0, 1.0, 129, 129)
    eigs = rectangle_dirichlet_eigs(grid, 2, 2)
    lam = eigs.sigmas[0] ** -2
    arr = GridFn(grid, eigs.basis[0]).to_array()
    h = grid.spacing[0]
    lap = -(arr[2:, 1:-1] + arr[:-2, 1:-1] + arr[1:-1, 2:] + arr[1:-1, :-2]
            - 4 * arr[1:-1, 1:-1]) / h**2
    core = np.abs(arr[1:-1, 1:-1]) > 0.1
    ratio = lap[core] / arr[1:-1, 1:-1][core]
    assert np.max(np.abs(ratio / lam - 1.0)) < 1e-3  # O(h^2) stencil defect


def _disk_box(radius, n):
    return Domain.cells((2.0 * radius,) * 2, (n, n), (-radius,) * 2)


def test_disk_eigs():
    grid = _disk_box(1.0, 201)
    eigs = disk_dirichlet_eigs(grid, 2, 2)
    lams = eigs.sigmas ** -2
    assert abs(lams[0] - 5.783185962946785) < 1e-10
    # rows vanish at pixels whose centres lie outside the circle
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    inside = X**2 + Y**2 < 1.0
    assert np.all(eigs.basis[:, ~inside.ravel()] == 0.0)
    assert np.all(np.any(eigs.basis[:, inside.ravel()] != 0.0, axis=1))
    # boundary condition at grid tolerance
    arr = GridFn(grid, eigs.basis[0]).to_array()
    ring = (np.sqrt(X**2 + Y**2) > 0.98) & inside
    assert np.max(np.abs(arr[ring])) < 0.05 * np.max(np.abs(arr))
    # orthonormal in the pixel quadrature
    gram = quad_weight(grid) * eigs.basis @ eigs.basis.T
    assert np.max(np.abs(gram - np.eye(eigs.count))) < 1e-12
    # m=0 keeps only the cosine branch: eigenvalues appear once for m=0
    assert np.sum(np.abs(lams - lams[0]) < 1e-9) == 1
    # (m, n) in {0, 1, 2} x {1, 2}, two branches for m > 0
    assert eigs.count == 10 and np.all(np.diff(eigs.sigmas) <= 0)


def test_disk_eigs_reject_empty_systems():
    grid = _disk_box(1.0, 21)
    assert disk_dirichlet_eigs(grid, 0, 1).count == 1
    for max_m, max_n, name in ((-1, 2, "max_m"), (2, 0, "max_n")):
        with pytest.raises(ValueError, match=name):
            disk_dirichlet_eigs(grid, max_m, max_n)
    # 12 modes on the 12 inside pixels of a 4-pixel box: no orthonormal basis
    with pytest.raises(ValueError, match="linearly dependent"):
        disk_dirichlet_eigs(_disk_box(1.0, 4), 1, 4)


@pytest.mark.parametrize("grid", [
    Domain.rectangle(2.0, 2.0, 21, 21),  # not a cell box
    Domain.torus(2, 21),
    Domain.cells((2.0,), (21,), (-1.0,)),  # one dimension
    Domain.cells((2.0, 2.0), (21, 19), (-1.0, -1.0)),  # not square
    Domain.cells((2.0, 1.0), (21, 21), (-1.0, -0.5)),
    Domain.cells((2.0, 2.0), (21, 21), (0.0, 0.0)),  # off centre
    Domain.cells((2.0, 2.0), (21, 21), (-1.0, -0.9)),
], ids=["rectangle", "torus", "1d", "counts", "sides", "corner", "shifted"])
def test_disk_eigs_reject_other_grids(grid):
    with pytest.raises(ValueError, match="square Domain.cells box centred"):
        disk_dirichlet_eigs(grid, 1, 1)


def test_rectangle_eigs_reject_other_grids():
    for grid in (Domain.torus(2, 9), _disk_box(1.0, 9)):
        with pytest.raises(ValueError, match="rectangle domain"):
            rectangle_dirichlet_eigs(grid, 2, 2)
    grid = Domain.rectangle(2.0, 0.5, 33, 17)
    eigs = rectangle_dirichlet_eigs(grid, 1, 1)
    assert abs(eigs.sigmas[0] ** -2 - np.pi**2 * (1 / 4 + 4)) < 1e-12


def test_adjoint_embedding_eigs_basics():
    grid = Domain.rectangle(1.0, 1.0, 65, 65)
    eigs = rectangle_dirichlet_eigs(grid, 3, 3)
    smooth = eigs.adjoint_linop().apply
    f = GridFn(grid, eigs.basis[0])
    out = smooth(f)
    assert out.is_real
    assert np.max(np.abs(out.values - f.values * eigs.sigmas[0] ** 2)) < 1e-12
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    probe = GridFn(grid, (np.sin(5 * np.pi * X) * np.sin(4 * np.pi * Y)).ravel())
    assert l2_norm(smooth(probe)) < 1e-14
    with pytest.raises(ValueError, match="domain"):
        smooth(GridFn(Domain.torus(2, 65), f.values))


def test_eigenexpansion_matches_fd_dirichlet_solve():
    grid = Domain.rectangle(1.0, 1.0, 129, 129)
    u = GridFn(grid, np.ones(129 * 129))
    eigs = rectangle_dirichlet_eigs(grid, 10, 10)
    z_eig = eigs.adjoint_linop().apply(u)
    z_fd = solve_dirichlet_poisson_2d(u)
    assert l2_norm(z_eig - z_fd) / l2_norm(z_fd) < 2e-2


def test_truncation_monotonicity():
    grid = Domain.rectangle(1.0, 1.0, 65, 65)
    u = GridFn(grid, np.ones(65 * 65))
    z_fd = solve_dirichlet_poisson_2d(u)
    errs = []
    for mx in (4, 6, 8, 10):
        eigs = rectangle_dirichlet_eigs(grid, mx, mx)
        errs.append(l2_norm(eigs.apply_adjoint(u) - z_fd))
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_eigenexpansion_self_adjoint_psd():
    grid = Domain.rectangle(1.0, 1.0, 33, 33)
    eigs = rectangle_dirichlet_eigs(grid, 4, 4)
    rng = np.random.default_rng(0)
    u = GridFn(grid, rng.standard_normal(33 * 33))
    v = GridFn(grid, rng.standard_normal(33 * 33))
    Bu, Bv = eigs.apply_adjoint(u), eigs.apply_adjoint(v)
    assert abs(inner(Bu, v) - inner(u, Bv)) < 1e-12
    assert inner(Bu, u).real >= 0.0


def test_svd_triples_and_reconstruction():
    dom = Domain.torus(1, 64)
    spec = SobolevSpec(1.0, NormVariant.TORUS_S)
    svd = svd_from_multiplier(spec, dom, 33)
    assert svd.sigmas[0] == 1.0
    assert abs(svd.sigmas[1] - (1 + 4 * np.pi**2) ** -0.5) < 1e-12
    assert abs(svd.sigmas[1] - 0.15717672547758985) < 1e-10
    # v_k = sigma_k u_k is orthonormal in H^s
    for i in (0, 1, 2):
        vk = GridFn(dom, svd.sigmas[i] * svd.basis[i])
        assert abs(sobolev_inner(vk, vk, spec) - 1.0) < 1e-10

    x = dom.axes()[0]
    rng = np.random.default_rng(1)
    vals = np.zeros(64)
    for k in range(1, 9):
        a, b = rng.standard_normal(2)
        vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    u = GridFn(dom, vals)
    rec = svd.apply_adjoint(u)
    ref = adjoint_embedding(u, spec)
    assert l2_norm(GridFn(dom, rec.values - ref.values)) / l2_norm(u) < 1e-10
    emb = svd.apply_embedding(u)
    assert l2_norm(GridFn(dom, emb.values - u.values)) / l2_norm(u) < 1e-10


def test_svd_sigma_consistency_with_composition():
    # sigma_k^2 equals the per-mode eigenvalue of E E* (the inverse weight)
    dom = Domain.torus(1, 32)
    spec = SobolevSpec(1.5, NormVariant.TORUS_S)
    svd = svd_from_multiplier(spec, dom, 9)
    for sig, uk in zip(svd.sigmas, svd.basis):
        smooth = adjoint_embedding(GridFn(dom, uk), spec)
        lam = (smooth.values[0] / uk[0]).real
        assert abs(sig**2 - lam) < 1e-12


def test_svd_rejects_bad_requests():
    dom = Domain.torus(1, 16)
    spec = SobolevSpec(1.0, NormVariant.TORUS_S)
    with pytest.raises(ValueError):
        svd_from_multiplier(spec, dom, 17)
    with pytest.raises(ValueError):
        svd_from_multiplier(spec, Domain.interval(0, 1, 17), 4)
