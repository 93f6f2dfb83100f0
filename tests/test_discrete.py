import numpy as np
import pytest
import scipy.linalg

from sobolev_adjoint.core import Domain, GridFn, inner, l2_norm
from sobolev_adjoint.bvp import h1_inner, mass_inner, solve_neumann_helmholtz
from sobolev_adjoint.discrete import (
    assemble,
    fourier_mode_basis,
    hat_basis,
    project_onto_x,
    project_onto_y,
    projected_adjoint,
)
from sobolev_adjoint.multiplier import (
    NormVariant,
    SobolevSpec,
    adjoint_embedding,
    sobolev_inner,
    sobolev_weight,
)

SPEC = SobolevSpec(1.0, NormVariant.TORUS_S)


def torus_setting(n=64, kmax=4):
    dom = Domain.torus(1, n)
    fns, kvecs = fourier_mode_basis(dom, kmax)
    setting = assemble(fns, fns, lambda a, b: sobolev_inner(a, b, SPEC))
    return dom, fns, kvecs, setting


def test_orthonormal_basis_gives_identity_l2_gram():
    _, fns, _, setting = torus_setting()
    assert np.max(np.abs(setting.h_y - np.eye(len(fns)))) < 1e-12


def test_torus_mode_gram_is_diagonal_with_multiplier_weights():
    _, fns, kvecs, setting = torus_setting()
    diag = np.diag(setting.h_x)
    off = setting.h_x - np.diag(diag)
    assert np.max(np.abs(off)) < 1e-12
    for kv, d in zip(kvecs, diag):
        assert abs(d - sobolev_weight(np.array(kv), SPEC)) < 1e-10


def test_duplicate_basis_vector_fails_spd():
    dom = Domain.torus(1, 64)
    fns, _ = fourier_mode_basis(dom, 2)
    with pytest.raises(ValueError):
        assemble([fns[0], fns[0]], fns, lambda a, b: sobolev_inner(a, b, SPEC))


def test_projected_adjoint_orthogonal_input_is_zero():
    dom, _, _, setting = torus_setting()
    x = dom.axes()[0]
    probe = GridFn(dom, np.exp(2j * np.pi * 9 * x))  # outside |k| <= 4
    z, _ = projected_adjoint(setting, probe)
    assert np.max(np.abs(z)) < 1e-13


def test_projected_adjoint_matches_multiplier_on_band():
    dom, _, _, setting = torus_setting()
    rng = np.random.default_rng(0)
    x = dom.axes()[0]
    vals = np.zeros(64, complex)
    for k in range(1, 5):
        a, b = rng.standard_normal(2)
        vals += a * np.exp(2j * np.pi * k * x) + b * np.exp(-2j * np.pi * k * x)
    u = GridFn(dom, vals)
    _, zfn = projected_adjoint(setting, u)
    ref = adjoint_embedding(u, SPEC)
    assert np.max(np.abs(zfn.values - ref.values)) < 1e-12


def test_hat_basis_full_grid_replicates_bvp_solve():
    dom = Domain.interval(0.0, 1.0, 65)
    hats = hat_basis(dom)
    setting = assemble(hats, hats, h1_inner, mass_inner)
    u = GridFn(dom, np.random.default_rng(1).standard_normal(65))
    _, zfn = projected_adjoint(setting, u)
    zb = solve_neumann_helmholtz(u)
    assert np.max(np.abs(zfn.values.real - zb.values)) < 1e-10


def test_hat_basis_coarse_subspace_matches_projected_bvp():
    dom = Domain.interval(0.0, 1.0, 129)
    setting = assemble(hat_basis(dom, 2), hat_basis(dom, 1), h1_inner, mass_inner)
    x = dom.axes()[0]
    u = GridFn(dom, (1 + 4 * np.pi**2) * np.cos(2 * np.pi * x))
    _, zfn = projected_adjoint(setting, u)
    proj = project_onto_x(setting, solve_neumann_helmholtz(u))
    assert l2_norm(GridFn(dom, zfn.values - proj.values)) < 1e-10


def test_discrete_adjoint_identity():
    dom, _, _, setting = torus_setting()
    u = GridFn(dom, np.random.default_rng(2).standard_normal(64))
    _, zfn = projected_adjoint(setting, u)
    qu = project_onto_y(setting, u)
    for phi in setting.basis_x:
        lhs = sobolev_inner(zfn, phi, SPEC)
        rhs = inner(qu, phi)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1.0)


def test_projection_idempotence():
    dom, _, _, setting = torus_setting()
    u = GridFn(dom, np.random.default_rng(3).standard_normal(64))
    qu = project_onto_y(setting, u)
    z1, _ = projected_adjoint(setting, u)
    z2, _ = projected_adjoint(setting, qu)
    assert np.max(np.abs(z1 - z2)) < 1e-12


def test_composite_self_adjoint_psd_on_span():
    # u -> Q E (projected smoothing of u) is self-adjoint PSD on span(psi)
    dom, _, _, setting = torus_setting(kmax=3)
    rng = np.random.default_rng(4)

    def composite(w):
        _, zfn = projected_adjoint(setting, w)
        return project_onto_y(setting, zfn)

    u = project_onto_y(setting, GridFn(dom, rng.standard_normal(64)))
    v = project_onto_y(setting, GridFn(dom, rng.standard_normal(64)))
    lhs = inner(composite(u), v)
    rhs = inner(u, composite(v))
    assert abs(lhs - rhs) < 1e-12
    assert inner(composite(u), u).real >= -1e-14


def test_assemble_input_validation():
    dom = Domain.torus(1, 64)
    fns, _ = fourier_mode_basis(dom, 1)
    with pytest.raises(ValueError):
        assemble([], fns, lambda a, b: sobolev_inner(a, b, SPEC))
    other = GridFn(Domain.torus(1, 32), np.ones(32))
    with pytest.raises(ValueError):
        assemble(fns, [other], lambda a, b: sobolev_inner(a, b, SPEC))


def test_fourier_mode_basis_order():
    dom = Domain.torus(2, 8)
    fns, kvecs = fourier_mode_basis(dom, 1)
    assert kvecs == [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0),
                     (-1, -1), (-1, 1), (1, -1), (1, 1)]
    x, y = np.meshgrid(*dom.axes(), indexing="ij")
    for f, (k1, k2) in zip(fns, kvecs):
        assert np.allclose(f.values, np.exp(2j * np.pi * (k1 * x + k2 * y)).ravel(),
                           rtol=0, atol=1e-14)


def test_applies_reuse_the_assembled_factors(monkeypatch):
    dom, _, _, setting = torus_setting()
    u = GridFn(dom, np.cos(2 * np.pi * dom.axes()[0]))

    def refuse(*args, **kwargs):
        raise AssertionError("an apply factored a Gram matrix again")

    monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    projected_adjoint(setting, u)
    project_onto_x(setting, u)
    project_onto_y(setting, u)
