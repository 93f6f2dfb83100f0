from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_adjoint import bvp, cli, core, multiplier
from sobolev_adjoint.core import Domain, GridFn, inner, l2_norm
from sobolev_adjoint.bvp import h1_gram, mass_gram, solve_neumann_helmholtz
from sobolev_adjoint.discrete import (
    adjoint_linop,
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
    sobolev_gram,
    sobolev_inner,
    sobolev_weight,
)

SPEC = SobolevSpec(1.0, NormVariant.TORUS_S)
GRAM = partial(sobolev_gram, spec=SPEC)


def torus_setting(n=64, kmax=4):
    dom = Domain.torus(1, n)
    fns, kvecs = fourier_mode_basis(dom, kmax)
    setting = assemble(dom, fns, fns, GRAM)
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
        assemble(dom, fns[[0, 0]], fns, GRAM)


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
    setting = assemble(dom, hats, hats, h1_gram, mass_gram)
    u = GridFn(dom, np.random.default_rng(1).standard_normal(65))
    _, zfn = projected_adjoint(setting, u)
    zb = solve_neumann_helmholtz(u)
    assert np.max(np.abs(zfn.values.real - zb.values)) < 1e-10


def test_hat_basis_coarse_subspace_matches_projected_bvp():
    dom = Domain.interval(0.0, 1.0, 129)
    setting = assemble(dom, hat_basis(dom, 2), hat_basis(dom, 1), h1_gram, mass_gram)
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
        lhs = sobolev_inner(zfn, GridFn(dom, phi), SPEC)
        rhs = inner(qu, GridFn(dom, phi))
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
    # the checks each GridFn made on a basis function, made on the stack and
    # naming the basis
    dom = Domain.torus(1, 64)
    good, _ = fourier_mode_basis(dom, 1)
    nan, inf = good.copy(), good.copy()
    nan[1, 5], inf[2, 0] = np.nan, np.inf
    bad = [[], good[:0], good[0], good[:, :32], np.ones((1, 32)), nan, inf]
    for name in ("basis_x", "basis_y"):
        for basis in bad:
            with pytest.raises(ValueError, match=name):
                assemble(dom, gram_x=GRAM, **{"basis_x": good, "basis_y": good,
                                               name: basis})


def test_fourier_mode_basis_order():
    dom = Domain.torus(2, 8)
    fns, kvecs = fourier_mode_basis(dom, 1)
    assert kvecs == [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0),
                     (-1, -1), (-1, 1), (1, -1), (1, 1)]
    x, y = np.meshgrid(*dom.axes(), indexing="ij")
    for f, (k1, k2) in zip(fns, kvecs):
        assert np.allclose(f, np.exp(2j * np.pi * (k1 * x + k2 * y)).ravel(),
                           rtol=0, atol=1e-14)


def test_applies_reuse_the_assembled_factors(monkeypatch):
    dom, _, _, setting = torus_setting()
    u = GridFn(dom, np.cos(2 * np.pi * dom.axes()[0]))

    def refuse(*args, **kwargs):
        raise AssertionError("an apply factored a Gram matrix again")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    projected_adjoint(setting, u)
    project_onto_x(setting, u)
    project_onto_y(setting, u)


@pytest.mark.parametrize("apply", [projected_adjoint, project_onto_x, project_onto_y],
                         ids=lambda f: f.__name__)
def test_applies_reject_input_on_another_grid(apply):
    _, _, _, setting = torus_setting()
    for other in (Domain.torus(1, 32), Domain.interval(0.0, 1.0, 64)):
        with pytest.raises(ValueError, match="domain mismatch"):
            apply(setting, GridFn(other, np.ones(other.grid_size)))


def test_crosscheck_setting_makes_no_per_entry_inner_product(monkeypatch):
    # the CrossCheck1D setting: its Grams, an apply and an adjoint apply need no
    # scalar Sobolev inner product and no per-function transform
    def refuse(*args, **kwargs):
        raise AssertionError("a Gram was built one entry or one function at a time")

    dom = Domain.torus(1, 1024)
    spec = SobolevSpec(0.75, NormVariant.BESSEL_V1)
    basis, _ = fourier_mode_basis(dom, cli._CROSSCHECK_KMAX)
    monkeypatch.setattr(multiplier, "sobolev_inner", refuse)
    monkeypatch.setattr(multiplier, "fft_forward", refuse)
    op = adjoint_linop(assemble(dom, basis, basis, partial(sobolev_gram, spec=spec)))
    u = GridFn(dom, np.cos(2 * np.pi * 3 * dom.axes()[0]))
    assert l2_norm(op.apply(u)) > 0 and l2_norm(op.apply_adjoint(u)) > 0


def _entrywise_gram(domain, a, b, ip):
    # the reference: one scalar inner-product call per entry, G[k, j] = ip(b_j, a_k)
    out = np.empty((len(a), len(b)), dtype=np.complex128)
    for k, fa in enumerate(a):
        for j, fb in enumerate(b):
            out[k, j] = ip(GridFn(domain, fb), GridFn(domain, fa))
    return out


def _sobolev_pair(variant):
    def draw_pair(draw):
        if variant is NormVariant.SERIES_M:
            spec = SobolevSpec(draw(st.integers(0, 3)), variant)
        else:
            low = 1.0 if variant is NormVariant.BESSEL_V2 else 0.0
            spec = SobolevSpec(draw(st.floats(low, 3.0)), variant)
        return (partial(sobolev_gram, spec=spec),
                lambda u, v: sobolev_inner(u, v, spec))
    return draw_pair


_PERIODIC = {"1D torus": lambda draw: Domain.torus(1, draw(st.integers(2, 40))),
             "2D torus": lambda draw: Domain.torus(2, draw(st.integers(2, 12))),
             "real line": lambda draw: Domain.real_line(draw(st.floats(0.5, 10.0)),
                                                        draw(st.integers(2, 40)))}
_BOUNDED = {"interval": lambda draw: Domain.interval(0.0, draw(st.floats(0.5, 4.0)),
                                                     draw(st.integers(2, 40))),
            "rectangle": lambda draw: Domain.rectangle(
                draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0)),
                draw(st.integers(2, 12)), draw(st.integers(2, 12)))}
_LINE_VARIANTS = (NormVariant.BESSEL_V1, NormVariant.BESSEL_V2)
GRAM_CASES = (
    [(d, "L2", lambda draw: (core.gram, core.inner)) for d in _PERIODIC]
    + [(d, v.name, _sobolev_pair(v)) for d in _PERIODIC for v in NormVariant
       if d != "real line" or v in _LINE_VARIANTS]
    + [(d, "mass", lambda draw: (bvp.mass_gram, bvp.mass_inner)) for d in _BOUNDED]
    + [(d, "H1", lambda draw: (bvp.h1_gram, bvp.h1_inner)) for d in _BOUNDED])


@pytest.mark.parametrize("where, product, pair", GRAM_CASES,
                         ids=[f"{d}-{p}" for d, p, _ in GRAM_CASES])
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_gram_matches_its_scalar_inner_product(where, product, pair, data):
    dom = {**_PERIODIC, **_BOUNDED}[where](data.draw)
    gram_fn, ip = pair(data.draw)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def stack():
        rows = rng.standard_normal((data.draw(st.integers(1, 6)), dom.grid_size))
        return rows + 1j * rng.standard_normal(rows.shape) if data.draw(st.booleans()) \
            else rows

    a, b = stack(), stack()
    got = gram_fn(dom, a, b)
    ref = _entrywise_gram(dom, a, b, ip)
    norm_a = np.sqrt(np.diag(_entrywise_gram(dom, a, a, ip)).real)
    norm_b = np.sqrt(np.diag(_entrywise_gram(dom, b, b, ip)).real)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.outer(norm_a, norm_b))
