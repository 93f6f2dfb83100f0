import numpy as np
import pytest

from sobolev_adjoint.core import (
    Domain,
    GridFn,
    SpectralField,
    check_adjoint,
    fft_forward,
    fft_inverse,
    frequency_axes,
    identity_linop,
    inner,
    l2_norm,
    quad_weight,
)
from sobolev_adjoint import bvp
from sobolev_adjoint.multiplier import NormVariant, SobolevSpec, adjoint_embedding


def dft_oracle(domain, values):
    """Direct O(n^2) evaluation of <u, e_k> on a 1D periodic grid."""
    x = domain.axes()[0]
    h = quad_weight(domain)
    k = frequency_axes(domain)[0]
    return np.array([h * np.sum(values * np.exp(-2j * np.pi * kk * x)) for kk in k])


def test_fft_constant_is_dc_only():
    dom = Domain.torus(1, 64)
    c = fft_forward(GridFn(dom, np.ones(64)))
    assert abs(c.coeffs[0] - 1.0) < 1e-14
    assert np.max(np.abs(c.coeffs[1:])) < 1e-14


def test_fft_single_mode():
    dom = Domain.torus(1, 64)
    x = dom.axes()[0]
    c = fft_forward(GridFn(dom, np.exp(2j * np.pi * 3 * x)))
    assert abs(c.coeffs[3] - 1.0) < 1e-13
    mask = np.ones(64, bool)
    mask[3] = False
    assert np.max(np.abs(c.coeffs[mask])) < 1e-13


def test_fft_matches_direct_dft_and_round_trips():
    dom = Domain.torus(1, 32)
    rng = np.random.default_rng(7)
    u = GridFn(dom, rng.standard_normal(32))
    c = fft_forward(u)
    expected = dft_oracle(dom, u.values)
    assert np.max(np.abs(c.coeffs - expected)) < 1e-10
    # conjugate symmetry for real input: c[-k] == conj(c[k])
    k = np.fft.ifftshift(np.arange(-16, 16))
    for kk in range(1, 16):
        i, j = np.where(k == kk)[0][0], np.where(k == -kk)[0][0]
        assert abs(c.coeffs[i] - np.conj(c.coeffs[j])) < 1e-12
    back = fft_inverse(c)
    assert np.max(np.abs(back.values - u.values)) < 1e-12


def test_fft_real_line_matches_direct_dft():
    dom = Domain.real_line(5.0, 64)
    rng = np.random.default_rng(3)
    u = GridFn(dom, rng.standard_normal(64))
    c = fft_forward(u)
    expected = dft_oracle(dom, u.values)
    assert np.max(np.abs(c.coeffs - expected)) < 1e-12
    back = fft_inverse(c)
    assert np.max(np.abs(back.values - u.values)) < 1e-12


def test_fft_rejects_nonperiodic_domains():
    dom = Domain.interval(0.0, 1.0, 17)
    with pytest.raises(ValueError):
        fft_forward(GridFn(dom, np.zeros(17)))


def test_fft_inverse_basics():
    dom = Domain.torus(1, 16)
    c = np.zeros(16, complex)
    c[0] = 1.0
    assert np.max(np.abs(fft_inverse(SpectralField(dom, c)).values - 1.0)) < 1e-14
    c = np.zeros(16, complex)
    c[1] = 1.0
    x = dom.axes()[0]
    got = fft_inverse(SpectralField(dom, c)).values
    assert np.max(np.abs(got - np.exp(2j * np.pi * x))) < 1e-13


def test_spectral_field_size_mismatch():
    dom = Domain.torus(1, 16)
    with pytest.raises(ValueError):
        SpectralField(dom, np.zeros(8, complex))


def test_inner_unit_measure_and_orthogonality():
    for n in (16, 64, 256):
        dom = Domain.torus(1, n)
        one = GridFn(dom, np.ones(n))
        assert abs(inner(one, one) - 1.0) < 1e-14
    dom = Domain.torus(1, 64)
    x = dom.axes()[0]
    e1 = GridFn(dom, np.exp(2j * np.pi * x))
    e2 = GridFn(dom, np.exp(2j * np.pi * 2 * x))
    assert abs(inner(e1, e2)) <= 1e-14


def test_inner_matches_summation_oracle():
    dom = Domain.interval(0.0, 2.0, 33)
    rng = np.random.default_rng(11)
    u = GridFn(dom, rng.standard_normal(33) + 1j * rng.standard_normal(33))
    v = GridFn(dom, rng.standard_normal(33) + 1j * rng.standard_normal(33))
    h = dom.spacing[0]
    oracle = sum(h * u.values[i] * np.conj(v.values[i]) for i in range(33))
    got = inner(u, v)
    assert abs(got - oracle) <= 1e-13 * abs(oracle)
    # conjugate symmetry
    assert abs(inner(v, u) - np.conj(got)) < 1e-13


def test_inner_domain_mismatch():
    u = GridFn(Domain.torus(1, 16), np.ones(16))
    v = GridFn(Domain.torus(1, 32), np.ones(32))
    with pytest.raises(ValueError):
        inner(u, v)


def test_parseval_on_torus():
    dom = Domain.torus(2, 16)
    rng = np.random.default_rng(5)
    u = GridFn(dom, rng.standard_normal(256))
    c = fft_forward(u)
    spectral = np.sqrt(np.sum(np.abs(c.coeffs) ** 2))
    assert abs(spectral - l2_norm(u)) < 1e-12 * l2_norm(u)


def test_gridfn_invariants():
    dom = Domain.torus(1, 16)
    with pytest.raises(ValueError):
        GridFn(dom, np.ones(15))
    bad = np.ones(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridFn(dom, bad)
    with pytest.raises(ValueError):
        Domain.torus(1, 1)


def test_fft_on_odd_grids():
    # odd pixel counts (grids with a central pixel) round-trip and keep Parseval
    for dom in (Domain.torus(1, 27), Domain.torus(2, 15),
                Domain.real_line(5.0, 21)):
        rng = np.random.default_rng(13)
        u = GridFn(dom, rng.standard_normal(dom.grid_size))
        c = fft_forward(u)
        back = fft_inverse(c)
        assert np.max(np.abs(back.values - u.values)) < 1e-12
        if dom.kind.value == "torus":
            spectral = np.sqrt(np.sum(np.abs(c.coeffs) ** 2))
            assert abs(spectral - l2_norm(u)) < 1e-12 * l2_norm(u)
    # direct DFT oracle on an odd 1D torus
    dom = Domain.torus(1, 27)
    u = GridFn(dom, np.random.default_rng(14).standard_normal(27))
    got = fft_forward(u).coeffs
    assert np.max(np.abs(got - dft_oracle(dom, u.values))) < 1e-12


def test_disk_mask_geometry():
    dom = Domain.disk_mask(1.0, 8)
    # pixel-center-inside-circle test: corners inactive
    mask = dom.active.reshape(8, 8)
    assert not mask[0, 0] and not mask[7, 7]
    assert mask[4, 4]
    u = GridFn(dom, np.ones(dom.grid_size))
    # disk area approx pi r^2 at coarse resolution
    assert abs(inner(u, u).real - np.pi) < 0.2


def test_cell_box_geometry():
    dom = Domain.cells((2.0, 3.0), (4, 3), (-1.0, 0.5))
    assert dom.spacing == (0.5, 1.0)
    x, y = dom.axes()
    assert np.array_equal(x, [-0.75, -0.25, 0.25, 0.75])
    assert np.array_equal(y, [1.0, 2.0, 3.0])
    assert dom.grid_size == 12 and quad_weight(dom) == 0.5
    u = GridFn(dom, np.ones(12))
    assert inner(u, u).real == 6.0  # the box's area
    assert Domain.cells((1.0,), (1,), (0.0,)).grid_size == 1
    # neither periodic nor a boundary-value domain
    assert not dom.periodic
    with pytest.raises(ValueError):
        fft_forward(u)
    with pytest.raises(ValueError):
        adjoint_embedding(u, SobolevSpec(1.0))
    with pytest.raises(ValueError):
        bvp.solve_neumann_helmholtz(u)


@pytest.mark.parametrize("lengths, shape", [
    ((0.0, 1.0), (2, 2)),
    ((1.0, -1.0), (2, 2)),
    ((np.nan, 1.0), (2, 2)),
    ((1.0, np.inf), (2, 2)),
    ((1.0, 1.0), (0, 2)),
    ((1.0, 1.0), (2, -1)),
    ((1.0, 1.0), (2,)),  # one count for two sides
])
def test_cell_box_rejects_bad_sides(lengths, shape):
    with pytest.raises(ValueError):
        Domain.cells(lengths, shape, (0.0, 0.0))


def test_check_adjoint_identity_and_multiplier():
    dom = Domain.torus(1, 32)
    assert check_adjoint(identity_linop(dom), trials=5, seed=0) == 0.0

    spec = SobolevSpec(1.0, NormVariant.TORUS_S)
    from sobolev_adjoint.core import LinOp
    from sobolev_adjoint.multiplier import sobolev_inner

    op = LinOp(
        apply=lambda u: adjoint_embedding(u, spec),
        apply_adjoint=lambda u: u,
        domain_inner=inner,
        codomain_inner=lambda a, b: sobolev_inner(a, b, spec),
        domain=dom,
        codomain=dom,
    )
    assert check_adjoint(op, trials=10, seed=1) < 1e-12


def test_check_adjoint_deterministic():
    dom = Domain.torus(1, 16)
    spec = SobolevSpec(0.5)
    from sobolev_adjoint.core import LinOp
    from sobolev_adjoint.multiplier import sobolev_inner

    op = LinOp(
        apply=lambda u: adjoint_embedding(u, spec),
        apply_adjoint=lambda u: u,
        domain_inner=inner,
        codomain_inner=lambda a, b: sobolev_inner(a, b, spec),
        domain=dom,
        codomain=dom,
    )
    assert check_adjoint(op, 7, seed=42) == check_adjoint(op, 7, seed=42)
