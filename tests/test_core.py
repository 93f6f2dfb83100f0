import numpy as np
import pytest

from sobolev_adjoint.core import (
    Domain,
    GridFn,
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
from sobolev_adjoint.multiplier import (
    NormVariant,
    SobolevSpec,
    adjoint_embedding,
    adjoint_linop,
)


def dft_oracle(domain, values):
    """Direct O(n^2) evaluation of <u, e_k> on a 1D periodic grid."""
    x = domain.axes()[0]
    h = quad_weight(domain)
    k = frequency_axes(domain)[0]
    return np.array([h * np.sum(values * np.exp(-2j * np.pi * kk * x)) for kk in k])


def test_fft_constant_is_dc_only():
    dom = Domain.torus(1, 64)
    c = fft_forward(GridFn(dom, np.ones(64)))
    assert abs(c[0] - 1.0) < 1e-14
    assert np.max(np.abs(c[1:])) < 1e-14


def test_fft_single_mode():
    dom = Domain.torus(1, 64)
    x = dom.axes()[0]
    c = fft_forward(GridFn(dom, np.exp(2j * np.pi * 3 * x)))
    assert abs(c[3] - 1.0) < 1e-13
    mask = np.ones(64, bool)
    mask[3] = False
    assert np.max(np.abs(c[mask])) < 1e-13


def test_fft_matches_direct_dft_and_round_trips():
    dom = Domain.torus(1, 32)
    rng = np.random.default_rng(7)
    u = GridFn(dom, rng.standard_normal(32))
    c = fft_forward(u)
    expected = dft_oracle(dom, u.values)
    assert np.max(np.abs(c - expected)) < 1e-10
    # conjugate symmetry for real input: c[-k] == conj(c[k])
    k = np.fft.ifftshift(np.arange(-16, 16))
    for kk in range(1, 16):
        i, j = np.where(k == kk)[0][0], np.where(k == -kk)[0][0]
        assert abs(c[i] - np.conj(c[j])) < 1e-12
    back = fft_inverse(dom, c)
    assert np.max(np.abs(back.values - u.values)) < 1e-12


def test_fft_real_line_matches_direct_dft():
    dom = Domain.real_line(5.0, 64)
    rng = np.random.default_rng(3)
    u = GridFn(dom, rng.standard_normal(64))
    c = fft_forward(u)
    expected = dft_oracle(dom, u.values)
    assert np.max(np.abs(c - expected)) < 1e-12
    back = fft_inverse(dom, c)
    assert np.max(np.abs(back.values - u.values)) < 1e-12


def test_fft_rejects_nonperiodic_domains():
    dom = Domain.interval(0.0, 1.0, 17)
    with pytest.raises(ValueError):
        fft_forward(GridFn(dom, np.zeros(17)))


def test_fft_inverse_basics():
    dom = Domain.torus(1, 16)
    c = np.zeros(16, complex)
    c[0] = 1.0
    assert np.max(np.abs(fft_inverse(dom, c).values - 1.0)) < 1e-14
    c = np.zeros(16, complex)
    c[1] = 1.0
    x = dom.axes()[0]
    got = fft_inverse(dom, c).values
    assert np.max(np.abs(got - np.exp(2j * np.pi * x))) < 1e-13


def test_fft_inverse_rejects_bad_input():
    with pytest.raises(ValueError, match="torus or real-line"):
        fft_inverse(Domain.interval(0.0, 1.0, 16), np.zeros(16, complex))
    with pytest.raises(ValueError, match="coefficient shape"):
        fft_inverse(Domain.torus(1, 16), np.zeros(8, complex))
    with pytest.raises(ValueError, match="coefficient shape"):
        fft_inverse(Domain.torus(2, 4), np.zeros(16, complex))  # flat, not 4x4


def test_fft_forward_is_complex128():
    for dom in (Domain.torus(2, 8), Domain.real_line(2.0, 16)):
        u = GridFn(dom, np.arange(dom.grid_size, dtype=np.float32))
        c = fft_forward(u)
        assert c.dtype == np.complex128 and c.shape == dom.shape
        want = fft_forward(GridFn(dom, u.values.astype(np.float64)))
        assert np.max(np.abs(c - want)) < 1e-4 * np.max(np.abs(want))


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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32, np.complex64])
def test_l2_norm_agrees_with_numpy(dtype):
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    for n in (1, 2, 7, 8, 9, 127, 1000, 10_001, 54_000):
        dom = Domain.cells((2.0,), (n,), (0.0,))
        vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        if np.dtype(dtype).kind == "c":
            vals = vals + 1j * rng.standard_normal(n)
        u = GridFn(dom, vals.astype(dtype))
        assert u.values.dtype == dtype
        # single precision is summed in double: its parts as contiguous doubles
        # (np.linalg.norm on complex input sums strided parts, ~2e-15 off at 54k)
        parts = u.values.view(u.values.real.dtype).astype(np.float64)
        want = np.sqrt(2.0 / n) * np.linalg.norm(parts)
        assert abs(l2_norm(u) - want) <= 1e-15 * want, n
        if dtype == np.complex64:
            wide = GridFn(dom, u.values.astype(np.complex128))
            assert l2_norm(u) == l2_norm(wide)


def test_l2_norm_calls_no_blas(monkeypatch):
    def blas(*args, **kwargs):
        raise AssertionError("BLAS call")

    u = GridFn(Domain.torus(2, 128), np.random.default_rng(0).standard_normal(128**2))
    want = l2_norm(u)
    for name in ("dot", "vdot", "inner"):
        monkeypatch.setattr(np, name, blas)
    monkeypatch.setattr(np.linalg, "norm", blas)
    assert l2_norm(u) == want


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
    spectral = np.sqrt(np.sum(np.abs(c) ** 2))
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
        back = fft_inverse(dom, c)
        assert np.max(np.abs(back.values - u.values)) < 1e-12
        if dom.kind.value == "torus":
            spectral = np.sqrt(np.sum(np.abs(c) ** 2))
            assert abs(spectral - l2_norm(u)) < 1e-12 * l2_norm(u)
    # direct DFT oracle on an odd 1D torus
    dom = Domain.torus(1, 27)
    u = GridFn(dom, np.random.default_rng(14).standard_normal(27))
    got = fft_forward(u)
    assert np.max(np.abs(got - dft_oracle(dom, u.values))) < 1e-12


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


@pytest.mark.parametrize("origin", [np.nan, np.inf, -np.inf])
def test_cell_box_rejects_non_finite_origin(origin):
    with pytest.raises(ValueError, match="origin="):
        Domain.cells((1.0,), (4,), (origin,))


@pytest.mark.parametrize("build, args, name", [
    (Domain.torus, (1, 64.0), "points_per_dim="),
    (Domain.torus, (1.0, 64), "n_dims="),
    (Domain.interval, (0.0, 1.0, 4.5), "points="),
    (Domain.rectangle, (1.0, 1.0, 4.0, 4), "nx="),
    (Domain.rectangle, (1.0, 1.0, 4, np.float64(4)), "ny="),
    (Domain.real_line, (1.0, 8.0), "points="),
    (Domain.cells, ((1.0, 1.0), (4, 4.0), (0.0, 0.0)), r"shape\[1\]="),
], ids=["torus-points", "torus-dims", "interval", "rectangle-nx", "rectangle-ny",
        "real_line", "cells"])
def test_constructors_reject_non_integer_counts(build, args, name):
    with pytest.raises(ValueError, match=name):
        build(*args)


def test_constructors_accept_numpy_integer_counts():
    assert Domain.torus(1, np.int64(64)) == Domain.torus(1, 64)
    assert Domain.cells((1.0,), (np.int32(4),), (0.0,)).grid_size == 4


@pytest.mark.parametrize("size", [np.nan, np.inf])
def test_rectangle_rejects_non_finite_sides(size):
    for sides, name in (((size, 1.0), "a="), ((1.0, size), "b=")):
        with pytest.raises(ValueError, match=name):
            Domain.rectangle(*sides, 4, 4)


@pytest.mark.parametrize("size", [np.nan, np.inf])
def test_real_line_rejects_non_finite_half_width(size):
    with pytest.raises(ValueError, match="half_width="):
        Domain.real_line(size, 8)


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan),
                                  (np.nan, 1.0)])
def test_interval_rejects_non_finite_endpoints(a, b):
    with pytest.raises(ValueError, match="finite"):
        Domain.interval(a, b, 8)


def test_check_adjoint_identity_and_multiplier():
    dom = Domain.torus(1, 32)
    assert check_adjoint(identity_linop(dom), trials=5, seed=0) == 0.0
    op = adjoint_linop(dom, SobolevSpec(1.0, NormVariant.TORUS_S))
    assert check_adjoint(op, trials=10, seed=1) < 1e-12


def test_check_adjoint_deterministic():
    op = adjoint_linop(Domain.torus(1, 16), SobolevSpec(0.5))
    assert check_adjoint(op, 7, seed=42) == check_adjoint(op, 7, seed=42)
