import numpy as np
import pytest

from sobolev_adjoint.core import Domain, GridFn, inner, l2_norm
from sobolev_adjoint.multiplier import NormVariant, SobolevSpec, sobolev_norm
from sobolev_adjoint.wavelet import (
    DB4,
    HAAR,
    WaveletBasis,
    adjoint_embedding_wavelet,
    adjoint_linop,
    fwt,
    ifwt,
    wavelet_sobolev_inner,
    wavelet_sobolev_norm,
)


def rand_fn(n, seed):
    rng = np.random.default_rng(seed)
    return GridFn(Domain.torus(1, n), rng.standard_normal(n))


def unit_atom(dom, basis, levels, level_j, position):
    """Unit-L2-norm wavelet atom at detail level j."""
    approx, details = fwt(GridFn(dom, np.zeros(dom.grid_size)), basis, levels)
    details[level_j][position] = 1.0
    atom = ifwt(dom, basis, approx, details)
    return atom * (1.0 / l2_norm(atom))


def test_filter_orthonormality():
    for basis in (HAAR, DB4):
        lo, hi = basis.lo, basis.hi
        assert abs(np.sum(lo**2) - 1.0) < 1e-14
        assert abs(np.sum(hi**2) - 1.0) < 1e-14
        assert abs(np.dot(lo, hi)) < 1e-14
        if lo.size > 2:  # shift orthogonality
            assert abs(np.sum(lo[:-2] * lo[2:])) < 1e-14


def test_basis_rejects_unnormalized_filter():
    with pytest.raises(ValueError):
        WaveletBasis("bad", np.array([1.0, 1.0]), 0.0)


def test_haar_constant_has_no_details():
    dom = Domain.torus(1, 32)
    _, details = fwt(GridFn(dom, np.ones(32)), HAAR, 3)
    for d in details:
        assert np.max(np.abs(d)) < 1e-14


def test_haar_square_wave_single_detail_level():
    # hand computation: [1,1,-1,-1] puts all energy in the coarsest detail
    dom = Domain.torus(1, 4)
    approx, details = fwt(GridFn(dom, np.array([1.0, 1.0, -1.0, -1.0])), HAAR, 2)
    assert np.max(np.abs(approx)) < 1e-14
    assert np.max(np.abs(details[1])) < 1e-14
    assert abs(abs(details[0][0]) - 2.0) < 1e-14


def test_parseval_and_coefficient_count():
    u = rand_fn(64, 0)
    for basis in (HAAR, DB4):
        approx, details = fwt(u, basis, 4)
        assert approx.size + sum(d.size for d in details) == 64
        energy = np.sum(approx**2) + sum(np.sum(d**2) for d in details)
        assert abs(energy - np.sum(u.values**2)) < 1e-12


def test_fwt_rejects_bad_inputs():
    u = rand_fn(48, 1)  # 48 = 16*3, divisible by 2^4 only
    with pytest.raises(ValueError):
        fwt(u, HAAR, 5)
    with pytest.raises(ValueError):
        fwt(GridFn(Domain.real_line(1.0, 32), np.zeros(32)), HAAR, 2)


@pytest.mark.parametrize("levels", [2.0, 2.5, "2", None])
def test_non_integer_levels_are_rejected_by_name(levels):
    u = rand_fn(64, 1)
    with pytest.raises(ValueError, match="levels="):
        fwt(u, HAAR, levels)
    with pytest.raises(ValueError, match="levels="):
        adjoint_linop(u.domain, 0.5, DB4, levels)


@pytest.mark.parametrize("s", [-1.0, -1e-300, np.nan])
def test_adjoint_linop_rejects_negative_order_at_construction(s):
    # not at the first apply, and not after its inner product has accepted s
    with pytest.raises(ValueError, match="s="):
        adjoint_linop(Domain.torus(1, 64), s, DB4, 4)


def test_ifwt_round_trip_and_zero():
    real = rand_fn(128, 2)
    cplx = real + 1j * rand_fn(128, 3)
    for u in (real, cplx):
        for basis in (HAAR, DB4):
            back = ifwt(u.domain, basis, *fwt(u, basis, 5))
            assert back.values.dtype == u.values.dtype
            assert np.max(np.abs(back.values - u.values)) < 1e-12
    dom = Domain.torus(1, 16)
    zero = ifwt(dom, HAAR, *fwt(GridFn(dom, np.zeros(16)), HAAR, 2))
    assert np.max(np.abs(zero.values)) == 0.0


def test_ifwt_rejects_bad_blocks():
    dom = Domain.torus(1, 16)
    approx, details = fwt(rand_fn(16, 4), DB4, 2)
    with pytest.raises(ValueError, match="inconsistent block sizes"):
        ifwt(dom, DB4, approx, details[::-1])  # finest first
    with pytest.raises(ValueError, match="inconsistent block sizes"):
        ifwt(dom, DB4, approx[:2], details)
    with pytest.raises(ValueError, match="does not match its domain"):
        ifwt(dom, DB4, approx, details[:1])  # one level short: 8 samples
    with pytest.raises(ValueError, match="does not match its domain"):
        ifwt(Domain.torus(1, 32), DB4, approx, details)


def test_single_detail_coefficient_gives_unit_atom():
    dom = Domain.torus(1, 64)
    approx, details = fwt(GridFn(dom, np.zeros(64)), DB4, 4)
    details[2][3] = 1.0
    atom = ifwt(dom, DB4, approx, details)
    assert abs(np.sum(np.abs(atom.values) ** 2) - 1.0) < 1e-12  # unit in l2


def test_adjoint_embedding_wavelet_identity_at_s0():
    u = rand_fn(64, 3)
    out = adjoint_embedding_wavelet(u, 0.0, DB4, 4)
    assert np.max(np.abs(out.values - u.values)) < 1e-12


def test_atom_scaling_rule():
    dom = Domain.torus(1, 64)
    atom = unit_atom(dom, HAAR, 4, 2, 1)
    out = adjoint_embedding_wavelet(atom, 1.0, HAAR, 4)
    assert np.max(np.abs(out.values - 0.0625 * atom.values)) < 1e-13


def test_self_adjoint_in_l2():
    u, v = rand_fn(64, 4), rand_fn(64, 5)
    for basis in (HAAR, DB4):
        wu = adjoint_embedding_wavelet(u, 0.8, basis, 4)
        wv = adjoint_embedding_wavelet(v, 0.8, basis, 4)
        assert abs(inner(wu, v) - inner(u, wv)) < 1e-12


def test_wavelet_norm_examples():
    u = rand_fn(64, 6)
    assert abs(wavelet_sobolev_norm(u, 0.0, DB4, 4) - l2_norm(u)) < 1e-12
    dom = Domain.torus(1, 64)
    for j in (0, 1, 3):
        atom = unit_atom(dom, DB4, 4, j, 0)
        got = wavelet_sobolev_norm(atom, 1.0, DB4, 4)
        assert abs(got - 2.0**j) < 1e-10
    # monotone in s for functions with nonzero details
    norms = [wavelet_sobolev_norm(u, s, DB4, 4) for s in (0.0, 0.5, 1.0, 1.5)]
    assert all(a < b for a, b in zip(norms, norms[1:]))


def test_adjoint_identity_in_wavelet_inner_product():
    u, v = rand_fn(128, 7), rand_fn(128, 8)
    for basis in (HAAR, DB4):
        for s in (0.5, 1.0):
            wu = adjoint_embedding_wavelet(u, s, basis, 5)
            lhs = wavelet_sobolev_inner(wu, v, s, basis, 5)
            rhs = inner(u, v)
            assert abs(lhs - rhs) <= 1e-11 * l2_norm(u) * l2_norm(v)


def test_eigen_structure_spot_checks():
    dom = Domain.torus(1, 128)
    for basis in (HAAR, DB4):
        for s in (0.5, 1.0):
            for j in (0, 2, 4):
                atom = unit_atom(dom, basis, 5, j, 1)
                out = adjoint_embedding_wavelet(atom, s, basis, 5)
                lam = 2.0 ** (-2 * j * s)
                assert np.max(np.abs(out.values - lam * atom.values)) < 1e-12


def test_norm_equivalence_bracket_vs_multiplier():
    # qualitative equivalence: ratio within [1/c, c], c = 8, for band-limited u
    dom = Domain.torus(1, 256)
    x = dom.axes()[0]
    for s in (0.5, 1.0):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            vals = np.zeros(256)
            for k in range(1, 17):
                a, b = rng.standard_normal(2)
                vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
            u = GridFn(dom, vals)
            ratio = wavelet_sobolev_norm(u, s, DB4, 8) / \
                sobolev_norm(u, SobolevSpec(s, NormVariant.TORUS_S))
            assert 1.0 / 8.0 < ratio < 8.0
