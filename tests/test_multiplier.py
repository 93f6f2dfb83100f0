import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_adjoint import multiplier
from sobolev_adjoint.core import (
    Domain,
    GridFn,
    SpectralField,
    fft_forward,
    fft_inverse,
    inner,
    l2_norm,
)
from sobolev_adjoint.multiplier import (
    NormVariant,
    SobolevSpec,
    _spectral_measure,
    _weight_power,
    adjoint_embedding,
    bessel_potential,
    hilbert_scale_apply,
    inv_sqrt_adjoint,
    sobolev_inner,
    sobolev_norm,
    sobolev_weight,
    weight_grid,
)

FOUR_PI_SQ = 4.0 * np.pi**2


def rand_fn(dom, seed, real=True):
    rng = np.random.default_rng(seed)
    n = dom.grid_size
    if real:
        return GridFn(dom, rng.standard_normal(n))
    return GridFn(dom, rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("variant", list(NormVariant))
def test_weight_is_one_at_zero_frequency(variant):
    s = 2.0 if variant is NormVariant.BESSEL_V2 else 1.5
    if variant is NormVariant.SERIES_M:
        s = 2.0
    assert sobolev_weight(0.0, SobolevSpec(s, variant)) == 1.0


def test_weight_values():
    w = sobolev_weight(1.0, SobolevSpec(1.0, NormVariant.BESSEL_V1))
    assert abs(w - (1.0 + FOUR_PI_SQ)) < 1e-12
    assert abs(w - 40.47841760435743) < 1e-10


def test_norm_equivalence_sandwich_at_unit_frequency():
    # C1 = 1/2 and C2 = 2^(s-1) for s = 2 at |xi| = 1
    s = 2.0
    v1 = sobolev_weight(1.0, SobolevSpec(s, NormVariant.BESSEL_V1))
    v2 = sobolev_weight(1.0, SobolevSpec(s, NormVariant.BESSEL_V2))
    assert 0.5 * v2 <= v1 <= 2.0 ** (s - 1) * v2


def test_bessel_v2_requires_s_geq_1():
    with pytest.raises(ValueError):
        SobolevSpec(0.5, NormVariant.BESSEL_V2)


@pytest.mark.parametrize("order", [np.nan, np.inf])
def test_non_finite_order_rejected(order):
    # either would make every weight, norm and smoothing NaN or constant
    with pytest.raises(ValueError, match="order_s"):
        SobolevSpec(order)


def test_adjoint_embedding_constant_and_identity():
    dom = Domain.torus(1, 64)
    c = GridFn(dom, 3.25 * np.ones(64))
    out = adjoint_embedding(c, SobolevSpec(1.0))
    assert np.max(np.abs(out.values - 3.25)) < 1e-12
    u = rand_fn(dom, 0)
    out = adjoint_embedding(u, SobolevSpec(0.0))
    assert np.max(np.abs(out.values - u.values)) < 1e-13


def test_adjoint_embedding_single_mode_coefficient():
    dom = Domain.torus(1, 64)
    x = dom.axes()[0]
    e1 = GridFn(dom, np.exp(2j * np.pi * x))
    out = adjoint_embedding(e1, SobolevSpec(1.0, NormVariant.TORUS_S))
    expected = e1.values / (1.0 + FOUR_PI_SQ)
    assert np.max(np.abs(out.values - expected)) < 1e-14
    assert abs(1.0 / (1.0 + FOUR_PI_SQ) - 0.024704523) < 1e-9


def test_adjoint_embedding_real_output_for_real_input():
    u = rand_fn(Domain.torus(1, 32), 2)
    assert adjoint_embedding(u, SobolevSpec(0.7)).is_real


def test_adjointness_identity_discrete_exact():
    for dom in (Domain.torus(1, 128), Domain.torus(2, 16), Domain.real_line(10.0, 128)):
        variant = (NormVariant.TORUS_S if dom.kind.value == "torus"
                   else NormVariant.BESSEL_V1)
        spec = SobolevSpec(1.3, variant)
        u = rand_fn(dom, 4, real=False)
        v = rand_fn(dom, 5, real=False)
        lhs = sobolev_inner(adjoint_embedding(u, spec), v, spec)
        rhs = inner(u, v)
        assert abs(lhs - rhs) <= 1e-11 * l2_norm(u) * l2_norm(v)


def test_self_adjoint_positive_in_l2():
    dom = Domain.torus(1, 64)
    spec = SobolevSpec(1.0)
    u, v = rand_fn(dom, 6), rand_fn(dom, 7)
    lhs = inner(adjoint_embedding(u, spec), v)
    rhs = inner(u, adjoint_embedding(v, spec))
    assert abs(lhs - rhs) < 1e-13
    assert inner(adjoint_embedding(u, spec), u).real > 0.0


def test_multiplier_monotonicity_in_s():
    for k in (1, 3, 17):
        shrink1 = 1.0 / sobolev_weight(k, SobolevSpec(0.5))
        shrink2 = 1.0 / sobolev_weight(k, SobolevSpec(1.5))
        assert shrink2 < shrink1  # larger s smooths more


def test_smoothing_bound():
    dom = Domain.torus(1, 64)
    u = rand_fn(dom, 8)
    spec = SobolevSpec(1.0)
    assert sobolev_norm(adjoint_embedding(u, spec), spec) <= l2_norm(u) + 1e-12


def test_bessel_potential_identity_inverse_and_v1_agreement():
    dom = Domain.torus(1, 64)
    u = rand_fn(dom, 9)
    out = bessel_potential(u, 0.0)
    assert np.max(np.abs(out.values - u.values)) < 1e-14
    rt = bessel_potential(bessel_potential(u, 1.2), -1.2)
    assert np.max(np.abs(rt.values - u.values)) < 1e-10
    a = bessel_potential(u, 2.0)
    b = adjoint_embedding(u, SobolevSpec(1.0, NormVariant.BESSEL_V1))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_sobolev_inner_examples():
    dom = Domain.torus(1, 64)
    u, v = rand_fn(dom, 10, real=False), rand_fn(dom, 11, real=False)
    s0 = sobolev_inner(u, v, SobolevSpec(0.0))
    assert abs(s0 - inner(u, v)) < 1e-12 * abs(inner(u, v))
    x = dom.axes()[0]
    e1 = GridFn(dom, np.exp(2j * np.pi * x))
    val = sobolev_inner(e1, e1, SobolevSpec(1.0, NormVariant.TORUS_S))
    assert abs(val - (1.0 + FOUR_PI_SQ)) < 1e-11


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 33), (2, 16), (2, 9)])
@pytest.mark.parametrize("variant", [NormVariant.TORUS_S, NormVariant.BESSEL_V1])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_sobolev_norm_transforms_once(monkeypatch, dim, n, variant, s):
    spec = SobolevSpec(s, variant)
    u = rand_fn(Domain.torus(dim, n), seed=n + dim)
    want = float(np.sqrt(sobolev_inner(u, u, spec).real))
    calls = []

    def counting_fft(v):
        calls.append(v)
        return fft_forward(v)

    monkeypatch.setattr(multiplier, "fft_forward", counting_fft)
    got = sobolev_norm(u, spec)
    assert len(calls) == 1
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_inv_sqrt_adjoint():
    dom = Domain.torus(1, 64)
    u = rand_fn(dom, 12)
    spec = SobolevSpec(0.0)
    out = inv_sqrt_adjoint(u, spec)
    assert np.max(np.abs(out.values - u.values)) < 1e-13

    x = dom.axes()[0]
    e1 = GridFn(dom, np.exp(2j * np.pi * x))
    spec = SobolevSpec(1.0)
    out = inv_sqrt_adjoint(e1, spec)
    assert np.max(np.abs(out.values - np.sqrt(1 + FOUR_PI_SQ) * e1.values)) < 1e-11

    u = rand_fn(dom, 13)
    assert abs(l2_norm(inv_sqrt_adjoint(u, spec)) - sobolev_norm(u, spec)) \
        <= 1e-11 * sobolev_norm(u, spec)


def test_hilbert_scale_apply_powers_compose():
    dom = Domain.torus(1, 32)
    u = rand_fn(dom, 14)
    spec = SobolevSpec(1.0)
    once = hilbert_scale_apply(u, spec, -1.0)
    ref = adjoint_embedding(u, spec)
    assert np.max(np.abs(once.values - ref.values)) < 1e-14
    back = hilbert_scale_apply(once, spec, 1.0)
    assert np.max(np.abs(back.values - u.values)) < 1e-10


def test_norm_sandwich_pointwise_all_k():
    # pointwise inequality with C1=1/2, C2=2^(s-1) for |k| <= 64
    for s in (1.0, 1.5, 2.0, 3.0):
        for k in range(65):
            v1 = sobolev_weight(k, SobolevSpec(s, NormVariant.BESSEL_V1))
            v2 = sobolev_weight(k, SobolevSpec(s, NormVariant.BESSEL_V2))
            assert 0.5 * v2 <= v1 <= 2.0 ** (s - 1) * v2


def test_bessel_v2_embedding_adjoint_identity():
    dom = Domain.torus(1, 64)
    spec = SobolevSpec(1.5, NormVariant.BESSEL_V2)
    u, v = rand_fn(dom, 16, real=False), rand_fn(dom, 17, real=False)
    lhs = sobolev_inner(adjoint_embedding(u, spec), v, spec)
    assert abs(lhs - inner(u, v)) <= 1e-11 * l2_norm(u) * l2_norm(v)


def test_series_variant_restricted_to_torus():
    dom = Domain.real_line(5.0, 32)
    u = rand_fn(dom, 15)
    with pytest.raises(ValueError):
        adjoint_embedding(u, SobolevSpec(1.0, NormVariant.TORUS_S))


_ORDERS = {
    NormVariant.BESSEL_V1: (0.0, 0.5, 1.0, 2.5),
    NormVariant.BESSEL_V2: (1.0, 1.5, 3.0),
    NormVariant.SERIES_M: (0.0, 1.0, 2.0),
    NormVariant.TORUS_S: (0.0, 0.75, 2.0),
}


@st.composite
def _weighted_inputs(draw):
    ndim = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(2, 48 if ndim == 1 else 12))  # odd and even sizes
    variant = draw(st.sampled_from(list(NormVariant)))
    spec = SobolevSpec(draw(st.sampled_from(_ORDERS[variant])), variant)
    power = draw(st.sampled_from((-1.0, -0.5, 0.5, 1.0)))
    dom = Domain.torus(ndim, n)
    u = rand_fn(dom, draw(st.integers(0, 2**16)), real=draw(st.booleans()))
    return u, spec, power


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(_weighted_inputs())
def test_cached_weights_match_uncached_formula(case):
    u, spec, power = case
    dom = u.domain
    w = weight_grid(dom, spec)
    coeffs = fft_forward(u).coeffs
    want = fft_inverse(SpectralField(dom, coeffs * w**power))
    if u.is_real:
        want = GridFn(dom, want.values.real)
    got = hilbert_scale_apply(u, spec, power)
    assert got.values.dtype == want.values.dtype
    assert got.values.tobytes() == want.values.tobytes()
    want_inner = _spectral_measure(dom) * complex(np.sum(w * coeffs * np.conj(coeffs)))
    assert sobolev_inner(u, u, spec) == want_inner
    cached = _weight_power(dom, spec, power)
    with pytest.raises(ValueError):
        cached[(0,) * dom.ndim] = 0.0
