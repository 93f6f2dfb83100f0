"""Properties shared by every backend's ``adjoint_linop``.

Each one is E^* in its own pair of inner products, so over drawn grids,
orders, norm variants and inputs it satisfies the adjoint identity
``<E^* v, u>_codomain = <v, E u>_domain`` (``check_adjoint``), and ``apply``
is self-adjoint and positive semidefinite in the domain inner product.  At
order 0 the multiplier and wavelet smoothers are the identity, on
band-limited input the Fourier-diagonal backends agree with the multiplier
at the ``CrossCheck1D`` gates, and the torus SVD's span inner product is
``sobolev_inner``.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_adjoint import bvp, discrete, kernel, multiplier, spectral, wavelet
from sobolev_adjoint.core import Domain, DomainKind, GridFn, check_adjoint
from sobolev_adjoint.multiplier import NormVariant, SobolevSpec

SIZES = st.integers(8, 48)


@st.composite
def specs(draw, torus=True):
    variant = draw(st.sampled_from(list(NormVariant) if torus else
                                   [NormVariant.BESSEL_V1, NormVariant.BESSEL_V2]))
    if variant is NormVariant.SERIES_M:
        return SobolevSpec(draw(st.integers(0, 3)), variant)
    low = 1.0 if variant is NormVariant.BESSEL_V2 else 0.0
    return SobolevSpec(draw(st.floats(low, 3.0)), variant)


@st.composite
def periodic_1d(draw):
    n = draw(SIZES)
    if draw(st.booleans()):
        return Domain.torus(1, n)
    return Domain.real_line(draw(st.floats(1.0, 10.0)), n)


@st.composite
def multiplier_ops(draw):
    dom = draw(periodic_1d() | SIZES.map(lambda n: Domain.torus(2, n)))
    spec = draw(specs(torus=dom.kind is DomainKind.TORUS))
    # rounding grows with the largest weight: keep the effective order <= 3
    top = min(2.0, 3.0 / max(spec.order_s, 1.0))
    scale = draw(st.just(1.0) | st.floats(0.0, top))
    return multiplier.adjoint_linop(dom, spec, scale), 1e-10


@st.composite
def kernel_ops(draw):
    # s <= 1: at larger s * n rounding drives convolution eigenvalues negative
    s = draw(st.floats(0.1, 1.0))
    return kernel.adjoint_linop(draw(periodic_1d()), s), 1e-10


@st.composite
def bvp_ops(draw):
    kind = draw(st.sampled_from(["interval", "rectangle", "torus"]))
    if kind == "torus":
        m = draw(st.integers(0, 3))
        return bvp.adjoint_linop(Domain.torus(1, draw(SIZES)), m), 1e-10
    if kind == "interval":
        dom = Domain.interval(0.0, draw(st.floats(0.5, 4.0)), draw(SIZES))
    else:
        dom = Domain.rectangle(draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0)),
                               draw(SIZES), draw(SIZES))
    return bvp.adjoint_linop(dom, 1), 1e-9


@st.composite
def wavelet_ops(draw):
    levels = draw(st.integers(1, 3))
    blocks = draw(st.integers(-(-8 // 2**levels), 48 // 2**levels))
    basis = draw(st.sampled_from([wavelet.HAAR, wavelet.DB4]))
    dom = Domain.torus(1, blocks * 2**levels)
    return wavelet.adjoint_linop(dom, draw(st.floats(0.0, 1.5)), basis, levels), 1e-10


@st.composite
def svd_ops(draw):
    n = draw(SIZES)
    svd = spectral.svd_from_multiplier(draw(specs()), Domain.torus(1, n),
                                       draw(st.integers(1, n)))
    return svd.adjoint_linop(), 1e-10


@st.composite
def dirichlet_eig_ops(draw):
    # max_m, max_n <= 6 < points - 1: the sampled sines stay orthonormal
    dom = Domain.rectangle(draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0)),
                           draw(SIZES), draw(SIZES))
    eigs = spectral.rectangle_dirichlet_eigs(dom, draw(st.integers(1, 6)),
                                             draw(st.integers(1, 6)))
    return eigs.adjoint_linop(), 1e-10


@st.composite
def disk_eig_ops(draw):
    radius, n = draw(st.floats(0.5, 4.0)), draw(SIZES)
    dom = Domain.cells((2.0 * radius,) * 2, (n, n), (-radius,) * 2)
    eigs = spectral.disk_dirichlet_eigs(dom, draw(st.integers(0, 5)),
                                        draw(st.integers(1, 4)))
    return eigs.adjoint_linop(), 1e-10


@st.composite
def gram_ops(draw):
    n = draw(SIZES)
    dom = Domain.torus(1, n)
    kmax = draw(st.integers(0, min(6, (n - 1) // 2)))  # no aliased modes
    basis, _ = discrete.fourier_mode_basis(dom, kmax)
    gram = partial(multiplier.sobolev_gram, spec=draw(specs()))
    return discrete.adjoint_linop(discrete.assemble(dom, basis, basis, gram)), 1e-10


BACKENDS = {"multiplier": multiplier_ops(), "kernel": kernel_ops(), "bvp": bvp_ops(),
            "wavelet": wavelet_ops(), "svd": svd_ops(), "eigs": dirichlet_eig_ops(),
            "disk": disk_eig_ops(), "discrete": gram_ops()}


@pytest.mark.parametrize("backend", list(BACKENDS))
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_adjoint_linop_is_the_adjoint_embedding(backend, data):
    op, tol = data.draw(BACKENDS[backend])
    assert check_adjoint(op, trials=3, seed=0) < tol

    rng = np.random.default_rng(0)
    n = op.domain.grid_size
    complex_input = data.draw(st.booleans())

    def random_fn():
        vals = rng.standard_normal(n)
        return GridFn(op.domain, vals + 1j * rng.standard_normal(n) if complex_input
                      else vals)

    u, v = random_fn(), random_fn()
    uu, vv = op.domain_inner(u, u).real, op.domain_inner(v, v).real
    defect = op.domain_inner(op.apply(u), v) - op.domain_inner(u, op.apply(v))
    assert abs(defect) <= tol * np.sqrt(uu * vv)
    assert op.domain_inner(op.apply(u), u).real >= -tol * uu


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(n=SIZES, spec=specs(), data=st.data())
def test_svd_span_inner_is_sobolev_inner_on_the_span(n, spec, data):
    svd = spectral.svd_from_multiplier(spec, Domain.torus(1, n), data.draw(st.integers(1, n)))
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal((2, svd.count)) + 1j * rng.standard_normal((2, svd.count))
    u, v = (GridFn(svd.domain, c @ svd.basis) for c in coeffs)
    span_inner = svd.adjoint_linop().codomain_inner
    scale = np.sqrt(span_inner(u, u).real * span_inner(v, v).real)
    assert abs(span_inner(u, v) - multiplier.sobolev_inner(u, v, spec)) <= 1e-12 * scale


@st.composite
def order0_ops(draw):
    if draw(st.booleans()):
        dom = draw(periodic_1d() | SIZES.map(lambda n: Domain.torus(2, n)))
        variants = [NormVariant.BESSEL_V1]
        if dom.kind is DomainKind.TORUS:
            variants += [NormVariant.SERIES_M, NormVariant.TORUS_S]
        spec = SobolevSpec(0, draw(st.sampled_from(variants)))
        return multiplier.adjoint_linop(dom, spec, draw(st.floats(0.0, 2.0)))
    levels = draw(st.integers(1, 3))
    dom = Domain.torus(1, draw(st.integers(1, 48 // 2**levels)) * 2**levels)
    basis = draw(st.sampled_from([wavelet.HAAR, wavelet.DB4]))
    return wavelet.adjoint_linop(dom, 0.0, basis, levels)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(op=order0_ops(), complex_input=st.booleans())
def test_order_zero_is_the_identity(op, complex_input):
    rng = np.random.default_rng(0)
    n = op.domain.grid_size
    vals = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_input else 0)
    out = op.apply(GridFn(op.domain, vals)).values
    assert np.linalg.norm(out - vals) <= 1e-12 * np.linalg.norm(vals)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(n=st.integers(64, 1024), s=st.sampled_from([1.0, 2.0]) | st.floats(0.5, 2.0),
       data=st.data())
def test_backends_agree_on_bandlimited_input(n, s, data):
    # the CrossCheck1D backends at its gates, over grids, orders and bands
    dom = Domain.torus(1, n)
    kmax = data.draw(st.integers(1, min(8, n // 16)))
    rng = np.random.default_rng(n)
    modes = np.r_[0:kmax + 1, n - kmax:n]
    coeffs = np.zeros(n, dtype=complex)
    coeffs[modes] = rng.standard_normal(modes.size) + 1j * rng.standard_normal(modes.size)
    vals = np.fft.ifft(coeffs) * n
    u = GridFn(dom, vals if data.draw(st.booleans()) else vals.real)
    spec = SobolevSpec(s, NormVariant.BESSEL_V1)
    reference = multiplier.adjoint_linop(dom, spec)
    basis, _ = discrete.fourier_mode_basis(dom, kmax)
    gram = discrete.assemble(dom, basis, basis,
                             partial(multiplier.sobolev_gram, spec=spec))
    expected = reference.apply(u).values
    # the kernel and BVP routes are also held to 1e-2 of the smoothed output
    output_gate = 1e-2 * np.linalg.norm(expected) / np.linalg.norm(u.values)
    gated = [(kernel.adjoint_linop(dom, s), min(1e-3, output_gate)),
             (spectral.svd_from_multiplier(spec, dom, modes.size).adjoint_linop(), 1e-10),
             (discrete.adjoint_linop(gram), 1e-12)]
    if s in (1.0, 2.0):
        gated.append((bvp.adjoint_linop(dom, int(s)), min(1e-3, output_gate)))
    for op, gate in gated:
        assert np.linalg.norm(op.apply(u).values - expected) \
            <= gate * np.linalg.norm(u.values)


_NON_FINITE = st.sampled_from([np.nan, np.inf])


@st.composite
def invalid_factory_calls(draw):
    """A factory call with one argument out of range, and that argument's name."""
    dom = Domain.torus(1, draw(SIZES))
    factory = draw(st.sampled_from(["kernel", "multiplier", "bvp", "discrete", "svd",
                                    "rectangle", "disk", "wavelet", "kernel_spec",
                                    "hat_basis", "mode_basis"]))
    # a count is invalid below its least value, or as a non-integer
    counts = lambda least: (st.integers(max_value=least - 1) | _NON_FINITE
                            | st.floats(least, 6.0).filter(lambda x: x != int(x)))
    if factory == "kernel":
        where, s = draw(periodic_1d()), draw(_NON_FINITE | st.floats(max_value=0.0))
        return lambda: kernel.adjoint_linop(where, s), "s"
    if factory == "multiplier":
        scale = draw(_NON_FINITE | st.floats(max_value=-5e-324))
        spec = draw(specs())
        return lambda: multiplier.adjoint_linop(dom, spec, scale), "scale"
    if factory == "bvp":
        m = draw(st.integers(max_value=-1) | _NON_FINITE
                 | st.floats(0.0, 3.0).filter(lambda x: x != int(x)))
        where = draw(st.sampled_from([dom, Domain.interval(0.0, 1.0, draw(SIZES))]))
        return lambda: bvp.adjoint_linop(where, m), "order_m"
    if factory == "svd":
        K, spec = draw(counts(1) | st.integers(dom.grid_size + 1, 10**6)), draw(specs())
        return lambda: spectral.svd_from_multiplier(spec, dom, K), "K"
    if factory in ("rectangle", "disk"):
        least = {"max_m": int(factory == "rectangle"), "max_n": 1}
        name = draw(st.sampled_from(sorted(least)))
        args = {key: draw(st.integers(low, 3)) for key, low in least.items()}
        args[name] = draw(counts(least[name]))
        if factory == "rectangle":
            grid = Domain.rectangle(1.0, 1.0, 9, 9)
            return lambda: spectral.rectangle_dirichlet_eigs(grid, **args), name
        grid = Domain.cells((2.0, 2.0), (9, 9), (-1.0, -1.0))
        return lambda: spectral.disk_dirichlet_eigs(grid, **args), name
    if factory == "kernel_spec":
        if draw(st.booleans()):
            s = draw(_NON_FINITE | st.floats(max_value=0.0))
            return lambda: kernel.KernelSpec(s), "order_s"
        dim = draw(counts(1))
        return lambda: kernel.KernelSpec(3.0, dim), "dim_N"
    if factory == "hat_basis":
        where, stride = Domain.interval(0.0, 1.0, draw(SIZES)), draw(counts(1))
        return lambda: discrete.hat_basis(where, stride), "stride"
    if factory == "mode_basis":
        kmax = draw(counts(0))
        return lambda: discrete.fourier_mode_basis(dom, kmax), "kmax"
    if factory == "wavelet":
        s = draw(_NON_FINITE | st.floats(max_value=-5e-324))
        return lambda: wavelet.adjoint_linop(Domain.torus(1, 64), s, wavelet.DB4, 2), "s"
    name = draw(st.sampled_from(["basis_x", "basis_y"]))
    kmax = draw(st.integers(0, (dom.shape[0] - 1) // 2))
    basis, _ = discrete.fourier_mode_basis(dom, kmax)
    bad = draw(st.sampled_from(["empty", "1-D", "size", "nan", "inf"]))
    if bad in ("nan", "inf"):
        bad_basis = basis.copy()
        bad_basis[draw(st.integers(0, len(basis) - 1)),
                  draw(st.integers(0, dom.grid_size - 1))] = float(bad)
    else:
        bad_basis = {"empty": basis[:0], "1-D": basis[0],
                     "size": basis[:, :draw(st.integers(0, dom.grid_size - 1))]}[bad]
    gram = partial(multiplier.sobolev_gram, spec=SobolevSpec(1.0))
    bases = {"basis_x": basis, "basis_y": basis, name: bad_basis}
    return lambda: discrete.assemble(dom, gram_x=gram, **bases), name


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(call=invalid_factory_calls())
def test_factories_reject_bad_arguments_by_name(call):
    build, name = call
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        build()


@pytest.mark.parametrize("build, name", [
    (lambda: kernel.KernelSpec(1.0, True), "dim_N"),
    (lambda: discrete.hat_basis(Domain.interval(0.0, 1.0, 16), True), "stride"),
], ids=["kernel_spec", "hat_basis"])
def test_factories_reject_a_bool_count(build, name):
    # True is a numbers.Integral equal to 1, but no count
    with pytest.raises(ValueError, match=rf"\b{name}=True\b"):
        build()
