"""Spatial-filter representation: convolution with the radial kernel G_s.

The kernel of order ``s`` on R^N is

    G_s(x) = K_{(N-s)/2}(|x|) * |x|^{(s-N)/2} / (2^{(N+s-2)/2} * pi^{N/2} * Gamma(s/2)),

the inverse Fourier transform of ``(1 + 4*pi^2*|xi|^2)**(-s/2)``.  It is
positive, radially decreasing, integrable with unit mass, analytic away
from the origin, exponentially decaying, and square-integrable iff
``s > N/2``.  Smoothing a function by order ``s`` convolves it with
``G_{2s}``, which reproduces the Fourier-multiplier route up to grid and
truncation error.  Its Fourier eigenvalues, computed once per grid and order,
go through ``multiplier.fourier_multiply`` and ``multiplier.weighted_inner``;
at large orders (from s = 52 on 64 points, s = 43.5 on 1024) K_nu
overflows, and eigenvalues that are not finite raise a ``ValueError`` naming
the grid size and the order.

The Gamma function and K_nu come from ``scipy.special``; the wrappers
here only reject arguments outside the domain the kernel formulas use, NaN
included.  ``scipy.special`` is imported on the first call that needs it:
the K_nu route, the value at the origin and the asymptotes.  G_2 and G_4
(N = 1) are always evaluated in closed form, which needs neither function,
and the convolution route at s = 1 and 2 truncates them where they
themselves fall below threshold, so it never loads ``scipy.special``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (Domain, DomainKind, GridFn, LinOp, _require_counts,
                   _require_positive_finite, inner)
from .multiplier import fourier_multiply, weighted_inner

__all__ = [
    "KernelSpec",
    "AsymptoticRegime",
    "gamma_fn",
    "bessel_k",
    "kernel_eval",
    "kernel_asymptotics_check",
    "kernel_lattice",
    "convolve_adjoint",
    "kernel_inner",
    "adjoint_linop",
]


def gamma_fn(x: float) -> float:
    """Gamma function for real x > 0."""
    _require_positive_finite(x=x)
    import scipy.special  # deferred: the tomography path never needs it
    return float(scipy.special.gamma(x))


def _bessel_k_vec(nu: float, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if not (xs > 0).all():  # NaN fails this too
        raise ValueError("bessel_k requires x > 0")
    import scipy.special  # deferred: the tomography path never needs it
    return scipy.special.kv(abs(float(nu)), xs)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the third kind, K_nu(x), x > 0."""
    return float(_bessel_k_vec(nu, np.array([x]))[0])


@dataclass(frozen=True)
class KernelSpec:
    """Kernel order and dimension.

    Evaluated in closed form for (N=1, s in {2, 4}), through K_nu otherwise:
    G_2(x) = exp(-|x|)/2 and G_4(x) = exp(-|x|)*(|x|+1)/4.
    """

    order_s: float
    dim_N: int = 1

    def __post_init__(self):
        _require_positive_finite(order_s=self.order_s)
        _require_counts(1, dim_N=self.dim_N)

    @property
    def has_closed_form(self) -> bool:
        return self.dim_N == 1 and self.order_s in (2.0, 4.0)


def _kernel_at_zero(spec: KernelSpec) -> float:
    s, n = spec.order_s, spec.dim_N
    if s <= n:
        raise ValueError("G_s is singular at the origin for s <= N")
    return gamma_fn((s - n) / 2.0) / (2.0**n * np.pi ** (n / 2.0) * gamma_fn(s / 2.0))


def _kernel_vec(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    s, n = spec.order_s, spec.dim_N
    r = np.asarray(r, dtype=np.float64)
    if spec.has_closed_form:
        if s == 2.0:
            return 0.5 * np.exp(-r)
        return 0.25 * np.exp(-r) * (r + 1.0)
    # numpy powers overflow to inf at large s, where Python floats raise
    pre = 1.0 / (np.float64(2.0) ** ((n + s - 2.0) / 2.0) * np.pi ** (n / 2.0)
                 * gamma_fn(s / 2.0))
    return pre * _bessel_k_vec((n - s) / 2.0, r) * r ** ((s - n) / 2.0)


def kernel_eval(spec: KernelSpec, x) -> float:
    """Evaluate G_s at a point (scalar 1D coordinate or N-vector)."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=np.float64))))
    if r == 0.0:
        return _kernel_at_zero(spec)
    return float(_kernel_vec(spec, np.array([r]))[0])


class AsymptoticRegime(enum.Enum):
    SMALL_X_S_LT_N = "small_x_s_lt_n"
    SMALL_X_S_EQ_N = "small_x_s_eq_n"
    SMALL_X_S_GT_N = "small_x_s_gt_n"
    LARGE_X = "large_x"


def _asymptote(spec: KernelSpec, regime: AsymptoticRegime, r: np.ndarray) -> np.ndarray:
    s, n = spec.order_s, spec.dim_N
    if regime is AsymptoticRegime.SMALL_X_S_LT_N:
        c = gamma_fn((n - s) / 2.0) / (2.0**s * np.pi ** (n / 2.0) * gamma_fn(s / 2.0))
        return c * r ** (s - n)
    if regime is AsymptoticRegime.SMALL_X_S_EQ_N:
        c = 1.0 / (2.0 ** (n - 1.0) * np.pi ** (n / 2.0) * gamma_fn(n / 2.0))
        return c * np.log(1.0 / r)
    if regime is AsymptoticRegime.SMALL_X_S_GT_N:
        return np.full_like(r, _kernel_at_zero(spec))
    # a numpy power, as in _kernel_vec: inf at large s, not an OverflowError
    c = 1.0 / (np.float64(2.0) ** ((n + s - 1.0) / 2.0) * np.pi ** ((n - 1.0) / 2.0)
               * gamma_fn(s / 2.0))
    return c * r ** ((s - n - 1.0) / 2.0) * np.exp(-r)


def kernel_asymptotics_check(spec: KernelSpec, regime: AsymptoticRegime,
                             xs: np.ndarray) -> float:
    """Max ratio deviation |G_s(x)/asymptote(x) - 1| over the sample ``xs``."""
    s, n = spec.order_s, spec.dim_N
    consistent = {
        AsymptoticRegime.SMALL_X_S_LT_N: s < n,
        AsymptoticRegime.SMALL_X_S_EQ_N: s == n,
        AsymptoticRegime.SMALL_X_S_GT_N: s > n,
        AsymptoticRegime.LARGE_X: True,
    }
    if not consistent[regime]:
        raise ValueError(f"regime {regime.name} inconsistent with s={s}, N={n}")
    r = np.asarray(xs, dtype=np.float64)
    ratio = _kernel_vec(spec, r) / _asymptote(spec, regime, r)
    return float(np.max(np.abs(ratio - 1.0)))


# -- convolution route -------------------------------------------------------

_TRUNCATION_VALUE = 1e-12
_MAX_RADIUS = 200  # an integer: cli sizes the kernel lattice from it
_INV_SQRT3 = 1.0 / np.sqrt(3.0)


def _truncation_radius(spec: KernelSpec) -> float:
    # Scan the exponential tail for the first radius below threshold: a closed
    # form is its own tail and needs no Gamma, K_nu's tail is its asymptote.
    def tail(r: np.ndarray) -> np.ndarray:
        if spec.has_closed_form:
            return _kernel_vec(spec, r)
        return _asymptote(spec, AsymptoticRegime.LARGE_X, r)

    r = 5.0
    while r < _MAX_RADIUS:
        if tail(np.array([r]))[0] < _TRUNCATION_VALUE / 10.0:
            return r
        r += 1.0
    return float(_MAX_RADIUS)


_NEAR_CELLS = 8


@lru_cache(maxsize=1)
def _gauss16() -> tuple[np.ndarray, np.ndarray]:
    # numpy.polynomial is loaded on the first cell average, not at import
    return np.polynomial.legendre.leggauss(16)


def _cell_average(spec: KernelSpec, a: float, b: float) -> float:
    nodes, weights = _gauss16()
    r = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return float(np.dot(weights, _kernel_vec(spec, r))) * 0.5


def kernel_lattice(spec: KernelSpec, h: float, q_max: int) -> np.ndarray:
    """Cell averages of G_s over the radial lattice cells [(q-1/2)h, (q+1/2)h].

    Gauss quadrature per cell (16 points near the origin where curvature
    concentrates, 2 points in the smooth tail); the q = 0 cell is averaged
    over [0, h/2] by symmetry, so the (possibly singular) origin is never
    evaluated.  Cell averaging keeps the discrete kernel mass at or below
    the true unit mass.
    """
    vals = np.empty(q_max + 1)
    vals[0] = _cell_average(spec, 0.0, h / 2.0)
    near = min(_NEAR_CELLS, q_max)
    for q in range(1, near + 1):
        vals[q] = _cell_average(spec, (q - 0.5) * h, (q + 0.5) * h)
    if q_max > near:
        q = np.arange(near + 1, q_max + 1, dtype=np.float64)
        d = 0.5 * h * _INV_SQRT3
        lo = _kernel_vec(spec, q * h - d)
        hi = _kernel_vec(spec, q * h + d)
        vals[near + 1:] = 0.5 * (lo + hi)
    vals[vals < _TRUNCATION_VALUE] = 0.0
    return vals


def periodized_kernel_samples(spec: KernelSpec, domain: Domain) -> np.ndarray:
    """Kernel cell averages folded onto the periodic grid of ``domain``."""
    n = domain.shape[0]
    h = domain.spacing[0]
    q_max = int(np.ceil(_truncation_radius(spec) / h))
    vals = kernel_lattice(spec, h, q_max)
    folded = np.zeros(n)
    q = np.arange(-q_max, q_max + 1)
    np.add.at(folded, q % n, vals[np.abs(q)])
    return folded


@lru_cache(maxsize=16)
def _convolution_eigenvalues(dom: Domain, s: float) -> np.ndarray:
    """Eigenvalues ``h * Re DFT`` of the periodized G_{2s}; computed once, read-only."""
    if dom.kind not in (DomainKind.TORUS, DomainKind.REAL_LINE) or dom.ndim != 1:
        raise ValueError("convolution route supports 1D periodic domains only")
    _require_positive_finite(s=s)
    g = periodized_kernel_samples(KernelSpec(2.0 * s, dom.ndim), dom)
    lam = dom.spacing[0] * np.fft.fft(g).real  # g is even: its DFT is real
    if not np.isfinite(lam).all():
        raise ValueError(f"the convolution eigenvalues at n={dom.shape[0]}, s={s} are "
                         "not finite: the kernel overflows at this order")
    lam.flags.writeable = False
    return lam


def convolve_adjoint(u: GridFn, s: float) -> GridFn:
    """Smooth ``u`` by order ``s`` via circular convolution with G_{2s}.

    1D periodic grids only (unit torus or truncated line); the kernel is
    periodized over the grid's period and truncated where it falls below
    1e-12; the convolution is applied as its Fourier eigenvalues.
    """
    return fourier_multiply(u, _convolution_eigenvalues(u.domain, s))


def kernel_inner(u: GridFn, v: GridFn, s: float) -> complex:
    """The inner product in which ``convolve_adjoint`` is E^*: each Fourier mode
    over its convolution eigenvalue, which must be positive."""
    lam = _convolution_eigenvalues(u.domain, s)
    if not lam.min() > 0.0:
        raise ValueError(f"convolution eigenvalue {lam.min():.1e} <= 0 at "
                         f"n={lam.size}, s={s}")
    return weighted_inner(u, v, 1.0 / lam)


def adjoint_linop(domain: Domain, s: float) -> LinOp:
    """E^* as convolution with G_{2s}, paired with :func:`kernel_inner`."""
    _convolution_eigenvalues(domain, s)  # validates the grid and the order
    return LinOp(lambda u: convolve_adjoint(u, s), lambda u: u, inner,
                 lambda u, v: kernel_inner(u, v, s), domain, domain)
