"""Spatial-filter representation: convolution with the radial kernel G_s.

The kernel of order ``s`` on R^N is

    G_s(x) = K_{(N-s)/2}(|x|) * |x|^{(s-N)/2} / (2^{(N+s-2)/2} * pi^{N/2} * Gamma(s/2)),

the inverse Fourier transform of ``(1 + 4*pi^2*|xi|^2)**(-s/2)``.  It is
positive, radially decreasing, integrable with unit mass, analytic away
from the origin, exponentially decaying, and square-integrable iff
``s > N/2``.  Smoothing a function by order ``s`` convolves it with
``G_{2s}``, which reproduces the Fourier-multiplier route up to grid and
truncation error.

The Gamma function and K_nu come from ``scipy.special``; the wrappers
here only reject arguments outside the domain the kernel formulas use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import Domain, DomainKind, GridFn

__all__ = [
    "EvalMode",
    "KernelSpec",
    "AsymptoticRegime",
    "gamma_fn",
    "bessel_k",
    "kernel_eval",
    "kernel_asymptotics_check",
    "kernel_lattice",
    "convolve_adjoint",
]


def gamma_fn(x: float) -> float:
    """Gamma function for real x > 0."""
    if x <= 0:
        raise ValueError("gamma_fn requires x > 0")
    import scipy.special  # deferred: the tomography path never needs it
    return float(scipy.special.gamma(x))


def _bessel_k_vec(nu: float, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if np.any(xs <= 0):
        raise ValueError("bessel_k requires x > 0")
    import scipy.special  # deferred: the tomography path never needs it
    return scipy.special.kv(abs(float(nu)), xs)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the third kind, K_nu(x), x > 0."""
    return float(_bessel_k_vec(nu, np.array([x]))[0])


class EvalMode(enum.Enum):
    CLOSED_FORM = "closed_form"
    INTEGRAL_KNU = "integral_knu"
    SPECTRAL_INVERSE = "spectral_inverse"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel order, dimension and evaluation route.

    Closed forms exist for (N=1, s in {2, 4}):
    G_2(x) = exp(-|x|)/2 and G_4(x) = exp(-|x|)*(|x|+1)/4.
    """

    order_s: float
    dim_N: int = 1
    eval_mode: EvalMode = EvalMode.INTEGRAL_KNU

    def __post_init__(self):
        if self.order_s <= 0:
            raise ValueError("kernel order must be positive")
        if self.dim_N < 1:
            raise ValueError("dimension must be >= 1")
        if self.eval_mode is EvalMode.CLOSED_FORM and not self.has_closed_form:
            raise ValueError("closed form available only for N=1, s in {2, 4}")

    @property
    def has_closed_form(self) -> bool:
        return self.dim_N == 1 and self.order_s in (2.0, 4.0)

    @property
    def in_l2(self) -> bool:
        return self.order_s > self.dim_N / 2.0


def _kernel_at_zero(spec: KernelSpec) -> float:
    s, n = spec.order_s, spec.dim_N
    if s <= n:
        raise ValueError("G_s is singular at the origin for s <= N")
    return gamma_fn((s - n) / 2.0) / (2.0**n * np.pi ** (n / 2.0) * gamma_fn(s / 2.0))


def _kernel_vec(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    s, n = spec.order_s, spec.dim_N
    r = np.asarray(r, dtype=np.float64)
    if spec.eval_mode is EvalMode.CLOSED_FORM:
        if s == 2.0:
            return 0.5 * np.exp(-r)
        return 0.25 * np.exp(-r) * (r + 1.0)
    if spec.eval_mode is EvalMode.SPECTRAL_INVERSE:
        return _kernel_spectral_inverse(spec, r)
    pre = 1.0 / (2.0 ** ((n + s - 2.0) / 2.0) * np.pi ** (n / 2.0) * gamma_fn(s / 2.0))
    return pre * _bessel_k_vec((n - s) / 2.0, r) * r ** ((s - n) / 2.0)


def _kernel_spectral_inverse(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    # Reads the kernel off a fine FFT inversion of the multiplier symbol;
    # periodization window 2W = 120 and ~1e-4 interpolation accuracy.
    # Diagnostic route, 1D only.
    if spec.dim_N != 1:
        raise ValueError("spectral-inverse evaluation implemented for N=1 only")
    n_fft = 1 << 17
    width = 60.0
    h = 2.0 * width / n_fft
    k = np.fft.fftfreq(n_fft, 1.0 / n_fft)
    xi = k / (2.0 * width)
    symbol = (1.0 + 4.0 * np.pi**2 * xi**2) ** (-spec.order_s / 2.0)
    vals = np.fft.ifft(symbol).real / h
    grid_r = h * np.arange(n_fft // 2 + 1)
    table = np.concatenate([vals[: n_fft // 2], [vals[n_fft // 2]]])
    if np.any(r > width):
        raise ValueError("spectral-inverse table covers |x| <= 60")
    return np.interp(r, grid_r, table)


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
    c = 1.0 / (2.0 ** ((n + s - 1.0) / 2.0) * np.pi ** ((n - 1.0) / 2.0)
               * gamma_fn(s / 2.0))
    return c * r ** ((s - n - 1.0) / 2.0) * np.exp(-r)


def _default_sample(regime: AsymptoticRegime) -> np.ndarray:
    if regime is AsymptoticRegime.LARGE_X:
        return np.geomspace(12.0, 20.0, 8)
    return np.geomspace(3e-3, 1e-3, 8)


def kernel_asymptotics_check(spec: KernelSpec, regime: AsymptoticRegime,
                             xs: np.ndarray | None = None) -> float:
    """Max ratio deviation |G_s(x)/asymptote(x) - 1| over a log-spaced sample."""
    s, n = spec.order_s, spec.dim_N
    consistent = {
        AsymptoticRegime.SMALL_X_S_LT_N: s < n,
        AsymptoticRegime.SMALL_X_S_EQ_N: s == n,
        AsymptoticRegime.SMALL_X_S_GT_N: s > n,
        AsymptoticRegime.LARGE_X: True,
    }
    if not consistent[regime]:
        raise ValueError(f"regime {regime.name} inconsistent with s={s}, N={n}")
    r = np.asarray(xs, dtype=np.float64) if xs is not None else _default_sample(regime)
    ratio = _kernel_vec(spec, r) / _asymptote(spec, regime, r)
    return float(np.max(np.abs(ratio - 1.0)))


# -- convolution route -------------------------------------------------------

_TRUNCATION_VALUE = 1e-12
_INV_SQRT3 = 1.0 / np.sqrt(3.0)


def _truncation_radius(spec: KernelSpec) -> float:
    # Scan the exponential tail bound for the first radius below threshold.
    r = 5.0
    while r < 200.0:
        if _asymptote(spec, AsymptoticRegime.LARGE_X, np.array([r]))[0] \
                < _TRUNCATION_VALUE / 10.0:
            return r
        r += 1.0
    return 200.0


_NEAR_CELLS = 8
_GAUSS16 = np.polynomial.legendre.leggauss(16)


def _cell_average(spec: KernelSpec, a: float, b: float) -> float:
    nodes, weights = _GAUSS16
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


def convolve_adjoint(u: GridFn, s: float) -> GridFn:
    """Smooth ``u`` by order ``s`` via circular convolution with G_{2s}.

    1D periodic grids only (unit torus or truncated line); the kernel is
    periodized over the grid's period and truncated where it falls below
    1e-12.
    """
    dom = u.domain
    if dom.kind not in (DomainKind.TORUS, DomainKind.REAL_LINE) or dom.ndim != 1:
        raise ValueError("convolution route supports 1D periodic domains only")
    if s <= 0:
        raise ValueError("convolution route requires s > 0 (s=0 is the identity)")
    order = 2.0 * s
    mode = EvalMode.CLOSED_FORM if (dom.ndim == 1 and order in (2.0, 4.0)) \
        else EvalMode.INTEGRAL_KNU
    spec = KernelSpec(order, dom.ndim, mode)
    g = periodized_kernel_samples(spec, dom)
    h = dom.spacing[0]
    out = np.fft.ifft(np.fft.fft(g) * np.fft.fft(u.values)) * h
    if u.is_real:
        out = out.real
    return GridFn(dom, out)
