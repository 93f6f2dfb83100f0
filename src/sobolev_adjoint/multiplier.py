"""Adjoint embedding and Sobolev norms as Fourier multipliers.

All variants act diagonally on spectral coefficients with a weight
``w(xi) >= 1``, ``w(0) = 1``:

* ``BESSEL_V1``: ``(1 + 4*pi^2*|xi|^2)**s``
* ``BESSEL_V2``: ``1 + (2*pi*|xi|)**(2*s)``       (equivalent norm, s >= 1)
* ``SERIES_M``:  ``(1 + 4*pi^2*|k|^2)**m`` on the unit cube's Fourier series
* ``TORUS_S``:   ``(1 + 4*pi^2*|k|^2)**s`` on the periodic Sobolev scale

The adjoint embedding divides coefficients by the weight, so that
``<adjoint_embedding(u), v>_{H^s} == <u, v>_{L2}`` holds exactly in the
discrete spectral inner product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Domain,
    DomainKind,
    GridFn,
    SpectralField,
    _same_domain,
    fft_forward,
    fft_inverse,
    frequency_sq,
)

__all__ = [
    "NormVariant",
    "SobolevSpec",
    "sobolev_weight",
    "weight_grid",
    "adjoint_embedding",
    "bessel_potential",
    "sobolev_inner",
    "sobolev_norm",
    "inv_sqrt_adjoint",
    "hilbert_scale_apply",
]


class NormVariant(enum.Enum):
    BESSEL_V1 = "bessel_v1"
    BESSEL_V2 = "bessel_v2"
    SERIES_M = "series_m"
    TORUS_S = "torus_s"


_SERIES_VARIANTS = (NormVariant.SERIES_M, NormVariant.TORUS_S)


@dataclass(frozen=True)
class SobolevSpec:
    """Smoothness order plus the norm variant selecting the inner product."""

    order_s: float
    variant: NormVariant = NormVariant.TORUS_S

    def __post_init__(self):
        if not 0 <= self.order_s < np.inf:
            raise ValueError(f"order_s={self.order_s} must be finite and >= 0")
        if self.variant is NormVariant.BESSEL_V2 and self.order_s < 1:
            raise ValueError("BESSEL_V2 norm equivalence requires s >= 1")
        if self.variant is NormVariant.SERIES_M and self.order_s != int(self.order_s):
            raise ValueError("SERIES_M requires an integer order")


def _weight_from_sq(xi_sq, spec: SobolevSpec):
    s = spec.order_s
    if spec.variant is NormVariant.BESSEL_V2:
        return 1.0 + (4.0 * np.pi**2 * xi_sq) ** s
    return (1.0 + 4.0 * np.pi**2 * xi_sq) ** s


def sobolev_weight(k_or_xi, spec: SobolevSpec) -> float:
    """Multiplier weight at a single frequency vector (scalar for 1D)."""
    xi = np.atleast_1d(np.asarray(k_or_xi, dtype=np.float64))
    return float(_weight_from_sq(float(np.sum(xi**2)), spec))


def weight_grid(domain: Domain, spec: SobolevSpec) -> np.ndarray:
    """Weights on the FFT frequency grid of ``domain``."""
    if spec.variant in _SERIES_VARIANTS and domain.kind is not DomainKind.TORUS:
        raise ValueError(f"{spec.variant.name} is defined on torus domains only")
    return _weight_from_sq(frequency_sq(domain), spec)


@lru_cache(maxsize=32)
def _weight_power(domain: Domain, spec: SobolevSpec, power: float) -> np.ndarray:
    """``weight_grid(domain, spec) ** power``, computed once and read-only."""
    w = weight_grid(domain, spec) ** power
    w.flags.writeable = False
    return w


def hilbert_scale_apply(u: GridFn, spec: SobolevSpec, power: float) -> GridFn:
    """Apply w(k)**power diagonally; power=-1 recovers the adjoint embedding."""
    c = fft_forward(u)
    res = fft_inverse(SpectralField(
        u.domain, c.coeffs * _weight_power(u.domain, spec, float(power))))
    if u.is_real:
        return GridFn(u.domain, res.values.real)
    return res


def adjoint_embedding(u: GridFn, spec: SobolevSpec) -> GridFn:
    """Smooth ``u`` by dividing each spectral coefficient by its weight."""
    return hilbert_scale_apply(u, spec, -1.0)


def inv_sqrt_adjoint(u: GridFn, spec: SobolevSpec) -> GridFn:
    """Multiply coefficients by sqrt(w); maps the H^s norm onto the L2 norm."""
    if u.domain.kind is not DomainKind.TORUS:
        raise ValueError("inv_sqrt_adjoint is defined on torus domains")
    return hilbert_scale_apply(u, spec, 0.5)


def bessel_potential(u: GridFn, s: float) -> GridFn:
    """Multiplier (1 + 4*pi^2*|xi|^2)**(-s/2); negative s differentiates."""
    return hilbert_scale_apply(u, SobolevSpec(1.0, NormVariant.BESSEL_V1), -s / 2.0)


def _spectral_measure(domain: Domain) -> float:
    # Frequency-grid cell volume: the spectral sum times this approximates
    # the continuous d(xi) integral; equals 1 on unit tori (a true series).
    return float(np.prod([1.0 / length for length in domain.lengths]))


def _weighted_sum(domain: Domain, spec: SobolevSpec, cu, cv) -> complex:
    w = _weight_power(domain, spec, 1.0)
    return _spectral_measure(domain) * complex(np.sum(w * cu * np.conj(cv)))


def sobolev_inner(u: GridFn, v: GridFn, spec: SobolevSpec) -> complex:
    """Weighted spectral inner product; reduces to L2 for s = 0."""
    _same_domain(u, v)
    return _weighted_sum(u.domain, spec, fft_forward(u).coeffs,
                         fft_forward(v).coeffs)


def sobolev_norm(u: GridFn, spec: SobolevSpec) -> float:
    """``sqrt(sobolev_inner(u, u, spec).real)``, transforming ``u`` once."""
    cu = fft_forward(u).coeffs
    return float(np.sqrt(_weighted_sum(u.domain, spec, cu, cu).real))
