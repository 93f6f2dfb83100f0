"""Wavelet representation: scale detail coefficients by 2^(-2js).

Periodized orthonormal wavelets on the 1D unit torus.  :func:`fwt` with
``levels`` analysis steps returns plain arrays ``(approx, details)``: one
approximation block (the coarsest scaling coefficients) and a list of
detail blocks indexed

    j = 0 (coarsest retained detail level) ... levels-1 (finest),

and the smoothing operator multiplies level-j details by ``2**(-2*j*s)``
while leaving the approximation block unchanged.  With the matching
dyadically weighted inner product this is exactly the adjoint of the
embedding: every wavelet atom is an eigenfunction with eigenvalue
``2**(-2*j*s)`` (1 on the approximation block).

The dyadic-norm equivalence theory requires ``s`` below the regularity of
the basis; Haar (regularity 0) is shipped as a pedagogical backend, the
4-tap Daubechies filter (regularity ~1.0) is the default for s <= 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import Domain, DomainKind, GridFn, LinOp, _same_domain, inner, quad_weight

__all__ = [
    "WaveletBasis",
    "HAAR",
    "DB4",
    "fwt",
    "ifwt",
    "adjoint_embedding_wavelet",
    "wavelet_sobolev_inner",
    "wavelet_sobolev_norm",
    "adjoint_linop",
]


@dataclass(frozen=True)
class WaveletBasis:
    """Orthonormal filter pair; high-pass derived from the low-pass by QMF."""

    name: str
    lo: np.ndarray
    regularity_r: float

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        object.__setattr__(self, "lo", lo)
        if abs(np.sum(lo**2) - 1.0) > 1e-12:
            raise ValueError("low-pass filter must have unit energy")

    @property
    def hi(self) -> np.ndarray:
        taps = self.lo[::-1].copy()
        taps[1::2] *= -1.0
        return taps


_SQRT3 = np.sqrt(3.0)

HAAR = WaveletBasis("haar", np.array([1.0, 1.0]) / np.sqrt(2.0), 0.0)
DB4 = WaveletBasis(
    "db4",
    np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3])
    / (4.0 * np.sqrt(2.0)),
    1.0,
)


def _check_wavelet_domain(domain: Domain, levels: int) -> None:
    if domain.kind is not DomainKind.TORUS or domain.ndim != 1:
        raise ValueError("wavelet transform runs on 1D torus grids")
    if not isinstance(levels, numbers.Integral) or levels < 1:
        raise ValueError(f"levels={levels!r} must be an integer >= 1")
    n = domain.shape[0]
    if n % (1 << levels) != 0:
        raise ValueError(f"grid length {n} not divisible by 2^{levels}")


def _analysis_step(a: np.ndarray, basis: WaveletBasis):
    n = a.size
    taps = basis.lo.size
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n
    windows = a[idx]
    return windows @ basis.lo, windows @ basis.hi


def _synthesis_step(approx: np.ndarray, detail: np.ndarray, basis: WaveletBasis):
    n = 2 * approx.size
    taps = basis.lo.size
    out = np.zeros(n, dtype=np.result_type(approx, detail, np.float64))
    idx = (2 * np.arange(approx.size)[:, None] + np.arange(taps)[None, :]) % n
    np.add.at(out, idx, approx[:, None] * basis.lo[None, :]
              + detail[:, None] * basis.hi[None, :])
    return out


def fwt(u: GridFn, basis: WaveletBasis, levels: int
        ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Fast periodic wavelet analysis: ``(approx, details)``, coarsest first."""
    _check_wavelet_domain(u.domain, levels)
    a, fine_to_coarse = u.values, []
    for _ in range(levels):
        a, d = _analysis_step(a, basis)
        fine_to_coarse.append(d)
    return a, fine_to_coarse[::-1]


def ifwt(domain: Domain, basis: WaveletBasis, approx: np.ndarray,
         details: list[np.ndarray]) -> GridFn:
    """Exact inverse of :func:`fwt` on ``domain``."""
    a = approx
    for detail in details:
        if detail.size != a.size:
            raise ValueError("inconsistent block sizes in decomposition")
        a = _synthesis_step(a, detail, basis)
    if a.size != domain.grid_size:
        raise ValueError("decomposition does not match its domain")
    return GridFn(domain, a)


def _detail_weights(levels: int, s: float) -> list[float]:
    return [2.0 ** (2.0 * j * s) for j in range(levels)]


def adjoint_embedding_wavelet(u: GridFn, s: float, basis: WaveletBasis,
                              levels: int) -> GridFn:
    """Diagonal smoothing in the wavelet basis: level-j details times 2^(-2js)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    approx, details = fwt(u, basis, levels)
    return ifwt(u.domain, basis, approx,
                [d / w for d, w in zip(details, _detail_weights(levels, s))])


def wavelet_sobolev_inner(u: GridFn, v: GridFn, s: float, basis: WaveletBasis,
                          levels: int) -> complex:
    """Dyadically weighted inner product matching the smoothing operator."""
    _same_domain(u, v)
    au, du = fwt(u, basis, levels)
    av, dv = fwt(v, basis, levels)
    total = np.sum(au * np.conj(av))
    for w, a, b in zip(_detail_weights(levels, s), du, dv):
        total += w * np.sum(a * np.conj(b))
    return quad_weight(u.domain) * complex(total)


def wavelet_sobolev_norm(u: GridFn, s: float, basis: WaveletBasis,
                         levels: int) -> float:
    return float(np.sqrt(wavelet_sobolev_inner(u, u, s, basis, levels).real))


def adjoint_linop(domain: Domain, s: float, basis: WaveletBasis,
                  levels: int) -> LinOp:
    """E^* as wavelet-detail scaling, paired with :func:`wavelet_sobolev_inner`."""
    if not s >= 0:
        raise ValueError(f"s={s} must be >= 0")
    _check_wavelet_domain(domain, levels)
    return LinOp(lambda u: adjoint_embedding_wavelet(u, s, basis, levels), lambda u: u,
                 inner, lambda u, v: wavelet_sobolev_inner(u, v, s, basis, levels),
                 domain, domain)
