"""Truncated singular systems of the smoothing operator.

On a finite spectral basis the smoothing operator E_s^* has the singular
value decomposition

    E_s^* u = sum_k sigma_k <u, u_k>_L2 v_k,    v_k = sigma_k u_k,

with L2-orthonormal u_k and nonincreasing sigma_k.  A :class:`SingularSystem`
stores the sigma_k and the samples of the u_k as the rows of one matrix B, so
each apply is two matrix products: the coefficients c(u) = h conj(B) u, then
a weighted sum of the rows of B.  Its :meth:`~SingularSystem.adjoint_linop`
pairs L2 with the span's inner product sum_k sigma_k^-2 c_k(u) conj(c_k(v)).

Both Dirichlet eigenexpansions and the torus SVD are such a system.  A
Dirichlet-Laplacian eigensystem (lambda_k, u_k) is one with
sigma_k = lambda_k^(-1/2), and its span inner product is the seminorm one:
on the rectangle (sine products) and on the disk (J_m with zeros j_{m,n},
from ``scipy.special``, sampled on the square cell box around it).  On the
torus the embedding's own SVD has u_k = exp(2 pi i k.x) and
sigma_k = w(k)^(-1/2), where the span inner product is
``multiplier.sobolev_inner``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Domain, DomainKind, GridFn, LinOp, _require_counts, _same_domain,
                   frequency_axes, inner, quad_weight)
from .multiplier import SobolevSpec, weight_grid

__all__ = [
    "SingularSystem",
    "bessel_j",
    "bessel_j_zero",
    "rectangle_dirichlet_eigs",
    "disk_dirichlet_eigs",
    "svd_from_multiplier",
]


# -- Bessel J and its zeros ----------------------------------------------------

def _bessel_j_vec(m: int, x: np.ndarray) -> np.ndarray:
    import scipy.special  # deferred: the tomography path never needs it
    return scipy.special.jv(m, np.asarray(x, dtype=np.float64))


def bessel_j(m: int, x: float) -> float:
    """Bessel function of the first kind of integer order m."""
    _require_counts(0, m=m)
    return float(_bessel_j_vec(m, float(x)))


def bessel_j_zero(m: int, n: int) -> float:
    """n-th positive zero of J_m."""
    _require_counts(0, m=m)
    _require_counts(1, n=n)
    import scipy.special  # deferred: the tomography path never needs it
    return float(scipy.special.jn_zeros(m, n)[n - 1])


# -- singular systems -------------------------------------------------------------

@dataclass(frozen=True)
class SingularSystem:
    """Nonincreasing ``sigmas`` and the (K, grid_size) ``basis`` of L2-orthonormal
    samples u_k; the H^s-orthonormal v_k = sigma_k u_k are implied."""

    domain: Domain
    sigmas: np.ndarray
    basis: np.ndarray

    @property
    def count(self) -> int:
        return self.sigmas.size

    def _coefficients(self, u: GridFn) -> np.ndarray:
        # <u, u_k>_L2 for every k, without a conjugate copy of the basis
        _same_domain(u, self)
        return quad_weight(self.domain) * np.conj(self.basis @ np.conj(u.values))

    def apply_adjoint(self, u: GridFn) -> GridFn:
        """E* u = sum_k sigma_k^2 <u, u_k>_L2 u_k."""
        return GridFn(u.domain, (self.sigmas**2 * self._coefficients(u)) @ self.basis)

    def apply_embedding(self, v: GridFn) -> GridFn:
        """E v on the retained span: the L2 projection sum_k <v, u_k>_L2 u_k."""
        return GridFn(v.domain, self._coefficients(v) @ self.basis)

    def span_inner(self, u: GridFn, v: GridFn) -> complex:
        """sum_k sigma_k^-2 <u, u_k>_L2 conj(<v, u_k>_L2), the H^s product on the span."""
        cu, cv = self._coefficients(u), self._coefficients(v)
        return complex(np.sum(self.sigmas**-2.0 * cu * np.conj(cv)))

    def adjoint_linop(self) -> LinOp:
        """E* from L2 to the span's inner product; exact to the Gram defect of
        the basis, which is rounding for every system built here."""
        return LinOp(self.apply_adjoint, self.apply_embedding, inner, self.span_inner,
                     self.domain, self.domain)


def _from_eigenvalues(grid: Domain, lams: np.ndarray, basis: np.ndarray) -> SingularSystem:
    order = np.argsort(lams, kind="stable")
    return SingularSystem(grid, lams[order] ** -0.5, basis[order])


def rectangle_dirichlet_eigs(grid: Domain, max_m: int, max_n: int) -> SingularSystem:
    """Dirichlet-Laplacian eigensystem on the rectangle ``grid``, (0,a) x (0,b),
    with sigma = lambda^(-1/2).

    lambda_{m,n} = pi^2 ((m/a)^2 + (n/b)^2) with sine-product eigenfunctions,
    normalized analytically (the grid sum reproduces the L2 norm exactly for
    these modes).
    """
    if grid.kind is not DomainKind.RECTANGLE:
        raise ValueError("grid must be a rectangle domain")
    _require_counts(1, max_m=max_m, max_n=max_n)
    a, b = grid.lengths
    m, n = np.arange(1, max_m + 1), np.arange(1, max_n + 1)
    lams = np.pi**2 * ((m[:, None] / a) ** 2 + (n[None, :] / b) ** 2)
    x, y = grid.axes()
    sx = 2.0 / np.sqrt(a * b) * np.sin(m[:, None] * np.pi * x / a)
    sy = np.sin(n[:, None] * np.pi * y / b)
    basis = sx[:, None, :, None] * sy[None, :, None, :]
    return _from_eigenvalues(grid, lams.ravel(), basis.reshape(lams.size, -1))


def disk_dirichlet_eigs(grid: Domain, max_m: int, max_n: int) -> SingularSystem:
    """Dirichlet-Laplacian eigensystem on the disk inscribed in ``grid``,
    sigma = lambda^(-1/2).

    ``grid`` is a square ``Domain.cells`` box centred on the origin; its half
    side is the disk's radius.  lambda_{m,n} = (j_{m,n}/radius)^2 with
    J_m(j_{m,n} r/radius) times cos/sin(m theta); the sin branch is dropped
    for m = 0.  The rows are 0 at pixels whose centres lie outside the
    circle.  Inside, they are orthonormalized once in the pixel quadrature
    (triangular, in (m, n) order), so the basis is orthonormal and the
    adjoint identity holds to rounding; the rows are Dirichlet
    eigenfunctions to the quadrature error.
    """
    _require_counts(0, max_m=max_m)
    _require_counts(1, max_n=max_n)
    radius = grid.lengths[0] / 2
    if (grid.kind is not DomainKind.CELLS or grid.ndim != 2
            or grid.shape[0] != grid.shape[1] or grid.lengths[1] != grid.lengths[0]
            or grid.origin != (-radius, -radius)):
        raise ValueError("grid must be a square Domain.cells box centred on the origin")
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    r2 = (X**2 + Y**2).ravel()
    inside = r2 < radius**2
    r = np.sqrt(r2[inside])
    theta = np.arctan2(Y, X).ravel()[inside]
    lams, rows = [], []
    for m in range(0, max_m + 1):
        for n in range(1, max_n + 1):
            jmn = bessel_j_zero(m, n)
            radial = _bessel_j_vec(m, jmn * r / radius)
            for trig in (np.cos, np.sin)[:1 + (m > 0)]:
                rows.append(radial * trig(m * theta))
                lams.append((jmn / radius) ** 2)
    rows = np.array(rows)
    try:
        factor = np.linalg.cholesky(quad_weight(grid) * rows @ rows.T)
    except np.linalg.LinAlgError as exc:
        n = grid.shape[0]
        raise ValueError(f"the {len(rows)} disk modes are linearly dependent on "
                         f"the {n}x{n} pixel box: use fewer modes or more "
                         "pixels") from exc
    basis = np.zeros((len(rows), grid.grid_size))
    basis[:, inside] = np.linalg.solve(factor, rows)
    return _from_eigenvalues(grid, np.array(lams), basis)


def svd_from_multiplier(spec: SobolevSpec, domain: Domain, K: int) -> SingularSystem:
    """The K largest singular triples of the embedding, ordered by |k|."""
    if domain.kind is not DomainKind.TORUS:
        raise ValueError("the explicit SVD lives on torus domains")
    _require_counts(1, K=K)
    if K > domain.grid_size:
        raise ValueError(f"K={K} must be at most the {domain.grid_size} grid modes")
    grids = np.meshgrid(*frequency_axes(domain), indexing="ij")
    kvecs = np.stack([g.ravel() for g in grids], axis=-1)
    order = np.lexsort(tuple(kvecs[:, d] for d in range(kvecs.shape[1] - 1, -1, -1)))
    order = order[np.argsort(np.sum(kvecs[order] ** 2, axis=1), kind="stable")][:K]
    coords = np.stack([c.ravel() for c in np.meshgrid(*domain.axes(), indexing="ij")])
    basis = np.exp(2j * np.pi * (kvecs[order] @ coords))
    return SingularSystem(domain, weight_grid(domain, spec).ravel()[order] ** -0.5, basis)
