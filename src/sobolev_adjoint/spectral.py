"""Eigenexpansion and SVD views of the smoothing operator.

For the seminorm inner product on the Dirichlet-constrained space, smoothing
an L2 function is the inverse of the top-order elliptic operator: with a
complete orthonormal eigensystem (lambda_k, u_k) of that operator,

    smooth(u) = sum_k (1/lambda_k) <u, u_k>_L2 u_k.

Closed-form Dirichlet-Laplacian eigensystems are shipped for the rectangle
(sine products) and the disk (Bessel functions J_m with zeros j_{m,n});
J_m and its zeros come from ``scipy.special``.  On the torus the embedding
has an explicit singular value decomposition with sigma_k = w(k)^(-1/2),
which is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Domain, DomainKind, GridFn, inner, quad_weight
from .multiplier import SobolevSpec, sobolev_inner, weight_grid
from .core import frequency_axes

__all__ = [
    "EigenSystem",
    "SingularSystem",
    "bessel_j",
    "bessel_j_zero",
    "rectangle_dirichlet_eigs",
    "disk_dirichlet_eigs",
    "adjoint_embedding_eigs",
    "svd_from_multiplier",
]


# -- Bessel J and its zeros ----------------------------------------------------

def _bessel_j_vec(m: int, x: np.ndarray) -> np.ndarray:
    import scipy.special  # deferred: the tomography path never needs it
    return scipy.special.jv(m, np.asarray(x, dtype=np.float64))


def bessel_j(m: int, x: float) -> float:
    """Bessel function of the first kind of integer order m."""
    if m < 0:
        raise ValueError("order must be >= 0")
    return float(_bessel_j_vec(m, float(x)))


def bessel_j_zero(m: int, n: int) -> float:
    """n-th positive zero of J_m."""
    if m < 0:
        raise ValueError("order must be >= 0")
    if n < 1:
        raise ValueError("zero index must be >= 1")
    import scipy.special  # deferred: the tomography path never needs it
    return float(scipy.special.jn_zeros(m, n)[n - 1])


# -- eigensystems ---------------------------------------------------------------

@dataclass(frozen=True)
class EigenSystem:
    """Nondecreasing eigenvalues with L2-orthonormal sampled eigenfunctions."""

    domain: Domain
    entries: tuple[tuple[float, GridFn], ...]

    @property
    def count(self) -> int:
        return len(self.entries)


def rectangle_dirichlet_eigs(a: float, b: float, max_m: int, max_n: int,
                             grid: Domain) -> EigenSystem:
    """Dirichlet-Laplacian eigensystem on (0,a) x (0,b).

    lambda_{m,n} = pi^2 ((m/a)^2 + (n/b)^2) with sine-product eigenfunctions,
    normalized analytically (the grid sum reproduces the L2 norm exactly for
    these modes).
    """
    if a <= 0 or b <= 0:
        raise ValueError("sides must be positive")
    if grid.kind is not DomainKind.RECTANGLE or grid.lengths != (a, b):
        raise ValueError("grid must be a rectangle domain with matching sides")
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    entries = []
    scale = 2.0 / np.sqrt(a * b)
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            lam = np.pi**2 * ((m / a) ** 2 + (n / b) ** 2)
            vals = scale * np.sin(m * np.pi * X / a) * np.sin(n * np.pi * Y / b)
            entries.append((float(lam), GridFn(grid, vals.ravel())))
    entries.sort(key=lambda e: e[0])
    return EigenSystem(grid, tuple(entries))


def disk_dirichlet_eigs(radius: float, max_m: int, max_n: int,
                        grid: Domain) -> EigenSystem:
    """Dirichlet-Laplacian eigensystem on the disk of the given radius.

    lambda_{m,n} = (j_{m,n}/radius)^2 with J_m(j_{m,n} r/radius) times
    cos/sin(m theta); the sin branch is dropped for m = 0.  Eigenfunctions
    are normalized by pixel-mask quadrature (coarse, ~1e-2 Gram accuracy).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if grid.kind is not DomainKind.DISK_MASK or grid.radius != radius:
        raise ValueError("grid must be a disk mask with matching radius")
    xs, ys = grid.axes()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    active = grid.active
    r = np.sqrt(X**2 + Y**2).ravel()[active]
    theta = np.arctan2(Y, X).ravel()[active]
    w = quad_weight(grid)
    entries = []
    for m in range(0, max_m + 1):
        radial_orders = [(n, bessel_j_zero(m, n)) for n in range(1, max_n + 1)]
        for n, jmn in radial_orders:
            lam = (jmn / radius) ** 2
            radial = _bessel_j_vec(m, jmn * r / radius)
            branches = [radial * np.cos(m * theta)]
            if m > 0:
                branches.append(radial * np.sin(m * theta))
            for vals in branches:
                norm = np.sqrt(w * np.sum(vals**2))
                entries.append((float(lam), GridFn(grid, vals / norm)))
    entries.sort(key=lambda e: e[0])
    return EigenSystem(grid, tuple(entries))


def adjoint_embedding_eigs(u: GridFn, eigs: EigenSystem) -> GridFn:
    """Truncated eigenexpansion sum_k <u, u_k> u_k / lambda_k."""
    if eigs.count == 0:
        raise ValueError("empty eigensystem")
    if u.domain != eigs.domain:
        raise ValueError("domain mismatch")
    out = np.zeros_like(u.values, dtype=np.complex128)
    for lam, phi in eigs.entries:
        out += (inner(u, phi) / lam) * phi.values
    if u.is_real:
        return GridFn(u.domain, out.real)
    return GridFn(u.domain, out)


# -- singular value decomposition on the torus -----------------------------------

@dataclass(frozen=True)
class SingularSystem:
    """Triples (sigma_k, v_k, u_k), sigma nonincreasing; u_k = E v_k / sigma_k."""

    domain: Domain
    spec: SobolevSpec
    sigmas: tuple[float, ...]
    v_fns: tuple[GridFn, ...]
    u_fns: tuple[GridFn, ...]

    @property
    def count(self) -> int:
        return len(self.sigmas)

    def apply_embedding(self, v: GridFn) -> GridFn:
        """E v = sum_k sigma_k <v, v_k>_{H^s} u_k on the retained span."""
        out = np.zeros_like(v.values, dtype=np.complex128)
        for sig, vk, uk in zip(self.sigmas, self.v_fns, self.u_fns):
            out += sig * sobolev_inner(v, vk, self.spec) * uk.values
        return GridFn(v.domain, out)

    def apply_adjoint(self, u: GridFn) -> GridFn:
        """E* u = sum_k sigma_k <u, u_k>_{L2} v_k on the retained span."""
        out = np.zeros_like(u.values, dtype=np.complex128)
        for sig, vk, uk in zip(self.sigmas, self.v_fns, self.u_fns):
            out += sig * inner(u, uk) * vk.values
        return GridFn(u.domain, out)


def svd_from_multiplier(spec: SobolevSpec, domain: Domain, K: int) -> SingularSystem:
    """The K largest singular triples of the embedding, ordered by |k|."""
    if domain.kind is not DomainKind.TORUS:
        raise ValueError("the explicit SVD lives on torus domains")
    if K < 1 or K > domain.grid_size:
        raise ValueError("K must be between 1 and the number of grid modes")
    axes = frequency_axes(domain)
    grids = np.meshgrid(*axes, indexing="ij")
    kvecs = np.stack([g.ravel() for g in grids], axis=-1)
    order = np.lexsort(tuple(kvecs[:, d] for d in range(kvecs.shape[1] - 1, -1, -1)))
    order = order[np.argsort(np.sum(kvecs[order] ** 2, axis=1), kind="stable")]
    weights = weight_grid(domain, spec).ravel()
    coords = np.meshgrid(*domain.axes(), indexing="ij")
    sigmas, v_fns, u_fns = [], [], []
    for idx in order[:K]:
        kvec = kvecs[idx]
        phase = sum(kk * xx for kk, xx in zip(kvec, coords))
        ek = np.exp(2j * np.pi * phase).ravel()
        sig = float(weights[idx] ** -0.5)
        sigmas.append(sig)
        u_fns.append(GridFn(domain, ek))
        v_fns.append(GridFn(domain, sig * ek))
    return SingularSystem(domain, spec, tuple(sigmas), tuple(v_fns), tuple(u_fns))
