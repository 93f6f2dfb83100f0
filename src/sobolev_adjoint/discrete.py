"""Finite-dimensional smoothing through Gram matrices.

Given a basis of a smoothness-space subspace (phi_1..phi_m) and a basis of
an L2 subspace (psi_1..psi_n), the projected smoothing of u is

    z = H_X^{-1} M H_Y^{-1} (<u, psi_j>)_j,      output = sum_k z_k phi_k,

with H_X the Gram matrix of the phi basis in the smoothness inner product,
H_Y the L2 Gram of the psi basis, and M the cross Gram <psi_j, phi_k>_L2.
H_X doubles as the stiffness matrix of the underlying variational problem.

Two basis families are shipped: torus Fourier modes (diagonal Grams, exact
against the multiplier route) and 1D piecewise-linear hats (H^1 Gram =
trapezoid mass + difference-quotient stiffness, second-order against the
BVP route).

For repeated applies it pays to smooth each L2 basis function once up
front (or to pick the smoothness basis as exactly those smoothed
functions, which turns the cross Gram into H_X); the assembly here
recomputes per call for clarity and is not that optimized path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .core import Domain, DomainKind, GridFn, InnerProductSpec

__all__ = [
    "DiscreteSetting",
    "assemble",
    "projected_adjoint",
    "project_onto_x",
    "project_onto_y",
    "fourier_mode_basis",
    "hat_basis",
]


@dataclass(frozen=True)
class DiscreteSetting:
    basis_x: tuple[GridFn, ...]
    basis_y: tuple[GridFn, ...]
    inner_x: Callable[[GridFn, GridFn], complex]
    inner_y: Callable[[GridFn, GridFn], complex]
    h_x: np.ndarray
    h_y: np.ndarray
    cross: np.ndarray

    @property
    def dim_x(self) -> int:
        return len(self.basis_x)

    @property
    def dim_y(self) -> int:
        return len(self.basis_y)


def _gram(basis_a: Sequence[GridFn], basis_b: Sequence[GridFn],
          ip: Callable[[GridFn, GridFn], complex]) -> np.ndarray:
    # entry (k, j) = ip(b_j, a_k): rows indexed by the left basis
    out = np.empty((len(basis_a), len(basis_b)), dtype=np.complex128)
    for k, fa in enumerate(basis_a):
        for j, fb in enumerate(basis_b):
            out[k, j] = ip(fb, fa)
    return out


def _spd_cholesky(mat: np.ndarray, name: str):
    try:
        return scipy.linalg.cho_factor(mat)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"{name} Gram matrix is not positive definite "
                         "(linearly dependent basis?)") from exc


def assemble(basis_x: Sequence[GridFn], basis_y: Sequence[GridFn],
             inner_x: InnerProductSpec | Callable[[GridFn, GridFn], complex],
             inner_y: InnerProductSpec | Callable[[GridFn, GridFn], complex]
             | None = None) -> DiscreteSetting:
    """Build the Gram matrices; Cholesky verifies positive definiteness."""
    if not basis_x or not basis_y:
        raise ValueError("bases must be nonempty")
    dom = basis_x[0].domain
    if any(f.domain != dom for f in basis_x) or any(f.domain != dom for f in basis_y):
        raise ValueError("all basis functions must share one domain")
    ip_x = inner_x
    ip_y = inner_y if inner_y is not None else InnerProductSpec.l2()
    h_x = _gram(basis_x, basis_x, ip_x)
    h_y = _gram(basis_y, basis_y, ip_y)
    cross = _gram(basis_x, basis_y, ip_y)
    _spd_cholesky(h_x, "smoothness-space")
    _spd_cholesky(h_y, "L2-space")
    return DiscreteSetting(tuple(basis_x), tuple(basis_y), ip_x, ip_y,
                           h_x, h_y, cross)


def _solve_and_expand(gram: np.ndarray, name: str, rhs: np.ndarray,
                      basis: tuple[GridFn, ...]) -> tuple[np.ndarray, GridFn]:
    # coefficients c = gram^{-1} rhs and the function sum_k c_k basis_k
    c = scipy.linalg.cho_solve(_spd_cholesky(gram, name), rhs)
    vals = np.zeros(basis[0].values.size, dtype=np.complex128)
    for ck, fn in zip(c, basis):
        vals += ck * fn.values
    return c, GridFn(basis[0].domain, vals)


def projected_adjoint(setting: DiscreteSetting, u: GridFn
                      ) -> tuple[np.ndarray, GridFn]:
    """Coefficients z = H_X^{-1} M H_Y^{-1} u and the represented function."""
    if u.domain != setting.basis_x[0].domain:
        raise ValueError("domain mismatch")
    u_vec = np.array([setting.inner_y(u, psi) for psi in setting.basis_y])
    v = scipy.linalg.cho_solve(_spd_cholesky(setting.h_y, "L2-space"), u_vec)
    return _solve_and_expand(setting.h_x, "smoothness-space", setting.cross @ v,
                             setting.basis_x)


def project_onto_x(setting: DiscreteSetting, v: GridFn) -> GridFn:
    """Orthogonal projection onto span(phi) in the smoothness inner product."""
    rhs = np.array([setting.inner_x(v, phi) for phi in setting.basis_x])
    return _solve_and_expand(setting.h_x, "smoothness-space", rhs,
                             setting.basis_x)[1]


def project_onto_y(setting: DiscreteSetting, v: GridFn) -> GridFn:
    """Orthogonal projection onto span(psi) in L2."""
    rhs = np.array([setting.inner_y(v, psi) for psi in setting.basis_y])
    return _solve_and_expand(setting.h_y, "L2-space", rhs, setting.basis_y)[1]


def fourier_mode_basis(domain: Domain, kmax: int) -> tuple[list[GridFn], list]:
    """Complex exponentials with |k_i| <= kmax, zero mode first."""
    if domain.kind is not DomainKind.TORUS:
        raise ValueError("Fourier mode basis lives on torus domains")
    coords = np.meshgrid(*domain.axes(), indexing="ij")
    rng = range(-kmax, kmax + 1)
    kvecs = [(0,) * domain.ndim]
    for kv in np.stack(np.meshgrid(*([list(rng)] * domain.ndim),
                                   indexing="ij"), axis=-1).reshape(-1, domain.ndim):
        tup = tuple(int(c) for c in kv)
        if tup != (0,) * domain.ndim:
            kvecs.append(tup)
    kvecs.sort(key=lambda kv: (sum(c**2 for c in kv), kv))
    fns = []
    for kv in kvecs:
        phase = sum(kk * xx for kk, xx in zip(kv, coords))
        fns.append(GridFn(domain, np.exp(2j * np.pi * phase).ravel()))
    return fns, kvecs


def hat_basis(domain: Domain, stride: int = 1) -> list[GridFn]:
    """Piecewise-linear nodal hats on an interval grid, sampled on the grid."""
    if domain.kind is not DomainKind.INTERVAL:
        raise ValueError("hat basis lives on interval domains")
    n = domain.shape[0]
    x = domain.axes()[0]
    h = domain.spacing[0] * stride
    fns = []
    for center in range(0, n, stride):
        vals = np.maximum(0.0, 1.0 - np.abs(x - x[center]) / h)
        fns.append(GridFn(domain, vals))
    return fns
