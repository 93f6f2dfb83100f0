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

Inner products are plain functions ``(u, v) -> complex``.  ``assemble``
builds the three Gram matrices and Cholesky-factors H_X and H_Y once; every
apply reuses those factors, so a call costs the inner products with the
input plus two triangular solves.  Each Gram entry is still one
inner-product call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Domain, DomainKind, GridFn, LinOp, _same_domain, inner

__all__ = [
    "DiscreteSetting",
    "assemble",
    "projected_adjoint",
    "project_onto_x",
    "project_onto_y",
    "adjoint_linop",
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
    chol_x: tuple[np.ndarray, bool]
    chol_y: tuple[np.ndarray, bool]


def _gram(basis_a: Sequence[GridFn], basis_b: Sequence[GridFn],
          ip: Callable[[GridFn, GridFn], complex]) -> np.ndarray:
    # entry (k, j) = ip(b_j, a_k): rows indexed by the left basis
    out = np.empty((len(basis_a), len(basis_b)), dtype=np.complex128)
    for k, fa in enumerate(basis_a):
        for j, fb in enumerate(basis_b):
            out[k, j] = ip(fb, fa)
    return out


def _spd_cholesky(mat: np.ndarray, name: str):
    import scipy.linalg  # deferred: the tomography path never needs it
    try:
        return scipy.linalg.cho_factor(mat)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"{name} Gram matrix is not positive definite "
                         "(linearly dependent basis?)") from exc


def assemble(basis_x: Sequence[GridFn], basis_y: Sequence[GridFn],
             inner_x: Callable[[GridFn, GridFn], complex],
             inner_y: Callable[[GridFn, GridFn], complex] = inner
             ) -> DiscreteSetting:
    """Build the Gram matrices; Cholesky-factoring H_X, H_Y verifies definiteness."""
    if not basis_x or not basis_y:
        raise ValueError("bases must be nonempty")
    dom = basis_x[0].domain
    if any(f.domain != dom for f in basis_x) or any(f.domain != dom for f in basis_y):
        raise ValueError("all basis functions must share one domain")
    h_x = _gram(basis_x, basis_x, inner_x)
    h_y = _gram(basis_y, basis_y, inner_y)
    cross = _gram(basis_x, basis_y, inner_y)
    return DiscreteSetting(tuple(basis_x), tuple(basis_y), inner_x, inner_y,
                           h_x, h_y, cross,
                           _spd_cholesky(h_x, "smoothness-space"),
                           _spd_cholesky(h_y, "L2-space"))


def _solve_and_expand(chol: tuple[np.ndarray, bool], rhs: np.ndarray,
                      basis: tuple[GridFn, ...]) -> tuple[np.ndarray, GridFn]:
    import scipy.linalg  # deferred: the tomography path never needs it
    # coefficients c = gram^{-1} rhs from its Cholesky factor, and sum_k c_k basis_k
    c = scipy.linalg.cho_solve(chol, rhs)
    vals = np.zeros(basis[0].values.size, dtype=np.complex128)
    for ck, fn in zip(c, basis):
        vals += ck * fn.values
    return c, GridFn(basis[0].domain, vals)


def projected_adjoint(setting: DiscreteSetting, u: GridFn
                      ) -> tuple[np.ndarray, GridFn]:
    """Coefficients z = H_X^{-1} M H_Y^{-1} u and the represented function."""
    import scipy.linalg  # deferred: the tomography path never needs it
    _same_domain(u, setting.basis_x[0])
    u_vec = np.array([setting.inner_y(u, psi) for psi in setting.basis_y])
    v = scipy.linalg.cho_solve(setting.chol_y, u_vec)
    return _solve_and_expand(setting.chol_x, setting.cross @ v, setting.basis_x)


def project_onto_x(setting: DiscreteSetting, v: GridFn) -> GridFn:
    """Orthogonal projection onto span(phi) in the smoothness inner product."""
    rhs = np.array([setting.inner_x(v, phi) for phi in setting.basis_x])
    return _solve_and_expand(setting.chol_x, rhs, setting.basis_x)[1]


def project_onto_y(setting: DiscreteSetting, v: GridFn) -> GridFn:
    """Orthogonal projection onto span(psi) in L2."""
    rhs = np.array([setting.inner_y(v, psi) for psi in setting.basis_y])
    return _solve_and_expand(setting.chol_y, rhs, setting.basis_y)[1]


def adjoint_linop(setting: DiscreteSetting) -> LinOp:
    """Projected E^* from ``inner_y`` to ``inner_x``; adjoint Q_psi P_phi."""
    dom = setting.basis_x[0].domain
    return LinOp(lambda u: projected_adjoint(setting, u)[1],
                 lambda v: project_onto_y(setting, project_onto_x(setting, v)),
                 setting.inner_y, setting.inner_x, dom, dom)


def fourier_mode_basis(domain: Domain, kmax: int) -> tuple[list[GridFn], list]:
    """Complex exponentials with |k_i| <= kmax, zero mode first."""
    if domain.kind is not DomainKind.TORUS:
        raise ValueError("Fourier mode basis lives on torus domains")
    coords = np.meshgrid(*domain.axes(), indexing="ij")
    kvecs = sorted(itertools.product(range(-kmax, kmax + 1), repeat=domain.ndim),
                   key=lambda kv: (sum(c**2 for c in kv), kv))
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
