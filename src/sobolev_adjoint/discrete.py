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

A basis is a ``(K, grid_size)`` array, one function per row, and an inner
product enters as its Gram function (see ``core``).  ``assemble`` builds the
three Gram matrices, one matrix product each, and Cholesky-factors H_X and H_Y
once; an apply is a Gram with the input, solves with the factors and a basis product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Domain, DomainKind, GridFn, LinOp, _require_counts, _same_domain, gram

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

GramFn = Callable[[Domain, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DiscreteSetting:
    domain: Domain
    basis_x: np.ndarray
    basis_y: np.ndarray
    gram_x: GramFn
    gram_y: GramFn
    h_x: np.ndarray
    h_y: np.ndarray
    cross: np.ndarray
    chol_x: np.ndarray
    chol_y: np.ndarray


def _checked_basis(domain: Domain, basis, name: str) -> np.ndarray:
    b = np.asarray(basis)
    if b.ndim != 2 or not b.shape[0] or b.shape[1] != domain.grid_size:
        raise ValueError(f"{name} must be a nonempty (K, {domain.grid_size}) "
                         f"stack of samples, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError(f"{name} samples must be finite")
    return b


def _spd_cholesky(mat: np.ndarray, name: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} Gram matrix is not positive definite "
                         "(linearly dependent basis?)") from exc


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(chol.conj().T, np.linalg.solve(chol, b))


def assemble(domain: Domain, basis_x, basis_y, gram_x: GramFn,
             gram_y: GramFn = gram) -> DiscreteSetting:
    """Build the Gram matrices; Cholesky-factoring H_X, H_Y verifies definiteness."""
    basis_x = _checked_basis(domain, basis_x, "basis_x")
    basis_y = _checked_basis(domain, basis_y, "basis_y")
    h_x, h_y = gram_x(domain, basis_x, basis_x), gram_y(domain, basis_y, basis_y)
    return DiscreteSetting(domain, basis_x, basis_y, gram_x, gram_y, h_x, h_y,
                           gram_y(domain, basis_x, basis_y),
                           _spd_cholesky(h_x, "smoothness-space"),
                           _spd_cholesky(h_y, "L2-space"))


def _coefficients(setting: DiscreteSetting, v: GridFn, gram_fn: GramFn,
                  chol: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # c = H^{-1} (<v, b_k>)_k: the projection of v onto span(basis) is c @ basis
    _same_domain(v, setting)
    return _cholesky_solve(chol, gram_fn(setting.domain, basis, v.values[None])[:, 0])


def projected_adjoint(setting: DiscreteSetting, u: GridFn) -> tuple[np.ndarray, GridFn]:
    """Coefficients z = H_X^{-1} M H_Y^{-1} u and the represented function."""
    v = _coefficients(setting, u, setting.gram_y, setting.chol_y, setting.basis_y)
    z = _cholesky_solve(setting.chol_x, setting.cross @ v)
    return z, GridFn(setting.domain, z @ setting.basis_x)


def project_onto_x(setting: DiscreteSetting, v: GridFn) -> GridFn:
    """Orthogonal projection onto span(phi) in the smoothness inner product."""
    c = _coefficients(setting, v, setting.gram_x, setting.chol_x, setting.basis_x)
    return GridFn(setting.domain, c @ setting.basis_x)


def project_onto_y(setting: DiscreteSetting, v: GridFn) -> GridFn:
    """Orthogonal projection onto span(psi) in L2."""
    c = _coefficients(setting, v, setting.gram_y, setting.chol_y, setting.basis_y)
    return GridFn(setting.domain, c @ setting.basis_y)


def _scalar(gram_fn: GramFn, domain: Domain) -> Callable[[GridFn, GridFn], complex]:
    return lambda u, v: complex(gram_fn(domain, v.values[None], u.values[None])[0, 0])


def adjoint_linop(setting: DiscreteSetting) -> LinOp:
    """Projected E^* from ``gram_y``'s product to ``gram_x``'s; adjoint Q_psi P_phi."""
    dom = setting.domain
    return LinOp(lambda u: projected_adjoint(setting, u)[1],
                 lambda v: project_onto_y(setting, project_onto_x(setting, v)),
                 _scalar(setting.gram_y, dom), _scalar(setting.gram_x, dom), dom, dom)


def fourier_mode_basis(domain: Domain, kmax: int) -> tuple[np.ndarray, list]:
    """Complex exponentials with |k_i| <= kmax, zero mode first, one per row."""
    if domain.kind is not DomainKind.TORUS:
        raise ValueError("Fourier mode basis lives on torus domains")
    _require_counts(0, kmax=kmax)
    coords = np.reshape(np.meshgrid(*domain.axes(), indexing="ij"), (domain.ndim, -1))
    kvecs = sorted(itertools.product(range(-kmax, kmax + 1), repeat=domain.ndim),
                   key=lambda kv: (sum(c**2 for c in kv), kv))
    return np.exp(2j * np.pi * (np.array(kvecs) @ coords)), kvecs


def hat_basis(domain: Domain, stride: int = 1) -> np.ndarray:
    """Piecewise-linear nodal hats on an interval grid, one per row."""
    if domain.kind is not DomainKind.INTERVAL:
        raise ValueError("hat basis lives on interval domains")
    _require_counts(1, stride=stride)
    x, h = domain.axes()[0], domain.spacing[0] * stride
    return np.maximum(0.0, 1.0 - np.abs(x - x[::stride, None]) / h)
