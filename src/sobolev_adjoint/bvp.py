"""Smoothing as a boundary-value-problem solve.

The discrete problems are assembled so that the variational identity holds
exactly at the matrix level: with trapezoid mass ``M`` and difference-quotient
stiffness forms, the solve ``A z = M u`` makes

    <z, v>_discrete-Sobolev  ==  <u, v>_discrete-L2

hold for every nodal test vector ``v`` up to solver residual, which is the
discrete counterpart of the defining adjoint identity.  Supported cases:

* order 1, Neumann-like:  -Laplace(z) + z = u,  dz/dn = 0   (interval, rectangle)
* order m in {1, 2}, 1D on an interval, natural or Dirichlet conditions;
  the Dirichlet variant drops the +z term (seminorm inner product)
* order 1, homogeneous Dirichlet Poisson problem on a rectangle
* order m, 1D periodic (torus) Helmholtz power, used for cross-checks
  against the Fourier-multiplier route

Second-order finite differences throughout; 1D systems go through banded
Cholesky.  On the rectangle the trapezoid-lumped mass turns ``M^{-1} A``
into a sum of per-axis second differences, which the DCT-I (reflecting
boundary) and the DST-I (zero boundary) diagonalize, so the 2D solves are
exact fast-Poisson solves (Buzbee, Golub & Nielson 1970).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .core import Domain, DomainKind, GridFn

__all__ = [
    "BoundaryKind",
    "NormChoice",
    "BcVariant",
    "BvpSpec",
    "solve_neumann_helmholtz",
    "solve_1d_order2m",
    "solve_dirichlet_poisson_2d",
    "solve_torus_helmholtz",
    "variational_gap",
    "mass_inner",
    "h1_inner",
]


class BoundaryKind(enum.Enum):
    NEUMANN_LIKE = "neumann_like"
    DIRICHLET = "dirichlet"


class NormChoice(enum.Enum):
    FULL_DA = "full_da"
    SIMPLE_PLUS_L2 = "simple_plus_l2"
    SEMINORM_ONLY = "seminorm_only"


class BcVariant(enum.Enum):
    NATURAL_DJ = "natural_dj"
    DIRICHLET_DJ = "dirichlet_dj"


@dataclass(frozen=True)
class BvpSpec:
    order_m: int
    bc: BoundaryKind
    domain: Domain
    norm_choice: NormChoice = NormChoice.SIMPLE_PLUS_L2

    def __post_init__(self):
        if self.order_m < 1:
            raise ValueError("order_m must be >= 1")
        if self.norm_choice is NormChoice.SEMINORM_ONLY \
                and self.bc is not BoundaryKind.DIRICHLET:
            raise ValueError("the seminorm inner product requires Dirichlet conditions")
        if self.domain.kind not in (DomainKind.INTERVAL, DomainKind.RECTANGLE,
                                    DomainKind.DISK_MASK, DomainKind.TORUS):
            raise ValueError("unsupported domain for BVP solves")


# -- 1D discrete forms --------------------------------------------------------

def _mass_diag_1d(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def _stiffness_1d(n: int, h: float) -> scipy.sparse.csr_matrix:
    main = np.full(n, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    return scipy.sparse.diags([off, main, off], [-1, 0, 1]).tocsr()


def _clamped_biharmonic_1d(n_interior: int, h: float) -> scipy.sparse.csr_matrix:
    # rows scaled by h so the right-hand side pairs with the h-weighted mass
    c = h / h**4
    main = np.full(n_interior, 6.0 * c)
    main[0] = main[-1] = 7.0 * c
    off1 = np.full(n_interior - 1, -4.0 * c)
    off2 = np.full(n_interior - 2, 1.0 * c)
    return scipy.sparse.diags([off2, off1, main, off1, off2],
                              [-2, -1, 0, 1, 2]).tocsr()


def _free_second_difference(n: int, h: float) -> scipy.sparse.csr_matrix:
    # maps nodal values to interior second differences, no boundary assumptions
    rows = n - 2
    data, ri, ci = [], [], []
    for i in range(rows):
        for j, c in ((i, 1.0), (i + 1, -2.0), (i + 2, 1.0)):
            ri.append(i)
            ci.append(j)
            data.append(c / h**2)
    return scipy.sparse.csr_matrix((data, (ri, ci)), shape=(rows, n))


def _forms_interval(spec: BvpSpec):
    """(A, mass_diag, active_index) with A z = M u the discrete problem."""
    n = spec.domain.shape[0]
    h = spec.domain.spacing[0]
    m_diag = _mass_diag_1d(n, h)
    if spec.order_m == 1:
        K = _stiffness_1d(n, h)
        if spec.bc is BoundaryKind.NEUMANN_LIKE:
            A = K + scipy.sparse.diags(m_diag)
            return A.tocsr(), m_diag, slice(None)
        interior = slice(1, n - 1)
        A = K[interior, interior]
        if spec.norm_choice is not NormChoice.SEMINORM_ONLY:
            A = A + scipy.sparse.diags(m_diag[interior])
        return A.tocsr(), m_diag, interior
    if spec.order_m == 2:
        if spec.bc is BoundaryKind.DIRICHLET:
            if spec.norm_choice is not NormChoice.SEMINORM_ONLY:
                raise ValueError("order-2 Dirichlet form shipped for the seminorm only")
            interior = slice(1, n - 1)
            return _clamped_biharmonic_1d(n - 2, h), m_diag, interior
        D2 = _free_second_difference(n, h)
        A = h * (D2.T @ D2) + scipy.sparse.diags(m_diag)
        return A.tocsr(), m_diag, slice(None)
    raise ValueError("1D solves support order_m in {1, 2}")


# -- 2D discrete forms (tensor products of the 1D pieces) ----------------------

def _forms_rectangle_neumann(domain: Domain):
    nx, ny = domain.shape
    hx, hy = domain.spacing
    mx, my = _mass_diag_1d(nx, hx), _mass_diag_1d(ny, hy)
    kx, ky = _stiffness_1d(nx, hx), _stiffness_1d(ny, hy)
    Mx, My = scipy.sparse.diags(mx), scipy.sparse.diags(my)
    A = scipy.sparse.kron(kx, My) + scipy.sparse.kron(Mx, ky) \
        + scipy.sparse.kron(Mx, My)
    m_diag = np.kron(mx, my)
    return A.tocsr(), m_diag, slice(None)


def _forms_rectangle_dirichlet(domain: Domain):
    nx, ny = domain.shape
    hx, hy = domain.spacing
    mx_int, my_int = np.full(nx - 2, hx), np.full(ny - 2, hy)
    kx = _stiffness_1d(nx, hx)[1:nx - 1, 1:nx - 1]
    ky = _stiffness_1d(ny, hy)[1:ny - 1, 1:ny - 1]
    A = scipy.sparse.kron(kx, scipy.sparse.diags(my_int)) \
        + scipy.sparse.kron(scipy.sparse.diags(mx_int), ky)
    m_diag = np.kron(_mass_diag_1d(nx, hx), _mass_diag_1d(ny, hy))
    mask = np.zeros((nx, ny), dtype=bool)
    mask[1:nx - 1, 1:ny - 1] = True
    return A.tocsr(), m_diag, mask.ravel()


def _solve_banded_spd(A: scipy.sparse.spmatrix, b: np.ndarray) -> np.ndarray:
    dia = A.todia()
    bands = int(max(dia.offsets.max(), 1))
    n = A.shape[0]
    ab = np.zeros((bands + 1, n))
    for off, data in zip(dia.offsets, dia.data):
        if off >= 0:
            ab[bands - off, :] = data
    if np.iscomplexobj(b):
        return (scipy.linalg.solveh_banded(ab, b.real, lower=False)
                + 1j * scipy.linalg.solveh_banded(ab, b.imag, lower=False))
    return scipy.linalg.solveh_banded(ab, b, lower=False)


def _second_difference_eigs(n: int, h: float, k: np.ndarray) -> np.ndarray:
    # eigenvalues of the n-node second difference; DCT-I modes k = 0..n-1
    # (reflecting ends), DST-I modes k = 1..n-2 (zero ends)
    return (2.0 - 2.0 * np.cos(np.pi * k / (n - 1))) / h**2


def _solve_rectangle(u: GridFn, spec: BvpSpec) -> np.ndarray:
    """Exact solve of ``A z = M u`` on the rectangle, as nodal values.

    ``M^{-1} A`` is ``I + L_x + L_y`` (Neumann) or ``L_x + L_y`` on the
    interior (Dirichlet), with ``L`` the per-axis second difference.
    """
    import scipy.fft  # deferred: the tomography path never needs it
    (nx, ny), (hx, hy) = spec.domain.shape, spec.domain.spacing
    # at least double precision, as the 1D path's mass product gives
    vals = np.asarray(u.values, np.result_type(u.values, np.float64)).reshape(nx, ny)
    if spec.bc is BoundaryKind.NEUMANN_LIKE:
        lam = (1.0 + _second_difference_eigs(nx, hx, np.arange(nx))[:, None]
               + _second_difference_eigs(ny, hy, np.arange(ny))[None, :])
        return scipy.fft.idctn(scipy.fft.dctn(vals, type=1) / lam, type=1)
    z = np.zeros_like(vals)
    if nx > 2 and ny > 2:
        lam = (_second_difference_eigs(nx, hx, np.arange(1, nx - 1))[:, None]
               + _second_difference_eigs(ny, hy, np.arange(1, ny - 1))[None, :])
        z[1:-1, 1:-1] = scipy.fft.idstn(
            scipy.fft.dstn(vals[1:-1, 1:-1], type=1) / lam, type=1)
    return z


def _forms_for_spec(spec: BvpSpec):
    dom = spec.domain
    if dom.kind is DomainKind.INTERVAL:
        return _forms_interval(spec)
    if dom.kind is DomainKind.RECTANGLE:
        if spec.order_m != 1:
            raise ValueError("rectangle solves support order 1")
        if spec.bc is BoundaryKind.NEUMANN_LIKE:
            return _forms_rectangle_neumann(dom)
        return _forms_rectangle_dirichlet(dom)
    raise ValueError("solver supports interval and rectangle domains")


def _run_solve(u: GridFn, spec: BvpSpec) -> GridFn:
    if spec.domain.kind is DomainKind.RECTANGLE:
        return GridFn(spec.domain, _solve_rectangle(u, spec))
    A, m_diag, active = _forms_for_spec(spec)
    rhs = (m_diag * u.values)[active]
    z_act = _solve_banded_spd(A, rhs)
    z_full = np.zeros(u.values.size, dtype=z_act.dtype)
    z_full[active] = z_act
    return GridFn(spec.domain, z_full)


def solve_neumann_helmholtz(u: GridFn, domain: Optional[Domain] = None) -> GridFn:
    """Unique solution of -Laplace(z) + z = u with a reflecting boundary.

    Realizes order-1 smoothing for the norm combining function values and
    first derivatives; second-order accurate.
    """
    dom = domain if domain is not None else u.domain
    spec = BvpSpec(1, BoundaryKind.NEUMANN_LIKE, dom)
    return _run_solve(u, spec)


def solve_1d_order2m(u: GridFn, m: int, bc_variant: BcVariant) -> GridFn:
    """1D solve of D^{2m} z (+ z) = u with natural or Dirichlet conditions.

    The natural variant keeps the +z term (value-plus-top-derivative inner
    product); the Dirichlet variant drops it (seminorm inner product) and
    imposes D^j z = 0, j < m, at both ends.  m in {1, 2}.
    """
    if u.domain.kind is not DomainKind.INTERVAL:
        raise ValueError("solve_1d_order2m runs on interval domains")
    if m not in (1, 2):
        raise ValueError("orders m in {1, 2} supported")
    if bc_variant is BcVariant.NATURAL_DJ:
        spec = BvpSpec(m, BoundaryKind.NEUMANN_LIKE, u.domain,
                       NormChoice.SIMPLE_PLUS_L2)
    else:
        spec = BvpSpec(m, BoundaryKind.DIRICHLET, u.domain,
                       NormChoice.SEMINORM_ONLY)
    return _run_solve(u, spec)


def solve_dirichlet_poisson_2d(u: GridFn) -> GridFn:
    """-Laplace(z) = u with z = 0 on the rectangle boundary (seminorm case)."""
    if u.domain.kind is not DomainKind.RECTANGLE:
        raise ValueError("solve_dirichlet_poisson_2d runs on rectangle domains")
    spec = BvpSpec(1, BoundaryKind.DIRICHLET, u.domain, NormChoice.SEMINORM_ONLY)
    return _run_solve(u, spec)


def solve_torus_helmholtz(u: GridFn, m: int = 1) -> GridFn:
    """Periodic FD solve of (I - Laplace_h)^m z = u on the 1D unit torus."""
    dom = u.domain
    if dom.kind is not DomainKind.TORUS or dom.ndim != 1:
        raise ValueError("torus solve implemented for the 1D unit torus")
    n = dom.shape[0]
    h = dom.spacing[0]
    main = np.full(n, 1.0 + 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    A = scipy.sparse.diags([off, main, off], [-1, 0, 1]).tolil()
    A[0, n - 1] = -1.0 / h**2
    A[n - 1, 0] = -1.0 / h**2
    lu = scipy.sparse.linalg.splu(A.tocsc())

    def solve_once(b):
        if np.iscomplexobj(b):
            return lu.solve(b.real) + 1j * lu.solve(b.imag)
        return lu.solve(b)

    z = u.values
    for _ in range(m):
        z = solve_once(z)
    return GridFn(dom, z)


def variational_gap(z: GridFn, u: GridFn, spec: BvpSpec) -> float:
    """Residual of the variational identity over the nodal test basis.

    Returns max_i |a(z, e_i) - <u, e_i>_L2| / ||e_i||_a; solver outputs stay
    below 1e-9.
    """
    if z.domain != u.domain or z.domain != spec.domain:
        raise ValueError("domain mismatch")
    A, m_diag, active = _forms_for_spec(spec)
    r = A @ z.values[active] - (m_diag * u.values)[active]
    scale = np.sqrt(A.diagonal())
    return float(np.max(np.abs(r) / scale)) if r.size else 0.0


# -- matching discrete inner products ------------------------------------------

@lru_cache(maxsize=16)
def _mass_weights(domain: Domain) -> np.ndarray:
    if domain.kind is DomainKind.INTERVAL:
        return _mass_diag_1d(domain.shape[0], domain.spacing[0])
    if domain.kind is DomainKind.RECTANGLE:
        return np.kron(_mass_diag_1d(domain.shape[0], domain.spacing[0]),
                       _mass_diag_1d(domain.shape[1], domain.spacing[1]))
    raise ValueError("trapezoid mass supports interval and rectangle domains")


@lru_cache(maxsize=16)
def _h1_form(domain: Domain) -> scipy.sparse.csr_matrix:
    if domain.kind is DomainKind.INTERVAL:
        A, _, _ = _forms_interval(BvpSpec(1, BoundaryKind.NEUMANN_LIKE, domain))
        return A
    if domain.kind is DomainKind.RECTANGLE:
        A, _, _ = _forms_rectangle_neumann(domain)
        return A
    raise ValueError("discrete H^1 form supports interval and rectangle domains")


def mass_inner(u: GridFn, v: GridFn) -> complex:
    """Trapezoid-weighted discrete L2 inner product on interval/rectangle grids."""
    if u.domain != v.domain:
        raise ValueError("domain mismatch")
    return complex(np.sum(_mass_weights(u.domain) * u.values * np.conj(v.values)))


def h1_inner(u: GridFn, v: GridFn) -> complex:
    """Discrete H^1 inner product (mass + difference-quotient stiffness)."""
    if u.domain != v.domain:
        raise ValueError("domain mismatch")
    return complex(np.sum((_h1_form(u.domain) @ u.values) * np.conj(v.values)))
