"""Smoothing as a boundary-value-problem solve.

The discrete problems are assembled so that the variational identity holds
exactly at the matrix level: with trapezoid mass ``M`` and difference-quotient
stiffness forms, the solve ``A z = M u`` makes

    <z, v>_discrete-Sobolev  ==  <u, v>_discrete-L2

hold for every nodal test vector ``v`` up to solver residual, which is the
discrete counterpart of the defining adjoint identity.  The boundary
condition picks the inner product:

* natural (Neumann-like) conditions pair with the full norm, so the equation
  keeps the ``+z`` term: order 1 is ``-Laplace(z) + z = u``, ``dz/dn = 0``;
* Dirichlet conditions pair with the seminorm and drop it: order 1 is
  ``-Laplace(z) = u``, ``z = 0`` on the boundary.

Order 1 runs on intervals and rectangles, order 2 (``D^4 z (+ z) = u``) on
intervals; the order-m 1D periodic (torus) Helmholtz power serves cross-checks
against the Fourier-multiplier route.

Second-order finite differences throughout.  The trapezoid-lumped mass turns
``M^{-1} A`` of order 1 into a sum of per-axis second differences, which the
DCT-I (reflecting boundary) and the DST-I (zero boundary) diagonalize, so the
order-1 solves are exact fast-Poisson solves (Buzbee, Golub & Nielson 1970).
Both transforms are real FFTs from ``numpy.fft``, taken along each axis of
the even extension of the samples (length 2(n - 1) for n nodes) or of the
odd extension of the interior samples (length 2(n + 1) for n interior
nodes); see ``_trig1``.  Order 2 goes through banded Cholesky.  The torus
solve and its inner product are ``multiplier.fourier_multiply`` and
``multiplier.weighted_inner`` with the symbol of ``I - Laplace_h`` to the
powers -m and m.

Each form is stored per axis as bands, the layout the order-2 solves hand to
``scipy.linalg.solveh_banded``; ``variational_gap`` and the H^1 products apply
them axis by axis, apart from the transforms of the order-1 solves they check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .core import Domain, DomainKind, GridFn, LinOp, _require_counts, _same_domain, inner
from .multiplier import fourier_multiply, weighted_inner

__all__ = [
    "BoundaryKind",
    "BvpSpec",
    "solve_neumann_helmholtz",
    "solve_1d_order2m",
    "solve_dirichlet_poisson_2d",
    "solve_torus_helmholtz",
    "variational_gap",
    "mass_inner",
    "mass_gram",
    "h1_inner",
    "h1_gram",
    "adjoint_linop",
]


class BoundaryKind(enum.Enum):
    NEUMANN_LIKE = "neumann_like"
    DIRICHLET = "dirichlet"


_MAX_ORDER = {DomainKind.INTERVAL: 2, DomainKind.RECTANGLE: 1}


@dataclass(frozen=True)
class BvpSpec:
    """Order, boundary condition and grid; Dirichlet means the seminorm."""

    order_m: int
    bc: BoundaryKind
    domain: Domain

    def __post_init__(self):
        max_order = _MAX_ORDER.get(self.domain.kind)
        if max_order is None:
            raise ValueError("BVP solves support interval and rectangle domains")
        _require_counts(1, order_m=self.order_m)
        if self.order_m > max_order:
            raise ValueError(f"{self.domain.kind.value} solves support "
                             f"order_m from 1 to {max_order}")
        n = self.domain.shape[0]
        if self.order_m == 2 and self.bc is BoundaryKind.DIRICHLET and n < 4:
            raise ValueError(f"order-2 Dirichlet solves need at least 4 grid "
                             f"points to clamp both ends, got {n}")


# -- discrete forms -------------------------------------------------------------

def _mass_diag_1d(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def _difference_gram(n: int, h: float, m: int) -> np.ndarray:
    """``h^(1-2m) D^T D`` for the m-th difference D on n nodes, as upper bands."""
    c = np.diff(np.eye(m + 1), m, axis=0)[0]  # the stencil, [-1, 1] or [1, -2, 1]
    bands = np.zeros((m + 1, n))
    for k in range(m + 1):  # each row of D adds c_j c_{j+k} to superdiagonal k
        for j in range(m + 1 - k):
            bands[m - k, j + k:j + k + n - m] += c[j] * c[j + k]
    return bands * h ** (1 - 2 * m)


@lru_cache(maxsize=16)
def _forms_for_spec(spec: BvpSpec):
    """(terms, mass_diag, active) with ``A z[active] = (M u)[active]`` the problem.

    ``A`` sums the Kronecker products of each term's per-axis bands
    (``_apply_bands``): ``sum_d M_1 x ... x G_d x ... x M_N``, with ``G_d``
    the order-m difference Gram and ``M_d`` the trapezoid mass, plus ``M``
    for natural conditions, on the interior nodes for Dirichlet ones.  Cached
    per spec and read-only: every order-2 solve and form check shares one build.
    """
    dom, neumann = spec.domain, spec.bc is BoundaryKind.NEUMANN_LIKE
    grams, masses = [], []
    for n, h in zip(dom.shape, dom.spacing):
        g, w = _difference_gram(n, h, spec.order_m), _mass_diag_1d(n, h)[None]
        if not neumann:
            g, w = g[:, 1:-1].copy(), w[:, 1:-1]
            if spec.order_m == 2:
                # clamped ends: the boundary node's second difference 2 z_1 / h^2
                # (its ghost node mirrored) squared, at the end weight h / 2
                g[-1, [0, -1]] += 2.0 / h**3
        g.flags.writeable = w.flags.writeable = False
        grams.append(g)
        masses.append(w)
    terms = tuple(tuple(masses[:d] + [g] + masses[d + 1:]) for d, g in enumerate(grams))
    if neumann:  # the value term of the full norm
        return terms + (tuple(masses),), _mass_weights(dom), slice(None)
    interior = np.pad(np.ones([n - 2 for n in dom.shape], bool), 1).ravel()
    interior.flags.writeable = False
    return terms, _mass_weights(dom), interior


def _apply_bands(x: np.ndarray, axis: int, bands: np.ndarray) -> np.ndarray:
    """``B x`` along ``axis`` for the symmetric B stored as upper bands:
    ``bands[-1]`` is the diagonal and ``bands[-1 - k, k:]`` the k-th
    superdiagonal, the layout ``scipy.linalg.solveh_banded`` reads."""
    x = np.moveaxis(x, axis, -1)
    y = bands[-1] * x
    for k in range(1, len(bands)):
        y[..., :-k] += bands[-1 - k, k:] * x[..., k:]
        y[..., k:] += bands[-1 - k, k:] * x[..., :-k]
    return np.moveaxis(y, -1, axis)


def _apply_form(terms, x: np.ndarray) -> np.ndarray:
    """``A x`` for a stack of rows ``x`` on the active nodes (``_forms_for_spec``):
    each term applies its factors one axis at a time."""
    rows = x.shape
    x = x.reshape(rows[:-1] + tuple(bands.shape[1] for bands in terms[0]))
    y = sum(reduce(lambda t, f: _apply_bands(t, *f), enumerate(term, -len(term)), x)
            for term in terms)
    return y.reshape(rows)


def _form_diagonal(terms) -> np.ndarray:
    """``diag(A)``: the sum over terms of the Kronecker products of the main bands."""
    return sum(reduce(np.kron, [bands[-1] for bands in term]) for term in terms)


def _solve_banded_spd(bands: np.ndarray, b: np.ndarray) -> np.ndarray:
    import scipy.linalg  # deferred: only the order-2 solves need it
    if np.iscomplexobj(b):
        return _solve_banded_spd(bands, b.real) + 1j * _solve_banded_spd(bands, b.imag)
    return scipy.linalg.solveh_banded(bands, b, lower=False)


def _second_difference_eigs(n: int, h: float, k: np.ndarray) -> np.ndarray:
    # eigenvalues of the n-node second difference; DCT-I modes k = 0..n-1
    # (reflecting ends), DST-I modes k = 1..n-2 (zero ends)
    return (2.0 - 2.0 * np.cos(np.pi * k / (n - 1))) / h**2


def _trig1(x: np.ndarray, odd: bool, inverse: bool = False) -> np.ndarray:
    """The type-1 DCT of ``x`` along every axis, or the DST with ``odd``:
    scipy's ``dctn``/``dstn`` with ``type=1``, or with ``inverse`` their
    inverses, in at least double precision.

    Along an axis of n samples the DCT-I is the real FFT of the even
    extension x_0 .. x_{n-1}, x_{n-2} .. x_1 (length 2(n - 1)), read at
    modes 0 .. n-1, and the DST-I is minus the imaginary part of the real
    FFT of the odd extension 0, x_0 .. x_{n-1}, 0, -x_{n-1} .. -x_0 (length
    2(n + 1)), read at modes 1 .. n.  Each is its own inverse up to the
    extension length, which ``norm="forward"`` divides by.
    """
    x = np.asarray(x, np.result_type(x, np.float64))
    if np.iscomplexobj(x):
        return _trig1(x.real, odd, inverse) + 1j * _trig1(x.imag, odd, inverse)
    norm = "forward" if inverse else "backward"
    for axis in range(x.ndim):
        v = np.moveaxis(x, axis, -1)
        n = v.shape[-1]
        if odd:
            zero = np.zeros_like(v[..., :1])
            ext = np.concatenate([zero, v, zero, -v[..., ::-1]], axis=-1)
            y = -np.fft.rfft(ext, norm=norm).imag[..., 1:n + 1]
        else:
            ext = np.concatenate([v, v[..., -2:0:-1]], axis=-1)
            y = np.fft.rfft(ext, norm=norm).real
        x = np.moveaxis(y, -1, axis)
    return x


def _solve_order1(u: GridFn, spec: BvpSpec) -> np.ndarray:
    """Exact order-1 solve of ``A z = M u``, as nodal values.

    ``M^{-1} A`` is ``I + sum_d L_d`` (Neumann) or ``sum_d L_d`` on the
    interior (Dirichlet), with ``L_d`` the second difference along axis d.
    The DCT-I of all nodes (reflecting ends) or the DST-I of the interior
    ones (zero ends) diagonalizes every ``L_d`` at once, so z is the
    transform of u divided by the eigenvalue sums and transformed back
    (``_trig1``: real FFTs of the even or odd extension along each axis).
    """
    dom, neumann = spec.domain, spec.bc is BoundaryKind.NEUMANN_LIKE
    part = (slice(None) if neumann else slice(1, -1),) * dom.ndim
    lam = 1.0 if neumann else 0.0
    for d, (n, h) in enumerate(zip(dom.shape, dom.spacing)):
        k = np.arange(n) if neumann else np.arange(1, n - 1)
        axis_shape = [1] * dom.ndim
        axis_shape[d] = k.size
        lam = lam + _second_difference_eigs(n, h, k).reshape(axis_shape)
    # at least double precision, as the order-2 path's mass product gives
    z = np.zeros(dom.shape, np.result_type(u.values, np.float64))
    vals = u.values.reshape(dom.shape)[part]
    if vals.size:
        z[part] = _trig1(_trig1(vals, not neumann) / lam, not neumann, inverse=True)
    return z


def _run_solve(u: GridFn, spec: BvpSpec) -> GridFn:
    if spec.order_m == 1:
        return GridFn(spec.domain, _solve_order1(u, spec))
    terms, m_diag, active = _forms_for_spec(spec)
    bands = np.zeros_like(terms[0][0])
    for (b,) in terms:  # the 1D form is the sum of its terms' bands
        bands[-len(b):] += b
    z = np.zeros(u.values.size, dtype=np.result_type(u.values, np.float64))
    z[active] = _solve_banded_spd(bands, (m_diag * u.values)[active])
    return GridFn(spec.domain, z)


def solve_neumann_helmholtz(u: GridFn) -> GridFn:
    """Unique solution of -Laplace(z) + z = u with a reflecting boundary.

    Realizes order-1 smoothing for the norm combining function values and
    first derivatives; second-order accurate.
    """
    return _run_solve(u, BvpSpec(1, BoundaryKind.NEUMANN_LIKE, u.domain))


def solve_1d_order2m(u: GridFn, m: int, bc: BoundaryKind) -> GridFn:
    """1D solve of D^{2m} z (+ z) = u with natural or Dirichlet conditions.

    Natural conditions keep the +z term (value-plus-top-derivative inner
    product); Dirichlet conditions drop it (seminorm inner product) and
    impose D^j z = 0, j < m, at both ends.  m in {1, 2}.
    """
    if u.domain.kind is not DomainKind.INTERVAL:
        raise ValueError("solve_1d_order2m runs on interval domains")
    return _run_solve(u, BvpSpec(m, bc, u.domain))


def solve_dirichlet_poisson_2d(u: GridFn) -> GridFn:
    """-Laplace(z) = u with z = 0 on the rectangle boundary (seminorm case)."""
    if u.domain.kind is not DomainKind.RECTANGLE:
        raise ValueError("solve_dirichlet_poisson_2d runs on rectangle domains")
    return _run_solve(u, BvpSpec(1, BoundaryKind.DIRICHLET, u.domain))


def _torus_symbol(dom: Domain) -> np.ndarray:
    """DFT symbol of I - Laplace_h on the 1D unit torus."""
    if dom.kind is not DomainKind.TORUS or dom.ndim != 1:
        raise ValueError("torus solve implemented for the 1D unit torus")
    n = dom.shape[0]
    h = dom.spacing[0]
    return 1.0 + (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / h**2


def solve_torus_helmholtz(u: GridFn, m: int = 1) -> GridFn:
    """Periodic FD solve of (I - Laplace_h)^m z = u on the 1D unit torus, by DFT."""
    return fourier_multiply(u, _torus_symbol(u.domain) ** -m)


def variational_gap(z: GridFn, u: GridFn, spec: BvpSpec) -> float:
    """Residual of the variational identity over the nodal test basis.

    Returns max_i |a(z, e_i) - <u, e_i>_L2| / ||e_i||_a; solver outputs stay
    below 1e-9.
    """
    _same_domain(z, u)
    _same_domain(z, spec)
    terms, m_diag, active = _forms_for_spec(spec)
    r = _apply_form(terms, z.values[active]) - (m_diag * u.values)[active]
    scale = np.sqrt(_form_diagonal(terms))
    return float(np.max(np.abs(r) / scale)) if r.size else 0.0


# -- matching discrete inner products ------------------------------------------

@lru_cache(maxsize=16)
def _mass_weights(domain: Domain) -> np.ndarray:
    if domain.kind not in _MAX_ORDER:
        raise ValueError("trapezoid mass supports interval and rectangle domains")
    w = reduce(np.kron, map(_mass_diag_1d, domain.shape, domain.spacing))
    w.flags.writeable = False  # shared by every caller through the cache
    return w


def mass_inner(u: GridFn, v: GridFn) -> complex:
    """Trapezoid-weighted discrete L2 inner product on interval/rectangle grids."""
    _same_domain(u, v)
    return complex(np.sum(_mass_weights(u.domain) * u.values * np.conj(v.values)))


def mass_gram(domain: Domain, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix of :func:`mass_inner`, ``G[k, j] = <b_j, a_k>``, on stacks of rows."""
    return np.conj(a) @ (b * _mass_weights(domain)).T


def h1_inner(u: GridFn, v: GridFn) -> complex:
    """Discrete H^1 inner product (mass + difference-quotient stiffness)."""
    _same_domain(u, v)
    terms = _forms_for_spec(BvpSpec(1, BoundaryKind.NEUMANN_LIKE, u.domain))[0]
    return complex(np.sum(_apply_form(terms, u.values) * np.conj(v.values)))


def h1_gram(domain: Domain, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix of :func:`h1_inner`, ``G[k, j] = <b_j, a_k>``, on stacks of rows."""
    terms = _forms_for_spec(BvpSpec(1, BoundaryKind.NEUMANN_LIKE, domain))[0]
    return np.conj(a) @ _apply_form(terms, b).T


def adjoint_linop(domain: Domain, order_m: int) -> LinOp:
    """E^*: the 1D torus solve, or the order-1 Neumann solve elsewhere."""
    if domain.kind is DomainKind.TORUS:
        _require_counts(0, order_m=order_m)
        weight = _torus_symbol(domain) ** order_m
        return LinOp(lambda u: solve_torus_helmholtz(u, order_m), lambda u: u,
                     inner, lambda u, v: weighted_inner(u, v, weight), domain, domain)
    if order_m != 1 or domain.kind not in _MAX_ORDER:
        raise ValueError(f"BVP embeddings take order_m >= 0 on the 1D torus and "
                         f"order_m=1 on intervals and rectangles, got order_m="
                         f"{order_m} on the {domain.kind.value} domain")
    return LinOp(solve_neumann_helmholtz, lambda u: u, mass_inner, h1_inner,
                 domain, domain)
