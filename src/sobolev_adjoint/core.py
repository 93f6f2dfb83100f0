"""Grids, sampled functions, L2 inner product, FFT and the linear-operator abstraction.

Conventions used throughout the package:

* Torus domains are unit tori, one point row per dimension, spacing
  ``h = 1/points``; interval/rectangle grids include both endpoints,
  spacing ``length/(points-1)``; cell boxes (such as the tomography data
  grid of offsets by angles, or the pixel box around a disk) sample the
  midpoints of equal cells, spacing ``length/points``.
* Spectral coefficients are plain complex128 arrays shaped like the grid,
  in FFT order, scaled so that the entry at frequency ``k`` approximates the
  inner product of the function with ``exp(2*pi*i*k*x)`` (DFT sum times
  ``h**N``).  The Nyquist mode is labelled ``+points/2``.
* All quadrature is the rectangle rule at grid resolution with weight
  ``h**N`` per node (the cell area on cell grids).
* An inner product is a plain function ``(u, v) -> complex``, conjugate-linear
  in ``v``.  :func:`inner` is the L2 one; the Sobolev ones live with their
  backends (e.g. ``multiplier.sobolev_inner``).
* A Gram function ``(domain, a, b) -> G`` is the same product on stacks of
  samples, one function per row: ``G[k, j] = <b_j, a_k>``.  Each one sits
  beside its inner product (:func:`gram` beside :func:`inner`,
  ``multiplier.sobolev_gram`` beside ``sobolev_inner``) and is one matrix
  product, so it calls BLAS; the scalar products stay off BLAS.
* Every count, size and order the package takes is checked here:
  ``_require_counts`` wants an integer, not a bool, at or above its least
  value; ``_require_positive_finite`` and ``_require_nonnegative_finite``
  reject NaN and inf.  Each message names the argument and its value.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DomainKind",
    "Domain",
    "GridFn",
    "LinOp",
    "fft_forward",
    "fft_inverse",
    "inner",
    "gram",
    "l2_norm",
    "quad_weight",
    "check_adjoint",
]


class DomainKind(enum.Enum):
    TORUS = "torus"
    INTERVAL = "interval"
    RECTANGLE = "rectangle"
    REAL_LINE = "real_line"
    CELLS = "cells"


@dataclass(frozen=True)
class Domain:
    """Uniform grid: torus, interval, rectangle, truncated line or cell box."""

    kind: DomainKind
    shape: tuple[int, ...]
    lengths: tuple[float, ...]
    origin: tuple[float, ...]

    @staticmethod
    def torus(n_dims: int, points_per_dim: int) -> "Domain":
        _require_counts(1, n_dims=n_dims)
        _require_counts(2, points_per_dim=points_per_dim)
        return Domain(DomainKind.TORUS, (points_per_dim,) * n_dims,
                      (1.0,) * n_dims, (0.0,) * n_dims)

    @staticmethod
    def interval(a: float, b: float, points: int) -> "Domain":
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval endpoints a={a}, b={b} must be finite")
        if not b > a:
            raise ValueError("interval requires b > a")
        _require_counts(2, points=points)
        return Domain(DomainKind.INTERVAL, (points,), (b - a,), (a,))

    @staticmethod
    def rectangle(a: float, b: float, nx: int, ny: int) -> "Domain":
        _require_positive_finite(a=a, b=b)
        _require_counts(2, nx=nx, ny=ny)
        return Domain(DomainKind.RECTANGLE, (nx, ny), (a, b), (0.0, 0.0))

    @staticmethod
    def real_line(half_width: float, points: int) -> "Domain":
        _require_positive_finite(half_width=half_width)
        _require_counts(2, points=points)
        return Domain(DomainKind.REAL_LINE, (points,), (2.0 * half_width,),
                      (-half_width,))

    @staticmethod
    def cells(lengths: tuple[float, ...], shape: tuple[int, ...],
              origin: tuple[float, ...]) -> "Domain":
        """Box of equal cells from ``origin``, sampled at the cell midpoints."""
        if not len(lengths) == len(shape) == len(origin):
            raise ValueError("cells needs one length, count and origin per dim")
        _require_positive_finite(**{f"lengths[{i}]": x for i, x in enumerate(lengths)})
        _require_counts(1, **{f"shape[{i}]": n for i, n in enumerate(shape)})
        if not all(map(math.isfinite, origin)):
            raise ValueError(f"origin={tuple(origin)} must be finite")
        return Domain(DomainKind.CELLS, tuple(shape), tuple(lengths),
                      tuple(origin))

    # -- derived geometry -------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def periodic(self) -> bool:
        return self.kind in (DomainKind.TORUS, DomainKind.REAL_LINE)

    @property
    def spacing(self) -> tuple[float, ...]:
        if self.periodic or self.kind is DomainKind.CELLS:
            return tuple(length / n for length, n in zip(self.lengths, self.shape))
        return tuple(length / (n - 1) for length, n in zip(self.lengths, self.shape))

    def axes(self) -> list[np.ndarray]:
        """Node coordinates per dimension (cell midpoints on cell grids)."""
        out = []
        for o, h, n in zip(self.origin, self.spacing, self.shape):
            if self.kind is DomainKind.CELLS:
                out.append(o + h * (np.arange(n) + 0.5))
            else:
                out.append(o + h * np.arange(n))
        return out

    @property
    def grid_size(self) -> int:
        return math.prod(self.shape)


def _require_positive_finite(**sizes: float) -> None:
    for name, size in sizes.items():
        if not 0.0 < size < math.inf:
            raise ValueError(f"{name}={size} must be positive and finite")


def _require_nonnegative_finite(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name}={value} must be finite and >= 0")


def _require_counts(least: int, **counts: int) -> None:
    # Odd counts are admitted for pixel geometries with a central pixel
    # (e.g. 201x201 tomography grids); numpy's mixed-radix FFT handles them
    # and the Nyquist-mode convention only arises for even counts.
    for name, n in counts.items():
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < least:
            raise ValueError(f"{name}={n} must be an integer >= {least}")


@dataclass(frozen=True)
class GridFn:
    """Sampled function on a :class:`Domain`; values flat in row-major order.

    Entries must be finite.
    """

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "fc":
            vals = vals.astype(np.float64)
        vals = vals.ravel()
        if vals.size != self.domain.grid_size:
            raise ValueError(
                f"expected {self.domain.grid_size} samples, got {vals.size}")
        if not np.isfinite(vals).all():
            raise ValueError("GridFn values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def is_real(self) -> bool:
        return self.values.dtype.kind == "f"

    def with_values(self, values: np.ndarray) -> "GridFn":
        return GridFn(self.domain, values)

    def to_array(self) -> np.ndarray:
        """Values shaped like the grid."""
        return self.values.reshape(self.domain.shape)

    @staticmethod
    def from_array(domain: Domain, arr: np.ndarray) -> "GridFn":
        arr = np.asarray(arr)
        if arr.shape != domain.shape:
            raise ValueError(f"array shape {arr.shape} != grid shape {domain.shape}")
        return GridFn(domain, arr.ravel())

    def __add__(self, other: "GridFn") -> "GridFn":
        _same_domain(self, other)
        return GridFn(self.domain, self.values + other.values)

    def __sub__(self, other: "GridFn") -> "GridFn":
        _same_domain(self, other)
        return GridFn(self.domain, self.values - other.values)

    def __mul__(self, scalar) -> "GridFn":
        return GridFn(self.domain, self.values * scalar)

    __rmul__ = __mul__


def _same_domain(u, v) -> None:
    if u.domain != v.domain:
        raise ValueError("domain mismatch")


def frequency_axes(domain: Domain) -> list[np.ndarray]:
    """Physical frequency labels per dimension, Nyquist assigned to +points/2.

    Integers on the unit torus; k/(2W) on a truncated line of half-width W.
    """
    if not domain.periodic:
        raise ValueError("frequencies defined for torus/real-line domains only")
    axes = []
    for n, length in zip(domain.shape, domain.lengths):
        k = np.fft.fftfreq(n, 1.0 / n)
        if n % 2 == 0:
            k[n // 2] = n // 2
        axes.append(k / length)
    return axes


def frequency_sq(domain: Domain) -> np.ndarray:
    """|xi|^2 on the FFT grid."""
    axes = frequency_axes(domain)
    grids = np.meshgrid(*axes, indexing="ij")
    return sum(g**2 for g in grids)


def quad_weight(domain: Domain) -> float:
    """Rectangle-rule quadrature weight per node (h^N; the cell area on cell grids)."""
    return float(math.prod(domain.spacing))


def _line_phase(domain: Domain) -> np.ndarray:
    # exp(-2*pi*i*xi_k*origin) for the truncated line: (-1)^k per label.
    k = np.rint(frequency_axes(domain)[0] * domain.lengths[0]).astype(int)
    return np.where(k % 2 == 0, 1.0, -1.0)


def fft_forward(u: GridFn) -> np.ndarray:
    """DFT scaled so that the coefficient at k approximates <u, e_k>."""
    dom = u.domain
    if not dom.periodic:
        raise ValueError("fft_forward requires a torus or real-line domain")
    c = np.fft.fftn(u.values.reshape(dom.shape)) * quad_weight(dom)
    if dom.kind is DomainKind.REAL_LINE:
        c = c * _line_phase(dom)
    return c.astype(np.complex128, copy=False)  # fftn keeps float32 input single


def fft_inverse(domain: Domain, coeffs: np.ndarray) -> GridFn:
    """Exact inverse of :func:`fft_forward` on ``domain``."""
    if not domain.periodic:
        raise ValueError("fft_inverse requires a torus or real-line domain")
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape != domain.shape:
        raise ValueError(f"coefficient shape {c.shape} != grid {domain.shape}")
    if domain.kind is DomainKind.REAL_LINE:
        c = c * _line_phase(domain)
    return GridFn(domain, np.fft.ifftn(c / quad_weight(domain)).ravel())


def inner(u: GridFn, v: GridFn) -> complex:
    """L2 inner product <u, v> (conjugation on the second argument), its
    products summed pairwise in double precision.

    Not ``np.vdot``: that calls BLAS, with the same thread spin as in
    :func:`l2_norm`.
    """
    _same_domain(u, v)
    a, b = u.values, v.values
    prod = np.conjugate(b, dtype=np.result_type(a, b, np.float64))
    np.multiply(a, prod, out=prod)  # one temporary: two cost 4x at 54k entries
    return quad_weight(u.domain) * complex(np.add.reduce(prod))


def gram(domain: Domain, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix of :func:`inner`, ``G[k, j] = <b_j, a_k>``, on stacks of rows."""
    return quad_weight(domain) * (np.conj(a) @ b.T)


def l2_norm(u: GridFn) -> float:
    """L2 norm of a GridFn, its squares summed pairwise in double precision.

    Not ``np.linalg.norm``: that calls BLAS ``dot``, whose threads keep
    spinning on the other cores after each call and slow down the threaded
    Radon products that follow.
    """
    v = u.values
    if v.dtype.kind == "c":
        v = v.view(v.real.dtype)  # real and imaginary parts, interleaved
    sq = np.add.reduce(np.square(v, dtype=np.float64))
    return float(np.sqrt(quad_weight(u.domain)) * np.sqrt(sq))


@dataclass(frozen=True)
class LinOp:
    """Forward/adjoint pair between grid functions on two domains, with the
    inner products declared on both sides."""

    apply: Callable[[GridFn], GridFn]
    apply_adjoint: Callable[[GridFn], GridFn]
    domain_inner: Callable[[GridFn, GridFn], complex]
    codomain_inner: Callable[[GridFn, GridFn], complex]
    domain: Domain
    codomain: Domain


def _random_on(domain: Domain, rng: np.random.Generator) -> GridFn:
    n = domain.grid_size
    return GridFn(domain, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def check_adjoint(op: LinOp, trials: int = 20, seed: int = 0) -> float:
    """Max relative defect of <u, A v> = <A* u, v> over random trial pairs."""
    _require_counts(1, trials=trials)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = _random_on(op.domain, rng)
        u = _random_on(op.codomain, rng)
        lhs = op.codomain_inner(u, op.apply(v))
        rhs = op.domain_inner(op.apply_adjoint(u), v)
        nu = np.sqrt(abs(op.codomain_inner(u, u)))
        nv = np.sqrt(abs(op.domain_inner(v, v)))
        worst = max(worst, abs(lhs - rhs) / (nu * nv))
    return worst


def identity_linop(domain: Domain) -> LinOp:
    return LinOp(apply=lambda u: u, apply_adjoint=lambda u: u,
                 domain_inner=inner, codomain_inner=inner,
                 domain=domain, codomain=domain)
