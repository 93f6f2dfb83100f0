"""Discrete 2D Radon transform with a matched adjoint, plus phantoms and I/O.

The image is an N x N pixel grid covering [-1, 1]^2 (piecewise-constant
pixel basis); rays are parallel lines indexed by a signed offset (midpoint
samples over [-s_max, s_max]) and an angle (uniform in [0, pi)).  The
forward map sums exact pixel-ray intersection lengths into a sparse
matrix.  They are collected by a Siddon-style traversal that runs over all
offsets of one angle at once and computes the same exact intersections,
bit for bit, as tracing each ray on its own.  The adjoint is the exact
transpose of that matrix rescaled by the quadrature weights, so that the
discrete adjoint identity holds to rounding.

Per-angle mass consistency (sum of ray sums times the offset spacing equals
the pixel mass) is exact when the rays align with the pixel lattice
(axis-parallel angles, n_offsets an integer multiple of n_pixels); at
oblique angles it converges at O(offset spacing^2).

Images are carried as grid functions on the 2D unit torus so the spectral
smoothing backends apply directly; sinograms and images serialize as CSV
and 16-bit PGM (P2/P5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from .core import Domain, GridFn, InnerProductSpec, LinOp

__all__ = [
    "RadonGeometry",
    "Sinogram",
    "PhantomKind",
    "Phantom",
    "RadonOperator",
    "shepp_logan",
    "smooth_phantom",
    "write_pgm",
    "write_csv",
    "read_csv",
]


@dataclass(frozen=True)
class RadonGeometry:
    n_pixels: int
    n_offsets: int
    n_angles: int
    s_max: float = 1.0

    def __post_init__(self):
        if self.n_pixels < 2 or self.n_offsets < 1 or self.n_angles < 1:
            raise ValueError("invalid radon geometry")

    @staticmethod
    def full_scale() -> "RadonGeometry":
        """201x201 image, 300 parallel offsets, 180 uniformly spaced angles."""
        return RadonGeometry(201, 300, 180)

    @staticmethod
    def desk_scale() -> "RadonGeometry":
        """64x64 image, 100 offsets, 60 angles: the fast test configuration."""
        return RadonGeometry(64, 100, 60)

    @property
    def pixel_size(self) -> float:
        return 2.0 / self.n_pixels

    @property
    def offset_spacing(self) -> float:
        return 2.0 * self.s_max / self.n_offsets

    @property
    def angle_spacing(self) -> float:
        return np.pi / self.n_angles

    @property
    def offsets(self) -> np.ndarray:
        return -self.s_max + self.offset_spacing * (np.arange(self.n_offsets) + 0.5)

    @property
    def angles(self) -> np.ndarray:
        return self.angle_spacing * np.arange(self.n_angles)

    @property
    def image_domain(self) -> Domain:
        return Domain.torus(2, self.n_pixels)

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        c = -1.0 + self.pixel_size * (np.arange(self.n_pixels) + 0.5)
        return np.meshgrid(c, c, indexing="ij")


@dataclass(frozen=True)
class Sinogram:
    """Ray sums indexed by (offset, angle) with uniform bin quadrature."""

    geometry: RadonGeometry
    values: np.ndarray

    def __post_init__(self):
        g = self.geometry
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "fc":
            vals = vals.astype(np.float64)
        vals = vals.reshape(g.n_offsets, g.n_angles)
        if not np.all(np.isfinite(vals)):
            raise ValueError("sinogram values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def quad_weight(self) -> float:
        return self.geometry.offset_spacing * self.geometry.angle_spacing

    def with_values(self, values: np.ndarray) -> "Sinogram":
        return Sinogram(self.geometry, values)

    def inner(self, other: "Sinogram") -> complex:
        return self.quad_weight * complex(np.vdot(other.values, self.values))

    def norm(self) -> float:
        return float(np.sqrt(self.quad_weight) * np.linalg.norm(self.values))

    def __sub__(self, other: "Sinogram") -> "Sinogram":
        return Sinogram(self.geometry, self.values - other.values)

    def __add__(self, other: "Sinogram") -> "Sinogram":
        return Sinogram(self.geometry, self.values + other.values)


@lru_cache(maxsize=8)
def _system_matrix(geom: RadonGeometry) -> scipy.sparse.csr_matrix:
    """Exact pixel-ray intersection lengths, one vectorized pass per angle.

    For every ray of an angle at once: clip the line to the square, collect
    its crossings with the pixel edges strictly inside that window, sort
    them, and credit each segment to the pixel holding its midpoint.  Rows
    whose crossings fall short of the full width are padded with the exit
    parameter, so the padding only adds zero-length segments that the
    length cut drops.
    """
    n, n_angles = geom.n_pixels, geom.n_angles
    px = geom.pixel_size
    edges = -1.0 + px * np.arange(n + 1)
    offsets = geom.offsets
    idx = (np.int32 if max(geom.n_offsets * n_angles, n * n) <= np.iinfo(np.int32).max
           else np.int64)
    ray_ids = np.arange(geom.n_offsets, dtype=idx) * n_angles
    rows, cols, lens = [], [], []
    for j, phi in enumerate(geom.angles):
        perp = (-np.sin(phi), np.cos(phi))
        origin = (offsets * np.cos(phi), offsets * np.sin(phi))
        tmin = np.full(offsets.shape, -np.inf)
        tmax = np.full(offsets.shape, np.inf)
        hit = np.ones(offsets.shape, dtype=bool)
        crossing_axes = []
        for d, o in zip(perp, origin):
            if abs(d) < 1e-15:  # the rays run parallel to these edges
                hit &= np.abs(o) < 1.0
                continue
            ta, tb = (-1.0 - o) / d, (1.0 - o) / d
            tmin = np.maximum(tmin, np.minimum(ta, tb))
            tmax = np.minimum(tmax, np.maximum(ta, tb))
            crossing_axes.append((d, o))
        hit &= tmin < tmax
        lo, hi = tmin[hit, None], tmax[hit, None]
        t = [lo, hi]
        for d, o in crossing_axes:
            tcross = (edges - o[hit, None]) / d
            inside = (tcross > lo + 1e-13) & (tcross < hi - 1e-13)
            t.append(np.where(inside, tcross, hi))
        t = np.sort(np.concatenate(t, axis=1), axis=1)
        seg = t[:, 1:] - t[:, :-1]
        tmid = 0.5 * (t[:, :-1] + t[:, 1:])
        ix, iy = (np.clip(((o[hit, None] + tmid * d + 1.0) / px).astype(idx), 0, n - 1)
                  for d, o in zip(perp, origin))
        keep = seg > 1e-14
        rows.append(np.broadcast_to((ray_ids[hit] + j)[:, None], seg.shape)[keep])
        cols.append((ix * n + iy)[keep])
        lens.append(seg[keep])
    rows, cols, lens = map(np.concatenate, (rows, cols, lens))
    mat = scipy.sparse.coo_matrix((lens, (rows, cols)),
                                  shape=(geom.n_offsets * n_angles, n * n))
    return mat.tocsr()


class RadonOperator:
    """Forward projector and its matched (transpose) adjoint."""

    def __init__(self, geometry: RadonGeometry):
        self.geometry = geometry
        self.matrix = _system_matrix(geometry)
        h = geometry.image_domain.spacing[0]
        self._adjoint_scale = (geometry.offset_spacing * geometry.angle_spacing
                               / h**2)

    def forward(self, u: GridFn) -> Sinogram:
        if u.domain != self.geometry.image_domain:
            raise ValueError("image grid does not match the radon geometry")
        return Sinogram(self.geometry, (self.matrix @ u.values))

    def adjoint(self, g: Sinogram) -> GridFn:
        if g.geometry != self.geometry:
            raise ValueError("sinogram geometry mismatch")
        vals = self._adjoint_scale * (self.matrix.T @ g.values.ravel())
        return GridFn(self.geometry.image_domain, vals)

    def as_linop(self) -> LinOp:
        dom = self.geometry.image_domain
        img_template = GridFn(dom, np.zeros(dom.grid_size))
        sino_template = Sinogram(self.geometry,
                                 np.zeros((self.geometry.n_offsets,
                                           self.geometry.n_angles)))
        return LinOp(
            apply=self.forward,
            apply_adjoint=self.adjoint,
            domain_inner=InnerProductSpec.l2(),
            codomain_inner=lambda a, b: a.inner(b),
            domain_template=img_template,
            codomain_template=sino_template,
        )


# -- phantoms -------------------------------------------------------------------

class PhantomKind(enum.Enum):
    SHEPP_LOGAN = "shepp_logan"
    SMOOTH_BUMPS = "smooth_bumps"


@dataclass(frozen=True)
class Phantom:
    kind: PhantomKind
    image: GridFn

    def to_array(self) -> np.ndarray:
        return self.image.to_array().real


# (value, semi-axis a, semi-axis b, x0, y0, rotation in degrees)
_SHEPP_LOGAN_ELLIPSES = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6050, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)

# indices of ellipses whose union is mirror-symmetric about the vertical axis
SHEPP_LOGAN_SYMMETRIC = (0, 1, 4, 5, 6, 8)


def render_ellipses(N: int, ellipses) -> np.ndarray:
    X, Y = RadonGeometry(N, 1, 1).pixel_centers()
    img = np.zeros((N, N))
    for val, a, b, x0, y0, deg in ellipses:
        phi = np.deg2rad(deg)
        xr = (X - x0) * np.cos(phi) + (Y - y0) * np.sin(phi)
        yr = -(X - x0) * np.sin(phi) + (Y - y0) * np.cos(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += val
    return img


def shepp_logan(N: int) -> Phantom:
    """Standard 10-ellipse head phantom at contrast levels within [0, 1]."""
    if N < 16:
        raise ValueError("phantom needs N >= 16")
    img = render_ellipses(N, _SHEPP_LOGAN_ELLIPSES)
    return Phantom(PhantomKind.SHEPP_LOGAN,
                   GridFn.from_array(Domain.torus(2, N), img))


_BUMP_CENTERS = np.array([[-0.25, 0.18], [0.30, -0.10], [-0.05, -0.38]])
_BUMP_SIGMAS = np.array([0.100, 0.095, 0.085])
_BUMP_AMPS = np.array([0.90, 0.75, 0.60])


def smooth_phantom(N: int, seed: int = 0) -> Phantom:
    """Sum of three Gaussians, peak normalized to 1.0, supported in the disk.

    The seed jitters the bump centers by up to +-0.04 while keeping the
    boundary decay below 1e-6.
    """
    if N < 16:
        raise ValueError("phantom needs N >= 16")
    rng = np.random.default_rng(seed)
    centers = _BUMP_CENTERS + rng.uniform(-0.04, 0.04, _BUMP_CENTERS.shape)
    X, Y = RadonGeometry(N, 1, 1).pixel_centers()
    img = np.zeros((N, N))
    for (cx, cy), sig, amp in zip(centers, _BUMP_SIGMAS, _BUMP_AMPS):
        img += amp * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * sig**2))
    img /= img.max()
    return Phantom(PhantomKind.SMOOTH_BUMPS,
                   GridFn.from_array(Domain.torus(2, N), img))


# -- serialization ---------------------------------------------------------------

def write_pgm(path, arr: np.ndarray, binary: bool = True,
              comment: str = "") -> None:
    """16-bit PGM (P5 binary or P2 text), linearly rescaled to [0, 65535]."""
    arr = np.asarray(arr, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    scale = 65535.0 / (hi - lo) if hi > lo else 0.0
    pix = np.round((arr - lo) * scale).astype(np.uint16)
    header = f"{'P5' if binary else 'P2'}\n"
    if comment:
        header += f"# {comment}\n"
    header += f"{arr.shape[1]} {arr.shape[0]}\n65535\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(pix.astype(">u2").tobytes())
        else:
            for row in pix:
                fh.write((" ".join(str(v) for v in row) + "\n").encode("ascii"))


def write_csv(path, arr: np.ndarray, header: str = "") -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    with open(path, "w", encoding="ascii") as fh:
        if header:
            fh.write(f"# {header}\n")
        for row in arr:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_csv(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows)
