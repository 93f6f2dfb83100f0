"""Discrete 2D Radon transform with a matched adjoint, plus phantoms and I/O.

The image is an N x N pixel grid covering [-1, 1]^2 (piecewise-constant
pixel basis); rays are parallel lines indexed by a signed offset (midpoint
samples over [-s_max, s_max]) and an angle (uniform in [0, pi)).  The
forward map sums exact pixel-ray intersection lengths into a sparse
matrix.  They are collected by a Siddon-style traversal that runs over all
offsets of one angle at once and computes the same exact intersections,
bit for bit, as tracing each ray on its own.  A first pass bounds each
ray's entry count by its edge crossings; each angle then becomes a small
CSR block whose rows are written into zeroed slots of that size, and
scipy's ``eliminate_zeros`` drops the unfilled slot ends in place, so the
build holds the matrix only once.  The adjoint is the exact transpose of
that matrix rescaled by the quadrature weights, so that the discrete
adjoint identity holds to rounding; it runs on transposed views that
share the matrix's arrays.

Geometries whose entry bound (``RadonGeometry.entry_bound``) reaches
``_THREAD_ENTRIES``, such as the full-scale one, use two threads when the
process may run on two CPUs.  Each thread traces half of the offsets in
both build passes, so the matrix is the same bytes, and owns the matching
row block in the products: the forward is the concatenation of the
blocks' products, bitwise equal to one product, and the adjoint the sum of
the blocks' transposed products, one rounding per pixel away from it.
Smaller geometries run on the calling thread alone.

Per-angle mass consistency (sum of ray sums times the offset spacing equals
the pixel mass) is exact when the rays align with the pixel lattice
(axis-parallel angles, n_offsets an integer multiple of n_pixels); at
oblique angles it converges at O(offset spacing^2).

Images are grid functions on the 2D unit torus, so the spectral smoothing
backends apply directly.  A sinogram is a grid function on the data grid,
a box of (offset, angle) cells whose midpoints are the ray parameters, so
the L2 inner product of ``core`` is the bin quadrature of the data space.
Both serialize as CSV and 16-bit PGM (P2/P5).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from .core import Domain, GridFn, LinOp, inner, quad_weight

__all__ = [
    "RadonGeometry",
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
        if not 0.0 < self.s_max < np.inf:
            raise ValueError(f"s_max={self.s_max} must be positive and finite")

    @staticmethod
    def full_scale() -> "RadonGeometry":
        """201x201 image, 300 parallel offsets, 180 uniformly spaced angles."""
        return RadonGeometry(201, 300, 180)

    @staticmethod
    def desk_scale() -> "RadonGeometry":
        """64x64 image, 100 offsets, 60 angles: the fast test configuration."""
        return RadonGeometry(64, 100, 60)

    @property
    def entry_bound(self) -> int:
        """Bound on the matrix entries: each ray crosses at most 2n + 2 pixel
        edges, so it meets at most 2n + 3 pixels."""
        return self.n_offsets * self.n_angles * (2 * self.n_pixels + 3)

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

    @property
    def data_domain(self) -> Domain:
        """Offset-by-angle cells; the midpoints are ``offsets`` and ``angles``."""
        return Domain.cells((2.0 * self.s_max, np.pi),
                            (self.n_offsets, self.n_angles),
                            (-self.s_max, -self.angle_spacing / 2))

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        c = -1.0 + self.pixel_size * (np.arange(self.n_pixels) + 0.5)
        return np.meshgrid(c, c, indexing="ij")


def _clip_rays(phi: float, offsets: np.ndarray, edges: np.ndarray):
    """Clip one angle's rays to the square and find their edge crossings.

    Returns the ray direction and origins, the mask of rays that hit the
    square, their entry and exit parameters ``lo``/``hi`` (columns), and for
    each axis the rays cross, the crossing parameters with its pixel edges
    and the mask of those strictly inside ``(lo, hi)``.
    """
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
    crossings = []
    for d, o in crossing_axes:
        tcross = (edges - o[hit, None]) / d
        crossings.append((tcross, (tcross > lo + 1e-13) & (tcross < hi - 1e-13)))
    return perp, origin, hit, lo, hi, crossings


# Geometries with at least this many bounded entries split their build and
# products over two threads.  Measured on 2 vCPUs: at desk scale (0.79M) the
# split adjoint is slower (457 -> 516 us); at 2.8M the products gain ~20% but
# the build loses ~15%; at 6.2M both gain.  Full scale is 21.9M.
_THREAD_ENTRIES = 4_000_000
_MAX_THREADS = 2
_executor = None
_executor_lock = threading.Lock()


def _drop_executor() -> None:
    # a forked child has none of the pool's threads: work sent to the
    # inherited pool would wait forever
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_executor)


def _offset_blocks(geom: RadonGeometry) -> list[slice]:
    """Offset ranges, one per thread the geometry runs on."""
    count = 1
    if geom.entry_bound >= _THREAD_ENTRIES:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)  # no affinity mask on macOS or Windows
        count = min(_MAX_THREADS, cpus)
    cuts = [k * geom.n_offsets // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def _map(fn, parts) -> list:
    """``fn`` over ``parts``, on the module's threads when there are several.

    Returns once every call has ended, raising the first part's error if any.
    ``fn`` must call numpy and scipy only: perfbench's tracing wraps package
    functions with a span stack that is not thread-safe.
    """
    global _executor
    if len(parts) == 1:
        return [fn(parts[0])]
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(_MAX_THREADS, thread_name_prefix="radon")
    futures = [_executor.submit(fn, part) for part in parts]
    wait(futures)
    return [future.result() for future in futures]


def _row_bounds(geom: RadonGeometry, edges: np.ndarray) -> np.ndarray:
    """Upper bound on each ray's entry count, shaped (n_offsets, n_angles).

    A ray's chord is cut into at most one more segment than it has edge
    crossings strictly inside it, and merging segments that share a pixel
    only lowers the count.
    """
    bounds = np.zeros((geom.n_offsets, geom.n_angles), dtype=np.int64)

    def fill(rows: slice) -> None:
        offsets, own = geom.offsets[rows], bounds[rows]
        for j, phi in enumerate(geom.angles):
            _, _, hit, _, _, crossings = _clip_rays(phi, offsets, edges)
            own[hit, j] = 1 + sum(np.count_nonzero(inside, axis=1)
                                  for _, inside in crossings)

    _map(fill, _offset_blocks(geom))
    return bounds


def _angle_block(phi: float, offsets: np.ndarray, edges: np.ndarray,
                 px: float, idx) -> scipy.sparse.csr_matrix:
    """One angle's rays at ``offsets`` as a canonical (len(offsets) x n^2) CSR block."""
    n = len(edges) - 1
    perp, origin, hit, lo, hi, crossings = _clip_rays(phi, offsets, edges)
    t = [lo, hi] + [np.where(inside, tcross, hi) for tcross, inside in crossings]
    t = np.sort(np.concatenate(t, axis=1), axis=1)
    seg = t[:, 1:] - t[:, :-1]
    tmid = 0.5 * (t[:, :-1] + t[:, 1:])
    ix, iy = (np.clip(((o[hit, None] + tmid * d + 1.0) / px).astype(idx), 0, n - 1)
              for d, o in zip(perp, origin))
    keep = seg > 1e-14
    # entries come ray by ray, so this is the CSR layout that a COO-to-CSR
    # conversion would produce; sum_duplicates finishes it the same way
    per_ray = np.zeros(len(offsets) + 1, dtype=idx)
    per_ray[1:][hit] = keep.sum(axis=1)
    block = scipy.sparse.csr_matrix(
        (seg[keep], (ix * n + iy)[keep], np.cumsum(per_ray, dtype=idx)),
        shape=(len(offsets), n * n))
    block.sum_duplicates()
    return block


@lru_cache(maxsize=8)
def _system_matrix(geom: RadonGeometry) -> scipy.sparse.csr_matrix:
    """Exact pixel-ray intersection lengths, one vectorized pass per angle.

    For every ray of an angle at once: clip the line to the square, collect
    its crossings with the pixel edges strictly inside that window, sort
    them, and credit each segment to the pixel holding its midpoint.  Rows
    whose crossings fall short of the full width are padded with the exit
    parameter, so the padding only adds zero-length segments that the
    length cut drops.

    The matrix is held once.  A first pass bounds each ray's entry count by
    its crossing count, without sorting; ``indices``/``data`` are zeroed at
    the bounds' total, and the running total of the bounds is the CSR
    ``indptr``.  Each angle's rays then become a small canonical
    (n_offsets x n^2) CSR block whose row ``o`` is written into the slot of
    matrix row ``o * n_angles + j``.  Every traced length is positive, so the
    only zeros are the unfilled ends of the slots, and one in-place
    ``eliminate_zeros`` drops them.  The entries of a row, their order, and
    the per-row sort and duplicate sum are those of one global COO-to-CSR
    conversion, so the result is bitwise equal to it.

    On two threads each one runs both passes over its own half of the
    offsets, writing only its rows of the bounds and its own slots.  Every
    row is traced as it is on one thread, so the matrix is the same bytes.
    """
    n, n_angles = geom.n_pixels, geom.n_angles
    px = geom.pixel_size
    edges = -1.0 + px * np.arange(n + 1)
    offsets = geom.offsets
    n_rays = geom.n_offsets * n_angles
    bounds = _row_bounds(geom, edges)
    total = int(bounds.sum())
    idx = (np.int32 if max(n_rays, n * n, total) <= np.iinfo(np.int32).max
           else np.int64)
    slots = np.zeros(n_rays + 1, dtype=idx)
    np.cumsum(bounds, dtype=idx, out=slots[1:])
    indices = np.zeros(total, dtype=idx)
    data = np.zeros(total)

    def fill(rows: slice) -> None:
        for j, phi in enumerate(geom.angles):
            block = _angle_block(phi, offsets[rows], edges, px, idx)
            counts = np.diff(block.indptr)
            if (counts > bounds[rows, j]).any():
                raise RuntimeError(f"a ray at angle {j} has more entries than its "
                                   "bounded slot holds")
            starts = (slots[rows.start * n_angles + j:rows.stop * n_angles:n_angles]
                      - block.indptr[:-1])
            dest = np.repeat(starts, counts) + np.arange(block.nnz)
            indices[dest] = block.indices
            data[dest] = block.data

    _map(fill, _offset_blocks(geom))
    matrix = scipy.sparse.csr_matrix((data, indices, slots), shape=(n_rays, n * n))
    matrix.eliminate_zeros()
    return matrix


def _shared(cls, shape, data, indices, indptr):
    """A ``cls`` matrix over these arrays as they are.  scipy's constructor
    would copy a view holding less than half of its buffer."""
    mat = cls(shape, dtype=data.dtype)
    mat.data, mat.indices, mat.indptr = data, indices, indptr
    return mat


def _row_block(matrix: scipy.sparse.csr_matrix, rows: slice) -> scipy.sparse.csr_matrix:
    """The CSR rows ``rows`` of ``matrix``, on views of its data and indices."""
    a, b = matrix.indptr[rows.start], matrix.indptr[rows.stop]
    return _shared(scipy.sparse.csr_matrix, (rows.stop - rows.start, matrix.shape[1]),
                   matrix.data[a:b], matrix.indices[a:b],
                   matrix.indptr[rows.start:rows.stop + 1] - a)


class RadonOperator:
    """Forward projector and its matched (transpose) adjoint."""

    def __init__(self, geometry: RadonGeometry):
        self.geometry = geometry
        self.matrix = _system_matrix(geometry)
        # one row block per thread, each with a CSC view of its transpose, all
        # sharing the matrix's arrays: a CSR copy of the transpose would be
        # ~15% faster per adjoint but hold the matrix a second time.  Summing
        # two blocks' adjoint products adds one rounding per pixel.
        self._rows = [slice(o.start * geometry.n_angles, o.stop * geometry.n_angles)
                      for o in _offset_blocks(geometry)]
        self._blocks = [_row_block(self.matrix, rows) for rows in self._rows]
        self._transposes = [_shared(scipy.sparse.csc_matrix, b.shape[::-1],
                                    b.data, b.indices, b.indptr) for b in self._blocks]
        self._domain = geometry.image_domain
        self._data_domain = geometry.data_domain
        self._adjoint_scale = quad_weight(self._data_domain) / quad_weight(self._domain)

    def forward(self, u: GridFn) -> GridFn:
        if u.domain != self._domain:
            raise ValueError("image grid does not match the radon geometry")
        parts = _map(lambda block: block @ u.values, self._blocks)
        return GridFn(self._data_domain, np.concatenate(parts) if len(parts) > 1
                      else parts[0])

    def adjoint(self, g: GridFn) -> GridFn:
        if g.domain != self._data_domain:
            raise ValueError("sinogram grid does not match the radon geometry")
        parts = _map(lambda k: self._transposes[k] @ g.values[self._rows[k]],
                     range(len(self._rows)))
        return GridFn(self._domain, self._adjoint_scale * sum(parts[1:], parts[0]))

    def as_linop(self) -> LinOp:
        return LinOp(apply=self.forward, apply_adjoint=self.adjoint,
                     domain_inner=inner, codomain_inner=inner,
                     domain=self._domain, codomain=self._data_domain)


# -- phantoms -------------------------------------------------------------------

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


def shepp_logan(N: int) -> GridFn:
    """Standard 10-ellipse head phantom at contrast levels within [0, 1]."""
    if N < 16:
        raise ValueError("phantom needs N >= 16")
    return GridFn.from_array(Domain.torus(2, N),
                             render_ellipses(N, _SHEPP_LOGAN_ELLIPSES))


_BUMP_CENTERS = np.array([[-0.25, 0.18], [0.30, -0.10], [-0.05, -0.38]])
_BUMP_SIGMAS = np.array([0.100, 0.095, 0.085])
_BUMP_AMPS = np.array([0.90, 0.75, 0.60])


def smooth_phantom(N: int, seed: int = 0) -> GridFn:
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
    return GridFn.from_array(Domain.torus(2, N), img)


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
