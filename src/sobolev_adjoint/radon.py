"""Discrete 2D Radon transform with a matched adjoint, plus phantoms and I/O.

The image is an N x N pixel grid covering [-1, 1]^2 (piecewise-constant
pixel basis); rays are parallel lines indexed by a signed offset (midpoint
samples over [-s_max, s_max]) and an angle (uniform in [0, pi)).  The
forward map sums exact pixel-ray intersection lengths into a sparse
matrix.  They are collected by a Siddon-style traversal that runs over a
chunk of one angle's offsets at once and computes the same exact
intersections, bit for bit, as tracing each ray on its own.

The square's symmetries map the angle grid onto itself: the mirror
x -> -x sends angle theta to pi - theta, and on an even grid the quarter
turn sends it to theta + pi/2 and the swap of x and y to pi/2 - theta.
The rays of a mapped angle are those of theta applied to the permuted
image, at the same offsets.  So only one representative angle per orbit is
traced and stored: the angles in [0, pi/4] and 90 degrees (17 of 60 at
desk scale, 47 of 180 at full scale), or [0, pi/2] on an odd grid.  90
degrees is traced rather than turned from 0 degrees: those rays run along
pixel edges, where the traversal picks a side by rounding.  The derived
angles match their traced rows to rounding (~1e-14), not bitwise.

A first pass bounds each stored ray's entry count by its edge crossings;
each chunk of rays then becomes a small CSR block copied to the front of
its slot, and scipy's ``eliminate_zeros`` drops the unfilled slot ends in
place, so the build holds the matrix only once.  Each map is one product
of a row prefix of the stored matrix with the permuted image.  The adjoint
is the exact transpose of that map rescaled by the quadrature weights, so
that the discrete adjoint identity holds to rounding.  Both call scipy's
CSR and CSC matvec kernels on the prefix's arrays directly, as ``@`` would
with the same arguments, so no transposed copy or per-call matrix object
is made.

When the process may run on two CPUs, work large enough to pay for a
second thread is split in two: the calling thread runs the first half and
the module's one worker thread the second.  The build splits once the
geometry's entry bound (``RadonGeometry.entry_bound``) reaches
``_THREAD_ENTRIES``, as at full scale; each thread traces half of the
offsets in both passes, so the matrix is the same bytes.  The products
split once the stored matrix holds ``_THREAD_NNZ`` entries, as at desk and
full scale; each thread runs two of the maps' products, and the adjoint
adds the maps' images in one fixed order, so both products are the same
bytes on one thread or two.

Per-angle mass consistency (sum of ray sums times the offset spacing equals
the pixel mass) is exact when the rays align with the pixel lattice
(axis-parallel angles, n_offsets an integer multiple of n_pixels); at
oblique angles it converges at O(offset spacing^2).

Images are grid functions on the 2D unit torus, so the spectral smoothing
backends apply directly.  A sinogram is a grid function on the data grid,
a box of (offset, angle) cells whose midpoints are the ray parameters, so
the L2 inner product of ``core`` is the bin quadrature of the data space.
Both serialize as CSV and binary 16-bit PGM (P5).
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .core import (Domain, GridFn, LinOp, _require_counts, _require_positive_finite,
                   inner, quad_weight)

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "RadonGeometry",
    "RadonOperator",
    "shepp_logan",
    "smooth_phantom",
    "write_pgm",
    "write_csv",
]


@dataclass(frozen=True)
class RadonGeometry:
    n_pixels: int
    n_offsets: int
    n_angles: int
    s_max: float = 1.0

    def __post_init__(self):
        _require_counts(2, n_pixels=self.n_pixels)
        _require_counts(1, n_offsets=self.n_offsets, n_angles=self.n_angles)
        _require_positive_finite(s_max=self.s_max)

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


# Geometries with at least this many bounded entries split their build over
# two threads.  On 2 vCPUs full scale (21.9M) builds in ~100 ms on two
# threads against ~140 ms on one; desk scale (0.79M), whose many small
# chunks hold the GIL, took 30 ms on two against 16 ms on one.
_THREAD_ENTRIES = 4_000_000
# Operators whose stored matrix holds at least this many entries split their
# products over two threads, the caller running one map group.  Per
# forward+adjoint pair on 2 vCPUs (medians of 30 interleaved 20-call bursts),
# one thread against two: (42, 64, 40), 37,870 entries, broke even at 153
# against 158 us (two faster in 14/30); (44, 68, 40), 42,158 entries, went
# 170 -> 157 us and desk scale, 128,468 entries, 503 -> 377 us.  Splitting
# would take (32, 48, 30), 16,070 entries, 84 -> 136 us and (16, 24, 8),
# 1,730 entries, 34 -> 93 us.
_THREAD_NNZ = 40_000
_MAX_THREADS = 2
# The build traces rays in chunks holding at most this share of the matrix's
# bounded entries: at most 15 rays at desk scale and 130 at full scale.  A
# chunk's transients, ~56 bytes per bounded entry against the matrix's 12,
# are most of what the build holds beside the matrix: its peak at desk scale
# is 1.12x the matrix on one thread and 1.18x on two.  Below the minimum, a
# chunk's fixed cost (~0.2 ms) outweighs the little memory it saves: one-ray
# chunks made the (16, 24, 8) build 15 ms instead of 2.
_CHUNK_SHARE = 1 / 64
_CHUNK_MIN_RAYS = 8
_jobs = None  # the worker thread's queue, made when work is first split
_jobs_lock = threading.Lock()


def _drop_worker() -> None:
    # a forked child has no worker thread: work queued for the inherited
    # one would wait forever
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def _thread_count(size: int, least: int) -> int:
    """Threads for work of ``size``: one below ``least``, else as many as the
    process may run on, up to ``_MAX_THREADS``."""
    if size < least:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # no affinity mask on macOS or Windows
    return min(_MAX_THREADS, cpus)


def _offset_blocks(geom: RadonGeometry) -> list[slice]:
    """Offset ranges, one per thread the geometry's build runs on."""
    count = _thread_count(geom.entry_bound, _THREAD_ENTRIES)
    cuts = [k * geom.n_offsets // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def _work(jobs: queue.SimpleQueue) -> None:
    """The worker thread: run each job and release its lock once its slot
    holds the result, or the error for the caller to raise."""
    while True:
        fn, part, slot, done = jobs.get()
        try:
            slot += (fn(part), None)
        except BaseException as exc:  # handed over: the caller raises it
            slot += (None, exc)
        finally:
            done.release()


def _map(fn, parts) -> list:
    """``fn`` over ``parts``: the first on the calling thread, the rest in
    turn on the module's one worker thread, a daemon started by the first
    call with more than one part.

    Returns once every call has ended, raising the first part's error if any.
    Each call hands over its own result slot and held lock, so a caller whose
    wait is interrupted (by a signal handler that raises) leaves nothing that
    a later call reads: the worker ends that part, fills the abandoned slot
    and goes on.  ``fn`` must call numpy and scipy only: perfbench's tracing
    wraps package functions with a span stack that is not thread-safe.
    """
    global _jobs
    if len(parts) == 1:
        return [fn(parts[0])]
    with _jobs_lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_work, args=(_jobs,), name="radon",
                             daemon=True).start()
        jobs = _jobs
    handed = [([], threading.Lock()) for _ in parts[1:]]
    for part, (slot, done) in zip(parts[1:], handed):
        done.acquire()
        jobs.put((fn, part, slot, done))
    try:
        results = [fn(parts[0])]
    finally:
        for _, done in handed:  # the build's parts write into shared arrays
            done.acquire()
    for (result, error), _ in handed:
        if error is not None:
            raise error
        results.append(result)
    return results


# The square's symmetries that map the angle grid onto itself, in the order
# their uses nest: (permutation of the (x, y) pixel array, its inverse, the
# angle index it sends j to on a grid of n angles, or None).  The rays of
# angle ``to(j, n)`` are those of angle j applied to the permuted image, at
# the same offsets.  The quarter turn is ``np.rot90(a, -1)`` and its inverse
# ``np.rot90(a)``, written as views.
_MAPS = (
    (lambda a: a, lambda a: a, lambda j, n: j),
    (lambda a: a[::-1], lambda a: a[::-1],  # x -> -x: pi - theta
     lambda j, n: n - j if j else None),
    (lambda a: a[::-1].T, lambda a: a.T[::-1],  # quarter turn: theta + pi/2
     lambda j, n: j + n // 2 if n % 2 == 0 and j < n // 2 else None),
    (lambda a: a.T, lambda a: a.T,  # x <-> y: pi/2 - theta
     lambda j, n: n // 2 - j if n % 2 == 0 and j <= n // 2 else None),
)
_THREAD_MAPS = ((0, 3), (1, 2))  # one product by each map on each thread


@lru_cache(maxsize=8)
def _orbits(n_angles: int):
    """The angles to trace, in stored order, and each map's use of them.

    Each angle not yet reached becomes a representative, and the maps in
    turn claim their images of it until one falls off the grid or on an
    angle already claimed, so the maps that use an angle are always the
    first few.  The mirror of 0 degrees is off the grid (pi is 0 with the
    offsets reversed), so 90 degrees is never claimed from it and is traced:
    its rays run along pixel edges, where the traversal picks a side by
    rounding that a quarter turn of the 0-degree rows does not reproduce.
    Representatives are stored by how many maps use them, most first, so
    map k reads a prefix of the rows.  Returns the stored angle indices
    and, per map, (map index, cols): a read-only integer array whose entry
    a is the sinogram angle that the map writes stored angle a to.
    """
    claimed = [False] * n_angles
    orbits = []
    for j in range(n_angles):
        if claimed[j]:
            continue
        orbit = []
        for *_, to in _MAPS:
            t = to(j, n_angles)
            if t is None or claimed[t]:
                break
            claimed[t] = True
            orbit.append(t)
        orbits.append(orbit)
    orbits.sort(key=len, reverse=True)
    uses = []
    for k in range(len(_MAPS)):
        cols = np.array([orbit[k] for orbit in orbits if len(orbit) > k], dtype=np.intp)
        cols.flags.writeable = False  # shared by every caller through the cache
        if cols.size:
            uses.append((k, cols))
    return tuple(orbit[0] for orbit in orbits), tuple(uses)


def _row_bounds(geom: RadonGeometry, edges: np.ndarray) -> np.ndarray:
    """Upper bound on each stored ray's entry count, (stored angles, n_offsets).

    A ray's chord is cut into at most one more segment than it has edge
    crossings strictly inside it, and merging segments that share a pixel
    only lowers the count.
    """
    stored, _ = _orbits(geom.n_angles)
    bounds = np.zeros((len(stored), geom.n_offsets), dtype=np.int64)

    def fill(rows: slice) -> None:
        offsets = geom.offsets[rows]
        for a, j in enumerate(stored):
            _, _, hit, _, _, crossings = _clip_rays(geom.angles[j], offsets, edges)
            bounds[a, rows][hit] = 1 + sum(np.count_nonzero(inside, axis=1)
                                           for _, inside in crossings)

    _map(fill, _offset_blocks(geom))
    return bounds


def _angle_block(phi: float, offsets: np.ndarray, edges: np.ndarray,
                 px: float, idx) -> scipy.sparse.csr_matrix:
    """One angle's rays at ``offsets`` as a canonical (len(offsets) x n^2) CSR block."""
    import scipy.sparse  # deferred: loaded by _system_matrix before the build threads
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
    """Exact pixel-ray intersection lengths of the stored angles' rays.

    Only one representative angle per orbit of the square's symmetries is
    traced (``_orbits``): the angles in [0, pi/4] and 90 degrees when
    ``n_angles`` is even, in [0, pi/2] when it is odd.  Row ``a * n_offsets
    + o`` is offset ``o`` of the ``a``-th stored angle.

    For every ray of a chunk of offsets at once (``_CHUNK_SHARE``): clip the
    line to the square, collect its crossings with the pixel edges strictly
    inside that window, sort them, and credit each segment to the pixel
    holding its midpoint.  Rows whose crossings fall short of the full width
    are padded with the exit parameter, so the padding only adds zero-length
    segments that the length cut drops.

    The matrix is held once.  A first pass bounds each ray's entry count by
    its crossing count, without sorting; ``indices``/``data`` are zeroed at
    the bounds' total, and the running total of the bounds gives each
    chunk's slot.  A chunk's canonical CSR block is copied to the front of
    its slot, and its last row is extended to the slot's end.  Every traced
    length is positive, so the only zeros are the unfilled slot ends, and
    one in-place ``eliminate_zeros`` drops them.  The entries of a row, their
    order, and the per-row sort and duplicate sum are those of one global
    COO-to-CSR conversion, so the rows are bitwise those of tracing each
    ray on its own.

    On two threads each one runs both passes over its own half of the
    offsets, writing only its rows of the bounds and its own slots.  Every
    row is traced as it is on one thread, so the matrix is the same bytes.
    """
    import scipy.sparse  # deferred: only the matrix build needs it, here before _map
    n = geom.n_pixels
    px = geom.pixel_size
    edges = -1.0 + px * np.arange(n + 1)
    offsets = geom.offsets
    stored, _ = _orbits(geom.n_angles)
    n_rows = len(stored) * geom.n_offsets
    bounds = _row_bounds(geom, edges)
    total = int(bounds.sum())
    idx = (np.int32 if max(n_rows, n * n, total) <= np.iinfo(np.int32).max
           else np.int64)
    indptr = np.zeros(n_rows + 1, dtype=idx)
    np.cumsum(bounds, dtype=idx, out=indptr[1:])
    indices = np.zeros(total, dtype=idx)
    data = np.zeros(total)
    rays = max(_CHUNK_MIN_RAYS, int(_CHUNK_SHARE * total) // (2 * n + 3))

    def fill(rows: slice) -> None:
        size = rows.stop - rows.start
        count = max(1, -(-size // rays))  # equal chunks of at most rays
        cuts = [rows.start + k * size // count for k in range(count + 1)]
        for a, j in enumerate(stored):
            for chunk in map(slice, cuts[:-1], cuts[1:]):
                block = _angle_block(geom.angles[j], offsets[chunk], edges, px, idx)
                if (np.diff(block.indptr) > bounds[a, chunk]).any():
                    raise RuntimeError(f"a ray at angle {j} has more entries than "
                                       "its bounded slot holds")
                first = a * geom.n_offsets + chunk.start
                start = indptr[first]
                data[start:start + block.nnz] = block.data
                indices[start:start + block.nnz] = block.indices
                indptr[first + 1:first + len(block.indptr) - 1] = start + block.indptr[1:-1]

    _map(fill, _offset_blocks(geom))
    matrix = scipy.sparse.csr_matrix((data, indices, indptr),
                                     shape=(n_rows, n * n))
    matrix.eliminate_zeros()
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False  # every RadonOperator of geom shares it
    return matrix


class RadonOperator:
    """Forward projector and its matched (transpose) adjoint.

    ``matrix`` holds the stored angles' rows only.  Each symmetry map is one
    product of a row prefix of it with the permuted image, whose rows are
    written to the map's sinogram angles through its index array; the
    adjoint gathers those angles, multiplies by the prefix's transpose and
    undoes the permutation, adding the maps' images in map order.  On two
    threads each takes two maps, so both products are the same bytes as on
    one.
    """

    def __init__(self, geometry: RadonGeometry):
        self.geometry = geometry
        self.matrix = _system_matrix(geometry)
        n_off = geometry.n_offsets
        indptr, indices, data = self.matrix.indptr, self.matrix.indices, self.matrix.data
        # per map: (permutation, inverse, the sinogram angle of each stored
        # angle read, the prefix's row count and its CSR arrays, views of the
        # matrix's).  Read as CSC, the same arrays are the prefix's transpose:
        # a CSR copy of it would be ~15% faster per adjoint but hold the
        # matrix a second time
        self._maps = {}
        for k, cols in _orbits(geometry.n_angles)[1]:
            rows = cols.size * n_off
            end = indptr[rows]
            self._maps[k] = (*_MAPS[k][:2], cols, rows,
                             (indptr[:rows + 1], indices[:end], data[:end]))
        groups = [[self._maps[k] for k in grp if k in self._maps]
                  for grp in _THREAD_MAPS]
        if _thread_count(self.matrix.nnz, _THREAD_NNZ) == 1:  # the same maps in order
            groups = [groups[0] + groups[1]]
        self._groups = [group for group in groups if group]
        self._domain = geometry.image_domain
        self._data_domain = geometry.data_domain
        self._adjoint_scale = quad_weight(self._data_domain) / quad_weight(self._domain)

    def forward(self, u: GridFn) -> GridFn:
        from scipy.sparse._sparsetools import csr_matvec  # loaded by the build
        if u.domain != self._domain:
            raise ValueError("image grid does not match the radon geometry")
        n, n_off = self.geometry.n_pixels, self.geometry.n_offsets
        image = u.values.reshape(n, n)
        dtype = np.result_type(u.values, self.matrix.data)
        sino = np.empty((n_off, self.geometry.n_angles), dtype=dtype)
        angles = sino.T

        def project(group) -> None:
            for permute, _, cols, rows, prefix in group:
                out = np.zeros(rows, dtype=dtype)
                csr_matvec(rows, n * n, *prefix, permute(image).ravel(), out)
                angles[cols] = out.reshape(-1, n_off)

        _map(project, self._groups)
        return GridFn(self._data_domain, sino)

    def adjoint(self, g: GridFn) -> GridFn:
        from scipy.sparse._sparsetools import csc_matvec  # loaded by the build
        if g.domain != self._data_domain:
            raise ValueError("sinogram grid does not match the radon geometry")
        n, n_off = self.geometry.n_pixels, self.geometry.n_offsets
        angles = g.values.reshape(n_off, self.geometry.n_angles).T
        dtype = np.result_type(g.values, self.matrix.data)

        def backproject(group) -> list:
            images = []
            for _, unpermute, cols, rows, prefix in group:
                out = np.zeros(n * n, dtype=dtype)
                csc_matvec(n * n, rows, *prefix, angles[cols].ravel(), out)
                images.append(unpermute(out.reshape(n, n)))
            return images

        # each image is a view of a fresh product: add them in one order,
        # whatever the thread count
        total, *images = sum(_map(backproject, self._groups), [])
        for image in images:
            total += image
        total *= self._adjoint_scale
        return GridFn(self._domain, total)

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

def write_pgm(path, arr: np.ndarray, comment: str) -> None:
    """Binary 16-bit PGM (P5), linearly rescaled to [0, 65535]."""
    arr = np.asarray(arr, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    scale = 65535.0 / (hi - lo) if hi > lo else 0.0
    pix = np.round((arr - lo) * scale).astype(">u2")
    header = f"P5\n# {comment}\n{arr.shape[1]} {arr.shape[0]}\n65535\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pix.tobytes())


def write_csv(path, arr: np.ndarray, header: str) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {header}\n")
        line = ",".join(["%.17g"] * arr.shape[1]) + "\n"
        for row in arr:  # not arr.tolist(): that holds every value as an object
            fh.write(line % tuple(row.tolist()))
