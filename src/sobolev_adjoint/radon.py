"""Discrete 2D Radon transform with a matched adjoint, plus phantoms and I/O.

The image is an N x N pixel grid covering [-1, 1]^2 (piecewise-constant
pixel basis); rays are parallel lines indexed by a signed offset (midpoint
samples over [-s_max, s_max]) and an angle (uniform in [0, pi)).  The
forward map sums exact pixel-ray intersection lengths into a sparse
matrix.  They are collected by a Siddon-style traversal that runs over a
chunk of one angle's offsets at once and computes the same exact
intersections, bit for bit, as tracing each ray on its own.

Five of the square's symmetries map rays onto rays: the mirror x -> -x
sends angle theta to pi - theta, on an even grid the quarter turn sends it
to theta + pi/2 and the swap of x and y to pi/2 - theta, and the half-turn
sends offset o to -o.  A mapped ray is the original on the permuted image.
So one angle per orbit is traced, those in [0, pi/4] and 90 degrees (17 of
60 at desk scale, 47 of 180 at full scale) or [0, pi/2] on an odd grid,
and of each the first half of the offsets, rounded up: 950 of 6,000 rays
and 70,634 entries at desk scale, 7,350 of 54,000 and 1,746,779 at full
scale.  0 and 90 degrees keep every offset, and 90 is not turned from 0:
those rays run along pixel edges, where the traversal picks a side by
rounding.  The derived rays match the traced ones to ~1e-13, not bitwise.

Each stored ray's entry count is bounded from its chord length, so each
ray is traced once: a chunk of rays becomes a small CSR block copied to
the front of its slot, the unfilled slot ends are dropped in place, and
the buffers are shrunk to the entries, so the build holds the matrix only
once.  The matrix is a read-only record of its CSR arrays (``CSRArrays``).
Each map is two products: a row prefix of the stored matrix with the
permuted image, and that prefix's half-offset rows with its half-turn,
written to the reversed offsets.  The adjoint is the exact transpose of
that map rescaled by the quadrature weights, so that the discrete adjoint
identity holds to rounding.  Both call scipy's CSR and CSC matvec kernels
on the rows' arrays directly, as ``@`` would with the same arguments, so
no transposed copy or per-call matrix object is made.

The build and the products call only compiled routines of scipy's
``scipy.sparse._sparsetools`` extension module, which ``_sparsetools``
loads from SciPy's install directory without importing the
``scipy.sparse`` package.  That import (~20 MB of RSS and ~0.15 s on a
2-vCPU x86 VM) goes through SciPy's array-API layer, which loads several
numpy submodules.  No ``scipy`` entry is left in ``sys.modules``, and the
package's module is reused when ``scipy.sparse`` is already imported.

When the process may run on two CPUs, work large enough to pay for a
second thread is split in two: the calling thread runs the first half and
the module's one worker thread the second.  The build splits once the
entries it traces, as ``_row_bounds`` bounds them, reach
``_THREAD_ENTRIES``, as at full scale; each thread traces half of the
rows, so the matrix is the same bytes.  The products split once they
read ``_THREAD_NNZ`` entries, summed over the maps' two row sets, as at
desk and full scale; each thread runs up to two of the maps' products, and
the adjoint adds the maps' images in one fixed order, so both products are
the same bytes on one thread or two.

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

import importlib.machinery
import importlib.util
import os
import queue
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from types import ModuleType
from typing import NamedTuple

import numpy as np

from .core import (Domain, GridFn, LinOp, _require_counts, _require_positive_finite,
                   inner, quad_weight)

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


def _chords(phi: float, offsets: np.ndarray):
    """Clip one angle's rays to the square.

    Returns the ray direction and origins, the mask of rays that hit the
    square, their entry and exit parameters ``lo``/``hi`` (columns), and
    the axes the rays cross as (direction, origins) pairs.
    """
    perp = (-np.sin(phi), np.cos(phi))
    origin = (offsets * np.cos(phi), offsets * np.sin(phi))
    tmin = np.full(offsets.shape, -np.inf)
    tmax = np.full(offsets.shape, np.inf)
    hit = np.ones(offsets.shape, dtype=bool)
    axes = []
    for d, o in zip(perp, origin):
        if abs(d) < 1e-15:  # the rays run parallel to these edges
            hit &= np.abs(o) < 1.0
            continue
        ta, tb = (-1.0 - o) / d, (1.0 - o) / d
        tmin = np.maximum(tmin, np.minimum(ta, tb))
        tmax = np.minimum(tmax, np.maximum(ta, tb))
        axes.append((d, o))
    hit &= tmin < tmax
    return perp, origin, hit, tmin[hit, None], tmax[hit, None], axes


# Builds that trace at least this many bounded entries split over two
# threads.  On 2 shared vCPUs full scale (1.76M) built in 94 ms on two
# against 106 on one, (190, 284, 170) (1.48M) broke even, and desk scale
# (73k), whose many small chunks hold the GIL, took 41 ms on two against 18.
_THREAD_ENTRIES = 1_500_000
# Operators whose products read at least this many entries (the maps' two
# row sets summed: two maps on an odd angle count, four on an even one)
# split them over two threads, the caller running one map group.  Per
# forward+adjoint pair on 2 shared vCPUs (medians of 30 interleaved 20-call
# bursts, four runs), two threads were faster in 0-1 of 30 bursts at
# (40, 60, 36), 103,200 entries read; 1-19 at (42, 64, 40), 128,408; 14-23
# at (42, 64, 41), 131,776; and 25-30 at desk scale, 458,920 (1009-1204 ->
# 775-954 us).  They were faster in 0-2 at (32, 48, 30), 55,064 entries.
_THREAD_NNZ = 130_000
_MAX_THREADS = 2
# The build traces rays in chunks holding at most this share of the matrix's
# bounded entries: at most 8 rays at desk scale (the minimum) and 68 at full
# scale.  A chunk's transients, ~56 bytes per bounded entry against the
# matrix's 12, are most of what the build holds beside the matrix: its peak
# at desk scale is 1.13x the matrix on one thread and 1.19x on two.  Below
# the minimum, a chunk's fixed cost (~0.07 ms) outweighs the little memory
# it saves: one-ray chunks made the (16, 24, 8) build 6.8 ms instead of 1.2.
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


def _traced_offsets(geom: RadonGeometry) -> list[int]:
    """Offsets stored at each stored angle, the first ones: half of them,
    rounded up, and all at 0 and 90 degrees, which come last and whose rays
    along pixel edges the half-turn does not map exactly (``_orbits``)."""
    stored, uses = _orbits(geom.n_angles)
    halves = uses[1][1].size if len(uses) > 1 else 0  # those the mirror reads
    return [-(-geom.n_offsets // 2)] * halves + [geom.n_offsets] * (len(stored) - halves)


def _row_bounds(geom: RadonGeometry) -> np.ndarray:
    """Upper bound on each stored ray's entry count, in stored row order.

    A ray's chord is cut into at most one more segment than it has edge
    crossings strictly inside it, and merging segments that share a pixel
    only lowers the count.  Along an axis of direction ``d``, the chord's
    open window of length ``|d| (hi - lo)`` holds at most
    ``floor(|d| (hi - lo) / px) + 1`` edges ``px`` apart.
    """
    bounds = []
    for j, count in zip(_orbits(geom.n_angles)[0], _traced_offsets(geom)):
        _, _, hit, lo, hi, axes = _chords(geom.angles[j], geom.offsets[:count])
        crossed = (np.floor(abs(d) * (hi - lo)[:, 0] / geom.pixel_size) + 1 for d, _ in axes)
        bounds.append(np.zeros(count, dtype=np.int64))
        bounds[-1][hit] = 1 + sum(crossed)
    return np.concatenate(bounds)


_SPARSETOOLS = "scipy.sparse._sparsetools"


@lru_cache(maxsize=None)
def _sparsetools() -> ModuleType:
    """SciPy's compiled sparse routines, without the ``scipy.sparse`` package.

    Finding SciPy's install directory runs no ``scipy/__init__.py``.  CPython
    files a single-phase extension module under its spec name as it creates
    it; that entry is removed, so that a later ``import scipy.sparse`` loads
    the module as its ``_sparsetools`` attribute.  When ``scipy.sparse`` is
    already imported, its module is reused.  Called before any work is
    split, so the worker thread never loads it.
    """
    if _SPARSETOOLS in sys.modules:
        return sys.modules[_SPARSETOOLS]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "sparse"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec(_SPARSETOOLS)
    if spec is None:  # no SciPy, or one that keeps its kernels elsewhere
        raise ModuleNotFoundError(f"No module named {_SPARSETOOLS!r}", name=_SPARSETOOLS)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(_SPARSETOOLS, None)
    return module


class CSRArrays(NamedTuple):
    """A read-only CSR matrix: the arrays that scipy's CSR kernels take.
    ``scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)`` wraps
    them without a copy.  A named tuple, not a dataclass: it is defined at
    every CLI start, where a frozen dataclass costs ~1.5 ms more."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


def _angle_block(phi: float, offsets: np.ndarray, edges: np.ndarray,
                 px: float, idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One angle's rays at ``offsets`` as a canonical (len(offsets) x n^2)
    CSR block: (indptr, indices, data)."""
    tools = _sparsetools()
    n = len(edges) - 1
    perp, origin, hit, lo, hi, axes = _chords(phi, offsets)
    crossings = ((edges - o[hit, None]) / d for d, o in axes)
    t = [lo, hi] + [np.where((c > lo + 1e-13) & (c < hi - 1e-13), c, hi) for c in crossings]
    t = np.sort(np.concatenate(t, axis=1), axis=1)
    seg = t[:, 1:] - t[:, :-1]
    tmid = 0.5 * (t[:, :-1] + t[:, 1:])
    ix, iy = (np.clip(((o[hit, None] + tmid * d + 1.0) / px).astype(idx), 0, n - 1)
              for d, o in zip(perp, origin))
    keep = seg > 1e-14
    # entries come ray by ray, so this is the CSR layout that a COO-to-CSR
    # conversion would produce; finish it as csr_matrix.sum_duplicates does
    per_ray = np.zeros(len(offsets) + 1, dtype=idx)
    per_ray[1:][hit] = keep.sum(axis=1)
    indptr = np.cumsum(per_ray, dtype=idx)
    indices, data = (ix * n + iy)[keep], seg[keep]
    rows = len(offsets)
    if not tools.csr_has_canonical_format(rows, indptr, indices):
        # the sort is not stable: sorted rows skip it, or equal indices
        # could swap and change the sums' rounding
        if not tools.csr_has_sorted_indices(rows, indptr, indices):
            tools.csr_sort_indices(rows, indptr, indices, data)
        tools.csr_sum_duplicates(rows, n * n, indptr, indices, data)
    return indptr, indices[:indptr[-1]], data[:indptr[-1]]


@lru_cache(maxsize=8)
def _system_matrix(geom: RadonGeometry) -> CSRArrays:
    """Exact pixel-ray intersection lengths of the stored angles' rays.

    Only one representative angle per orbit of the square's symmetries is
    traced (``_orbits``): the angles in [0, pi/4] and 90 degrees when
    ``n_angles`` is even, in [0, pi/2] when it is odd; and of each only its
    first offsets (``_traced_offsets``).  The rows run angle by angle in
    stored order, each angle's offset by offset.

    For every ray of a chunk of offsets at once (``_CHUNK_SHARE``): clip the
    line to the square, collect its crossings with the pixel edges strictly
    inside that window, sort them, and credit each segment to the pixel
    holding its midpoint.  Rows whose crossings fall short of the full width
    are padded with the exit parameter, so the padding only adds zero-length
    segments that the length cut drops.

    The matrix is held once.  Each ray's entry count is bounded from its
    chord length (``_row_bounds``), so each ray is traced once;
    ``indices``/``data`` are zeroed at the bounds' total, and the running
    total of the bounds gives each chunk's slot.  A chunk's canonical CSR
    block is copied to the front of its slot, and its last row is extended
    to the slot's end.  Every traced length is positive, so the only zeros
    are the unfilled slot ends: scipy's ``csr_eliminate_zeros`` drops them in
    place, and the buffers are shrunk to the entries in place.  The entries
    of a row, their order, and the per-row sort and duplicate sum are those
    of one global COO-to-CSR conversion, so the rows are bitwise those of
    tracing each ray on its own.

    On two threads each one traces its own half of the rows into their
    slots.  Every row is traced as it is on one thread, so the matrix is the
    same bytes.
    """
    tools = _sparsetools()  # loaded here, before _map
    n = geom.n_pixels
    px = geom.pixel_size
    edges = -1.0 + px * np.arange(n + 1)
    offsets = geom.offsets
    stored, _ = _orbits(geom.n_angles)
    counts = _traced_offsets(geom)
    firsts = np.cumsum([0] + counts)  # each stored angle's first row
    bounds = _row_bounds(geom)
    n_rows, total = bounds.size, int(bounds.sum())
    idx = (np.int32 if max(n_rows, n * n, total) <= np.iinfo(np.int32).max
           else np.int64)
    indptr = np.zeros(n_rows + 1, dtype=idx)
    np.cumsum(bounds, dtype=idx, out=indptr[1:])
    indices = np.zeros(total, dtype=idx)
    data = np.zeros(total)
    rays = max(_CHUNK_MIN_RAYS, int(_CHUNK_SHARE * total) // (2 * n + 3))
    threads = _thread_count(total, _THREAD_ENTRIES)

    def fill(rows: slice) -> None:
        for j, count, row in zip(stored, counts, firsts):
            lo, hi = max(rows.start - row, 0), min(rows.stop - row, count)  # offsets
            if lo >= hi:
                continue
            chunks = -(-(hi - lo) // rays)  # equal chunks of at most rays
            cuts = [lo + k * (hi - lo) // chunks for k in range(chunks + 1)]
            for chunk in map(slice, cuts[:-1], cuts[1:]):
                ptr, cols, lengths = _angle_block(geom.angles[j], offsets[chunk], edges, px, idx)
                first = row + chunk.start
                if (np.diff(ptr) > bounds[first:first + len(ptr) - 1]).any():
                    raise RuntimeError(f"a ray at angle {j} has more entries than "
                                       "its bounded slot holds")
                start = indptr[first]
                data[start:start + lengths.size] = lengths
                indices[start:start + cols.size] = cols
                indptr[first + 1:first + len(ptr) - 1] = start + ptr[1:-1]

    _map(fill, [slice(k * n_rows // threads, (k + 1) * n_rows // threads)
                for k in range(threads)])
    tools.csr_eliminate_zeros(n_rows, n * n, indptr, indices, data)
    # no view of the buffers is left: each shrinks in place, never copied
    nnz = int(indptr[-1])
    data.resize(nnz)
    indices.resize(nnz)
    for array in (indptr, indices, data):
        array.flags.writeable = False  # every RadonOperator of geom shares it
    return CSRArrays(indptr, indices, data, (n_rows, n * n))


class RadonOperator:
    """Forward projector and its matched (transpose) adjoint.

    ``matrix`` is a read-only CSR record (``CSRArrays``) of the stored rays'
    rows only, shared by every operator of the geometry.  Each symmetry map
    is two products, of a row prefix of it with the permuted image and of
    the prefix's half-offset rows with that image half-turned, written to
    the map's sinogram entries through its index array; the adjoint gathers
    those entries, multiplies by both row sets' transposes, adds the second
    image half-turned and undoes the permutation, adding the maps' images
    in map order.  On two threads each takes two maps, so both products are
    the same bytes as on one.
    """

    def __init__(self, geometry: RadonGeometry):
        self.geometry = geometry
        self.matrix = _system_matrix(geometry)
        n_off, n_angles = geometry.n_offsets, geometry.n_angles
        indptr, indices, data = self.matrix.indptr, self.matrix.indices, self.matrix.data
        counts = _traced_offsets(geometry)
        # Sinogram entry o * n_angles + j is offset o at angle j, and the one
        # past the end a spare.  Per map: (permutation, inverse, the entries
        # of its row prefix's rows and then of the prefix's half-offset rows
        # half-turned, an odd count's middle ray going to the spare; the two
        # row sets' counts and CSR arrays, views of the matrix's).  Read as
        # CSC, the same arrays are the transpose: a CSR copy of it would be
        # ~15% faster per adjoint but hold the matrix a second time
        self._maps = {}
        for k, cols in _orbits(n_angles)[1]:
            near = np.concatenate([np.arange(c) * n_angles + j for j, c in zip(cols, counts)])
            halves = cols[:sum(c < n_off for c in counts[:cols.size])]
            far = ((n_off - 1 - np.arange(counts[0])) * n_angles + halves[:, None]).ravel()
            far[far == near[:far.size]] = n_off * n_angles
            self._maps[k] = (*_MAPS[k][:2], np.concatenate((near, far)), *[
                (r, indptr[:r + 1], indices[:indptr[r]], data[:indptr[r]])
                for r in (near.size, far.size)])
        groups = [[self._maps[k] for k in grp if k in self._maps]
                  for grp in _THREAD_MAPS]
        read = sum(prefix[3].size + turned[3].size for *_, prefix, turned in self._maps.values())
        if _thread_count(read, _THREAD_NNZ) == 1:  # the same maps in order
            groups = [groups[0] + groups[1]]
        self._groups = [group for group in groups if group]
        self._domain = geometry.image_domain
        self._data_domain = geometry.data_domain
        self._adjoint_scale = quad_weight(self._data_domain) / quad_weight(self._domain)

    def forward(self, u: GridFn) -> GridFn:
        csr_matvec = _sparsetools().csr_matvec  # loaded by the build
        if u.domain != self._domain:
            raise ValueError("image grid does not match the radon geometry")
        n = self.geometry.n_pixels
        image = u.values.reshape(n, n)
        dtype = np.result_type(u.values, self.matrix.data)
        sino = np.empty(self._data_domain.grid_size + 1, dtype=dtype)  # and the spare

        def project(group) -> None:
            for permute, _, at, (rows, *prefix), (far, *turned) in group:
                permuted, out = permute(image), np.zeros(at.size, dtype=dtype)
                csr_matvec(rows, n * n, *prefix, permuted.ravel(), out[:rows])
                # offset -o of an image is offset o of its half-turn
                csr_matvec(far, n * n, *turned, permuted[::-1, ::-1].ravel(), out[rows:])
                sino[at] = out

        _map(project, self._groups)
        return GridFn(self._data_domain, sino[:-1])

    def adjoint(self, g: GridFn) -> GridFn:
        csc_matvec = _sparsetools().csc_matvec  # loaded by the build
        if g.domain != self._data_domain:
            raise ValueError("sinogram grid does not match the radon geometry")
        n = self.geometry.n_pixels
        sino = np.concatenate((g.values, np.zeros(1, g.values.dtype)))  # the spare gathers 0
        dtype = np.result_type(g.values, self.matrix.data)

        def backproject(group) -> list:
            images = []
            for _, unpermute, at, (rows, *prefix), (far, *turned) in group:
                gathered, out = sino[at], np.zeros((2, n * n), dtype=dtype)
                csc_matvec(n * n, rows, *prefix, gathered[:rows], out[0])
                csc_matvec(n * n, far, *turned, gathered[rows:], out[1])
                out[0] += out[1, ::-1]  # the half-turn of the second image
                images.append(unpermute(out[0].reshape(n, n)))
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
