import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

from sobolev_adjoint import radon
from sobolev_adjoint.core import GridFn, check_adjoint, quad_weight
from sobolev_adjoint.radon import (
    RadonGeometry,
    RadonOperator,
    SHEPP_LOGAN_SYMMETRIC,
    _system_matrix,
    _SHEPP_LOGAN_ELLIPSES,
    render_ellipses,
    shepp_logan,
    smooth_phantom,
    write_csv,
    write_pgm,
)


def test_zero_image_gives_zero_sinogram():
    geom = RadonGeometry(16, 24, 6)
    op = RadonOperator(geom)
    sino = op.forward(GridFn(geom.image_domain, np.zeros(256)))
    assert np.max(np.abs(sino.values)) == 0.0


def test_named_geometries():
    assert RadonGeometry.full_scale() == RadonGeometry(201, 300, 180)
    geom = RadonGeometry.desk_scale()
    assert (geom.n_pixels, geom.n_offsets, geom.n_angles) == (64, 100, 60)


@pytest.mark.parametrize("s_max", [np.nan, np.inf, -1.0, 0.0])
def test_geometry_rejects_bad_s_max(s_max):
    # nan and inf would build an all-zero matrix, -1 and 0 non-positive
    # quadrature weights
    with pytest.raises(ValueError, match="s_max"):
        RadonGeometry(8, 12, 6, s_max=s_max)


@pytest.mark.parametrize("counts, name", [
    ((16.5, 24, 8), "n_pixels"), ((16, 24, 8.0), "n_angles"), ((16, "24", 8), "n_offsets"),
    ((1, 24, 8), "n_pixels"), ((16, 0, 8), "n_offsets"), ((16, 24, 0), "n_angles"),
    ((True, 24, 8), "n_pixels"),
])
def test_geometry_rejects_bad_counts(counts, name):
    # a float or string count used to construct and fail later in the build
    with pytest.raises(ValueError, match=f"{name}="):
        RadonGeometry(*counts)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(n_pixels=st.integers(2, 12), n_offsets=st.integers(1, 16),
       n_angles=st.integers(1, 12), s_max=st.floats(0.25, 2.0))
# the half-turn layout: an odd offset count's middle ray maps onto itself,
# one offset is its own half, and an odd pixel count has a middle pixel
@example(n_pixels=8, n_offsets=11, n_angles=8, s_max=1.0)
@example(n_pixels=6, n_offsets=1, n_angles=6, s_max=1.0)
@example(n_pixels=9, n_offsets=12, n_angles=7, s_max=1.3)
def test_adjoint_identity_over_geometries(n_pixels, n_offsets, n_angles, s_max):
    geom = RadonGeometry(n_pixels, n_offsets, n_angles, s_max)
    op = RadonOperator(geom)
    assert check_adjoint(op.as_linop(), seed=n_pixels) < 1e-10
    u = GridFn(geom.image_domain, np.ones(n_pixels**2))
    assert op.forward(u).domain == geom.data_domain
    assert quad_weight(geom.data_domain) == geom.offset_spacing * geom.angle_spacing


def _trace_ray(origin, direction, edges):
    """Sorted crossing parameters of one line with the pixel lattice."""
    ts = []
    tmin, tmax = -np.inf, np.inf
    for axis in range(2):
        d, o = direction[axis], origin[axis]
        if abs(d) < 1e-15:
            if abs(o) >= 1.0:
                return None
            continue
        ta, tb = (-1.0 - o) / d, (1.0 - o) / d
        lo, hi = min(ta, tb), max(ta, tb)
        tmin, tmax = max(tmin, lo), min(tmax, hi)
    if not tmin < tmax:
        return None
    for axis in range(2):
        d, o = direction[axis], origin[axis]
        if abs(d) < 1e-15:
            continue
        tcross = (edges - o) / d
        ts.append(tcross[(tcross > tmin + 1e-13) & (tcross < tmax - 1e-13)])
    ts.append(np.array([tmin, tmax]))
    return np.unique(np.concatenate(ts))


def _reference_matrix(geom):
    """The system matrix traced one ray at a time (Siddon 1985)."""
    n = geom.n_pixels
    px = geom.pixel_size
    edges = -1.0 + px * np.arange(n + 1)
    rows, cols, lens = [], [], []
    for j, phi in enumerate(geom.angles):
        omega = np.array([np.cos(phi), np.sin(phi)])
        perp = np.array([-np.sin(phi), np.cos(phi)])
        for i, s in enumerate(geom.offsets):
            t = _trace_ray(s * omega, perp, edges)
            if t is None or t.size < 2:
                continue
            seg = np.diff(t)
            mids = s * omega[:, None] + 0.5 * (t[:-1] + t[1:])[None, :] * perp[:, None]
            ix = np.clip(((mids[0] + 1.0) / px).astype(int), 0, n - 1)
            iy = np.clip(((mids[1] + 1.0) / px).astype(int), 0, n - 1)
            keep = seg > 1e-14
            rows.append(np.full(int(keep.sum()), i * geom.n_angles + j))
            cols.append((ix * n + iy)[keep])
            lens.append(seg[keep])
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(lens), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.n_offsets * geom.n_angles, n * n))
    return mat.tocsr()


def _stored_rows(geom, full):
    """The rows of ``full`` (offset-major, as the sinogram) that the operator
    stores, in its order: angle-major over the stored angles, each angle's
    traced offsets."""
    stored, _ = radon._orbits(geom.n_angles)
    return full[[o * geom.n_angles + j for j, count in zip(stored, radon._traced_offsets(geom))
                 for o in range(count)]]


def _row_angles(geom):
    """The sinogram angle of each stored row."""
    return np.repeat(radon._orbits(geom.n_angles)[0], radon._traced_offsets(geom))


@pytest.mark.parametrize("geom", [
    RadonGeometry(8, 12, 6),
    RadonGeometry(16, 24, 8),
    RadonGeometry(32, 48, 30),
    RadonGeometry(15, 23, 7),  # odd pixel count
    RadonGeometry(64, 128, 2),  # axis-aligned angles only
    RadonGeometry(16, 24, 1),  # a single angle
    RadonGeometry(12, 20, 5, s_max=1.5),  # outer rays miss the square
    RadonGeometry(8, 2, 4, s_max=2.4),  # no ray of 0 or 90 degrees hits a pixel
], ids=lambda g: f"{g.n_pixels}-{g.n_offsets}-{g.n_angles}-{g.s_max:g}")
def test_system_matrix_matches_ray_by_ray_traversal(geom):
    mat, ref = _system_matrix(geom), _stored_rows(geom, _reference_matrix(geom))
    assert mat.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(mat, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


def test_orbits_cover_every_angle_once():
    for n_angles in range(1, 401):
        _check_orbits(n_angles)
    # desk and full scale
    assert (len(radon._orbits(60)[0]), len(radon._orbits(180)[0])) == (17, 47)


def _check_orbits(n_angles):
    stored, uses = radon._orbits(n_angles)
    k, cols = uses[0]
    assert (k, len(cols)) == (0, len(stored))  # the identity reads every stored row
    claimed = []
    for k, cols in uses:
        assert not cols.flags.writeable  # shared through the cache
        for a, j in enumerate(stored[:len(cols)]):  # map k reads a row prefix
            assert cols[a] == _MAP_TARGETS[k](j, n_angles)
        claimed += cols.tolist()
    assert sorted(claimed) == list(range(n_angles)), n_angles
    # the stored angles: [0, pi/4] and 90 degrees on an even grid, [0, pi/2]
    # on an odd one
    if n_angles % 2 == 0:
        assert sorted(stored) == [j for j in range(n_angles)
                                  if 4 * j <= n_angles or 2 * j == n_angles]
    else:
        assert sorted(stored) == [j for j in range(n_angles) if 2 * j <= n_angles]
    # every stored angle keeps the first half of its offsets but 0 and 90
    # degrees, which come last, after every angle that a map besides the
    # identity reads
    axis = [0, n_angles // 2] if n_angles % 2 == 0 else [0]
    halves = len(stored) - len(axis)
    assert radon._traced_offsets(RadonGeometry(2, 5, n_angles)) == [3] * halves + [5] * len(axis)
    assert sorted(stored[halves:]) == axis
    assert len(uses) == 1 or uses[1][1].size == halves


_MAP_TARGETS = (lambda j, n: j, lambda j, n: n - j, lambda j, n: j + n // 2,
                lambda j, n: n // 2 - j)


def test_quarter_turn_of_the_edge_rays_is_not_the_traced_90_degrees():
    # rays along pixel edges are credited to a side by rounding, and at 90
    # degrees that rounding does not follow the quarter turn of 0 degrees:
    # 90 degrees is traced, not derived
    geom = RadonGeometry(16, 24, 4)
    ref = _reference_matrix(geom).toarray().reshape(24, 4, 16, 16)
    u = np.random.default_rng(8).standard_normal((16, 16))
    turned = np.einsum("oab,ab->o", ref[:, 0], u[::-1].T)
    traced = np.einsum("oab,ab->o", ref[:, 2], u)
    assert np.max(np.abs(turned - traced)) > 0.1
    assert 2 in radon._orbits(4)[0]
    op = RadonOperator(geom)
    got = op.forward(GridFn.from_array(geom.image_domain, u)).to_array()
    assert np.max(np.abs(got[:, 2] - traced)) <= 1e-14


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(n_pixels=st.integers(2, 13), n_offsets=st.integers(1, 16),
       n_angles=st.integers(1, 12), s_max=st.floats(0.5, 2.0))
@example(n_pixels=8, n_offsets=9, n_angles=4, s_max=1.0)  # the middle ray, 45 degrees
@example(n_pixels=7, n_offsets=11, n_angles=12, s_max=1.0)  # odd pixel and offset counts
@example(n_pixels=6, n_offsets=1, n_angles=6, s_max=1.0)  # one offset
@example(n_pixels=13, n_offsets=16, n_angles=9, s_max=1.5)  # odd pixel count
def test_derived_angles_match_ray_by_ray_traversal(n_pixels, n_offsets, n_angles, s_max):
    geom = RadonGeometry(n_pixels, n_offsets, n_angles, s_max)
    op = RadonOperator(geom)
    ref = _reference_matrix(geom)
    rng = np.random.default_rng(n_pixels * n_angles)
    u = GridFn(geom.image_domain, rng.standard_normal(n_pixels**2))
    want = (ref @ u.values).reshape(n_offsets, n_angles)
    got = op.forward(u).to_array()
    scale = max(np.max(np.abs(want)), 1e-300)
    for j in range(n_angles):
        assert np.max(np.abs(got[:, j] - want[:, j])) <= 1e-12 * scale, j
    r = rng.standard_normal((n_offsets, n_angles))
    for j in range(n_angles):  # the adjoint of each angle's sinogram column
        rj = np.zeros_like(r)
        rj[:, j] = r[:, j]
        want = op._adjoint_scale * (ref.T @ rj.ravel())
        got = op.adjoint(GridFn(geom.data_domain, rj)).values
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300), j
    assert check_adjoint(op.as_linop(), seed=n_offsets) < 1e-10


@pytest.mark.parametrize("geom", [RadonGeometry(8, 12, 6), RadonGeometry(32, 48, 30)],
                         ids=lambda g: f"{g.n_pixels}-{g.n_offsets}-{g.n_angles}")
def test_row_bounds_leave_slack_for_the_traversal_test(geom):
    # unfilled slot entries that the build must drop: the bitwise traversal
    # test covers that path on these geometries
    assert radon._row_bounds(geom).sum() > _system_matrix(geom).nnz


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(n_pixels=st.integers(2, 64), n_offsets=st.integers(1, 64),
       n_angles=st.integers(1, 40), s_max=st.floats(0.25, 2.5))
@example(n_pixels=15, n_offsets=23, n_angles=7, s_max=1.5)  # odd, outer rays miss
@example(n_pixels=64, n_offsets=64, n_angles=40, s_max=1.0)  # rays along pixel edges
@example(n_pixels=8, n_offsets=2, n_angles=4, s_max=2.4)  # every ray misses
def test_row_bounds_hold_every_traced_ray(n_pixels, n_offsets, n_angles, s_max):
    # a ray with more entries than its bound would overflow its slot
    geom = RadonGeometry(n_pixels, n_offsets, n_angles, s_max)
    counts = np.diff(_system_matrix.__wrapped__(geom).indptr)
    assert (radon._row_bounds(geom) >= counts).all()


@lru_cache(maxsize=None)
def _full_matrix():
    return _system_matrix.__wrapped__(RadonGeometry.full_scale())


@pytest.mark.parametrize("geom, slack", [(RadonGeometry.desk_scale(), 0.03),
                                         (RadonGeometry.full_scale(), 0.01)],
                         ids=["desk", "full"])
def test_row_bounds_are_tight(geom, slack):
    # the unfilled slot ends are zeroed and dropped: their share is the build's
    # waste in memory and in the final eliminate_zeros
    mat = _full_matrix() if geom == RadonGeometry.full_scale() else _system_matrix(geom)
    assert radon._row_bounds(geom).sum() < (1 + slack) * mat.nnz


def _matrix_bytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_system_matrix_build_peak_memory():
    # each angle's rows are written into slots sized by a bound pass, and the
    # unfilled slot ends are dropped in place: the build holds the matrix
    # once, plus one angle
    mat, peak = _traced_peak(_system_matrix.__wrapped__, RadonGeometry.desk_scale())
    assert peak <= 1.3 * _matrix_bytes(mat)


def test_matrix_arrays_own_exactly_their_entries():
    # the unfilled slot ends are dropped and the buffers shrunk in place: no
    # slack outlives the build, and no array is a view of a larger one
    geom = RadonGeometry.desk_scale()
    mat = _system_matrix.__wrapped__(geom)
    assert radon._row_bounds(geom).sum() > mat.nnz == 70_634
    for array in (mat.data, mat.indices):
        assert array.base is None and array.flags.owndata and array.size == mat.nnz
    # 15 stored angles of 50 offsets (the first half of 100) and 0 and 90
    # degrees of 100
    assert mat.indptr.size == mat.shape[0] + 1 and mat.shape == (950, 4_096)


def _stored_counts(geom):
    """Entries per stored ray, in stored row order."""
    return np.diff(_system_matrix(geom).indptr)


def test_undercounted_row_bound_raises(monkeypatch):
    geom = RadonGeometry(8, 12, 6)
    counts = _stored_counts(geom)
    row = int(np.argmax(counts))
    j = _row_angles(geom)[row]
    row_bounds = radon._row_bounds

    def undercount(g):
        bounds = row_bounds(g)
        bounds[row] = counts[row] - 1
        return bounds

    monkeypatch.setattr(radon, "_row_bounds", undercount)
    with pytest.raises(RuntimeError, match=f"angle {j} "):
        _system_matrix.__wrapped__(geom)


@lru_cache(maxsize=None)
def _desk_reference():
    return _reference_matrix(RadonGeometry.desk_scale())


def test_cached_matrix_is_read_only():
    # every RadonOperator of a geometry holds the one cached matrix: a write
    # through one operator would change the products of every later one
    op = RadonOperator(RadonGeometry(32, 48, 30))
    for array in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[:1] *= 2


def test_operator_shares_the_cached_matrix():
    geom = RadonGeometry.desk_scale()
    mat = _system_matrix(geom)
    op, peak = _traced_peak(RadonOperator, geom)
    assert op.matrix is mat
    assert peak < 0.1 * _matrix_bytes(mat)  # no transposed copy
    for *_, at, prefix, turned in op._maps.values():  # views, not copies
        assert at.size == prefix[0] + turned[0]  # a sinogram entry per row
        for rows, *arrays in (prefix, turned):
            for part, whole in zip(arrays, (mat.indptr, mat.indices, mat.data)):
                assert np.shares_memory(part, whole)
            assert arrays[0].size == rows + 1
    # the derived angles' rows permute the stored ones: the adjoint matches the
    # transpose of the matrix traced ray by ray to rounding, not bitwise
    r = GridFn(geom.data_domain, np.random.default_rng(4).standard_normal((100, 60)))
    want = op._adjoint_scale * (_desk_reference().T @ r.values.ravel())
    got = op.adjoint(r).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _two_threads(monkeypatch):
    """Send every geometry down the two-thread path, whatever the CPU count."""
    monkeypatch.setattr(radon, "_THREAD_ENTRIES", 0)
    monkeypatch.setattr(radon, "_THREAD_NNZ", 0)
    monkeypatch.setattr(radon.os, "sched_getaffinity", lambda pid: {0, 1})


def _read_entries(geom, mat):
    """The entries one product reads: each map's row prefix and, again, the
    prefix's half-offset rows, summed."""
    read = 0
    for _, cols in radon._orbits(geom.n_angles)[1]:
        counts = radon._traced_offsets(geom)[:cols.size]
        half_rows = sum(count for count in counts if count < geom.n_offsets)
        read += int(mat.indptr[sum(counts)] + mat.indptr[half_rows])
    return read


def test_thread_count_follows_the_entry_bound(monkeypatch):
    desk, full = RadonGeometry.desk_scale(), RadonGeometry.full_scale()
    # the build splits on the bounded entries it traces, not on entry_bound,
    # which the cli's size cap reads
    assert (desk.entry_bound, full.entry_bound) == (786_000, 21_870_000)
    traced = [int(radon._row_bounds(g).sum()) for g in (desk, full)]
    assert traced == [72_588, 1_762_605]
    assert traced[0] < radon._THREAD_ENTRIES <= traced[1]
    small, golden = RadonGeometry(16, 24, 8), RadonGeometry(32, 48, 30)
    reads = [_read_entries(g, _system_matrix(g)) for g in (small, golden, desk)]
    assert reads == [3_632, 55_064, 458_920]  # an even angle count: four maps
    # full scale reads at least its stored entries, through the identity map
    assert max(reads[:2]) < radon._THREAD_NNZ <= min(reads[2], _full_matrix().nnz)
    monkeypatch.setattr(radon.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    # the desk build stays on one thread, while its products take two
    builds = [radon._thread_count(t, radon._THREAD_ENTRIES) for t in traced]
    assert builds == [1, 2]
    assert len(RadonOperator(desk)._groups) == 2
    assert len(RadonOperator(small)._groups) == len(RadonOperator(golden)._groups) == 1
    # the choice follows the entries read, not those stored: each map reads
    # its half-offset rows twice, so an odd angle count's two maps read about
    # 3.7 times its stored entries, an even one's four about 6.5 times
    odd = RadonGeometry(40, 60, 35)
    assert (_system_matrix(odd).nnz, _read_entries(odd, _system_matrix(odd))) == (26_917, 100_468)
    assert len(RadonOperator(odd)._groups) == 1
    monkeypatch.setattr(radon.os, "sched_getaffinity", lambda pid: {3})
    assert radon._thread_count(traced[1], radon._THREAD_ENTRIES) == 1
    assert len(RadonOperator(desk)._groups) == 1
    # platforms without an affinity mask count the machine's CPUs
    monkeypatch.delattr(radon.os, "sched_getaffinity")
    monkeypatch.setattr(radon.os, "cpu_count", lambda: 2)
    assert radon._thread_count(traced[1], radon._THREAD_ENTRIES) == 2
    monkeypatch.setattr(radon.os, "cpu_count", lambda: None)
    assert radon._thread_count(traced[1], radon._THREAD_ENTRIES) == 1


class _Split(Exception):
    pass


def test_build_splits_in_two_at_full_scale_only(monkeypatch):
    # the build hands _map one part per thread: two at full scale, one at
    # desk scale, on a process that may use two CPUs
    monkeypatch.setattr(radon.os, "sched_getaffinity", lambda pid: {0, 1})

    def parts(fn, work):
        raise _Split(len(work))  # before any ray is traced

    monkeypatch.setattr(radon, "_map", parts)
    for geom, count in ((RadonGeometry.desk_scale(), 1), (RadonGeometry.full_scale(), 2)):
        with pytest.raises(_Split) as split:
            _system_matrix.__wrapped__(geom)
        assert split.value.args == (count,)


@pytest.mark.parametrize("geom", [
    RadonGeometry(8, 12, 6),
    RadonGeometry(15, 23, 7),  # odd offset counts: 12 split 6 + 6, 23 at 0 degrees 11 + 12
    RadonGeometry(16, 3, 5, s_max=1.5),
    RadonGeometry.desk_scale(),  # each block under half of the matrix's buffer
    RadonGeometry(16, 24, 2),  # the identity alone: one thread's maps
    RadonGeometry(12, 20, 10),  # 45 degrees off the grid
    RadonGeometry(8, 1, 6),  # one offset: its own half
    RadonGeometry(8, 1, 1),  # one row: the first thread has none
], ids=lambda g: f"{g.n_pixels}-{g.n_offsets}-{g.n_angles}-{g.s_max:g}")
def test_two_threads_match_one(geom, monkeypatch):
    monkeypatch.setattr(radon.os, "sched_getaffinity", lambda pid: {0})
    one = RadonOperator(geom)
    mat = one.matrix
    _two_threads(monkeypatch)
    built = _system_matrix.__wrapped__(geom)
    for name in ("indptr", "indices", "data"):
        assert getattr(built, name).tobytes() == getattr(mat, name).tobytes(), name
    two = RadonOperator(geom)
    assert len(one._groups) == 1 and len(two._groups) == min(2, len(one._maps))
    rng = np.random.default_rng(geom.n_offsets)
    u = GridFn(geom.image_domain, rng.standard_normal(geom.n_pixels**2))
    r = GridFn(geom.data_domain, rng.standard_normal(geom.data_domain.shape))
    # each map's product is the same on either thread, and the adjoint adds
    # the maps' images in one order
    assert two.forward(u).values.tobytes() == one.forward(u).values.tobytes()
    assert two.adjoint(r).values.tobytes() == one.adjoint(r).values.tobytes()
    assert check_adjoint(two.as_linop(), seed=1) < 1e-10


def _csr(mat):
    """The stored matrix as a scipy CSR matrix on the same arrays."""
    return scipy.sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def _matmul_products(op, u, r):
    """The forward and adjoint of ``op`` through scipy's ``@``: per map, a
    CSR copy of its row prefix on the permuted image and of the prefix's
    half-offset rows on its half-turn, written to the reversed offsets, and
    their CSC transposes."""
    geom = op.geometry
    n, n_off = geom.n_pixels, geom.n_offsets
    h = -(-n_off // 2)
    image = u.values.reshape(n, n)
    gathered = r.values.reshape(n_off, geom.n_angles).T
    sino = np.empty(geom.data_domain.shape, dtype=np.result_type(u.values, op.matrix.data))
    images = {}
    matrix = _csr(op.matrix)
    counts = radon._traced_offsets(geom)
    for k, cols in radon._orbits(geom.n_angles)[1]:
        permute, unpermute = radon._MAPS[k][:2]
        halves = sum(count == h < n_off for count in counts[:cols.size])
        block, half = matrix[:sum(counts[:cols.size])], matrix[:halves * h]
        near = block @ permute(image).ravel()
        far = (half @ permute(image)[::-1, ::-1].ravel()).reshape(-1, h)
        sino.T[cols[:halves], :h] = near[:halves * h].reshape(-1, h)
        sino.T[cols[halves:]] = near[halves * h:].reshape(-1, n_off)
        sino.T[cols[:halves], h:] = far[:, :n_off - h][:, ::-1]
        # the odd count's middle ray is gathered once, by the first product
        reversed_ = np.zeros((halves, h), dtype=gathered.dtype)
        reversed_[:, :n_off - h] = gathered[cols[:halves], :h - 1:-1]
        back = block.T @ np.concatenate((gathered[cols[:halves], :h].ravel(),
                                         gathered[cols[halves:]].ravel()))
        back += (half.T @ reversed_.ravel())[::-1]
        images[k] = unpermute(back.reshape(n, n))
    # the operator adds the maps' images in the order of its thread groups
    total, *rest = [images[k] for group in radon._THREAD_MAPS for k in group if k in images]
    for image in rest:
        total += image
    return sino, total * op._adjoint_scale


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("geom", [RadonGeometry(16, 24, 8), RadonGeometry.desk_scale()],
                         ids=lambda g: f"{g.n_pixels}-{g.n_offsets}-{g.n_angles}")
def test_products_match_scipy_matmul(geom, dtype, threads, monkeypatch):
    # the products call scipy's private CSR/CSC matvec kernels: if a SciPy
    # release changes them, this fails rather than letting outputs move
    if threads == 2:
        _two_threads(monkeypatch)
    else:
        monkeypatch.setattr(radon.os, "sched_getaffinity", lambda pid: {0})
    op = RadonOperator(geom)
    assert len(op._groups) == threads
    rng = np.random.default_rng(7)

    def draw(shape):
        values = rng.standard_normal(shape)
        return values + 1j * rng.standard_normal(shape) if dtype is np.complex128 else values

    u = GridFn(geom.image_domain, draw(geom.n_pixels**2))
    r = GridFn(geom.data_domain, draw(geom.data_domain.shape))
    sino, image = _matmul_products(op, u, r)
    got_sino, got_image = op.forward(u).values, op.adjoint(r).values
    assert got_sino.dtype == got_image.dtype == dtype
    assert got_sino.tobytes() == sino.tobytes()
    assert got_image.tobytes() == image.ravel().tobytes()


def test_two_thread_build_peak_memory(monkeypatch):
    _two_threads(monkeypatch)
    mat, peak = _traced_peak(_system_matrix.__wrapped__, RadonGeometry.desk_scale())
    assert peak <= 1.3 * _matrix_bytes(mat)


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's package and
    return what it prints; it must exit 0 within a minute."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_two_thread_products_from_many_callers():
    # eight callers in a fresh process share the module's one lazily started
    # worker thread, and each gets the bytes of the one-thread products
    code = """
import sys, threading
import numpy as np
from sobolev_adjoint import radon
from sobolev_adjoint.core import GridFn

geom = radon.RadonGeometry(16, 24, 8)
radon.os.sched_getaffinity = lambda pid: {0}
one = radon.RadonOperator(geom)
radon._THREAD_NNZ = 0
radon.os.sched_getaffinity = lambda pid: {0, 1}
op = radon.RadonOperator(geom)
assert len(one._groups) == 1 and len(op._groups) == 2 and radon._jobs is None
rng = np.random.default_rng(5)
us = [GridFn(geom.image_domain, rng.standard_normal(256)) for _ in range(8)]
rs = [GridFn(geom.data_domain, rng.standard_normal((24, 8))) for _ in range(8)]
want = [(one.forward(u).values.tobytes(), one.adjoint(r).values.tobytes())
        for u, r in zip(us, rs)]
same = [False] * 8

def call(k):
    same[k] = all((op.forward(us[k]).values.tobytes(),
                   op.adjoint(rs[k]).values.tobytes()) == want[k] for _ in range(20))

sys.setswitchinterval(1e-6)
callers = [threading.Thread(target=call, args=(k,)) for k in range(8)]
for caller in callers:
    caller.start()
for caller in callers:
    caller.join()
print(same.count(True), sum(t.name == "radon" for t in threading.enumerate()))
"""
    assert _run_python(code).split() == ["8", "1"]  # callers served, radon threads


def test_scipy_sparse_imported_after_the_build_is_whole():
    # the build loads scipy's compiled kernels without the scipy.sparse
    # package and leaves no scipy module behind: a later import of the
    # package must still bind its _sparsetools, whose product matches the
    # operator's bytes
    code = """
import sys
import numpy as np
from sobolev_adjoint import radon
from sobolev_adjoint.core import GridFn

geom = radon.RadonGeometry(16, 24, 8)
op = radon.RadonOperator(geom)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
import scipy.sparse
from scipy.sparse import _sparsetools
assert scipy.sparse._sparsetools is _sparsetools
u = GridFn(geom.image_domain, np.random.default_rng(3).standard_normal(256))
stored, counts = radon._orbits(geom.n_angles)[0], radon._traced_offsets(geom)
mat = op.matrix
want = scipy.sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape) @ u.values
sino = op.forward(u).to_array()  # the identity map's first product: the traced offsets
got = np.concatenate([sino[:count, j] for j, count in zip(stored, counts)])
print(got.tobytes() == want.tobytes())
"""
    assert _run_python(code).split("\n")[:2] == ["[]", "True"]


def test_radon_reuses_an_imported_scipy_sparse():
    code = """
import sys
import scipy.sparse
from sobolev_adjoint import radon

before = set(sys.modules)
radon.RadonOperator(radon.RadonGeometry(16, 24, 8))
print(radon._sparsetools() is scipy.sparse._sparsetools,
      sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "scipy"))
"""
    assert _run_python(code).split("\n")[0] == "True []"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_map_survives_an_interrupted_wait():
    # a signal handler that raises ends the caller's wait while the worker
    # still runs its part; the calls after it must each get their own results
    code = """
import signal, time
from sobolev_adjoint import radon

def part(k):
    if k == "slow":
        time.sleep(0.5)
    return k

def alarm(signum, frame):
    raise TimeoutError("alarm")

signal.signal(signal.SIGALRM, alarm)
signal.setitimer(signal.ITIMER_REAL, 0.1)
try:
    radon._map(part, ["first", "slow"])
except TimeoutError:
    print("interrupted")
print(radon._map(part, ["a0", "a1"]), radon._map(part, ["b0", "b1"]))
"""
    assert _run_python(code).split("\n")[:2] == ["interrupted", "['a0', 'a1'] ['b0', 'b1']"]


def test_map_ends_every_part_before_raising():
    # the build's fill threads write into shared arrays: none may still run
    # once the caller has seen an error
    done = []

    def part(k):
        if k == 0:
            raise RuntimeError("part 0")
        time.sleep(0.2)
        done.append(k)

    with pytest.raises(RuntimeError, match="part 0"):
        radon._map(part, [0, 1])
    assert done == [1]


def test_map_raises_the_workers_error_after_the_callers_part():
    done = []

    def part(k):
        if k == 1:
            raise RuntimeError("part 1")
        time.sleep(0.2)
        done.append(k)

    with pytest.raises(RuntimeError, match="part 1"):
        radon._map(part, [0, 1])
    assert done == [0]


def test_map_raises_the_callers_error_when_both_parts_fail():
    ended = []

    def part(k):
        if k == 1:
            time.sleep(0.2)
            ended.append(k)
        raise RuntimeError(f"part {k}")

    with pytest.raises(RuntimeError, match="part 0"):
        radon._map(part, [0, 1])
    assert ended == [1]  # the worker's part had ended when the caller's raised


def test_map_runs_the_first_part_on_the_calling_thread():
    got = radon._map(lambda k: (k, threading.current_thread()), [0, 1])
    assert [k for k, _ in got] == [0, 1]
    caller, worker = (thread for _, thread in got)
    assert caller is threading.current_thread()
    # the second part runs on the module's one daemon worker
    assert worker.name == "radon" and worker.daemon


def _forward_sum(op, u, queue):
    queue.put(float(op.forward(u).values.sum()))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
# forking this threaded process is the point (Python 3.12+ warns about it)
@pytest.mark.filterwarnings("ignore:This process.*multi-threaded:DeprecationWarning")
def test_forked_child_does_not_reuse_the_parent_pool(monkeypatch):
    geom = RadonGeometry(16, 24, 8)
    _two_threads(monkeypatch)
    op = RadonOperator(geom)
    u = GridFn(geom.image_domain, np.random.default_rng(6).standard_normal(256))
    want = float(op.forward(u).values.sum())  # the worker thread now runs
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_forward_sum, args=(op, u, queue))
    child.start()
    try:
        got = queue.get(timeout=30)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    assert got == want


def test_undercounted_row_bound_raises_on_two_threads(monkeypatch):
    geom = RadonGeometry(8, 12, 6)
    counts = _stored_counts(geom)
    row = radon._traced_offsets(geom)[0] * 2 - 1  # the second angle's last ray
    j = _row_angles(geom)[row]
    assert j == radon._orbits(geom.n_angles)[0][1]
    row_bounds = radon._row_bounds

    def undercount(g):
        bounds = row_bounds(g)
        bounds[row] = counts[row] - 1  # a ray of the second thread
        return bounds

    _two_threads(monkeypatch)
    monkeypatch.setattr(radon, "_row_bounds", undercount)
    with pytest.raises(RuntimeError, match=f"angle {j} "):
        _system_matrix.__wrapped__(geom)


def _dense_forward(op):
    """The operator's forward map as a dense (sinogram, pixel) matrix."""
    n2 = op.geometry.n_pixels**2
    return np.stack([op.forward(GridFn(op.geometry.image_domain, e)).values
                     for e in np.eye(n2)], axis=1)


def test_single_pixel_matches_explicit_matrix_column():
    geom = RadonGeometry(8, 12, 6)
    op = RadonOperator(geom)
    dense = _dense_forward(op)
    # a pixel's column is the stored entries, exactly, at the stored angles
    # and the permuted stored entries at the others: those match the
    # ray-by-ray traversal to rounding
    assert np.max(np.abs(_stored_rows(geom, dense) - _csr(op.matrix).toarray())) == 0.0
    ref = _reference_matrix(geom).toarray()
    assert np.max(np.abs(dense - ref)) <= 1e-14


def test_adjoint_is_exact_transpose():
    geom = RadonGeometry(8, 12, 6)
    op = RadonOperator(geom)
    dense = _dense_forward(op)
    g = GridFn(geom.data_domain, np.random.default_rng(0).standard_normal((12, 6)))
    ref = op._adjoint_scale * dense.T @ g.values.ravel()
    assert np.max(np.abs(op.adjoint(g).values - ref)) < 1e-13
    assert check_adjoint(op.as_linop(), trials=10, seed=1) < 1e-10
    zero = op.adjoint(GridFn(geom.data_domain, np.zeros((12, 6))))
    assert np.max(np.abs(zero.values)) == 0.0


def test_single_bin_backprojects_one_strip():
    geom = RadonGeometry(16, 16, 4)
    op = RadonOperator(geom)
    g = np.zeros((16, 4))
    g[8, 0] = 1.0  # one ray at angle 0
    img = op.adjoint(GridFn(geom.data_domain, g)).to_array().real
    hit_cols = np.nonzero(np.abs(img).sum(axis=1))[0]
    assert hit_cols.size == 1  # a vertical ray touches exactly one pixel column


def test_chord_length_through_center():
    geom = RadonGeometry(64, 100, 60)
    op = RadonOperator(geom)
    X, Y = geom.pixel_centers()
    disk = GridFn.from_array(geom.image_domain, (X**2 + Y**2 <= 1.0).astype(float))
    sino = op.forward(disk)
    i_center = int(np.argmin(np.abs(geom.offsets)))
    assert abs(sino.to_array()[i_center, 0] - 2.0) <= 2 * geom.pixel_size


def test_linearity_and_exact_scaling():
    geom = RadonGeometry(16, 24, 8)
    op = RadonOperator(geom)
    rng = np.random.default_rng(1)
    u = GridFn(geom.image_domain, rng.standard_normal(256))
    v = GridFn(geom.image_domain, rng.standard_normal(256))
    s_uv = op.forward(u + v)
    assert np.max(np.abs(s_uv.values - (op.forward(u) + op.forward(v)).values)) < 1e-12
    s2 = op.forward(2.0 * u)
    assert np.max(np.abs(s2.values - 2.0 * op.forward(u).values)) == 0.0


def test_mass_consistency_aligned_angles_exact():
    # offset count a multiple of the pixel count: no midpoint ray rides a
    # pixel edge, so per-angle mass is exact at axis-parallel angles
    geom = RadonGeometry(64, 128, 2)  # angles 0 and pi/2
    op = RadonOperator(geom)
    ph = shepp_logan(64)
    sino = op.forward(ph)
    pixel_mass = float(np.sum(ph.to_array())) * geom.pixel_size**2
    for j in range(2):
        ray_mass = float(np.sum(sino.to_array()[:, j])) * geom.offset_spacing
        assert abs(ray_mass - pixel_mass) < 1e-8


def test_mass_consistency_oblique_directional():
    geom = RadonGeometry(64, 100, 60)
    op = RadonOperator(geom)
    ph = shepp_logan(64)
    sino = op.forward(ph)
    pixel_mass = float(np.sum(ph.to_array())) * geom.pixel_size**2
    rels = [abs(float(np.sum(sino.to_array()[:, j])) * geom.offset_spacing - pixel_mass)
            / pixel_mass for j in range(geom.n_angles)]
    assert max(rels) < 0.02  # O(offset spacing^2) at oblique angles


def test_rotation_by_quarter_turn_permutes_angles():
    # offsets at a multiple of the pixel count keep rays off pixel edges,
    # where the floor tie-break would flip under rotation
    geom = RadonGeometry(32, 64, 8)
    op = RadonOperator(geom)
    arr = np.random.default_rng(3).random((32, 32))
    u = GridFn.from_array(geom.image_domain, arr)
    rot = np.array([[arr[iy, 31 - ix] for iy in range(32)] for ix in range(32)])
    ur = GridFn.from_array(geom.image_domain, rot)
    s = op.forward(u).to_array()
    sr = op.forward(ur).to_array()
    half = geom.n_angles // 2
    mapped = np.concatenate([s[::-1, half:], s[:, :half]], axis=1)
    assert np.max(np.abs(sr - mapped)) < 1e-12


def test_geometry_mismatch_errors():
    geom = RadonGeometry(16, 24, 8)
    other = RadonGeometry(16, 24, 4)
    op = RadonOperator(geom)
    with pytest.raises(ValueError):
        op.forward(GridFn(RadonGeometry(8, 24, 8).image_domain, np.zeros(64)))
    with pytest.raises(ValueError):
        op.adjoint(GridFn(other.data_domain, np.zeros((24, 4))))
    with pytest.raises(ValueError):
        op.adjoint(GridFn(geom.image_domain, np.zeros(256)))


def test_shepp_logan_range_and_background():
    ph = shepp_logan(64)
    arr = ph.to_array()
    assert arr.min() > -1e-12
    assert arr.max() <= 1.05
    assert abs(arr[0, 0]) == 0.0 and abs(arr[-1, -1]) == 0.0


def test_shepp_logan_symmetric_subset_mirror():
    subset = [e for i, e in enumerate(_SHEPP_LOGAN_ELLIPSES)
              if i in SHEPP_LOGAN_SYMMETRIC]
    img = render_ellipses(64, subset)
    assert np.max(np.abs(img - img[::-1, :])) == 0.0


def test_smooth_phantom_properties():
    geom = RadonGeometry(64, 1, 1)
    X, Y = geom.pixel_centers()
    ph = smooth_phantom(64, seed=0)
    arr = ph.to_array()
    assert abs(arr.max() - 1.0) < 1e-12
    boundary = arr[(X**2 + Y**2) > 0.97**2]
    assert boundary.max() < 1e-6
    assert np.array_equal(arr, smooth_phantom(64, seed=0).to_array())
    assert not np.array_equal(arr, smooth_phantom(64, seed=5).to_array())


def test_csv_round_trip(tmp_path):
    geom = RadonGeometry(16, 10, 4)
    op = RadonOperator(geom)
    u = GridFn(geom.image_domain, np.random.default_rng(2).standard_normal(256))
    sino = op.forward(u)
    path = tmp_path / "sino.csv"
    write_csv(path, sino.to_array(), header="offsets x angles")
    back = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    assert np.max(np.abs(back - sino.to_array())) < 1e-15


@pytest.mark.parametrize("arr", [
    np.random.default_rng(4).standard_normal((30, 18)) * 10.0 ** np.arange(-9, 9),
    np.array([[-0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan, 0.1, 1.0, -1e-300]]),
    np.arange(7.0)[:, None] / 3.0,
], ids=["random", "special", "one-column"])
def test_csv_bytes_match_per_value_formatting(tmp_path, arr):
    path = tmp_path / "a.csv"
    write_csv(path, arr, header="h")
    want = "# h\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in arr)
    assert path.read_bytes() == want.encode("ascii")


def test_pgm_writers(tmp_path):
    arr = np.outer(np.linspace(0, 1, 8), np.linspace(0, 1, 6))
    p5 = tmp_path / "img.pgm"
    write_pgm(p5, arr, comment="test image")
    raw = p5.read_bytes()
    assert raw.startswith(b"P5\n# test image\n6 8\n65535\n")
    payload = raw.split(b"65535\n", 1)[1]
    assert len(payload) == 8 * 6 * 2
    # big-endian samples, rescaled to [0, 65535]
    assert np.array_equal(np.frombuffer(payload, ">u2"),
                          np.round(arr / arr.max() * 65535).astype(int).ravel())
    # byte-identical on rewrite
    write_pgm(tmp_path / "img2.pgm", arr, comment="test image")
    assert (tmp_path / "img2.pgm").read_bytes() == raw
