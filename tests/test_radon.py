import multiprocessing
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from sobolev_adjoint import radon
from sobolev_adjoint.core import GridFn, check_adjoint, quad_weight
from sobolev_adjoint.radon import (
    RadonGeometry,
    RadonOperator,
    SHEPP_LOGAN_SYMMETRIC,
    _system_matrix,
    _SHEPP_LOGAN_ELLIPSES,
    read_csv,
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


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(n_pixels=st.integers(2, 12), n_offsets=st.integers(1, 16),
       n_angles=st.integers(1, 12), s_max=st.floats(0.25, 2.0))
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
    mat, ref = _system_matrix(geom), _reference_matrix(geom)
    assert mat.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(mat, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("geom", [RadonGeometry(8, 12, 6), RadonGeometry(32, 48, 30)],
                         ids=lambda g: f"{g.n_pixels}-{g.n_offsets}-{g.n_angles}")
def test_row_bounds_leave_slack_for_the_traversal_test(geom):
    # unfilled slot entries that the build must drop: the bitwise traversal
    # test covers that path on these geometries
    edges = -1.0 + geom.pixel_size * np.arange(geom.n_pixels + 1)
    assert radon._row_bounds(geom, edges).sum() > _system_matrix(geom).nnz


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


def test_undercounted_row_bound_raises(monkeypatch):
    geom = RadonGeometry(8, 12, 6)
    counts = np.diff(_system_matrix(geom).indptr).reshape(geom.n_offsets,
                                                         geom.n_angles)
    o, j = np.unravel_index(np.argmax(counts), counts.shape)
    row_bounds = radon._row_bounds

    def undercount(g, edges):
        bounds = row_bounds(g, edges)
        bounds[o, j] = counts[o, j] - 1
        return bounds

    monkeypatch.setattr(radon, "_row_bounds", undercount)
    with pytest.raises(RuntimeError, match=f"angle {j} "):
        _system_matrix.__wrapped__(geom)


def test_operator_shares_the_cached_matrix():
    geom = RadonGeometry.desk_scale()
    mat = _system_matrix(geom)
    op, peak = _traced_peak(RadonOperator, geom)
    assert op.matrix is mat
    assert peak < 0.1 * _matrix_bytes(mat)  # no transposed copy
    r = GridFn(geom.data_domain, np.random.default_rng(4).standard_normal((100, 60)))
    want = op._adjoint_scale * (mat.T @ r.values.ravel())
    assert op.adjoint(r).values.tobytes() == want.tobytes()


def _two_threads(monkeypatch):
    """Send every geometry down the two-thread path, whatever the CPU count."""
    monkeypatch.setattr(radon, "_THREAD_ENTRIES", 0)
    monkeypatch.setattr(radon.os, "sched_getaffinity", lambda pid: {0, 1})


def test_thread_count_follows_the_entry_bound(monkeypatch):
    desk, full = RadonGeometry.desk_scale(), RadonGeometry.full_scale()
    assert (desk.entry_bound, full.entry_bound) == (786_000, 21_870_000)
    assert desk.entry_bound < radon._THREAD_ENTRIES <= full.entry_bound
    monkeypatch.setattr(radon.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert radon._offset_blocks(desk) == [slice(0, 100)]
    assert radon._offset_blocks(full) == [slice(0, 150), slice(150, 300)]
    monkeypatch.setattr(radon.os, "sched_getaffinity", lambda pid: {3})
    assert radon._offset_blocks(full) == [slice(0, 300)]
    # platforms without an affinity mask count the machine's CPUs
    monkeypatch.delattr(radon.os, "sched_getaffinity")
    monkeypatch.setattr(radon.os, "cpu_count", lambda: 2)
    assert radon._offset_blocks(full) == [slice(0, 150), slice(150, 300)]
    monkeypatch.setattr(radon.os, "cpu_count", lambda: None)
    assert radon._offset_blocks(full) == [slice(0, 300)]


@pytest.mark.parametrize("geom", [
    RadonGeometry(8, 12, 6),
    RadonGeometry(15, 23, 7),  # an odd offset count: blocks of 11 and 12 offsets
    RadonGeometry(16, 3, 5, s_max=1.5),
    RadonGeometry.desk_scale(),  # each block under half of the matrix's buffer
], ids=lambda g: f"{g.n_pixels}-{g.n_offsets}-{g.n_angles}-{g.s_max:g}")
def test_two_threads_match_one(geom, monkeypatch):
    one = RadonOperator(geom)
    mat = one.matrix
    _two_threads(monkeypatch)
    built = _system_matrix.__wrapped__(geom)
    for name in ("indptr", "indices", "data"):
        assert getattr(built, name).tobytes() == getattr(mat, name).tobytes(), name
    two = RadonOperator(geom)
    assert len(two._blocks) == 2
    for part in two._blocks + two._transposes:  # views, not copies
        assert np.shares_memory(part.data, two.matrix.data)
        assert np.shares_memory(part.indices, two.matrix.indices)
    rng = np.random.default_rng(geom.n_offsets)
    u = GridFn(geom.image_domain, rng.standard_normal(geom.n_pixels**2))
    r = GridFn(geom.data_domain, rng.standard_normal(geom.data_domain.shape))
    assert two.forward(u).values.tobytes() == one.forward(u).values.tobytes()
    want = one.adjoint(r).values
    assert np.max(np.abs(two.adjoint(r).values - want)) <= 1e-14 * np.max(np.abs(want))
    assert check_adjoint(two.as_linop(), seed=1) < 1e-10


def test_two_thread_build_peak_memory(monkeypatch):
    _two_threads(monkeypatch)
    mat, peak = _traced_peak(_system_matrix.__wrapped__, RadonGeometry.desk_scale())
    assert peak <= 1.3 * _matrix_bytes(mat)


def test_two_thread_products_from_many_callers(monkeypatch):
    # eight callers share the module's one lazily created two-thread pool
    geom = RadonGeometry(16, 24, 8)
    one = RadonOperator(geom)
    _two_threads(monkeypatch)
    created = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(radon, "_executor", None)
    monkeypatch.setattr(radon, "ThreadPoolExecutor", CountedPool)
    op = RadonOperator(geom)
    rng = np.random.default_rng(5)
    us = [GridFn(geom.image_domain, rng.standard_normal(256)) for _ in range(8)]
    rs = [GridFn(geom.data_domain, rng.standard_normal((24, 8))) for _ in range(8)]
    want = [(one.forward(u).values, one.adjoint(r).values) for u, r in zip(us, rs)]

    def call(k):
        got = [(op.forward(us[k]).values, op.adjoint(rs[k]).values) for _ in range(20)]
        return all(f.tobytes() == want[k][0].tobytes()
                   and np.max(np.abs(a - want[k][1])) <= 1e-14 * np.max(np.abs(want[k][1]))
                   for f, a in got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as callers:
            results = [f.result(timeout=60) for f in
                       [callers.submit(call, k) for k in range(8)]]
    finally:
        sys.setswitchinterval(interval)
        for pool in created:
            pool.shutdown()
    assert results == [True] * 8
    assert len(created) == 1


def test_map_ends_every_part_before_raising(monkeypatch):
    # the build's fill threads write into shared arrays: none may still run
    # once the caller has seen an error
    monkeypatch.setattr(radon, "_executor", None)
    done = []

    def part(k):
        if k == 0:
            raise RuntimeError("part 0")
        time.sleep(0.2)
        done.append(k)

    try:
        with pytest.raises(RuntimeError, match="part 0"):
            radon._map(part, [0, 1])
        assert done == [1]
    finally:
        radon._executor.shutdown()


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
    want = float(op.forward(u).values.sum())  # the pool now has its threads
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
    counts = np.diff(_system_matrix(geom).indptr).reshape(geom.n_offsets,
                                                         geom.n_angles)
    row_bounds = radon._row_bounds

    def undercount(g, edges):
        bounds = row_bounds(g, edges)
        bounds[-1, 2] = counts[-1, 2] - 1  # a ray of the second thread
        return bounds

    _two_threads(monkeypatch)
    monkeypatch.setattr(radon, "_row_bounds", undercount)
    with pytest.raises(RuntimeError, match="angle 2 "):
        _system_matrix.__wrapped__(geom)


def test_single_pixel_matches_explicit_matrix_column():
    geom = RadonGeometry(8, 12, 6)
    op = RadonOperator(geom)
    dense = np.zeros((72, 64))
    for p in range(64):
        e = np.zeros(64)
        e[p] = 1.0
        dense[:, p] = op.forward(GridFn(geom.image_domain, e)).values.ravel()
    assert np.max(np.abs(dense - op.matrix.toarray())) == 0.0


def test_adjoint_is_exact_transpose():
    geom = RadonGeometry(8, 12, 6)
    op = RadonOperator(geom)
    dense = op.matrix.toarray()
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
    back = read_csv(path)
    assert np.max(np.abs(back - sino.to_array())) < 1e-15


def test_pgm_writers(tmp_path):
    arr = np.outer(np.linspace(0, 1, 8), np.linspace(0, 1, 6))
    p5 = tmp_path / "img.pgm"
    write_pgm(p5, arr, binary=True, comment="test image")
    raw = p5.read_bytes()
    assert raw.startswith(b"P5\n# test image\n6 8\n65535\n")
    assert len(raw.split(b"65535\n", 1)[1]) == 8 * 6 * 2
    p2 = tmp_path / "img.txt.pgm"
    write_pgm(p2, arr, binary=False)
    text = p2.read_text()
    assert text.startswith("P2\n")
    assert text.split()[1 + 2 + 1:] == [str(v) for v in
                                        np.round(arr / arr.max() * 65535).astype(int).ravel()]
    # byte-identical on rewrite
    write_pgm(tmp_path / "img2.pgm", arr, binary=True, comment="test image")
    assert (tmp_path / "img2.pgm").read_bytes() == raw
