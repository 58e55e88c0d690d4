"""Tessellation structure, counting contracts and watertightness."""

import math
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from lnets import (AdmissibilityError, GridSpec, LNet, LnetsError, Schedule,
                   TessellationParams, convex_paraboloid_patch, tessellate)
from lnets.lnet import contact_points, verify
from lnets.tessellate import (_ROW_MIX, LABELS, LabeledMesh, _arc_tables,
                              _edge_arcs, _row_hash, _turn_arcs,
                              dedupe_mesh)

from conftest import (laguerre_boost, solved_sphere_net,
                      translational_offset_net)

LABEL_PLANAR, LABEL_CONICAL, LABEL_SPHERICAL = LABELS


def edge_counts(mesh):
    cnt = Counter()
    for t in mesh.triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            cnt[(min(a, b), max(a, b))] += 1
    return cnt


def triangle_labels(mesh):
    """The patch kind of every triangle, expanded from the runs."""
    return np.repeat(LABELS, mesh.counts)


def kind_counts(net, count):
    """Closed-form triangle counts per kind of a net without point
    spheres."""
    fr, fc = net.face_shape
    vr, vc = net.vertex_shape
    n_edges = (fr - 1) * fc + fr * (fc - 1)
    return ((vr - 2) * (vc - 2) * 2, n_edges * 2 * (count - 1),
            fr * fc * 2 * (count - 1) ** 2)


def assert_watertight(mesh):
    """Every edge is used once or twice, some twice, and the boundary
    edges (used once) form closed loops: every vertex on the rim is met
    by exactly two rim edges."""
    cnt = edge_counts(mesh)
    assert max(cnt.values()) == 2
    rim_deg = Counter()
    for (a, b), c in cnt.items():
        if c == 1:
            rim_deg[a] += 1
            rim_deg[b] += 1
    assert rim_deg and all(d == 2 for d in rim_deg.values())


def random_admissible_pairs(rng, n):
    """``n`` sphere pairs ``(c0, r0, c1, r1)`` with ``|c1-c0| > |r1-r0|``."""
    c0 = rng.normal(size=(n, 3))
    r0 = rng.normal(size=n)
    r1 = r0 + rng.normal(size=n)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    dist = np.abs(r1 - r0) + rng.uniform(0.5, 3.0, size=n)
    return c0, r0, c0 + dist[:, None] * direction, r1


def circle_frames(c0, r0, c1, r1):
    """The unit centre offsets ``w``, heights ``alpha`` and an orthonormal
    basis ``e1, e2`` across ``w`` of the common-tangent normal circles
    ``alpha w + rho (cos(t) e1 + sin(t) e2)`` of sphere pairs."""
    w = c1 - c0
    length = np.linalg.norm(w, axis=-1)
    w = w / length[..., None]
    e1 = np.cross(w, [0.6, 0.0, 0.8])
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    return w, (r1 - r0) / length, e1, np.cross(w, e1)


def circle_normals(frame, t):
    """Normals at angles ``t`` on the circles of :func:`circle_frames`."""
    w, alpha, e1, e2 = frame
    rho = np.sqrt(1.0 - alpha ** 2)
    return alpha[:, None] * w + rho[:, None] * (np.cos(t)[:, None] * e1
                                                + np.sin(t)[:, None] * e2)


def circle_arcs(rng, c0, r0, c1, r1, count):
    """Arcs of :func:`_turn_arcs` between random normals on the
    common-tangent circles of the sphere pairs, each turning less than a
    half turn either way."""
    frame = circle_frames(c0, r0, c1, r1)
    t0 = rng.uniform(-np.pi, np.pi, size=r0.size)
    t1 = t0 + rng.uniform(-3.0, 3.0, size=r0.size)
    return _turn_arcs(circle_normals(frame, t0), circle_normals(frame, t1),
                      frame[0], frame[1], count)


def test_tangent_normal_circle_samples_common_tangent_normals():
    rng = np.random.default_rng(19)
    c0, r0, c1, r1 = random_admissible_pairs(rng, 200)
    n = circle_arcs(rng, c0, r0, c1, r1, 9)
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) <= 1e-14
    assert np.max(np.abs(np.vecdot(n, (c1 - c0)[:, None])
                         - (r1 - r0)[:, None])) <= 1e-13


def test_tangent_planes_touch_whole_linear_family():
    # The plane with normal n and h = r0 - <n, c0> touches every member
    # (1-s) s0 + s s1 of the linear family of the two spheres.
    rng = np.random.default_rng(11)
    c0, r0, c1, r1 = random_admissible_pairs(rng, 25)
    n = circle_arcs(rng, c0, r0, c1, r1, 7)
    h = r0[:, None] - np.vecdot(n, c0[:, None])
    for s in (-1.0, 0.0, 0.3, 1.0, 2.0):
        c = (1.0 - s) * c0 + s * c1
        r = (1.0 - s) * r0 + s * r1
        assert np.max(np.abs(np.vecdot(n, c[:, None]) + h
                             - r[:, None])) <= 1e-12


@pytest.mark.parametrize("r0, r1", [pytest.param(0.0, 0.0, id="point_pair"),
                                    pytest.param(1.0, 1.0, id="cylinder"),
                                    pytest.param(0.0, 2.0, id="cone")])
def test_tangent_normal_circle_special_cases(r0, r1):
    # A quarter turn about the x axis, from +y to +z, in four steps.
    c0, c1 = np.zeros(3), np.array([4.0, 0.0, 0.0])
    alpha = (r1 - r0) / 4.0
    rho = math.sqrt(1.0 - alpha ** 2)
    n = _turn_arcs(np.array([alpha, rho, 0.0]), np.array([alpha, 0.0, rho]),
                   np.array([1.0, 0.0, 0.0]), np.array(alpha), 5)
    t = np.pi / 2 * np.arange(5) / 4
    expected = np.stack([np.full(5, alpha), rho * np.cos(t), rho * np.sin(t)],
                        axis=1)
    assert np.max(np.abs(n - expected)) <= 1e-15
    h = r0 - n @ c0
    assert np.max(np.abs(n @ c1 + h - r1)) <= 1e-12


def test_rim_arcs_follow_the_great_circle_of_their_end_normals():
    rng = np.random.default_rng(5)
    n0, n1 = rng.normal(size=(2, 50, 3))
    n0 /= np.linalg.norm(n0, axis=1, keepdims=True)
    n1 /= np.linalg.norm(n1, axis=1, keepdims=True)
    axis = np.cross(n0, n1)
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    n = _turn_arcs(n0, n1, axis, np.zeros(50), 9)
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) <= 1e-14
    assert np.max(np.abs(np.vecdot(n, axis[:, None]))) <= 1e-15
    # Equal steps along the shorter arc: the slerp of the end normals.
    omega = np.arccos(np.vecdot(n0, n1))[:, None, None]
    s = (np.arange(9) / 8)[:, None]
    slerp = (np.sin((1.0 - s) * omega) * n0[:, None]
             + np.sin(s * omega) * n1[:, None]) / np.sin(omega)
    assert np.max(np.abs(n - slerp)) <= 1e-14


def test_arcs_of_coincident_rim_normals_are_constant():
    net = coincident_rim_normal_net()
    a, _ = _arc_tables(net, 8)
    n = net.normals[0, 0]
    assert np.array_equal(a[0, 0], np.broadcast_to(n / np.linalg.norm(n),
                                                   (8, 3)))


def test_arcs_of_rim_normals_one_ulp_apart_stay_at_their_ends():
    # n0 x n1 of such normals is mostly rounding error, and an axis built
    # from it can lie far from orthogonal to n0; the samples must not.
    rng = np.random.default_rng(3)
    n0 = rng.normal(size=(50, 3))
    n0 /= np.linalg.norm(n0, axis=1, keepdims=True)
    n0[0] = (0.48, 0.6, 0.64)
    n1 = n0.copy()
    k = rng.integers(0, 3, size=50)
    k[0] = 2
    n1[np.arange(50), k] = np.nextafter(n1[np.arange(50), k], np.inf)
    for a, b in zip(n0, n1):
        # A one-face net: both vertex rows are rims.
        arcs = _edge_arcs(np.array([[a, b], [a, b]]), np.zeros((1, 1, 3)),
                          np.ones((1, 1)), 9)
        assert np.max(np.abs(arcs[:, 0, 1:-1] - a)) <= 1e-15


@pytest.mark.parametrize("rows, cols, beta", [(5, 4, 0.0), (6, 6, 0.0),
                                              (5, 4, 0.15), (6, 6, -0.2)])
def test_arc_tables_of_solved_nets_are_unit_and_tangent(patch, rows, cols,
                                                        beta):
    # The boosted nets' radii vary, so their interior arcs turn at
    # heights alpha far from 0, up to about |beta|.
    net = laguerre_boost(solved_sphere_net(patch, rows, cols), beta)
    a, b = _arc_tables(net, 8)
    c, r = net.centers, net.radii
    for arcs in (a, b):
        assert np.max(np.abs(np.linalg.norm(arcs, axis=-1) - 1.0)) <= 1e-14
    for arcs, offset, dr in ((a[1:-1], c[1:] - c[:-1], r[1:] - r[:-1]),
                             (b[:, 1:-1], c[:, 1:] - c[:, :-1],
                              r[:, 1:] - r[:, :-1])):
        assert np.max(np.abs(np.vecdot(arcs, offset[:, :, None])
                             - dr[:, :, None])) <= 1e-13
    for n0, n1, arcs in ((net.normals[[0, -1], :-1], net.normals[[0, -1], 1:],
                          a[[0, -1]]),
                         (net.normals[:-1, [0, -1]], net.normals[1:, [0, -1]],
                          b[:, [0, -1]])):
        axis = np.cross(n0, n1)
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        assert np.max(np.abs(np.vecdot(arcs, axis[:, :, None]))) <= 1e-15


def test_tessellate_raises_admissibility_error_on_an_inadmissible_net():
    net = translational_offset_net(3, 3, d=0.2)
    # Faces (1, 1) and (1, 2) share a centre but not a radius.
    centers = net.centers.copy()
    centers[1, 2] = centers[1, 1]
    radii = net.radii.copy()
    radii[1, 2] += 0.1
    bad = LNet(net.normals, net.intercepts, centers, radii)
    assert verify(bad).num_inadmissible_edges == 1
    with pytest.raises(AdmissibilityError,
                       match="net fails verification .* 1 inadmissible"):
        tessellate(bad)


def test_params_validation():
    with pytest.raises(ValueError,
                       match="arc_samples must be an integer >= 2"):
        TessellationParams(arc_samples=1)


# Each count of the library API: its constructor and smallest value.
COUNTS = {
    "rows": (lambda n: GridSpec(n, 6, 0.13), 2),
    "cols": (lambda n: GridSpec(6, n, 0.13), 2),
    "arc_samples": (TessellationParams, 2),
    "max_iters": (lambda n: Schedule(max_iters=n), 0),
    "final_pass_iters": (lambda n: Schedule(final_pass_iters=n), 0),
    "decay_every": (lambda n: Schedule(decay_every=n), 1),
}


@pytest.mark.parametrize("name", COUNTS)
def test_counts_are_integers_at_least_their_minimum(name):
    make, low = COUNTS[name]
    for bad in (6.5, 3.0, np.float64(3.0), True, low - 1):
        with pytest.raises(ValueError,
                           match=f"{name} must be an integer >= {low}"):
            make(bad)
    make(low)
    make(np.int64(low + 1))


def test_rejects_unverified_net():
    net = translational_offset_net(3, 3, d=0.2)
    bad_intercepts = net.intercepts.copy()
    bad_intercepts[1, 1] += 1e-3
    bad = LNet(net.normals, bad_intercepts, net.centers, net.radii)
    with pytest.raises(LnetsError) as info:
        tessellate(bad)
    assert type(info.value) is LnetsError


def test_patch_triangle_counts(patch):
    net = solved_sphere_net(patch, 4, 4)
    count = 8
    mesh = tessellate(net, TessellationParams(count))
    # 2x2 interior vertices, 12 interior edges, 9 faces.
    assert mesh.counts == kind_counts(net, count) == (8, 168, 882)


def test_labeled_mesh_rejects_counts_that_do_not_cover_the_triangles():
    verts = np.zeros((3, 3))
    tris = np.array([[0, 1, 2]] * 3)
    assert LabeledMesh(verts, tris, (1, np.int64(0), 2)).counts == (1, 0, 2)
    for counts in ((3,), (1, 1, 1, 0), (4, -1, 0), (1, 1, 0), (2, 1, 1)):
        with pytest.raises(ValueError, match="one nonnegative triangle"):
            LabeledMesh(verts, tris, counts)


def test_labeled_mesh_rejects_bad_indices_and_nonfinite_vertices():
    verts = np.eye(3)
    assert LabeledMesh(verts, [[0, 1, 2]], (1, 0, 0)).triangles.shape == (1, 3)
    for tris in ([[0, 1, -1]], [[0, 1, 3]], [[0, 1, 7]]):
        with pytest.raises(ValueError, match=r"indices must lie in \[0, 3\)"):
            LabeledMesh(verts, tris, (1, 0, 0))
    for bad in (np.nan, np.inf, -np.inf):
        verts = np.eye(3)
        verts[1, 1] = bad
        with pytest.raises(ValueError, match="vertices must be finite"):
            LabeledMesh(verts, [[0, 1, 2]], (1, 0, 0))


def test_labeled_mesh_requires_integer_indices():
    verts = np.eye(3)
    # Neither truncated to [[0, 1, 2]] nor read as [[1, 0, 1]].
    for tris in (np.array([[0.5, 1.7, 2.9]]), np.array([[True, False, True]])):
        with pytest.raises(ValueError, match="indices must be integers"):
            LabeledMesh(verts, tris, (1, 0, 0))
    for tris in ([], np.zeros((0, 3)), np.zeros((0, 3), dtype=bool)):
        mesh = LabeledMesh(verts, tris, (0, 0, 0))
        assert mesh.triangles.shape == (0, 3)
        assert mesh.triangles.dtype == np.int64
    assert LabeledMesh(verts, [[0, 1, 2]], (1, 0, 0)).triangles.dtype == np.int64
    for dtype in (np.int32, np.uint16):
        mesh = LabeledMesh(verts, np.array([[0, 1, 2]], dtype=dtype), (1, 0, 0))
        assert mesh.triangles.dtype == dtype


def test_shared_boundary_samples_are_bit_identical(patch):
    net = solved_sphere_net(patch, 4, 5)
    mesh = tessellate(net)
    seen = defaultdict(set)
    for tri, label in zip(mesh.triangles, triangle_labels(mesh)):
        for vid in tri:
            seen[mesh.vertices[vid].tobytes()].add(label)
    shared = [labels for labels in seen.values() if len(labels) > 1]
    # Planar-conical, conical-spherical and planar-spherical junctions all
    # occur, each through exactly equal float triples.
    assert any({LABEL_PLANAR, LABEL_CONICAL} <= s for s in shared)
    assert any({LABEL_CONICAL, LABEL_SPHERICAL} <= s for s in shared)


def test_watertight_after_exact_dedupe(patch):
    net = solved_sphere_net(patch, 5, 4)
    assert_watertight(dedupe_mesh(tessellate(net)))


@given(alpha=st.floats(0.5, 2.0), beta=st.floats(0.1, 0.45),
       rows=st.integers(4, 7), cols=st.integers(4, 7),
       d=st.floats(0.05, 0.5), count=st.integers(2, 6),
       boost=st.floats(-0.3, 0.3))
def test_tessellation_of_exact_nets_is_watertight(alpha, beta, rows, cols, d,
                                                   count, boost):
    # Nets of 3-6 x 3-6 faces on paraboloids with distinct curvatures. The
    # solved nets' radii are all but equal, so their strips are cylinders;
    # a boost makes the radii vary and the strips narrowing cones.
    net = laguerre_boost(solved_sphere_net(
        convex_paraboloid_patch(alpha, beta), rows, cols, d=d), boost)
    assert verify(net).is_lnet
    mesh = dedupe_mesh(tessellate(net, TessellationParams(count)))
    assert_watertight(mesh)
    assert mesh.counts == kind_counts(net, count)


def test_dedupe_numbers_vertices_by_first_appearance():
    a, b, c, d = [0., 0., 0.], [1., 0., 0.], [1., 1., 0.], [0., 1., 0.]
    mesh = LabeledMesh(np.array([a, b, c, d, c, d]),
                       np.array([[3, 2, 1], [0, 1, 4], [5, 0, 1]]),
                       (1, 1, 1))
    out = dedupe_mesh(mesh)
    assert np.array_equal(out.vertices, np.array([d, c, b, a]))
    assert out.triangles.tolist() == [[0, 1, 2], [3, 2, 1], [0, 3, 2]]
    assert out.counts == (1, 1, 1)


def test_dedupe_drops_degenerate_triangle_label_and_orphan_vertex():
    verts = np.array([[0., 0., 0.], [1., 0., 0.], [0., 1., 0.],
                      [0., 0., 0.], [5., 5., 5.]])
    # The second triangle has corners 0 and 3 on one vertex; vertex 4 is
    # used by no other triangle.
    mesh = LabeledMesh(verts, np.array([[0, 1, 2], [3, 4, 0], [1, 3, 2]]),
                       (1, 1, 1))
    out = dedupe_mesh(mesh)
    assert np.array_equal(out.vertices, verts[:3])
    assert out.triangles.tolist() == [[0, 1, 2], [1, 0, 2]]
    assert out.counts == (1, 0, 1)


def test_dedupe_keeps_signed_zeros_apart():
    verts = np.array([[0., 0., 0.], [-0., 0., 0.], [1., 0., 0.],
                      [0., 1., 0.]])
    mesh = LabeledMesh(verts, np.array([[0, 1, 2], [1, 2, 3]]), (2, 0, 0))
    out = dedupe_mesh(mesh)
    assert out.vertices.shape == (4, 3)
    assert np.signbit(out.vertices[:, 0]).tolist() == [False, True, False,
                                                       False]
    assert out.triangles.tolist() == [[0, 1, 2], [1, 2, 3]]


def reference_dedupe(mesh):
    """``dedupe_mesh`` by dictionaries: rows keyed on their bytes, corners
    numbered by first appearance in the kept triangles."""
    first = {}
    key = [first.setdefault(row.tobytes(), i)
           for i, row in enumerate(mesh.vertices)]
    number, triangles, counts = {}, [], []
    bounds = np.cumsum((0,) + mesh.counts)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        kept = 0
        for tri in mesh.triangles[lo:hi].tolist():
            corners = [key[v] for v in tri]
            if len(set(corners)) == 3:
                triangles.append([number.setdefault(c, len(number))
                                  for c in corners])
                kept += 1
        counts.append(kept)
    return mesh.vertices[list(number)], triangles, tuple(counts)


def assert_dedupes_as_reference(mesh):
    out = dedupe_mesh(mesh)
    verts, triangles, counts = reference_dedupe(mesh)
    assert out.vertices.shape == verts.shape
    assert np.array_equal(out.vertices.view(np.uint64),
                          verts.view(np.uint64))
    assert out.triangles.shape == (len(triangles), 3)
    assert out.triangles.tolist() == triangles
    assert out.counts == counts


def mix_state(x, y):
    """The running hash of ``_row_hash`` after the first two columns,
    just before the third is xored in."""
    h = 0
    for col, k in zip((x, y), _ROW_MIX):
        h ^= h >> 32
        h = ((h ^ col) * k) % 2 ** 64
    return h ^ (h >> 32)


def colliding_row(row, x, y):
    """The row ``(x, y, z)`` (bit patterns) whose hash equals that of
    ``row``: the third column is solved for."""
    return (x, y, mix_state(*row[:2]) ^ row[2] ^ mix_state(x, y))


def bit_rows(rows):
    return np.array(rows, dtype=np.uint64).reshape(-1, 3).view(np.float64)


def finite_bits(bits):
    return (bits >> 52) & 0x7FF != 0x7FF


SPECIAL_BITS = [0x0, 0x8000000000000000, 0x3FF0000000000000,
                0xBFF0000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF]
bit_patterns = (st.sampled_from(SPECIAL_BITS)
                | st.integers(0, 2 ** 64 - 1).filter(finite_bits))
bit_rows_st = st.tuples(bit_patterns, bit_patterns, bit_patterns)


@st.composite
def vertex_soups(draw):
    """Meshes over a few distinct finite rows (signed zeros, subnormals,
    random bit patterns), some built to share the hash of another, each
    drawn as many duplicate vertices."""
    pool = draw(st.lists(bit_rows_st, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        row = colliding_row(draw(st.sampled_from(pool)), draw(bit_patterns),
                            draw(bit_patterns))
        if finite_bits(row[2]):
            pool.append(row)
    rows = draw(st.lists(st.sampled_from(pool), max_size=40))
    corner = st.integers(0, max(len(rows) - 1, 0))
    tris = draw(st.lists(st.tuples(corner, corner, corner),
                         max_size=40 if rows else 0))
    cut = sorted(draw(st.integers(0, len(tris))) for _ in range(2))
    return LabeledMesh(bit_rows(rows), np.array(tris, dtype=int),
                       (cut[0], cut[1] - cut[0], len(tris) - cut[1]))


@given(vertex_soups())
def test_dedupe_matches_the_dictionary_reference(mesh):
    assert_dedupes_as_reference(mesh)


def test_dedupe_splits_rows_that_share_a_hash():
    a = tuple(int(b) for b in np.array([1.0, 2.0, 3.0]).view(np.uint64))
    # Three distinct rows on one hash, interleaved with their copies.
    b = colliding_row(a, 0x4010000000000000, 0x8000000000000000)
    c = colliding_row(a, 0x3FF8000000000001, 0x0)
    d = tuple(int(x) for x in np.array([0.0, 0.0, 1.0]).view(np.uint64))
    verts = bit_rows([a, b, c, d, c, b, a])
    hashes = _row_hash(verts.view(np.uint64))
    assert len({a, b, c}) == 3 and len(set(hashes[:3].tolist())) == 1
    mesh = LabeledMesh(verts, np.array([[0, 1, 3], [4, 5, 6], [6, 1, 0],
                                        [2, 4, 3]]), (2, 1, 1))
    out = dedupe_mesh(mesh)
    assert np.array_equal(out.vertices.view(np.uint64),
                          bit_rows([a, b, d, c]).view(np.uint64))
    assert out.triangles.tolist() == [[0, 1, 2], [3, 1, 0]]
    assert out.counts == (2, 0, 0)
    assert_dedupes_as_reference(mesh)


def test_dedupe_of_an_empty_mesh():
    for verts in (np.zeros((0, 3)), np.ones((4, 3))):
        out = dedupe_mesh(LabeledMesh(verts, np.zeros((0, 3), dtype=int),
                                      (0, 0, 0)))
        assert out.vertices.shape == (0, 3)
        assert out.triangles.shape == (0, 3)
        assert out.triangles.dtype == np.dtype(int)
        assert out.counts == (0, 0, 0)


def test_dedupe_of_a_mesh_whose_triangles_are_all_degenerate():
    # Repeated corner indices, and distinct vertices with one bit pattern.
    verts = np.array([[0., 1., 2.], [0., 1., 2.], [3., 4., 5.],
                      [-0., 1., 2.], [6., 7., 8.], [6., 7., 8.]])
    mesh = LabeledMesh(verts, np.array([[0, 1, 2], [2, 2, 3], [4, 5, 0],
                                        [3, 2, 3]]), (1, 2, 1))
    out = dedupe_mesh(mesh)
    assert out.vertices.shape == (0, 3)
    assert out.triangles.shape == (0, 3)
    assert out.counts == (0, 0, 0)
    assert_dedupes_as_reference(mesh)


def test_watertight_constant_radius_net():
    net = translational_offset_net(5, 5, d=0.3)
    mesh = dedupe_mesh(tessellate(net))
    cnt = edge_counts(mesh)
    assert max(cnt.values()) == 2


def test_point_sphere_net_tessellates_without_nonmanifold_edges():
    # Zero-radius faces collapse their spherical patches; degenerate
    # triangles are dropped by the deduplicator.
    net = translational_offset_net(4, 4, d=0.0)
    mesh = dedupe_mesh(tessellate(net))
    assert mesh.counts[2] == 0
    cnt = edge_counts(mesh)
    assert max(cnt.values()) <= 2


def test_strip_boundary_rulings_match_planar_quads(patch):
    # A solved net, whose strips are cylinders, and a boosted one, whose
    # radii vary.
    for beta in (0.0, 0.2):
        mesh = tessellate(laguerre_boost(solved_sphere_net(patch, 4, 4), beta))
        planar = set()
        conical = set()
        for tri, label in zip(mesh.triangles, triangle_labels(mesh)):
            for vid in tri:
                key = mesh.vertices[vid].tobytes()
                if label == LABEL_PLANAR:
                    planar.add(key)
                elif label == LABEL_CONICAL:
                    conical.add(key)
        # Every planar-quad corner is an end of some strip ruling.
        assert planar
        assert planar <= conical


def reference_tessellate(net, count):
    """Per-patch loop tessellator, the reference for the array emission.

    One arc per vertex edge, sample by sample: the end normal ``n0``
    turned about the edge's axis at ``<n, axis> = alpha`` (the centre
    offset of an interior edge's faces, or ``n0 x (n1 - n0)`` with
    ``alpha = 0`` on the rim); vertices appended patch by patch and
    triangles as tuples.
    """
    def turn_arc(n0, n1, axis, alpha):
        e1 = n0 - np.dot(n0, axis) * axis
        e1 /= np.sqrt(np.dot(e1, e1))
        e2 = np.cross(axis, e1)
        theta = np.arctan2(np.dot(n1, e2), np.dot(n1, e1))
        rho = np.sqrt(1.0 - alpha * alpha)
        out = np.empty((count, 3))
        out[0] = n0
        out[-1] = n1
        for k in range(1, count - 1):
            t = theta * (k / (count - 1))
            out[k] = alpha * axis + rho * (np.cos(t) * e1 + np.sin(t) * e2)
        return out

    def rim_arc(n0, n1):
        axis = np.cross(n0, n1 - n0)
        length = np.sqrt(np.dot(axis, axis))
        if length > 0:
            axis = axis / length
        return turn_arc(n0, n1, axis, 0.0)

    def circle_arc(face_a, face_b, va, vb):
        w = net.centers[face_b] - net.centers[face_a]
        length = np.sqrt(np.dot(w, w))
        alpha = (net.radii[face_b] - net.radii[face_a]) / length
        return turn_arc(net.normals[va], net.normals[vb], w / length, alpha)

    def coons(bottom, top, left, right):
        s = np.linspace(0.0, 1.0, bottom.shape[0])[:, None, None]
        t = np.linspace(0.0, 1.0, left.shape[0])[None, :, None]
        return ((1.0 - t) * bottom[:, None, :] + t * top[:, None, :]
                + (1.0 - s) * left[None, :, :] + s * right[None, :, :]
                - ((1.0 - s) * (1.0 - t) * bottom[0]
                   + s * (1.0 - t) * bottom[-1]
                   + (1.0 - s) * t * top[0]
                   + s * t * top[-1]))

    fr, fc = net.face_shape
    vr, vc = net.vertex_shape
    arcs = {}
    for i in range(fr - 1):
        for j in range(fc):
            arcs[(0, i, j)] = circle_arc((i, j), (i + 1, j), (i + 1, j),
                                         (i + 1, j + 1))
    for i in range(fr):
        for j in range(fc - 1):
            arcs[(1, i, j)] = circle_arc((i, j), (i, j + 1), (i, j + 1),
                                         (i + 1, j + 1))

    def side_points(face, key, va, vb):
        normals = (arcs[key] if key in arcs
                   else rim_arc(net.normals[va], net.normals[vb]))
        return net.centers[face] - net.radii[face] * normals

    vertices, triangles, labels = [], [], []

    def emit(points):
        base = len(vertices)
        vertices.extend(points)
        return base

    corner = contact_points(net).reshape(fr, fc, 4, 3)
    for i in range(1, vr - 1):
        for j in range(1, vc - 1):
            base = emit([corner[i - 1, j - 1, 3], corner[i, j - 1, 1],
                         corner[i, j, 0], corner[i - 1, j, 2]])
            triangles += [(base, base + 1, base + 2),
                          (base, base + 2, base + 3)]
            labels += [LABEL_PLANAR] * 2
    for (axis, i, j), normals in arcs.items():
        fb = (i + 1, j) if axis == 0 else (i, j + 1)
        base_a = emit(net.centers[i, j] - net.radii[i, j] * normals)
        base_b = emit(net.centers[fb] - net.radii[fb] * normals)
        for k in range(count - 1):
            triangles += [(base_a + k, base_a + k + 1, base_b + k + 1),
                          (base_a + k, base_b + k + 1, base_b + k)]
            labels += [LABEL_CONICAL] * 2
    for i in range(fr):
        for j in range(fc):
            c = net.centers[i, j]
            r = net.radii[i, j]
            if r == 0.0:
                continue
            bottom = side_points((i, j), (1, i, j - 1), (i, j), (i + 1, j))
            top = side_points((i, j), (1, i, j), (i, j + 1), (i + 1, j + 1))
            left = side_points((i, j), (0, i - 1, j), (i, j), (i, j + 1))
            right = side_points((i, j), (0, i, j), (i + 1, j),
                                (i + 1, j + 1))
            grid = coons(bottom, top, left, right)
            rel = grid[1:-1, 1:-1] - c
            norms = np.linalg.norm(rel, axis=2, keepdims=True)
            np.divide(rel, norms, out=rel, where=norms > 0)
            grid[1:-1, 1:-1] = c + abs(r) * rel
            grid[:, 0] = bottom
            grid[:, -1] = top
            grid[0, :] = left
            grid[-1, :] = right
            base = emit(grid.reshape(-1, 3))
            for p in range(count - 1):
                for q in range(count - 1):
                    v00 = base + p * count + q
                    v10 = base + (p + 1) * count + q
                    triangles += [(v00, v10, v10 + 1), (v00, v10 + 1, v00 + 1)]
                    labels += [LABEL_SPHERICAL] * 2
    return np.asarray(vertices), np.asarray(triangles), labels


def coincident_rim_normal_net():
    """Net whose rim vertices (0, 0) and (0, 1) share one unit normal with
    ``<n, n> >= 1`` in floating point, so their rim arc has a zero axis."""
    net = translational_offset_net(4, 4, d=0.2, bend_at=2)
    n = net.normals
    assert np.array_equal(n[0, 0], n[0, 1])
    assert float(np.dot(n[0, 0], n[0, 1])) >= 1.0
    return net


@pytest.mark.parametrize("case, count", [
    ("solved_5x4", 8), ("solved_5x4", 5), ("solved_6x6", 8),
    ("point_spheres", 8), ("coincident_rim_normals", 8), ("solved_2x2", 8),
    ("solved_2x4", 8), ("boosted_5x4", 8)])
def test_tessellate_equals_loop_reference(patch, case, count):
    # The 2xN nets have no planar quads, and the 2x2 net has no cone
    # strips either. Only the boosted net's radii vary, so only its
    # interior arcs turn at a height alpha far from 0.
    net = {"solved_5x4": lambda: solved_sphere_net(patch, 5, 4),
           "solved_6x6": lambda: solved_sphere_net(patch, 6, 6),
           "solved_2x2": lambda: solved_sphere_net(patch, 2, 2),
           "solved_2x4": lambda: solved_sphere_net(patch, 2, 4),
           "boosted_5x4": lambda: laguerre_boost(
               solved_sphere_net(patch, 5, 4), 0.15),
           "point_spheres": lambda: translational_offset_net(4, 4, d=0.0),
           "coincident_rim_normals": coincident_rim_normal_net}[case]()
    mesh = tessellate(net, TessellationParams(count))
    vertices, triangles, labels = reference_tessellate(net, count)
    # Bit patterns, as dedupe_mesh keys them: array_equal would let
    # -0.0 stand for 0.0.
    assert np.array_equal(mesh.vertices.view(np.uint64),
                          np.ascontiguousarray(vertices).view(np.uint64))
    assert np.array_equal(mesh.triangles, triangles)
    assert triangle_labels(mesh).tolist() == labels


def test_export_stages_peak_near_their_output_bytes(patch):
    # tessellate writes the raw mesh into arrays sized in advance and
    # dedupe_mesh keeps its working arrays small, so each stays near the
    # bytes of the mesh it returns (tracemalloc sees numpy's buffers).
    net = solved_sphere_net(patch, 32, 32)
    dedupe_mesh(tessellate(net))

    def traced_peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def nbytes(mesh):
        return mesh.vertices.nbytes + mesh.triangles.nbytes

    raw, peak = traced_peak(lambda: tessellate(net))
    assert raw.triangles.dtype == np.int32
    assert peak <= 1.5 * nbytes(raw)
    del raw
    mesh, peak = traced_peak(lambda: dedupe_mesh(tessellate(net)))
    assert peak <= 2.4 * nbytes(mesh)
