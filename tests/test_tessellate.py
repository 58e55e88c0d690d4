"""Tessellation structure, counting contracts and watertightness."""

import math
from collections import Counter, defaultdict

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from lnets import (AdmissibilityError, LnetsError, TessellationParams,
                   convex_paraboloid_patch, tessellate)
from lnets.lnet import contact_points, verify
from lnets.tessellate import (_ROW_MIX, LABELS, LabeledMesh, _row_hash,
                              dedupe_mesh, tangent_normal_circle)

from conftest import solved_sphere_net, translational_offset_net

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


def circle_normals(circle, t):
    """Normals at angle ``t`` on the circles ``(alpha, w_hat, e1, e2)`` of
    :func:`tangent_normal_circle`, ``(N, 3)``."""
    alpha, w_hat, e1, e2 = circle
    rho = np.sqrt(1.0 - alpha ** 2)
    return alpha[:, None] * w_hat + rho[:, None] * (np.cos(t) * e1
                                                    + np.sin(t) * e2)


def test_tangent_normal_circle_samples_common_tangent_normals():
    rng = np.random.default_rng(19)
    c0, r0, c1, r1 = random_admissible_pairs(rng, 200)
    circle = tangent_normal_circle(c0, r0, c1, r1)
    for t in np.linspace(0.0, 2.0 * np.pi, 9):
        n = circle_normals(circle, t)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, rtol=0,
                           atol=1e-14)
        assert np.allclose(np.vecdot(n, c1 - c0), r1 - r0, rtol=0,
                           atol=1e-13)


def test_tangent_planes_touch_whole_linear_family():
    # The plane with normal n and h = r0 - <n, c0> touches every member
    # (1-s) s0 + s s1 of the linear family of the two spheres.
    rng = np.random.default_rng(11)
    c0, r0, c1, r1 = random_admissible_pairs(rng, 25)
    circle = tangent_normal_circle(c0, r0, c1, r1)
    for t in 2.0 * np.pi * np.arange(7) / 7:
        n = circle_normals(circle, t)
        h = r0 - np.vecdot(n, c0)
        for s in (-1.0, 0.0, 0.3, 1.0, 2.0):
            c = (1.0 - s) * c0 + s * c1
            r = (1.0 - s) * r0 + s * r1
            assert np.max(np.abs(np.vecdot(n, c) + h - r)) <= 1e-12


@pytest.mark.parametrize("r0, r1", [pytest.param(0.0, 0.0, id="point_pair"),
                                    pytest.param(1.0, 1.0, id="cylinder"),
                                    pytest.param(0.0, 2.0, id="cone")])
def test_tangent_normal_circle_special_cases(r0, r1):
    c0, c1 = np.zeros(3), np.array([4.0, 0.0, 0.0])
    circle = tangent_normal_circle(c0[None], np.array([r0]), c1[None],
                                   np.array([r1]))
    alpha = (r1 - r0) / 4.0
    first = circle_normals(circle, 0.0)[0]
    assert np.allclose(first, [alpha, math.sqrt(1.0 - alpha ** 2), 0.0],
                       rtol=0, atol=1e-15)
    for t in 2.0 * np.pi * np.arange(5) / 5:
        n = circle_normals(circle, t)[0]
        h = r0 - n @ c0
        assert abs(n[0] - alpha) <= 1e-15
        assert abs(n @ c1 + h - r1) <= 1e-12


def test_tangent_normal_circle_names_first_inadmissible_row():
    rng = np.random.default_rng(23)
    c0, r0, c1, r1 = random_admissible_pairs(rng, 6)
    # Rows 2 and 4 are concentric with distinct radii.
    c1[[2, 4]] = c0[[2, 4]]
    with pytest.raises(AdmissibilityError) as info:
        tangent_normal_circle(c0, r0, c1, r1)
    assert info.value.index == 2


def test_params_validation():
    with pytest.raises(ValueError, match="arc_samples must be at least 2"):
        TessellationParams(arc_samples=1)


def test_rejects_unverified_net():
    net = translational_offset_net(3, 3, d=0.2)
    bad_intercepts = net.intercepts.copy()
    bad_intercepts[1, 1] += 1e-3
    from lnets import LNet
    bad = LNet(net.normals, bad_intercepts, net.centers, net.radii)
    with pytest.raises(LnetsError):
        tessellate(bad)


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
       d=st.floats(0.05, 0.5), count=st.integers(2, 6))
def test_tessellation_of_exact_nets_is_watertight(alpha, beta, rows, cols, d,
                                                   count):
    # Nets of 3-6 x 3-6 faces on paraboloids with distinct curvatures.
    net = solved_sphere_net(convex_paraboloid_patch(alpha, beta), rows, cols,
                            d=d)
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


SPECIAL_BITS = [0x0, 0x8000000000000000, 0x3FF0000000000000,
                0xBFF0000000000000, 0x0000000000000001, 0x7FF0000000000000,
                0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                0x7FF0000000000001]
bit_patterns = st.sampled_from(SPECIAL_BITS) | st.integers(0, 2 ** 64 - 1)
bit_rows_st = st.tuples(bit_patterns, bit_patterns, bit_patterns)


@st.composite
def vertex_soups(draw):
    """Meshes over a few distinct rows (signed zeros, NaN payloads,
    infinities, random bit patterns), some built to share the hash of
    another, each drawn as many duplicate vertices."""
    pool = draw(st.lists(bit_rows_st, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(pool))
        pool.append(colliding_row(row, draw(bit_patterns),
                                  draw(bit_patterns)))
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
    c = colliding_row(a, 0x7FF8000000000001, 0x0)
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
                      [-0., 1., 2.], [np.nan, 0., 0.], [np.nan, 0., 0.]])
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
    net = solved_sphere_net(patch, 4, 4)
    mesh = tessellate(net)
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
    assert planar <= conical


def reference_tessellate(net, count):
    """Per-patch loop tessellator, the reference for the array emission.

    One scalar arc per face edge (common-tangent circle through
    ``math.atan2``, rim slerp through ``math.acos``), vertices appended
    patch by patch and triangles as tuples.
    """
    def plane_basis(w_hat):
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(w_hat)))] = 1.0
        e1 = axis - np.dot(axis, w_hat) * w_hat
        e1 /= np.linalg.norm(e1)
        return e1, np.cross(w_hat, e1)

    def slerp_arc(n0, n1):
        out = np.empty((count, 3))
        out[0] = n0
        out[-1] = n1
        omega = math.acos(min(1.0, max(-1.0, float(np.dot(n0, n1)))))
        for k in range(1, count - 1):
            t = k / (count - 1)
            if omega < 1e-9:
                n = (1.0 - t) * n0 + t * n1
            else:
                n = (math.sin((1.0 - t) * omega) * n0
                     + math.sin(t * omega) * n1) / math.sin(omega)
            out[k] = n / np.linalg.norm(n)
        return out

    def circle_arc(face_a, face_b, va, vb):
        w = net.centers[face_b] - net.centers[face_a]
        length = float(np.linalg.norm(w))
        w_hat = w / length
        alpha = (net.radii[face_b] - net.radii[face_a]) / length
        e1, e2 = plane_basis(w_hat)
        rho = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        n0 = net.normals[va]
        n1 = net.normals[vb]
        t0 = math.atan2(float(np.dot(n0, e2)), float(np.dot(n0, e1)))
        t1 = math.atan2(float(np.dot(n1, e2)), float(np.dot(n1, e1)))
        dt = t1 - t0
        if dt > math.pi:
            dt -= 2.0 * math.pi
        elif dt <= -math.pi:
            dt += 2.0 * math.pi
        out = np.empty((count, 3))
        out[0] = n0
        out[-1] = n1
        for k in range(1, count - 1):
            t = t0 + dt * k / (count - 1)
            out[k] = alpha * w_hat + rho * (math.cos(t) * e1
                                            + math.sin(t) * e2)
        return out

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
                   else slerp_arc(net.normals[va], net.normals[vb]))
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
    ``<n, n> >= 1`` in floating point, so their rim arc takes the linear
    branch of the slerp."""
    net = translational_offset_net(4, 4, d=0.2, bend_at=2)
    n = net.normals
    assert np.array_equal(n[0, 0], n[0, 1])
    assert float(np.dot(n[0, 0], n[0, 1])) >= 1.0
    return net


@pytest.mark.parametrize("case, count", [
    ("solved_5x4", 8), ("solved_5x4", 5), ("solved_6x6", 8),
    ("point_spheres", 8), ("coincident_rim_normals", 8)])
def test_tessellate_equals_loop_reference(patch, case, count):
    # On the 6x6 net np.arctan2 and math.atan2 differ in the last bit for
    # some arc endpoints; the arcs must use the latter.
    net = {"solved_5x4": lambda: solved_sphere_net(patch, 5, 4),
           "solved_6x6": lambda: solved_sphere_net(patch, 6, 6),
           "point_spheres": lambda: translational_offset_net(4, 4, d=0.0),
           "coincident_rim_normals": coincident_rim_normal_net}[case]()
    mesh = tessellate(net, TessellationParams(count))
    vertices, triangles, labels = reference_tessellate(net, count)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.triangles, triangles)
    assert triangle_labels(mesh).tolist() == labels
