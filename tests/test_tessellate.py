"""Tessellation structure, counting contracts and watertightness."""

from collections import Counter, defaultdict

import numpy as np
import pytest

from lnets import LnetsError, TessellationParams, tessellate
from lnets.tessellate import (LABEL_CONICAL, LABEL_PLANAR, LABEL_SPHERICAL,
                              LabeledMesh, dedupe_mesh)

from conftest import solved_sphere_net, translational_offset_net


def edge_counts(mesh):
    cnt = Counter()
    for t in mesh.triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            cnt[(min(a, b), max(a, b))] += 1
    return cnt


def test_params_validation():
    with pytest.raises(ValueError):
        TessellationParams(arc_samples=1)
    net = translational_offset_net(3, 3, d=0.2)
    with pytest.raises(ValueError):
        tessellate(net, TessellationParams(arc_samples=4, ruling_samples=6))


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
    mesh = tessellate(net, TessellationParams(count, count))
    labels = np.asarray(mesh.labels)
    fr, fc = net.face_shape
    vr, vc = net.vertex_shape
    n_planar = (vr - 2) * (vc - 2) * 2
    n_edges = (fr - 1) * fc + fr * (fc - 1)
    n_conical = n_edges * 2 * (count - 1)
    n_spherical = fr * fc * 2 * (count - 1) ** 2
    assert int(np.sum(labels == LABEL_PLANAR)) == n_planar
    assert int(np.sum(labels == LABEL_CONICAL)) == n_conical
    assert int(np.sum(labels == LABEL_SPHERICAL)) == n_spherical


def test_shared_boundary_samples_are_bit_identical(patch):
    net = solved_sphere_net(patch, 4, 5)
    mesh = tessellate(net)
    seen = defaultdict(set)
    for tri, label in zip(mesh.triangles, mesh.labels):
        for vid in tri:
            seen[mesh.vertices[vid].tobytes()].add(label)
    shared = [labels for labels in seen.values() if len(labels) > 1]
    # Planar-conical, conical-spherical and planar-spherical junctions all
    # occur, each through exactly equal float triples.
    assert any({LABEL_PLANAR, LABEL_CONICAL} <= s for s in shared)
    assert any({LABEL_CONICAL, LABEL_SPHERICAL} <= s for s in shared)


def test_watertight_after_exact_dedupe(patch):
    net = solved_sphere_net(patch, 5, 4)
    mesh = dedupe_mesh(tessellate(net))
    cnt = edge_counts(mesh)
    assert max(cnt.values()) == 2
    # Boundary edges (count 1) must form closed loops: every vertex on
    # the rim is met by exactly two rim edges.
    rim_deg = Counter()
    for (a, b), c in cnt.items():
        if c == 1:
            rim_deg[a] += 1
            rim_deg[b] += 1
    assert rim_deg and all(d == 2 for d in rim_deg.values())


def test_dedupe_numbers_vertices_by_first_appearance():
    a, b, c, d = [0., 0., 0.], [1., 0., 0.], [1., 1., 0.], [0., 1., 0.]
    mesh = LabeledMesh(np.array([a, b, c, d, c, d]),
                       np.array([[3, 2, 1], [0, 1, 4], [5, 0, 1]]),
                       [LABEL_PLANAR, LABEL_CONICAL, LABEL_SPHERICAL])
    out = dedupe_mesh(mesh)
    assert np.array_equal(out.vertices, np.array([d, c, b, a]))
    assert out.triangles.tolist() == [[0, 1, 2], [3, 2, 1], [0, 3, 2]]
    assert out.labels == mesh.labels


def test_dedupe_drops_degenerate_triangle_label_and_orphan_vertex():
    verts = np.array([[0., 0., 0.], [1., 0., 0.], [0., 1., 0.],
                      [0., 0., 0.], [5., 5., 5.]])
    # The second triangle has corners 0 and 3 on one vertex; vertex 4 is
    # used by no other triangle.
    mesh = LabeledMesh(verts, np.array([[0, 1, 2], [3, 4, 0], [1, 3, 2]]),
                       [LABEL_PLANAR, LABEL_CONICAL, LABEL_SPHERICAL])
    out = dedupe_mesh(mesh)
    assert np.array_equal(out.vertices, verts[:3])
    assert out.triangles.tolist() == [[0, 1, 2], [1, 0, 2]]
    assert out.labels == [LABEL_PLANAR, LABEL_SPHERICAL]


def test_dedupe_keeps_signed_zeros_apart():
    verts = np.array([[0., 0., 0.], [-0., 0., 0.], [1., 0., 0.],
                      [0., 1., 0.]])
    mesh = LabeledMesh(verts, np.array([[0, 1, 2], [1, 2, 3]]),
                       [LABEL_PLANAR, LABEL_PLANAR])
    out = dedupe_mesh(mesh)
    assert out.vertices.shape == (4, 3)
    assert np.signbit(out.vertices[:, 0]).tolist() == [False, True, False,
                                                       False]
    assert out.triangles.tolist() == [[0, 1, 2], [1, 2, 3]]


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
    assert np.sum(np.asarray(mesh.labels) == LABEL_SPHERICAL) == 0
    cnt = edge_counts(mesh)
    assert max(cnt.values()) <= 2


def test_strip_boundary_rulings_match_planar_quads(patch):
    net = solved_sphere_net(patch, 4, 4)
    mesh = tessellate(net)
    planar = set()
    conical = set()
    for tri, label in zip(mesh.triangles, mesh.labels):
        for vid in tri:
            key = mesh.vertices[vid].tobytes()
            if label == LABEL_PLANAR:
                planar.add(key)
            elif label == LABEL_CONICAL:
                conical.add(key)
    # Every planar-quad corner is an end of some strip ruling.
    assert planar <= conical
