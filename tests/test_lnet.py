"""Net initialization, contact verification, strip points, serialization."""

import numpy as np
import pytest

from lnets import (ConfigError, CongruenceSpec, CurvatureSignError, LNet,
                   QuadGrid, evaluate_jets, initialize, oriented_normal,
                   project_points, strip_incidences, verify)
from lnets.bspline import BSplineSurface, SurfaceJet2
from lnets.lnet import (contact_incidences, contact_points, face_pairs,
                        lnet_from_dict, lnet_to_dict, load_lnet, save_lnet)

from conftest import solved_sphere_net, translational_offset_net


def lattice_grid(surface, rows, cols, margin=0.05):
    u0, u1, v0, v1 = surface.domain
    us = np.linspace(u0 + margin, u1 - margin, rows)
    vs = np.linspace(v0 + margin, v1 - margin, cols)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    return QuadGrid(np.stack([uu, vv], axis=2), surface.domain)


def test_initialize_plane_and_sphere_formulas(patch):
    grid = lattice_grid(patch, 5, 4)
    spec = CongruenceSpec("tau_min", tau=0.6)
    net = initialize(grid, patch, spec)
    assert net.vertex_shape == (5, 4)
    assert net.face_shape == (4, 3)

    jets = evaluate_jets(patch, grid.uv[..., 0].ravel(),
                         grid.uv[..., 1].ravel())
    pts = jets[:, 0, :].reshape(5, 4, 3)
    for i in range(5):
        for j in range(4):
            n = net.normals[i, j]
            jet_ij = SurfaceJet2(*jets[i * 4 + j])
            assert np.allclose(n, oriented_normal(jet_ij))
            assert net.intercepts[i, j] == pytest.approx(
                -float(np.dot(pts[i, j], n)), abs=1e-14)

    # Sphere centers sit one radius along the normal above the surface
    # projection of the quad barycenter.
    for i in range(4):
        for j in range(3):
            bary = 0.25 * (pts[i, j] + pts[i + 1, j] + pts[i + 1, j + 1]
                           + pts[i, j + 1])
            _, feet, normals, _, _ = project_points(patch, bary)
            c = net.centers[i, j]
            r = net.radii[i, j]
            assert r > 0
            assert np.allclose(c, feet[0] + r * normals[0], atol=1e-9)


def test_initialize_flat_surface_propagates_curvature_error():
    ctrl = np.array([[[0., 0., 0.], [0., 1., 0.]],
                     [[1., 0., 0.], [1., 1., 0.]]])
    flat = BSplineSurface(1, 1, [0, 0, 1, 1], [0, 0, 1, 1], ctrl)
    grid = lattice_grid(flat, 3, 3)
    with pytest.raises(CurvatureSignError):
        initialize(grid, flat, CongruenceSpec("tau_min", tau=0.5))


def one_face_net(normals, h=1.0, center=(0, 0, 0), radius=1.0):
    normals = np.asarray(normals, float).reshape(2, 2, 3)
    intercepts = np.full((2, 2), float(h))
    centers = np.asarray(center, float).reshape(1, 1, 3)
    return LNet(normals, intercepts, centers, np.full((1, 1), radius))


def tangent_net():
    # Four distinct unit normals, all planes tangent to the unit sphere
    # centered at the origin: <n, 0> + 1 = 1.
    normals = np.array([[[1., 0., 0.], [0., 1., 0.]],
                        [[0., 0., 1.], [0.6, 0.8, 0.]]])
    return one_face_net(normals)


def test_verify_exact_and_perturbed():
    net = tangent_net()
    rep = verify(net)
    assert rep.max_contact_residual == 0.0
    assert rep.is_lnet
    assert rep.num_inadmissible_edges == 0

    bad = LNet(net.normals, net.intercepts + np.array([[0.0, 0.0],
                                                       [0.0, 1e-3]]),
               net.centers, net.radii)
    rep2 = verify(bad)
    assert rep2.max_contact_residual == pytest.approx(1e-3)
    assert not rep2.is_lnet

    # Doubled normals keep <n, c> + h = r, which is then no distance.
    rep3 = verify(LNet(2.0 * net.normals, net.intercepts, net.centers,
                       net.radii))
    assert rep3.max_contact_residual == 0.0
    assert rep3.max_unit_deviation == 1.0
    assert not rep3.is_lnet


def test_verify_counts_inadmissible_edges():
    normals = np.zeros((4, 4, 3))
    normals[..., 2] = 1.0
    intercepts = np.zeros((4, 4))
    ii, jj = np.meshgrid(np.arange(3.0), np.arange(3.0), indexing="ij")
    centers = np.stack([ii, jj, np.zeros_like(ii)], axis=2)
    radii = np.full((3, 3), 0.25)
    # Axis 0: concentric spheres on faces (0, 0) and (1, 0).
    centers[1, 0] = centers[0, 0]
    radii[1, 0] = 0.5
    # Axis 1: |c_a - c_b| == |r_a - r_b| (internally tangent, no cone).
    centers[2, 2] = (2.0, 1.5, 0.0)
    radii[2, 2] = 0.75
    rep = verify(LNet(normals, intercepts, centers, radii))
    assert rep.num_inadmissible_edges == 2
    assert not rep.is_lnet


def test_face_pairs_axis0_first_row_major():
    assert face_pairs(2, 3).tolist() == [[0, 3], [1, 4], [2, 5],
                                         [0, 1], [1, 2], [3, 4], [4, 5]]
    assert face_pairs(1, 1).shape == (0, 2)


def test_solved_net_is_exact(patch):
    net = solved_sphere_net(patch, 5, 5)
    rep = verify(net, tol_oc=1e-12)
    assert rep.is_lnet
    assert rep.num_inadmissible_edges == 0


def test_translational_offset_net_is_exact_and_constant_radius():
    net = translational_offset_net(5, 4, d=0.2)
    rep = verify(net, tol_oc=1e-12)
    assert rep.is_lnet
    assert np.all(net.radii == 0.2)
    # Sphere centers around each interior vertex lie on a plane parallel
    # to the vertex plane at distance equal to the common radius.
    vr, vc = net.vertex_shape
    for i in range(1, vr - 1):
        for j in range(1, vc - 1):
            n = net.normals[i, j]
            h = net.intercepts[i, j]
            for fi, fj in ((i - 1, j - 1), (i, j - 1), (i, j), (i - 1, j)):
                res = float(np.dot(n, net.centers[fi, fj])) + h - 0.2
                assert abs(res) <= 1e-12


def strip_points(net):
    """Contact points of the ``ell`` and ``gamma`` rows, ``(T, 8, 3)`` each."""
    pts = contact_points(net).reshape(-1, 3)
    ell, gamma = strip_incidences(*net.face_shape)
    return pts[ell], pts[gamma]


def test_strip_point_formulas():
    rng = np.random.default_rng(3)
    normals = rng.normal(size=(4, 3, 3))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    net = LNet(normals, rng.normal(size=(4, 3)),
               rng.normal(size=(3, 2, 3)), rng.uniform(0.1, 1.0, size=(3, 2)))
    ell, gamma = strip_points(net)
    # Axis-0 face triples start at faces (0, 0), (0, 1); axis 1 has none.
    assert ell.shape == (2, 8, 3)
    a, b = ell[0, :4], ell[0, 4:]
    c0, r0 = net.centers[0, 0], net.radii[0, 0]
    c1, r1 = net.centers[1, 0], net.radii[1, 0]
    c2, r2 = net.centers[2, 0], net.radii[2, 0]
    assert np.allclose(a[0], c0 - r0 * net.normals[1, 0])
    assert np.allclose(a[1], c1 - r1 * net.normals[1, 0])
    assert np.allclose(a[2], c1 - r1 * net.normals[2, 0])
    assert np.allclose(a[3], c2 - r2 * net.normals[2, 0])
    assert np.allclose(b[0], c0 - r0 * net.normals[1, 1])
    assert np.allclose(b[3], c2 - r2 * net.normals[2, 1])

    # Axis-0 plane triples start at vertices (0, 1), (1, 1); axis 1 at
    # vertices (1, 0), (2, 0).
    assert gamma.shape == (4, 8, 3)
    alpha, beta = gamma[0, :4], gamma[0, 4:]
    s0, s3 = net.centers[0, 0], net.centers[0, 1]
    assert np.allclose(alpha[0], s0 - net.radii[0, 0] * net.normals[0, 1])
    assert np.allclose(alpha[1], s0 - net.radii[0, 0] * net.normals[1, 1])
    assert np.allclose(beta[0], s3 - net.radii[0, 1] * net.normals[0, 1])
    alpha, beta = gamma[3, :4], gamma[3, 4:]
    assert np.allclose(alpha[3], net.centers[1, 1]
                       - net.radii[1, 1] * net.normals[2, 2])
    assert np.allclose(beta[2], net.centers[2, 1]
                       - net.radii[2, 1] * net.normals[2, 1])


def test_strip_points_zero_radius_and_sphere_membership():
    net = translational_offset_net(5, 4, d=0.35)
    ell, gamma = strip_points(net)
    # Face triples: 3 x 4 along axis 0, 5 x 2 along axis 1; plane
    # triples: 4 x 3 per axis.
    assert ell.shape == (22, 8, 3)
    assert gamma.shape == (24, 8, 3)
    # Contact points lie on their spheres.
    cp = contact_points(net).reshape(-1, 3)
    fr, fc = net.face_shape
    k = 0
    for i in range(fr):
        for j in range(fc):
            for _ in range(4):
                assert abs(np.linalg.norm(cp[k] - net.centers[i, j])
                           - abs(net.radii[i, j])) <= 1e-12
                k += 1
    # Zero radius: every contact point is the center itself.
    point = one_face_net(tangent_net().normals, h=0.0, center=(1, 2, 3),
                         radius=0.0)
    assert np.array_equal(contact_points(point),
                          np.tile([1.0, 2.0, 3.0], (1, 4, 1)))


def test_strip_segment_points_lie_on_their_plane():
    net = translational_offset_net(6, 5, d=0.25)
    ell, _ = strip_incidences(*net.face_shape)
    _, vert = contact_incidences(*net.face_shape)
    pts = contact_points(net).reshape(-1, 3)
    n = net.normals.reshape(-1, 3)
    h = net.intercepts.reshape(-1)
    # a0/a1, a2/a3, b0/b1 and b2/b3 are the contact points of two
    # spheres with one plane.
    for first, second in ((0, 1), (2, 3), (4, 5), (6, 7)):
        plane = vert[ell[:, first]]
        assert np.array_equal(plane, vert[ell[:, second]])
        for col in (first, second):
            res = np.vecdot(n[plane], pts[ell[:, col]]) + h[plane]
            assert np.max(np.abs(res)) <= 1e-12


def test_serialization_roundtrip_and_strictness(tmp_path):
    net = translational_offset_net(4, 3, d=0.15)
    path = tmp_path / "net.json"
    save_lnet(net, path)
    back = load_lnet(path)
    assert np.array_equal(back.normals, net.normals)
    assert np.array_equal(back.intercepts, net.intercepts)
    assert np.array_equal(back.centers, net.centers)
    assert np.array_equal(back.radii, net.radii)

    data = lnet_to_dict(net)
    data["color"] = "blue"
    with pytest.raises(ConfigError):
        lnet_from_dict(data)
    del data["color"]
    data["format_version"] = 99
    with pytest.raises(ConfigError):
        lnet_from_dict(data)
