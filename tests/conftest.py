"""Shared fixtures: reference surfaces and exactly-tangent net builders."""

import math
import sys

import numpy as np
import pytest
from hypothesis import settings

from lnets import LNet, PrincipalFrames, convex_paraboloid_patch
from lnets.bspline import _jet_rows, _oriented_forms

# Property tests draw the same examples on every run, with no time limit
# per example, so the suite stays deterministic.
settings.register_profile("lnets", derandomize=True, deadline=None)
settings.load_profile("lnets")

# Another directory's top-level conftest.py (perfbench/) is imported under
# the same module name "conftest" and may replace this module in
# sys.modules. The test modules here do ``from conftest import ...``.
_SELF = sys.modules[__name__]


def pytest_collect_file(file_path, parent):
    """Make ``conftest`` this module again before a file here is imported."""
    sys.modules["conftest"] = _SELF


@pytest.fixture(scope="session")
def patch():
    """Default convex test patch (z = (x^2 + 0.4 y^2) / 2)."""
    return convex_paraboloid_patch()


@pytest.fixture(scope="session")
def steep_patch():
    """Patch with curvatures (2, 1) at the center; umbilic at x = +-0.5."""
    return convex_paraboloid_patch(alpha=2.0, beta=1.0)


def normal_derivatives(jet):
    """Oriented normal and its parameter derivatives ``(n, n_u, n_v)``.

    The derivatives follow from the shape operator in the ``(f_u, f_v)``
    basis: ``n_u = -(s11 f_u + s21 f_v)`` and ``n_v = -(s12 f_u + s22
    f_v)``, relative to the oriented normal of ``oriented_normals``.
    """
    n, (s11, s12, s21, s22), _, _ = _oriented_forms(_jet_rows(jet))
    n_u = -(s11[0] * jet.f_u + s21[0] * jet.f_v)
    n_v = -(s12[0] * jet.f_u + s22[0] * jet.f_v)
    return n[0], n_u, n_v


def make_frame(kappa1, kappa2):
    """Axis-aligned frame used by closed-form conjugacy tests."""
    return PrincipalFrames(np.array([1.0, 0.0, 0.0]),
                           np.array([0.0, 1.0, 0.0]),
                           np.array([0.0, 0.0, 1.0]), kappa1, kappa2)


def random_frame(rng, min_gap=0.15):
    """Random positively curved, clearly non-umbilic frame.

    The tangent frame is a random rotation of the coordinate axes.
    """
    from scipy.spatial.transform import Rotation

    k2 = rng.uniform(0.3, 1.5)
    k1 = k2 * (1.0 + min_gap + rng.uniform(0.0, 1.5))
    rot = Rotation.random(random_state=int(rng.integers(0, 2 ** 31)))
    m = rot.as_matrix()
    return PrincipalFrames(m[:, 0], m[:, 1], m[:, 2], k1, k2)


def solved_sphere_net(surface, rows, cols, d=0.25):
    """Exactly tangent net: planes from the surface, spheres solved.

    Vertex planes are the oriented tangent planes of ``surface`` on a
    uniform parameter lattice; each face sphere is the unique solution of
    its four corner contact equations, so every contact residual vanishes
    to solver precision. On a quadratic graph the four corner planes are
    concurrent (solved radii ~ 0), so the net is offset by ``d`` to give
    the spheres honest positive radii; offsetting preserves contact.
    """
    from lnets.bspline import evaluate_jets, oriented_normals

    u0, u1, v0, v1 = surface.domain
    # Asymmetric margins: symmetric corner configurations would make the
    # four-plane contact system exactly singular.
    us = np.linspace(u0 + 0.06 * (u1 - u0), u1 - 0.13 * (u1 - u0), rows)
    vs = np.linspace(v0 + 0.11 * (v1 - v0), v1 - 0.07 * (v1 - v0), cols)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    jets = evaluate_jets(surface, uu.ravel(), vv.ravel())
    pts = jets[:, 0, :].reshape(rows, cols, 3)
    normals = oriented_normals(jets).reshape(rows, cols, 3)
    intercepts = -np.einsum("ijc,ijc->ij", pts, normals)

    centers = np.empty((rows - 1, cols - 1, 3))
    radii = np.empty((rows - 1, cols - 1))
    for i in range(rows - 1):
        for j in range(cols - 1):
            a = np.empty((4, 4))
            b = np.empty(4)
            for k, (da, db) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                a[k, :3] = normals[i + da, j + db]
                a[k, 3] = -1.0
                b[k] = -intercepts[i + da, j + db]
            sol = np.linalg.solve(a, b)
            centers[i, j] = sol[:3]
            radii[i, j] = sol[3]
    return LNet(normals, intercepts + d, centers, radii + d)


def mixed_patch(c=0.0):
    """Graph ``z = x^2 / 2 - (y - c)^3 / 6`` over ``[-1, 1]^2``.

    Biquadratic-by-bicubic Bezier patch whose Gaussian curvature is
    positive for ``y < c`` and negative for ``y > c``.
    """
    from lnets import BSplineSurface

    t = np.linspace(0.0, 1.0, 4)
    bern = np.array([[math.comb(3, k) * s ** k * (1.0 - s) ** (3 - k)
                      for k in range(4)] for s in t])
    zv = np.linalg.solve(bern, -((2.0 * t - 1.0) - c) ** 3 / 6.0)
    xs = np.array([-1.0, 0.0, 1.0])
    zu = np.array([0.5, -0.5, 0.5])
    ys = np.linspace(-1.0, 1.0, 4)
    ctrl = np.array([[[xs[i], ys[j], zu[i] + zv[j]] for j in range(4)]
                     for i in range(3)])
    return BSplineSurface(2, 3, [0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1],
                          ctrl)


def translational_offset_net(rows_f, cols_f, d=0.2, bend_at=0):
    """Exact constant-radius net: an offset of a point-sphere net.

    Face points form a translational net (all vertex quads are
    parallelograms), vertex planes pass through their adjacent face
    points, and the whole structure is offset by ``d`` so that every face
    sphere has radius exactly ``d``. The second profile is straight up to
    face column ``bend_at``; for ``bend_at >= 2`` the vertex normals of
    columns ``0..bend_at`` coincide within each row.
    """
    if rows_f < 3 or cols_f < 3:
        raise ValueError("fixture needs at least a 3x3 face grid")
    gi = np.arange(rows_f)
    gj = np.arange(cols_f)
    g = np.stack([0.3 * gi, np.zeros_like(gi, dtype=float),
                  0.05 * gi ** 2], axis=1)
    h = np.stack([np.zeros_like(gj, dtype=float), 0.25 * gj,
                  0.04 * np.maximum(gj - bend_at, 0) ** 2], axis=1)
    b = g[:, None, :] + h[None, :, :]

    # Difference vectors extended by linear extrapolation so that
    # boundary vertices get planes distinct from their neighbors' (the
    # extrapolated factor is unconstrained there).
    def extend(diffs):
        lo = 2.0 * diffs[0] - diffs[1]
        hi = 2.0 * diffs[-1] - diffs[-2]
        return np.concatenate([[lo], diffs, [hi]])

    dg = extend(np.diff(g, axis=0))  # index i-1 lives at dg[i]
    dh = extend(np.diff(h, axis=0))
    vr, vc = rows_f + 1, cols_f + 1
    normals = np.empty((vr, vc, 3))
    intercepts = np.empty((vr, vc))
    for i in range(vr):
        for j in range(vc):
            n = np.cross(dg[i], dh[j])
            n /= np.linalg.norm(n)
            if n[2] < 0:
                n = -n
            anchor = b[i - 1 if i >= 1 else 0, j - 1 if j >= 1 else 0]
            normals[i, j] = n
            intercepts[i, j] = -float(np.dot(anchor, n))
    net0 = LNet(normals, intercepts, b, np.zeros((rows_f, cols_f)))
    return LNet(net0.normals, net0.intercepts + d, net0.centers,
                net0.radii + d)
