"""Oriented contact elements, lifts, offsetting and tangent cones."""

import numpy as np
import pytest

from lnets import (AdmissibilityError, IsotropicHyperplane, LineClass,
                   MinkowskiPoint, OrPlane, OrSphere, SphereFamily,
                   classify_direction, common_tangent_normals, cone_vertex,
                   contact_residual, lift, minkowski_inner, offset)
from lnets.geometry import tangent_normal_circle


def test_minkowski_inner_signature_cases():
    assert minkowski_inner((0, 0, 0, 1), (0, 0, 0, 1)) == -1.0
    assert minkowski_inner((0, 0, 1, 1), (0, 0, 1, 1)) == 0.0
    assert minkowski_inner((1, 0, 0, 2), (1, 0, 0, 2)) == -3.0


def test_lift_sphere_and_plane():
    s = lift(OrSphere((1, 2, 3), 4))
    assert isinstance(s, MinkowskiPoint)
    assert np.array_equal(s.x, [1, 2, 3, 4])
    p = lift(OrPlane((0, 0, 1), -2))
    assert isinstance(p, IsotropicHyperplane)
    assert np.array_equal(p.N, [0, 0, 1, 1])
    assert p.h == -2.0
    origin = lift(OrSphere((0, 0, 0), 0))
    assert np.array_equal(origin.x, np.zeros(4))


def test_classify_direction():
    assert classify_direction((1, 0, 0, 0)) is LineClass.SPACE_LIKE
    assert classify_direction((0, 0, 1, 1)) is LineClass.LIGHT_LIKE
    assert classify_direction((0, 0, 0, 1)) is LineClass.TIME_LIKE
    with pytest.raises(ValueError):
        classify_direction((0, 0, 0, 0))


def test_contact_residual_examples():
    assert contact_residual(OrSphere((0, 0, 1), 1), OrPlane((0, 0, 1), 0)) == 0.0
    assert contact_residual(OrSphere((0, 0, 0), 0), OrPlane((0, 0, 1), 0)) == 0.0
    assert contact_residual(OrSphere((0, 0, 3), 1), OrPlane((0, 0, 1), 0)) == 2.0


def test_contact_residual_rejects_non_unit_normal():
    with pytest.raises(ValueError):
        contact_residual(OrSphere((0, 0, 0), 0), OrPlane((0, 0, 2), 0))


def test_offset_examples_and_contact_invariance():
    s = offset(OrSphere((0, 0, 1), 1), 1.0)
    p = offset(OrPlane((0, 0, 1), 0), 1.0)
    assert s.radius == 2.0 and p.intercept == 1.0
    assert contact_residual(s, p) == contact_residual(
        OrSphere((0, 0, 1), 1), OrPlane((0, 0, 1), 0)) == 0.0


def test_offset_roundtrip_is_exact_identity():
    # Dyadic radii/intercepts/offsets: the additions round to nothing, so
    # the roundtrip must reproduce every component bit for bit.
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = float(rng.integers(-256, 256)) / 64.0
        d = float(rng.integers(-256, 256)) / 64.0
        s = OrSphere(rng.normal(size=3), r)
        back = offset(offset(s, d), -d)
        assert np.array_equal(back.center, s.center)
        assert back.radius == s.radius
        p = OrPlane(_unit(rng.normal(size=3)), r)
        pb = offset(offset(p, d), -d)
        assert np.array_equal(pb.normal, p.normal)
        assert pb.intercept == p.intercept


def _unit(v):
    return v / np.linalg.norm(v)


def _random_admissible_family(rng):
    c0 = rng.normal(size=3)
    r0 = rng.normal()
    direction = _unit(rng.normal(size=3))
    r1 = r0 + rng.normal()
    dist = abs(r1 - r0) + rng.uniform(0.5, 3.0)
    return SphereFamily(OrSphere(c0, r0), OrSphere(c0 + dist * direction, r1))


def test_common_tangent_normals_point_pair():
    fam = SphereFamily(OrSphere((0, 0, 0), 0), OrSphere((4, 0, 0), 0))
    planes = common_tangent_normals(fam, 2)
    for p in planes:
        assert abs(p.normal[0]) <= 1e-15
        assert abs(contact_residual(fam.s0, p)) <= 1e-12
        assert abs(contact_residual(fam.s1, p)) <= 1e-12


def test_common_tangent_normals_cylinder_case():
    fam = SphereFamily(OrSphere((0, 0, 0), 1), OrSphere((4, 0, 0), 1))
    for p in common_tangent_normals(fam, 5):
        assert abs(p.normal[0]) <= 1e-15
        assert abs(contact_residual(fam.s0, p)) <= 1e-12
        assert abs(contact_residual(fam.s1, p)) <= 1e-12


def test_common_tangent_normals_cone_case():
    fam = SphereFamily(OrSphere((0, 0, 0), 0), OrSphere((4, 0, 0), 2))
    planes = common_tangent_normals(fam, 4)
    for p in planes:
        assert p.normal[0] == pytest.approx(0.5, abs=1e-15)
    first = planes[0].normal
    assert np.allclose(first, [0.5, np.sqrt(0.75), 0.0], atol=1e-15)


def test_common_tangent_normals_reject_inadmissible():
    with pytest.raises(AdmissibilityError):
        SphereFamily(OrSphere((0, 0, 0), 0), OrSphere((0, 0, 0.5), 1))


def random_admissible_pairs(rng, n):
    """``n`` sphere pairs ``(c0, r0, c1, r1)`` with ``|c1-c0| > |r1-r0|``."""
    c0 = rng.normal(size=(n, 3))
    r0 = rng.normal(size=n)
    r1 = r0 + rng.normal(size=n)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    dist = np.abs(r1 - r0) + rng.uniform(0.5, 3.0, size=n)
    return c0, r0, c0 + dist[:, None] * direction, r1


def test_batched_tangent_normal_circle_samples_common_tangent_normals():
    rng = np.random.default_rng(19)
    c0, r0, c1, r1 = random_admissible_pairs(rng, 200)
    alpha, w_hat, e1, e2 = tangent_normal_circle(c0, r0, c1, r1)
    rho = np.sqrt(1.0 - alpha ** 2)
    for t in np.linspace(0.0, 2.0 * np.pi, 9):
        n = alpha[:, None] * w_hat + rho[:, None] * (np.cos(t) * e1
                                                     + np.sin(t) * e2)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, rtol=0,
                           atol=1e-14)
        assert np.allclose(np.vecdot(n, c1 - c0), r1 - r0, rtol=0,
                           atol=1e-13)


def test_batched_tangent_normal_circle_names_first_inadmissible_row():
    rng = np.random.default_rng(23)
    c0, r0, c1, r1 = random_admissible_pairs(rng, 6)
    # Rows 2 and 4 are concentric with distinct radii.
    c1[[2, 4]] = c0[[2, 4]]
    with pytest.raises(AdmissibilityError) as info:
        tangent_normal_circle(c0, r0, c1, r1)
    assert info.value.index == 2


def test_tangent_planes_touch_whole_linear_family():
    rng = np.random.default_rng(11)
    for _ in range(25):
        fam = _random_admissible_family(rng)
        for p in common_tangent_normals(fam, 7):
            for t in (-1.0, 0.0, 0.3, 1.0, 2.0):
                assert abs(contact_residual(fam.at(t), p)) <= 1e-12


def test_cone_vertex_examples():
    fam = SphereFamily(OrSphere((0, 0, 0), 0), OrSphere((4, 0, 0), 2))
    assert np.allclose(cone_vertex(fam), [0, 0, 0])
    # Opposite signed radii; t* = r0 / (r0 - r1) = 0.5 -> the midpoint.
    fam = SphereFamily(OrSphere((0, 0, 0), 2), OrSphere((6, 0, 0), -2))
    assert np.allclose(cone_vertex(fam), [3, 0, 0])
    fam = SphereFamily(OrSphere((0, 0, 0), 1), OrSphere((4, 0, 0), 1))
    assert cone_vertex(fam) is None


def test_lift_respects_contact():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = _unit(rng.normal(size=3))
        h = rng.normal()
        p = OrPlane(n, h)
        c = rng.normal(size=3)
        s = OrSphere(c, float(np.dot(n, c)) + h)
        assert abs(contact_residual(s, p)) <= 1e-12
        lifted_s = lift(s)
        lifted_p = lift(p)
        # The lifted point lies on the lifted hyperplane <<N, X>> + h = 0.
        assert abs(minkowski_inner(lifted_p.N, lifted_s.x)
                   + lifted_p.h) <= 1e-12


def test_cone_lifts_are_space_like():
    rng = np.random.default_rng(17)
    for _ in range(50):
        fam = _random_admissible_family(rng)
        g = lift(fam.s1).x - lift(fam.s0).x
        assert classify_direction(g) is LineClass.SPACE_LIKE
