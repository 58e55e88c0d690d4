"""Surface jets, principal frames, projection and the surface schema."""

import json
import math

import numpy as np
import pytest

from lnets import (BSplineSurface, ConfigError, CurvatureSignError,
                   IrregularError, LnetsError, SurfaceJet2, UmbilicError,
                   bspline, convex_paraboloid_patch, evaluate_jet,
                   load_surface, oriented_normal, principal_frame,
                   principal_frames, project_points, save_surface)
from lnets.bspline import (_SEED_BLOCK, _jet_rows, _seed_select,
                           evaluate_jets, oriented_normals,
                           surface_from_dict, surface_to_dict)

from conftest import make_frame, mixed_patch, normal_derivatives


def bilinear_patch():
    ctrl = np.array([[[0., 0., 0.], [0., 1., 0.]],
                     [[1., 0., 0.], [1., 1., 0.]]])
    return BSplineSurface(1, 1, [0, 0, 1, 1], [0, 0, 1, 1], ctrl)


def graph_jet(zxx, zyy, zxy=0.0):
    return SurfaceJet2((0, 0, 0), (1, 0, 0), (0, 1, 0),
                       (0, 0, zxx), (0, 0, zxy), (0, 0, zyy))


def test_bilinear_patch_jet():
    jet = evaluate_jet(bilinear_patch(), 0.5, 0.5)
    assert np.allclose(jet.f, [0.5, 0.5, 0.0])
    assert np.allclose(jet.f_u, [1, 0, 0])
    assert np.allclose(jet.f_v, [0, 1, 0])
    assert np.array_equal(jet.f_uu, np.zeros(3))


def test_corner_interpolation(patch):
    for (u, v), (i, j) in (((0, 0), (0, 0)), ((1, 0), (-1, 0)),
                           ((0, 1), (0, -1)), ((1, 1), (-1, -1))):
        jet = evaluate_jet(patch, u, v)
        assert np.allclose(jet.f, patch.control_grid[i, j], atol=1e-15)


def test_out_of_domain_rejected(patch):
    with pytest.raises(ValueError):
        evaluate_jet(patch, -0.01, 0.5)
    with pytest.raises(ValueError):
        evaluate_jet(patch, 0.5, 1.01)


def test_nan_parameter_is_outside_the_domain(patch):
    # A NaN compares false with both domain ends.
    for us, vs in (([0.2, math.nan], [0.5, 0.5]), ([0.5], [math.nan])):
        with pytest.raises(ValueError, match="outside the surface domain"):
            evaluate_jets(patch, us, vs)


def _naive_point_highprec(surf, u, v):
    """Independent de Boor point evaluation in extended precision, so the
    finite-difference oracle is not limited by double roundoff."""
    from test_kernels import naive_basis

    knots_u = surf.knots_u.astype(np.longdouble)
    knots_v = surf.knots_v.astype(np.longdouble)
    ctrl = surf.control_grid.astype(np.longdouble)
    out = np.zeros(3, dtype=np.longdouble)
    for i in range(ctrl.shape[0]):
        bu = naive_basis(knots_u, i, surf.degree_u, np.longdouble(u))
        if bu == 0.0:
            continue
        for j in range(ctrl.shape[1]):
            bv = naive_basis(knots_v, j, surf.degree_v, np.longdouble(v))
            out += bu * bv * ctrl[i, j]
    return out


def test_random_biquadratic_jet_matches_finite_differences():
    rng = np.random.default_rng(23)
    ctrl = rng.normal(size=(5, 5, 3))
    ctrl[..., 0] += 3.0 * np.arange(5)[:, None]
    ctrl[..., 1] += 3.0 * np.arange(5)[None, :]
    knots = np.array([0, 0, 0, 0.4, 0.7, 1, 1, 1], dtype=float)
    surf = BSplineSurface(2, 2, knots, knots, ctrl)
    h = np.longdouble(1e-5)

    def f(u, v):
        return _naive_point_highprec(surf, u, v)

    for u, v in rng.uniform(0.05, 0.95, size=(6, 2)):
        jet = evaluate_jet(surf, u, v)
        pairs = (
            (jet.f_u, (f(u + h, v) - f(u - h, v)) / (2 * h)),
            (jet.f_v, (f(u, v + h) - f(u, v - h)) / (2 * h)),
            (jet.f_uu, (f(u + h, v) - 2 * f(u, v) + f(u - h, v)) / h ** 2),
            (jet.f_vv, (f(u, v + h) - 2 * f(u, v) + f(u, v - h)) / h ** 2),
            (jet.f_uv, (f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h)
                        + f(u - h, v - h)) / (4 * h * h)),
            (jet.f, f(u, v)),
        )
        for got, want in pairs:
            want = want.astype(float)
            assert np.linalg.norm(got - want) <= 1e-6 * max(
                1.0, float(np.linalg.norm(want)))


def test_jet_rejects_parallel_tangents():
    with pytest.raises(ValueError):
        SurfaceJet2((0, 0, 0), (1, 0, 0), (2, 0, 0),
                    (0, 0, 1), (0, 0, 0), (0, 0, 1))


def test_parallel_tangents_raise_irregular_error():
    assert issubclass(IrregularError, LnetsError)
    assert issubclass(IrregularError, ValueError)
    with pytest.raises(IrregularError, match="^jet is not regular"):
        SurfaceJet2((0, 0, 0), (1, 0, 0), (2, 0, 0),
                    (0, 0, 1), (0, 0, 0), (0, 0, 1))
    jets = np.stack([_jet_rows(graph_jet(1.0, 0.5))[0]] * 3)
    jets[2, 2] = -3.0 * jets[2, 1]
    for batch in (oriented_normals, principal_frames):
        with pytest.raises(IrregularError) as info:
            batch(jets)
        assert info.value.index == 2


def test_principal_frame_diagonal_graph():
    fr = principal_frame(graph_jet(2.0, 1.0))
    assert np.allclose(fr.n, [0, 0, 1])
    assert fr.kappa1 == pytest.approx(2.0)
    assert fr.kappa2 == pytest.approx(1.0)
    assert np.allclose(fr.t1, [1, 0, 0])
    assert np.allclose(fr.t2, [0, 1, 0])


def test_principal_frame_umbilic_and_flat_errors():
    with pytest.raises(UmbilicError):
        principal_frame(graph_jet(1.0, 1.0))
    with pytest.raises(CurvatureSignError):
        principal_frame(graph_jet(0.0, 0.0))
    with pytest.raises(CurvatureSignError):
        principal_frame(graph_jet(1.0, -1.0))


def test_frame_orientation_flips_for_downward_graph():
    # Concave-down graph: inward normal points down, curvatures positive.
    fr = principal_frame(graph_jet(-2.0, -1.0))
    assert np.allclose(fr.n, [0, 0, -1])
    assert fr.kappa1 == pytest.approx(2.0)
    assert fr.kappa2 == pytest.approx(1.0)


def test_frame_is_right_handed_orthonormal(patch):
    rng = np.random.default_rng(31)
    for u, v in rng.uniform(0.02, 0.98, size=(40, 2)):
        fr = principal_frame(evaluate_jet(patch, u, v))
        assert np.linalg.norm(fr.n - np.cross(fr.t1, fr.t2)) <= 1e-9
        for a, b in ((fr.t1, fr.t2), (fr.t1, fr.n), (fr.t2, fr.n)):
            assert abs(np.dot(a, b)) <= 1e-12
        assert fr.kappa1 >= fr.kappa2 > 0


def test_weingarten_against_normal_field_differences(patch):
    rng = np.random.default_rng(37)
    h = 1e-6
    for u, v in rng.uniform(0.1, 0.9, size=(10, 2)):
        jet = evaluate_jet(patch, u, v)
        fr = principal_frame(jet)
        e = float(np.dot(jet.f_u, jet.f_u))
        f = float(np.dot(jet.f_u, jet.f_v))
        g = float(np.dot(jet.f_v, jet.f_v))
        for t, kappa in ((fr.t1, fr.kappa1), (fr.t2, fr.kappa2)):
            b1 = float(np.dot(t, jet.f_u))
            b2 = float(np.dot(t, jet.f_v))
            det = e * g - f * f
            w = np.array([(g * b1 - f * b2) / det, (e * b2 - f * b1) / det])
            n_p = oriented_normal(evaluate_jet(patch, u + h * w[0],
                                               v + h * w[1]))
            n_m = oriented_normal(evaluate_jet(patch, u - h * w[0],
                                               v - h * w[1]))
            dn = (n_p - n_m) / (2 * h)
            assert abs(float(np.dot(dn, t)) + kappa) <= 1e-6 * (1 + kappa)


def test_normal_derivatives_match_finite_differences(patch):
    h = 1e-6
    for u, v in ((0.3, 0.7), (0.62, 0.41)):
        jet = evaluate_jet(patch, u, v)
        n, n_u, n_v = normal_derivatives(jet)
        fd_u = (oriented_normal(evaluate_jet(patch, u + h, v))
                - oriented_normal(evaluate_jet(patch, u - h, v))) / (2 * h)
        fd_v = (oriented_normal(evaluate_jet(patch, u, v + h))
                - oriented_normal(evaluate_jet(patch, u, v - h))) / (2 * h)
        assert np.allclose(n, oriented_normal(jet))
        assert np.linalg.norm(n_u - fd_u) <= 1e-6
        assert np.linalg.norm(n_v - fd_v) <= 1e-6


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.4), (2.0, 1.0),
                                        (-0.7, -1.3)])
def test_oriented_normals_rows_equal_oriented_normal_bit_for_bit(alpha,
                                                                 beta):
    # Graph z = (alpha x^2 + beta y^2) / 2; negative coefficients flip the
    # orientation rule.
    base = convex_paraboloid_patch(abs(alpha), abs(beta))
    ctrl = base.control_grid.copy()
    ctrl[..., 2] *= np.sign(alpha)
    surface = BSplineSurface(2, 2, base.knots_u, base.knots_v, ctrl)
    us, vs = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7),
                         indexing="ij")
    jets = evaluate_jets(surface, us.ravel(), vs.ravel())
    normals = oriented_normals(jets)
    assert normals.shape == (jets.shape[0], 3)
    for k in range(jets.shape[0]):
        want = oriented_normal(SurfaceJet2(*jets[k]))
        assert np.array_equal(normals[k], want)
    assert np.sign(normals[0, 2]) == np.sign(alpha)


def test_oriented_normals_saddle_row_raises_with_its_index(patch):
    jets = evaluate_jets(patch, np.linspace(0.1, 0.9, 6),
                         np.linspace(0.2, 0.8, 6))
    jets[3] = _jet_rows(graph_jet(1.0, -1.0))[0]
    with pytest.raises(CurvatureSignError) as info:
        oriented_normals(jets)
    assert info.value.index == 3
    jets[1] = _jet_rows(graph_jet(0.0, 0.0))[0]
    jets[1, 2] = 2.0 * jets[1, 1]
    with pytest.raises(ValueError, match="not regular") as info:
        oriented_normals(jets)
    assert info.value.index == 1


def test_project_points_locates_a_footpoint_without_normal():
    surface = mixed_patch(0.12)  # K < 0 for y > 0.12
    xy = np.array([[0.3, -0.2], [0.1, 0.0], [0.2, 0.4], [0.0, 0.6]])
    z = xy[:, 0] ** 2 / 2.0 - (xy[:, 1] - 0.12) ** 3 / 6.0
    with pytest.raises(CurvatureSignError, match=r"u=0\.6, v=0\.7") as info:
        project_points(surface, np.column_stack([xy, z]))
    assert info.value.index == 2
    assert np.allclose(info.value.uv, [0.6, 0.7], atol=1e-12)


def test_project_points_rejects_a_non_finite_query(patch):
    for bad in (math.inf, -math.inf, math.nan):
        xs = np.array([[0.1, 0.2, 0.5], [0.0, 0.0, 0.7], [bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match="query point 2 is not finite"
                           ) as info:
            project_points(patch, xs)
        assert info.value.index == 2


def test_euler_formula_for_normal_curvature(patch):
    # Independent normal-curvature oracle from the raw fundamental forms.
    rng = np.random.default_rng(41)
    for u, v in rng.uniform(0.05, 0.95, size=(10, 2)):
        jet = evaluate_jet(patch, u, v)
        fr = principal_frame(jet)
        n = oriented_normal(jet)
        e = float(np.dot(jet.f_u, jet.f_u))
        f = float(np.dot(jet.f_u, jet.f_v))
        g = float(np.dot(jet.f_v, jet.f_v))
        ll = float(np.dot(jet.f_uu, n))
        mm = float(np.dot(jet.f_uv, n))
        nn = float(np.dot(jet.f_vv, n))
        for phi in np.linspace(0, np.pi, 13):
            t = math.cos(phi) * fr.t1 + math.sin(phi) * fr.t2
            b1 = float(np.dot(t, jet.f_u))
            b2 = float(np.dot(t, jet.f_v))
            det = e * g - f * f
            w1 = (g * b1 - f * b2) / det
            w2 = (e * b2 - f * b1) / det
            kn = ((ll * w1 * w1 + 2 * mm * w1 * w2 + nn * w2 * w2)
                  / (e * w1 * w1 + 2 * f * w1 * w2 + g * w2 * w2))
            want = fr.kappa1 * math.cos(phi) ** 2 \
                + fr.kappa2 * math.sin(phi) ** 2
            assert abs(kn - want) <= 1e-8 * (1 + abs(want))


def test_closest_point_fixed_point(patch):
    rng = np.random.default_rng(43)
    for u, v in rng.uniform(0.05, 0.95, size=(10, 2)):
        x = evaluate_jet(patch, u, v).f
        _, feet, _, conv, _ = project_points(patch, x)
        assert conv[0]
        assert np.linalg.norm(feet[0] - x) <= 1e-10


def test_closest_point_normal_offset_oracle(patch):
    # A point offset along the normal by a small fraction of the local
    # curvature radius projects back to its footpoint.
    for u, v in ((0.37, 0.81), (0.5, 0.5), (0.12, 0.33)):
        jet = evaluate_jet(patch, u, v)
        fr = principal_frame(jet)
        delta = 0.01 / fr.kappa1
        _, feet, _, conv, _ = project_points(patch, jet.f + delta * fr.n)
        assert conv[0]
        assert np.linalg.norm(feet[0] - jet.f) <= 1e-8


def test_closest_point_gradient_vanishes_interior(patch):
    rng = np.random.default_rng(47)
    xs = rng.uniform(-0.3, 0.3, size=(20, 3))
    xs[:, 2] = rng.uniform(0.3, 0.8, size=20)
    uv, feet, _, conv, _ = project_points(patch, xs)
    for k in range(xs.shape[0]):
        if not conv[k]:
            continue
        u, v = uv[k]
        if not (0.01 < u < 0.99 and 0.01 < v < 0.99):
            continue
        jet = evaluate_jet(patch, u, v)
        diff = feet[k] - xs[k]
        grad = np.array([np.dot(diff, jet.f_u), np.dot(diff, jet.f_v)])
        assert np.linalg.norm(grad) <= 1e-10


def test_project_points_warm_jets_leave_the_result_unchanged(patch):
    rng = np.random.default_rng(5)
    xs = rng.uniform(-0.3, 0.3, size=(40, 3))
    xs[:, 2] = rng.uniform(0.3, 0.8, size=40)
    xs[:3, 0] = 5.0  # clamped at u = 1: these fall back to their seeds
    uv0, _, _, conv0, jets0 = project_points(patch, xs)
    assert np.array_equal(jets0, evaluate_jets(patch, uv0[:, 0], uv0[:, 1]))
    moved = xs + 1e-3 * rng.standard_normal(xs.shape)
    cold = project_points(patch, moved, seeds_uv=uv0)
    warm = project_points(patch, moved, seeds_uv=uv0, seed_jets=jets0)
    assert not conv0[:3].any() and not warm[3][:3].any() and warm[3][3:].all()
    for got, want in zip(warm, cold):
        assert np.array_equal(got, want)
    uv, jets = warm[0], warm[4]
    assert np.array_equal(jets, evaluate_jets(patch, uv[:, 0], uv[:, 1]))


def test_closest_point_clamps_exterior_queries(patch):
    uv, _, _, _, _ = project_points(patch, np.array([5.0, 0.0, 0.5]))
    assert uv[0, 0] == 1.0  # clamped to the domain edge nearest the query


def test_warm_starts_that_do_not_converge_keep_their_warm_seeds(
        patch, monkeypatch):
    # No Newton step: every warm start fails and falls back to itself, row
    # for row with its jets, not to a grid seed.
    monkeypatch.setattr(bspline, "PROJECTION_MAX_ITER", 0)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-0.8, 0.8, size=(30, 3))
    xs[:, 2] = rng.uniform(0.0, 0.6, size=30)
    seeds = rng.uniform(0.0, 1.0, size=(30, 2))
    jets = evaluate_jets(patch, seeds[:, 0], seeds[:, 1])
    uv, feet, normals, conv, got_jets = project_points(
        patch, xs, seeds_uv=seeds, seed_jets=jets)
    assert not conv.any()
    assert np.array_equal(uv, seeds)
    assert np.array_equal(got_jets, jets)
    assert np.array_equal(feet, jets[:, 0])
    assert np.array_equal(normals, bspline.oriented_normals(jets))
    cold = project_points(patch, xs)
    assert not np.any(np.all(cold[0] == seeds, axis=1))


def test_blocked_seed_select_equals_one_shot_argmin():
    # Integer seed lattice; half-integer queries tie between 2 or 4 seeds.
    gx, gy = np.meshgrid(np.arange(24.0), np.arange(24.0), indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(576)], axis=1)
    rng = np.random.default_rng(7)
    n = 2 * _SEED_BLOCK + 37
    xs = rng.uniform(-1.0, 24.0, size=(n, 3))
    xs[::3, :2] = rng.integers(0, 23, size=(len(xs[::3]), 2)) + 0.5
    xs[::3, 2] = 0.0
    d2 = ((pts[None, :, :] - xs[:, None, :]) ** 2).sum(axis=2)
    assert np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1).max() == 4
    assert np.array_equal(_seed_select(pts, xs), np.argmin(d2, axis=1))


@pytest.mark.parametrize("shift", [0.0, 1e6, -3e3])
def test_seed_select_is_nearest_within_its_bound_at_ulp_near_ties(shift):
    # Midpoints of neighbouring seeds of a jittered lattice, moved by at
    # most one ulp per coordinate: their two nearest seeds tie or nearly tie.
    rng = np.random.default_rng(11)
    gx, gy = np.meshgrid(np.arange(24.0), np.arange(24.0), indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), 0.1 * rng.standard_normal(576)],
                   axis=1) + shift
    n = 2 * _SEED_BLOCK + 37
    a = rng.integers(0, 23, size=(n, 2)) @ np.array([24, 1])
    b = a + np.where(rng.random(n) < 0.5, 1, 24)
    xs = 0.5 * (pts[a] + pts[b])
    xs = np.nextafter(xs, xs + rng.choice([-1.0, 0.0, 1.0], size=xs.shape))
    d2 = ((pts[None, :, :] - xs[:, None, :]) ** 2).sum(axis=2)
    gap = np.diff(np.sort(d2, axis=1)[:, :2], axis=1)
    assert np.all(gap < 1e-9) and np.any(gap == 0.0)
    # The screen's 18 u (|x| + R)^2, plus 5 u (|x| + R)^2 for each of the
    # two squared distances computed here, in the seeds' centred frame.
    centre = pts.mean(axis=0)
    reach = (np.linalg.norm(xs - centre, axis=1)
             + np.linalg.norm(pts - centre, axis=1).max())
    bound = 32.0 * (np.finfo(float).eps / 2.0) * reach ** 2
    best = _seed_select(pts, xs)
    excess = d2[np.arange(n), best] - d2.min(axis=1)
    assert np.all(excess <= bound)


def test_closest_point_is_deterministic_on_symmetric_queries(patch):
    x = np.array([0.0, 0.0, 2.0])
    uv1, feet1, _, _, _ = project_points(patch, x)
    uv2, feet2, _, _, _ = project_points(patch, x)
    assert np.array_equal(uv1, uv2)
    assert np.array_equal(feet1, feet2)


def test_surface_schema_roundtrip_and_strictness(patch, tmp_path):
    path = tmp_path / "surf.json"
    save_surface(patch, path)
    back = load_surface(path)
    assert np.array_equal(back.control_grid, patch.control_grid)
    assert np.array_equal(back.knots_u, patch.knots_u)
    data = surface_to_dict(patch)
    data["extra"] = 1
    with pytest.raises(ConfigError):
        surface_from_dict(data)
    del data["extra"]
    del data["degree_u"]
    with pytest.raises(ConfigError):
        surface_from_dict(data)


def test_surface_rejects_non_finite_input(patch, tmp_path):
    knots = [0, 0, 0, 1, 1, 1]
    ctrl = patch.control_grid.copy()
    ctrl[1, 1, 2] = np.nan
    with pytest.raises(ValueError, match="control_grid must be finite"):
        BSplineSurface(2, 2, knots, knots, ctrl)
    with pytest.raises(ValueError, match="knots_v must be finite"):
        BSplineSurface(2, 2, knots, [0, 0, 0, np.inf, np.inf, np.inf],
                       patch.control_grid)
    # Python's json reads and writes NaN; loading reports the bad field
    # instead of failing later in tracing.
    data = surface_to_dict(patch)
    data["control_points"][1][1][2] = math.nan
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigError, match="control_grid must be finite"):
        load_surface(path)


def test_surface_validation_rejects_bad_knots():
    ctrl = np.zeros((3, 3, 3))
    with pytest.raises(ValueError):
        BSplineSurface(2, 2, [0, 0, 0.5, 1, 1, 1], [0, 0, 0, 1, 1, 1], ctrl)
    with pytest.raises(ValueError):
        BSplineSurface(2, 2, [0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1], ctrl)


def test_surface_rejects_knots_above_the_degree(tmp_path):
    # A triple interior knot leaves a biquadratic surface discontinuous.
    clamped = [0, 0, 0, 1, 1, 1]
    triple = [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1]
    ctrl = np.random.default_rng(3).normal(size=(6, 3, 3))
    with pytest.raises(ValueError, match="interior knot of multiplicity 3"):
        BSplineSurface(2, 2, triple, clamped, ctrl)
    with pytest.raises(ValueError, match="interior knot"):
        BSplineSurface(2, 2, clamped, triple, ctrl.transpose(1, 0, 2))
    # An end knot repeated beyond degree + 1 would zero a basis function.
    with pytest.raises(ValueError, match="clamped"):
        BSplineSurface(2, 2, [0, 0, 0, 0, 0.5, 1, 1, 1, 1], clamped, ctrl)
    data = {"degree_u": 2, "degree_v": 2, "knots_u": triple,
            "knots_v": clamped, "control_points": ctrl.tolist()}
    with pytest.raises(ConfigError, match="interior knot"):
        surface_from_dict(data)
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigError, match="interior knot"):
        load_surface(path)
    # A double interior knot stays valid: the surface is C0 there.
    surf = BSplineSurface(2, 2, [0, 0, 0, 0.5, 0.5, 1, 1, 1], clamped,
                          ctrl[:5])
    assert surf.coeffs.shape == (2, 1, 3, 3, 3)
    left, right = evaluate_jets(surf, [0.5 - 1e-12, 0.5], [0.3, 0.3])[:, 0]
    assert np.allclose(left, right, atol=1e-10)
    # There the surface interpolates control row 2 (Bernstein in v).
    assert np.allclose(right, [0.49, 0.42, 0.09] @ ctrl[2], atol=1e-14)


def test_builtin_patch_is_positively_curved_without_umbilics(patch):
    us = np.linspace(0, 1, 41)
    min_gap = np.inf
    for u in us:
        for v in us:
            fr = principal_frame(evaluate_jet(patch, u, v))
            min_gap = min(min_gap, (fr.kappa1 - fr.kappa2) / fr.kappa1)
    assert min_gap > 0.05


def test_make_frame_helper_matches_graph():
    fr = make_frame(2.0, 1.0)
    got = principal_frame(graph_jet(2.0, 1.0))
    assert np.allclose(fr.t1, got.t1) and np.allclose(fr.n, got.n)
