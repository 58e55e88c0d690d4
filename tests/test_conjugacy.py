"""Partner solves, dual curvature radii, classification, special radii."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lnets import (AngleField, ContactClass, CongruenceSpec, FlatError,
                   GridSpec, SingularRadiusError, classify_contact,
                   dual_curvature_record, evaluate_jet, lconj_partner,
                   midsphere_radius, principal_frame, pseudo_lconj_partner,
                   special_angles, trace_grid)
from lnets.conjugacy import DualCurvature, pseudo_lconj_partners

from conftest import make_frame, normal_derivatives, random_frame


def direction_gap(a, b):
    """Sine of the angle between two 2D directions (sign-insensitive)."""
    a = np.asarray(a, float) / np.linalg.norm(a)
    b = np.asarray(b, float) / np.linalg.norm(b)
    return abs(a[0] * b[1] - a[1] * b[0])


def form9(frame, r, a, b):
    rho1, rho2 = 1 / frame.kappa1, 1 / frame.kappa2
    return (rho2 - r) * a[0] * b[0] + (rho1 - r) * a[1] * b[1]


def form7(frame, r, a, b):
    k1, k2 = frame.kappa1, frame.kappa2
    return ((k1 - r * k1 * k1) * a[0] * b[0]
            + (k2 - r * k2 * k2) * a[1] * b[1])


def ordinary_conjugate(frame, a):
    """Reference classical conjugate of ``a``: the unit solution ``b`` of
    ``kappa1 a1 b1 + kappa2 a2 b2 = 0``, up to sign."""
    b = np.array([frame.kappa2 * a[1], -frame.kappa1 * a[0]])
    return b / np.linalg.norm(b)


def lifted_form(frame, r):
    """Reference second-form coefficients ``(L_P, M_P, N_P)`` of the lifted
    congruence surface in a principal parameterization: ``kappa_i - r
    kappa_i^2``; the mixed one vanishes in principal coordinates."""
    k1, k2 = frame.kappa1, frame.kappa2
    return k1 - r * k1 * k1, 0.0, k2 - r * k2 * k2


def minkowski_inner(a, b):
    """Inner product of signature ``(+, +, +, -)`` on 4-space."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - a[3] * b[3]


def test_lifted_form_examples():
    assert lifted_form(make_frame(2.0, 1.0), 0.25) == (1.0, 0.0, 0.75)
    assert lifted_form(make_frame(2.0, 1.0), 0.0) == (2.0, 0.0, 1.0)


def test_lconj_partner_examples():
    fr = make_frame(2.0, 1.0)
    b = lconj_partner(fr, 0.25, (1.0, 1.0))
    assert direction_gap(b, (1.0, -3.0)) <= 1e-15
    assert np.allclose(b, np.array([1.0, -3.0]) / np.sqrt(10.0))
    assert np.allclose(lconj_partner(fr, 0.25, (1.0, 0.0)), [0.0, 1.0])
    # Mid-radius congruence: the diagonal is self-conjugate.
    b = lconj_partner(fr, 0.75, (1.0, 1.0))
    assert np.allclose(b, np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_pseudo_partner_examples():
    fr = make_frame(2.0, 1.0)
    b = pseudo_lconj_partner(fr, 0.25, (1.0, 1.0))
    assert np.allclose(b, np.array([3.0, -4.0]) / 5.0)
    assert np.allclose(pseudo_lconj_partner(fr, 0.25, (1.0, 0.0)), [0, 1])
    b0 = pseudo_lconj_partner(fr, 0.0, (1.0, 1.0))
    assert np.allclose(b0, np.array([1.0, -2.0]) / np.sqrt(5.0))


def test_partner_satisfies_its_equation():
    rng = np.random.default_rng(3)
    for _ in range(100):
        fr = random_frame(rng)
        rho1 = 1 / fr.kappa1
        r = rng.uniform(0.05, 0.95) * rho1
        phi = rng.uniform(0, math.pi)
        a = np.array([math.cos(phi), math.sin(phi)])
        assert abs(form9(fr, r, a, lconj_partner(fr, r, a))) <= 1e-12
        assert abs(form7(fr, r, a, pseudo_lconj_partner(fr, r, a))) <= 1e-12


@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.01, 0.99),
       st.floats(-math.pi, math.pi))
def test_the_two_partners_are_one_relation_mapped_by_d(k_a, k_b, rk1, phi):
    # D = diag(1 - r kappa1, 1 - r kappa2) maps f's principal coordinates
    # to those of the center surface f + r n.
    fr = make_frame(max(k_a, k_b), min(k_a, k_b))
    r = rk1 / fr.kappa1
    d = np.array([1.0 - r * fr.kappa1, 1.0 - r * fr.kappa2])
    a = np.array([math.cos(phi), math.sin(phi)])
    mapped = lconj_partner(fr, r, d * a) / d
    assert direction_gap(pseudo_lconj_partner(fr, r, a), mapped) <= 1e-13


def seed_column_defect(surface, spec, grid):
    """Largest relative defect ``|F(A, B)| / sqrt(F(A, A) F(B, B))`` of
    ``F = II - r III`` at the interior vertices of the seed column, the
    column holding the domain center.

    ``A`` and ``B`` are the pushforwards of the central ``uv`` differences
    along axis 1 and axis 0, in the vertex's principal frame.
    """
    uv = grid.uv
    u0, u1, v0, v1 = surface.domain
    center = (0.5 * (u0 + u1), 0.5 * (v0 + v1))
    j = int(np.argwhere(np.all(uv == center, axis=-1))[0, 1])
    worst = 0.0
    for i in range(1, grid.rows - 1):
        jet = evaluate_jet(surface, *uv[i, j])
        fr = principal_frame(jet)
        r = spec.radii([fr.kappa1], uv[i, j][None])[0]
        a, b = (np.array([(d[0] * jet.f_u + d[1] * jet.f_v) @ t
                          for t in (fr.t1, fr.t2)])
                for d in (uv[i, j + 1] - uv[i, j - 1],
                          uv[i + 1, j] - uv[i - 1, j]))
        worst = max(worst, abs(form7(fr, r, a, b))
                    / math.sqrt(form7(fr, r, a, a) * form7(fr, r, b, b)))
    return worst


def test_traced_seed_column_is_laguerre_conjugate(patch):
    # The acceptance tracing config at h and h/2. The second family is
    # traced only along the seed curve, so only the seed column is an
    # L-conjugate net; there the defect falls as h^2 (ratio ~4).
    spec = CongruenceSpec("tau_min", tau=0.75)
    field = AngleField.constant(math.pi / 4)
    defects = []
    for n, h in ((16, 0.13), (32, 0.065)):
        grid = trace_grid(patch, spec, field, GridSpec(n, n, h))
        assert (grid.rows, grid.cols) == (n, n // 2)
        defects.append(seed_column_defect(patch, spec, grid))
    assert defects[0] >= 3.0 * defects[1]


def test_partner_involution():
    rng = np.random.default_rng(5)
    for _ in range(100):
        fr = random_frame(rng)
        r = rng.uniform(0.05, 0.9) / fr.kappa1
        phi = rng.uniform(0.05, math.pi / 2 - 0.05)
        a = np.array([math.cos(phi), math.sin(phi)])
        back = lconj_partner(fr, r, lconj_partner(fr, r, a))
        assert direction_gap(back, a) <= 1e-12


def test_form_is_symmetric():
    fr = make_frame(1.7, 0.6)
    a, b = (0.3, 0.8), (-0.5, 0.4)
    assert form9(fr, 0.2, a, b) == form9(fr, 0.2, b, a)


def test_reduction_to_classical_conjugacy_at_zero_radius():
    rng = np.random.default_rng(7)
    for _ in range(50):
        fr = random_frame(rng)
        phi = rng.uniform(0, math.pi)
        a = np.array([math.cos(phi), math.sin(phi)])
        classic = ordinary_conjugate(fr, a)
        assert direction_gap(lconj_partner(fr, 0.0, a), classic) <= 1e-12
        assert direction_gap(pseudo_lconj_partner(fr, 0.0, a),
                             classic) <= 1e-12


def lifted_partner_direction(frame, r, a_bar):
    """Partner of ``a_bar`` computed through the 4-space form.

    Map to the ordinarily conjugate coefficient pair, solve the lifted
    bilinear form with the principal-path coefficients, map back.
    """
    a = ordinary_conjugate(frame, a_bar)
    l_p, _, n_p = lifted_form(frame, r)
    b = np.array([n_p * a[1], -l_p * a[0]])
    return ordinary_conjugate(frame, b / np.linalg.norm(b))


def test_model_equivalence_of_partner_computations():
    rng = np.random.default_rng(11)
    for _ in range(200):
        fr = random_frame(rng)
        rho1, rho2 = 1 / fr.kappa1, 1 / fr.kappa2
        # Cover the full congruence range (avoiding the parabolic radius).
        r = rng.uniform(0.05, 0.95) * rho1 if rng.random() < 0.5 \
            else rho1 + rng.uniform(0.1, 0.9) * (rho2 - rho1)
        if abs(r - rho1) < 0.02 * rho1:
            continue
        phi = rng.uniform(0, math.pi)
        a_bar = np.array([math.cos(phi), math.sin(phi)])
        direct = lconj_partner(fr, r, a_bar)
        lifted = lifted_partner_direction(fr, r, a_bar)
        assert direction_gap(direct, lifted) <= 1e-10


def test_general_lift_path_matches_principal_path(patch):
    """Coefficients measured on the actual lifted congruence surface.

    Built from exact surface jets: S = (f + r n, r) with constant r and
    isotropic normal N = (n, 1); first-derivative identities give the
    form coefficients without finite differences.
    """
    r = 0.2
    for u, v in ((0.5, 0.5), (0.31, 0.5), (0.7, 0.5)):
        jet = evaluate_jet(patch, u, v)
        fr = principal_frame(jet)
        n, n_u, n_v = normal_derivatives(jet)
        s_u = np.append(jet.f_u + r * n_u, 0.0)
        s_v = np.append(jet.f_v + r * n_v, 0.0)
        nn_u = np.append(n_u, 0.0)
        nn_v = np.append(n_v, 0.0)
        # <<S_uu, N>> = -<<S_u, N_u>> and its mixed and v variants hold
        # because N is normal to the tangent plane.
        l_p, m_p, n_p = (-minkowski_inner(s_u, nn_u),
                         -minkowski_inner(s_u, nn_v),
                         -minkowski_inner(s_v, nn_v))

        # Along the symmetry line v = 0.5 the parameterization is
        # principal, so the mixed coefficient must vanish and the
        # diagonal ones reduce to the principal-path values scaled by
        # the parameter speeds.
        e = float(np.dot(jet.f_u, jet.f_u))
        g = float(np.dot(jet.f_v, jet.f_v))
        princ_l, _, princ_n = lifted_form(fr, r)
        scale = max(abs(l_p), abs(n_p))
        assert abs(m_p) <= 1e-10 * scale
        assert abs(l_p / e - princ_l) <= 1e-8 * (1 + abs(princ_l))
        assert abs(n_p / g - princ_n) <= 1e-8 * (1 + abs(princ_n))


def test_dual_curvature_examples():
    rec = dual_curvature_record(make_frame(2.0, 1.0), 0.25)
    assert rec.rho_s1 == pytest.approx(0.75)
    assert rec.rho_s2 == pytest.approx(0.25)
    assert rec.Lambda == pytest.approx(0.1875)
    assert rec.Lambda == rec.rho_s1 * rec.rho_s2


def test_classification_truth_table():
    assert classify_contact(DualCurvature(0.75, 0.25), 1.0) \
        is ContactClass.L_ELLIPTIC
    assert classify_contact(DualCurvature(0.25, -0.25), 1.0) \
        is ContactClass.L_HYPERBOLIC
    assert classify_contact(DualCurvature(0.5, 0.0), 1.0) \
        is ContactClass.L_PARABOLIC
    assert classify_contact(DualCurvature(0.0, 0.0), 1.0) \
        is ContactClass.L_FLAT
    with pytest.raises(ValueError):
        classify_contact(DualCurvature(0.1, 0.1), 0.0)


def test_classify_element_uses_radius_scale():
    # A frame's dual radii, classified on the scale max(rho_1, rho_2).
    fr = make_frame(2.0, 1.0)
    scale = max(1.0 / fr.kappa1, 1.0 / fr.kappa2)
    for r, cls in ((0.25, ContactClass.L_ELLIPTIC),
                   (0.75, ContactClass.L_HYPERBOLIC),
                   (0.5, ContactClass.L_PARABOLIC)):
        assert classify_contact(dual_curvature_record(fr, r), scale) is cls


def test_special_angles():
    mid = special_angles(DualCurvature(0.4, -0.4))
    assert mid.characteristic is None
    assert mid.asymptotic == pytest.approx(math.pi / 4, abs=1e-12)
    ell = special_angles(DualCurvature(0.75, 0.25))
    assert ell.asymptotic is None
    assert ell.characteristic == pytest.approx(math.pi / 3, abs=1e-12)
    par = special_angles(DualCurvature(0.5, 0.0))
    assert par.asymptotic == pytest.approx(math.pi / 2)
    assert par.characteristic is None
    par1 = special_angles(DualCurvature(0.0, 0.5))
    assert par1.asymptotic == 0.0
    with pytest.raises(FlatError):
        special_angles(DualCurvature(0.0, 0.0))


def test_parabolic_partner_is_principal():
    # Radius equal to a principal radius: the vanishing slot's principal
    # direction is conjugate to everything, itself included.
    fr = make_frame(2.0, 1.0)
    b = lconj_partner(fr, 1.0, (0.3, 0.9))  # rho_2 - r = 0
    assert np.allclose(b, [1.0, 0.0])
    assert np.allclose(lconj_partner(fr, 1.0, (1.0, 0.0)), [1.0, 0.0])
    b2 = lconj_partner(fr, 0.5, (0.3, 0.9))  # rho_1 - r = 0
    assert abs(form9(fr, 0.5, (0.3, 0.9), b2)) <= 1e-12
    assert np.allclose(lconj_partner(fr, 0.5, (0.0, 1.0)), [0.0, 1.0])


def test_flat_element_raises():
    fr = make_frame(1.0, 1.0)  # umbilic frame built by hand
    with pytest.raises(FlatError):
        lconj_partner(fr, 1.0, (1.0, 0.0))


def test_midsphere_radius():
    assert midsphere_radius(make_frame(2.0, 1.0)) == pytest.approx(0.75)
    assert midsphere_radius(make_frame(0.25, 0.25)) == pytest.approx(4.0)
    fr = make_frame(2.0, 0.5)
    r_m = midsphere_radius(fr)
    d = 0.3
    shifted = make_frame(1.0 / (0.5 + d), 1.0 / (2.0 + d))
    assert midsphere_radius(shifted) == pytest.approx(r_m + d, abs=1e-12)


def test_midsphere_gives_hyperbolic_diagonal_form():
    rng = np.random.default_rng(13)
    for _ in range(50):
        fr = random_frame(rng)
        r_m = midsphere_radius(fr)
        rec = dual_curvature_record(fr, r_m)
        assert rec.rho_s1 == pytest.approx(-rec.rho_s2, abs=1e-14)
        ang = special_angles(rec)
        assert ang.asymptotic == pytest.approx(math.pi / 4, abs=1e-10)
        # The conjugacy form reduces to a1 b1 - a2 b2 (up to the factor).
        a, b = rng.normal(size=2), rng.normal(size=2)
        got = form9(fr, r_m, a, b) / rec.rho_s1
        assert abs(got - (a[0] * b[0] - a[1] * b[1])) <= 1e-12


def test_offset_invariance_of_dual_radii_and_partners(patch):
    rng = np.random.default_rng(17)
    for u, v in rng.uniform(0.1, 0.9, size=(20, 2)):
        fr = principal_frame(evaluate_jet(patch, u, v))
        rho1, rho2 = 1 / fr.kappa1, 1 / fr.kappa2
        r = 0.6 * rho1
        for d in (0.05 * rho1, -0.05 * rho1):
            shifted = make_frame(1.0 / (rho1 + d), 1.0 / (rho2 + d))
            rec = dual_curvature_record(fr, r)
            rec_d = dual_curvature_record(shifted, r + d)
            assert abs(rec.rho_s1 - rec_d.rho_s1) <= 1e-10
            assert abs(rec.rho_s2 - rec_d.rho_s2) <= 1e-10
            phi = rng.uniform(0, math.pi)
            a = np.array([math.cos(phi), math.sin(phi)])
            assert direction_gap(lconj_partner(fr, r, a),
                                 lconj_partner(shifted, r + d, a)) <= 1e-10


def test_orthogonal_conjugate_pairs_are_principal_only():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 200:
        fr = random_frame(rng)
        r = rng.uniform(0.05, 0.9) / fr.kappa1
        rec = dual_curvature_record(fr, r)
        phi = rng.uniform(math.radians(0.5), math.radians(89.5))
        a = np.array([math.cos(phi), math.sin(phi)])
        a_perp = np.array([-a[1], a[0]])
        gap = abs(rec.rho_s1 - rec.rho_s2)
        assert abs(form9(fr, r, a, a_perp)) > 1e-6 * gap
        checked += 1
    # The principal pair itself vanishes identically.
    fr = make_frame(2.0, 1.0)
    assert form9(fr, 0.25, (1, 0), (0, 1)) == 0.0


def test_congruence_spec_validation():
    with pytest.raises(ValueError):
        CongruenceSpec("tau_min", tau=1.2)
    with pytest.raises(ValueError):
        CongruenceSpec("tau_min", tau=0.0)
    with pytest.raises(ValueError):
        CongruenceSpec("nope")
    fr = make_frame(2.0, 1.0)
    spec = CongruenceSpec("tau_min", tau=0.75)
    assert spec.radii([fr.kappa1])[0] == pytest.approx(0.375)
    good = CongruenceSpec("explicit", value=0.3)
    assert good.radii([fr.kappa1])[0] == 0.3
    with pytest.raises(SingularRadiusError):
        CongruenceSpec("explicit", value=0.5).radii([fr.kappa1])
    with pytest.raises(SingularRadiusError):
        CongruenceSpec("explicit", value=-1.0).radii([fr.kappa1])
    field = CongruenceSpec("explicit", value=lambda u, v: 0.1 + 0.1 * u)
    assert field.radii([fr.kappa1], [(1.0, 0.0)])[0] == pytest.approx(0.2)


def test_batched_radii_and_partners_name_first_offending_row():
    spec = CongruenceSpec("explicit", value=0.5)
    assert np.array_equal(spec.radii([1.0, 1.5]), [0.5, 0.5])
    with pytest.raises(SingularRadiusError, match="reaches") as info:
        spec.radii([1.0, 2.5, 3.0])
    assert info.value.index == 1
    # r = 1 / kappa makes both contact-curve coefficients vanish.
    k1 = np.array([2.0, 1.0, 2.0])
    k2 = np.array([1.0, 1.0, 2.0])
    with pytest.raises(FlatError) as info:
        pseudo_lconj_partners(k1, k2, np.array([0.25, 1.0, 0.5]),
                              np.ones((3, 2)))
    assert info.value.index == 1
