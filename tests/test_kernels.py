"""The per-span jet kernel against Cox-de Boor references."""

import numpy as np
import pytest

from lnets import BSplineSurface, evaluate_jet, evaluate_jets, kernels

# Jet slots of each derivative order: f; f_u, f_v; f_uu, f_uv, f_vv.
ORDERS = ([0], [1, 2], [3, 4, 5])


def naive_basis(knots, i, p, u):
    """Textbook Cox-de Boor recursion, written independently of the
    kernel implementation (0/0 := 0)."""
    if p == 0:
        last = u == knots[-1] and knots[i] <= u <= knots[i + 1]
        return 1.0 if (knots[i] <= u < knots[i + 1] or last) else 0.0
    left = 0.0
    if knots[i + p] != knots[i]:
        left = (u - knots[i]) / (knots[i + p] - knots[i]) \
            * naive_basis(knots, i, p - 1, u)
    right = 0.0
    if knots[i + p + 1] != knots[i + 1]:
        right = (knots[i + p + 1] - u) / (knots[i + p + 1] - knots[i + 1]) \
            * naive_basis(knots, i + 1, p - 1, u)
    return left + right


def naive_point(surface, u, v):
    n_u, n_v = surface.control_grid.shape[:2]
    out = np.zeros(3)
    for i in range(n_u):
        bu = naive_basis(surface.knots_u, i, surface.degree_u, u)
        if bu == 0.0:
            continue
        for j in range(n_v):
            bv = naive_basis(surface.knots_v, j, surface.degree_v, v)
            out += bu * bv * surface.control_grid[i, j]
    return out


def _ders_basis_batch_np(knots, degree, spans, params, n_ders):
    """All nonzero basis functions and derivatives, vectorized over points
    (The NURBS Book, A2.3).

    Returns an array of shape ``(n_ders+1, N, degree+1)``.
    """
    p = degree
    n = params.shape[0]
    du = min(n_ders, p)

    left = np.empty((n, p + 1))
    right = np.empty((n, p + 1))
    ndu = np.empty((n, p + 1, p + 1))
    ndu[:, 0, 0] = 1.0
    for j in range(1, p + 1):
        left[:, j] = params - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - params
        saved = np.zeros(n)
        for r in range(j):
            ndu[:, j, r] = right[:, r + 1] + left[:, j - r]
            temp = ndu[:, r, j - 1] / ndu[:, j, r]
            ndu[:, r, j] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        ndu[:, j, j] = saved

    ders = np.zeros((n_ders + 1, n, p + 1))
    ders[0] = ndu[:, :, p]

    a = np.empty((n, 2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[:, 0, 0] = 1.0
        for k in range(1, du + 1):
            d = np.zeros(n)
            rk = r - k
            pk = p - k
            if r >= k:
                a[:, s2, 0] = a[:, s1, 0] / ndu[:, pk + 1, rk]
                d = a[:, s2, 0] * ndu[:, rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[:, s2, j] = (a[:, s1, j] - a[:, s1, j - 1]) / ndu[:, pk + 1, rk + j]
                d = d + a[:, s2, j] * ndu[:, rk + j, pk]
            if r <= pk:
                a[:, s2, k] = -a[:, s1, k - 1] / ndu[:, pk + 1, r]
                d = d + a[:, s2, k] * ndu[:, r, pk]
            ders[k, :, r] = d
            s1, s2 = s2, s1

    fact = float(p)
    for k in range(1, du + 1):
        ders[k] *= fact
        fact *= p - k
    return ders


def reference_jets(surface, us, vs):
    """``(N, 6, 3)`` jets by the Cox-de Boor recursion on the knot vectors:
    right-continuous knot spans, the last one at the right end."""
    ctrl = surface.control_grid
    out = np.empty((us.shape[0], 6, 3))
    rows = []
    for knots, p, n_ctrl, params in (
            (surface.knots_u, surface.degree_u, ctrl.shape[0], us),
            (surface.knots_v, surface.degree_v, ctrl.shape[1], vs)):
        spans = np.clip(np.searchsorted(knots, params, side="right") - 1,
                        p, n_ctrl - 1)
        idx = (spans - p)[:, None] + np.arange(p + 1)
        rows.append((idx, _ders_basis_batch_np(knots, p, spans, params, 2)))
    (iu, bu), (jv, bv) = rows
    block = ctrl[iu[:, :, None], jv[:, None, :]]
    for slot, (a, b) in enumerate(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                   (0, 2))):
        out[:, slot] = np.einsum("ni,nj,nijc->nc", bu[a], bv[b], block)
    return out


def random_surface(rng, degree_u, degree_v, n_u, n_v, double_knot=False):
    def clamped(p, n):
        inner = np.sort(rng.uniform(0.1, 0.9, n - p - 1))
        if double_knot:
            inner[1] = inner[0]
        return np.concatenate([np.zeros(p + 1), inner, np.ones(p + 1)])

    ctrl = rng.normal(size=(n_u, n_v, 3))
    return BSplineSurface(degree_u, degree_v, clamped(degree_u, n_u),
                          clamped(degree_v, n_v), ctrl)


def sample_points(rng, surface):
    """Random points, every pair of knot values and the domain corners."""
    ku, kv = np.meshgrid(np.unique(surface.knots_u),
                         np.unique(surface.knots_v), indexing="ij")
    u0, u1, v0, v1 = surface.domain
    us = np.concatenate([rng.uniform(u0, u1, 300), ku.ravel(),
                         [u0, u0, u1, u1]])
    vs = np.concatenate([rng.uniform(v0, v1, 300), kv.ravel(),
                         [v0, v1, v0, v1]])
    return us, vs


SURFACES = [pytest.param(du, dv, nu, nv, double_knot,
                         id=f"{du}-{dv}-{nu}-{nv}" + "-double" * double_knot)
            for du, dv, nu, nv, double_knot in (
                (1, 1, 2, 2, False), (1, 1, 4, 5, False),
                (2, 2, 3, 3, False), (2, 2, 6, 5, False),
                (2, 3, 6, 7, False), (3, 2, 7, 5, False),
                (3, 3, 8, 5, False), (3, 3, 7, 8, True),
                (2, 2, 6, 6, True))]


@pytest.mark.parametrize("du,dv,nu,nv,double_knot", SURFACES)
def test_jets_match_cox_de_boor_reference(du, dv, nu, nv, double_knot):
    rng = np.random.default_rng(101 + du + 10 * dv + nu)
    surf = random_surface(rng, du, dv, nu, nv, double_knot)
    us, vs = sample_points(rng, surf)
    got = evaluate_jets(surf, us, vs)
    want = reference_jets(surf, us, vs)
    for slots in ORDERS:
        scale = np.max(np.abs(want[:, slots]))
        assert np.max(np.abs(got[:, slots] - want[:, slots])) <= 1e-13 * scale


@pytest.mark.parametrize("du,dv,nu,nv,double_knot", SURFACES)
def test_batch_rows_equal_one_point_evaluations(du, dv, nu, nv, double_knot):
    rng = np.random.default_rng(7 + du + 10 * dv)
    surf = random_surface(rng, du, dv, nu, nv, double_knot)
    us, vs = sample_points(rng, surf)
    batch = evaluate_jets(surf, us, vs)
    for k, (u, v) in enumerate(zip(us, vs)):
        assert np.array_equal(batch[k], evaluate_jets(surf, [u], [v])[0])


def test_points_match_naive_recursion():
    rng = np.random.default_rng(5)
    surf = random_surface(rng, 3, 2, 7, 6)
    pts = np.concatenate([rng.uniform(0, 1, size=(20, 2)),
                          [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]])
    for u, v in pts:
        got = evaluate_jets(surf, [u], [v])[0, 0]
        assert np.allclose(got, naive_point(surf, u, v), atol=1e-12)


def test_derivatives_match_naive_finite_differences():
    rng = np.random.default_rng(6)
    surf = random_surface(rng, 3, 3, 7, 7)
    h = 1e-6
    for u, v in rng.uniform(0.05, 0.95, size=(8, 2)):
        jet = evaluate_jets(surf, [u], [v])[0]
        fd_u = (naive_point(surf, u + h, v) - naive_point(surf, u - h, v)) \
            / (2 * h)
        fd_v = (naive_point(surf, u, v + h) - naive_point(surf, u, v - h)) \
            / (2 * h)
        fd_uu = (naive_point(surf, u + h, v) - 2 * naive_point(surf, u, v)
                 + naive_point(surf, u - h, v)) / h ** 2
        assert np.allclose(jet[1], fd_u, atol=1e-6)
        assert np.allclose(jet[2], fd_v, atol=1e-6)
        assert np.allclose(jet[3], fd_uu, atol=2e-3)


def test_find_spans_clamps_to_valid_range():
    # Span lookup: right-continuous, the right domain end in the last span.
    knots = np.array([0., 0., 0., 0.25, 0.5, 0.75, 1., 1., 1.])
    breaks, _, _ = kernels.power_coefficients(knots, knots, 2, 2,
                                              np.zeros((6, 6, 3)))
    params = np.array([0.0, 0.1, 0.25, 0.5, 0.99, 1.0])
    spans, rows = kernels._power_rows(breaks, 2, params)
    assert breaks.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert spans.tolist() == [0, 0, 1, 2, 3, 3]
    # Local parameter s in [0, 1]: 0 at a span's left knot, 1 at the end.
    assert rows[:, 0, 1] == pytest.approx([0.0, 0.4, 0.0, 0.0, 0.96, 1.0])


def test_degree_one_second_derivatives_vanish():
    ctrl = np.array([[[0., 0., 0.], [0., 1., 0.]],
                     [[1., 0., 0.], [1., 1., 0.]]])
    surf = BSplineSurface(1, 1, [0, 0, 1, 1], [0, 0, 1, 1], ctrl)
    jet = evaluate_jet(surf, 0.5, 0.5)
    assert np.allclose(jet.f, [0.5, 0.5, 0.0])
    assert np.allclose(jet.f_u, [1, 0, 0]) and np.allclose(jet.f_v, [0, 1, 0])
    for d in (jet.f_uu, jet.f_uv, jet.f_vv):
        assert np.array_equal(d, np.zeros(3))
