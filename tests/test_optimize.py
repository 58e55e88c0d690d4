"""Residual blocks, analytic Jacobians, and the refinement loop."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from lnets import (AngleField, CongruenceSpec, CurvatureSignError, GridSpec,
                   IterationRecord, LNet, QuadGrid, Schedule, Weights,
                   assemble, bspline, evaluate_jets, initialize, kernels,
                   lm_run, optimize, project_points, trace_grid, verify)
from lnets.lnet import face_pairs
from lnets.optimize import (BandLayout, _attempt_step, lattice_order, pack,
                            solve_normal_equations, unpack)
from lnets.tessellate import dedupe_mesh, tessellate

from conftest import mixed_patch, solved_sphere_net, translational_offset_net

# The weights of the contact-only pass of ``lm_run``.
CONTACT = Weights(w_lfair=0.0, w_gfair=0.0, w_prox=0.0, w_tan=0.0, w_td=0.0)


def layout_of(jac, order, elim=()):
    """The band layout of ``jac``'s sparsity pattern in ``order``, with the
    columns ``elim`` eliminated when that pays."""
    return BandLayout(jac.indptr, jac.indices, jac.shape, order, elim)


def lattice_net(patch, rows, cols, tau=0.6):
    u0, u1, v0, v1 = patch.domain
    us = np.linspace(u0 + 0.06, u1 - 0.11, rows)
    vs = np.linspace(v0 + 0.09, v1 - 0.07, cols)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    grid = QuadGrid(np.stack([uu, vv], axis=2), patch.domain)
    return initialize(grid, patch, CongruenceSpec("tau_min", tau=tau))


def test_pack_unpack_roundtrip():
    net = translational_offset_net(4, 3, d=0.2)
    x = pack(net)
    assert x.size == 4 * (4 * 3) + 4 * (5 * 4)
    back = unpack(x, net.vertex_shape)
    assert np.array_equal(back.normals, net.normals)
    assert np.array_equal(back.centers, net.centers)
    assert np.array_equal(back.radii, net.radii)
    assert np.array_equal(back.intercepts, net.intercepts)


def test_unit_residual_example(patch):
    net = translational_offset_net(3, 3, d=0.2)
    normals = net.normals.copy()
    normals[0, 0] = (0.0, 0.0, 2.0)
    bad = LNet(normals, net.intercepts, net.centers, net.radii)
    system = assemble(bad, patch, Weights())
    raw = system.raw_energies(pack(bad))
    # |n|^2 - 1 = 3 on the modified plane; the others are unit.
    unit_res = system._block_raw(pack(bad), "unit")
    assert unit_res[0] == pytest.approx(3.0)
    assert raw["unit"] == pytest.approx(9.0, abs=1e-9)
    w = Weights(w_unit=10.0)
    assert w.w_unit * raw["unit"] == pytest.approx(90.0, abs=1e-8)


def test_oc_residual_zero_on_exact_net(patch):
    net = translational_offset_net(4, 4, d=0.2)
    system = assemble(net, patch, Weights())
    raw = system.raw_energies(pack(net))
    assert raw["oc"] <= 1e-28


def test_td_residual_example(patch):
    # Two spheres at center distance 5 with equal radii: residual 25.
    normals = np.zeros((2, 3, 3))
    normals[..., 2] = 1.0
    intercepts = np.zeros((2, 3))
    centers = np.array([[[0., 0., 0.], [5., 0., 0.]]])
    radii = np.array([[1.0, 1.0]])
    net = LNet(normals, intercepts, centers, radii)
    system = assemble(net, patch, Weights(w_td=1.0))
    td = system._block_raw(pack(net), "td")
    assert td.shape == (1,)
    assert td[0] == pytest.approx(25.0)
    assert system.raw_energies(pack(net))["td"] == pytest.approx(625.0)


def test_td_pairs_are_the_shared_face_pair_table(patch):
    net = translational_offset_net(4, 3, d=0.2)
    system = assemble(net, patch, Weights())
    assert np.array_equal(system.td_pairs, face_pairs(4, 3))


def test_oc_jacobian_closed_form(patch):
    net = translational_offset_net(3, 3, d=0.2)
    w = Weights(w_oc=1.0, w_lfair=0, w_gfair=0, w_prox=0, w_tan=0, w_td=0,
                w_unit=0, w_reg=1e-4)
    system = assemble(net, patch, w)
    x = pack(net)
    jac = system.jacobian(x).toarray()
    # First contact row: face 0, corner vertex 0.
    f = system.oc_face[0]
    p = system.oc_vert[0]
    row = jac[0]
    c, r, n, h = system._split(x)
    assert np.allclose(row[4 * f:4 * f + 3], n[p])
    assert row[4 * f + 3] == -1.0
    base = system.plane_base
    assert np.allclose(row[base + 4 * p:base + 4 * p + 3], c[f])
    assert row[base + 4 * p + 3] == 1.0


def assert_jacobian_matches_finite_differences(system, x):
    # Every block is at most quadratic in x, so central differences are
    # exact up to rounding.
    analytic = system.jacobian(x, "analytic").toarray()
    fd = system.jacobian(x, "finite_diff").toarray()
    scale = max(1.0, np.max(np.abs(analytic)))
    assert np.max(np.abs(analytic - fd)) <= 1e-9 * scale


@pytest.mark.parametrize("rows,cols", [(4, 4), (7, 5)])
def test_jacobian_matches_finite_differences(patch, rows, cols):
    # 3x3 and 6x4 face grids with randomized perturbations.
    rng = np.random.default_rng(rows * 10 + cols)
    net = lattice_net(patch, rows, cols)
    x = pack(net) + 1e-3 * rng.standard_normal(pack(net).size)
    net_p = unpack(x, net.vertex_shape)
    assert_jacobian_matches_finite_differences(
        assemble(net_p, patch, Weights(w_td=1e-3)), x)


def test_jacobian_matches_finite_differences_at_constant_radii(patch):
    # Equal radii make partials such as r_i - r_j exactly zero; they stay
    # stored entries of the pattern.
    net = translational_offset_net(5, 4, d=0.2)
    system = assemble(net, patch, Weights(w_td=1e-3))
    assert_jacobian_matches_finite_differences(system, pack(net))


def reference_fairness(net, axis):
    """``lfair`` and ``gfair`` rows of one axis, term by term.

    Rows follow the documented table order: row-major by the first face
    of each face triple and by the first plane of each plane triple.
    """
    c, r, n = net.centers, net.radii, net.normals
    fr, fc = net.face_shape
    vr, vc = net.vertex_shape
    e = (1, 0) if axis == 0 else (0, 1)
    x = (0, 1) if axis == 0 else (1, 0)

    def at(a, idx, *steps):
        return a[tuple(idx[k] + sum(s[k] for s in steps) for k in (0, 1))]

    lf = []
    for i in range(fr - 2 * e[0]):
        for j in range(fc - 2 * e[1]):
            f = (i, j)
            ci, cj, ck = at(c, f), at(c, f, e), at(c, f, e, e)
            ri, rj, rk = at(r, f), at(r, f, e), at(r, f, e, e)
            n0, n1 = at(n, f, e), at(n, f, e, e)
            n3, n2 = at(n, f, e, x), at(n, f, e, e, x)
            lf += [2.0 * cj - ci - ck + (ri - rj) * n0 + (rk - rj) * n1,
                   2.0 * cj - ci - ck + (ri - rj) * n3 + (rk - rj) * n2]
    gf = []
    for i in range(x[0], vr - 2 * e[0] - x[0]):
        for j in range(x[1], vc - 2 * e[1] - x[1]):
            p = (i, j)
            s0 = (i - x[0], j - x[1])
            ni, nj, nk = at(n, p), at(n, p, e), at(n, p, e, e)
            r0, r1 = at(r, s0), at(r, s0, e)
            r3, r2 = at(r, p), at(r, p, e)
            gf += [r0 * (ni - nj) + r1 * (nk - nj),
                   r3 * (ni - nj) + r2 * (nk - nj)]
    return (np.reshape(lf, (-1, 6)), np.reshape(gf, (-1, 6)))


def test_fairness_blocks_match_term_by_term_formulas(patch):
    rng = np.random.default_rng(11)
    net = lattice_net(patch, 5, 7)
    x = pack(net) + 1e-2 * rng.standard_normal(pack(net).size)
    net = unpack(x, net.vertex_shape)
    system = assemble(net, patch, Weights())
    refs = [reference_fairness(net, axis) for axis in (0, 1)]
    for kind, m in (("lfair", 0), ("gfair", 1)):
        ref = np.concatenate([refs[0][m], refs[1][m]])
        got = system._block_raw(x, kind).reshape(-1, 6)
        assert got.shape == ref.shape and ref.shape[0] > 0
        assert np.max(np.abs(got - ref)) <= 1e-15


def test_jacobian_sparsity_is_structural(patch):
    # Constant radii make the lfair plane partials r_i - r_j zero by value;
    # the pattern, which the band layout is built from, must not change.
    net = translational_offset_net(5, 4, d=0.2)
    system = assemble(net, patch, Weights())
    x = pack(net)
    y = x.copy()
    y[3:system.plane_base:4] += 1e-3 * np.arange(system.n_faces)
    a, b = system.jacobian(x), system.jacobian(y)
    assert np.count_nonzero(a.data == 0.0) > 0
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def test_jacobian_stores_no_zero_on_a_perturbed_lattice(patch):
    # Every stored entry is a partial that is nonzero for a generic net:
    # the arc-fairness rows store no sphere-centre partials, whose +1 and
    # -1 cancel for every net.
    rng = np.random.default_rng(3)
    net = lattice_net(patch, 10, 10)
    x = pack(net) + 1e-3 * rng.standard_normal(pack(net).size)
    system = assemble(unpack(x, net.vertex_shape), patch, Weights())
    for weights in (Weights(), CONTACT):
        system.weights = weights
        jac = system.jacobian(x)
        assert jac.nnz > 0 and np.count_nonzero(jac.data == 0.0) == 0


def test_jacobian_block_slices_cover_residual(patch):
    net = lattice_net(patch, 4, 4)
    system = assemble(net, patch, Weights(w_td=1e-3))
    x = pack(net)
    res = system.residual(x)
    slices = system.block_slices()
    total = sum(s.stop - s.start for s in slices.values())
    assert total == res.size
    assert list(slices) == ["unit", "oc", "lfair", "gfair", "prox", "tan",
                            "td"]
    jac = system.jacobian(x)
    assert jac.shape == (res.size, x.size)


def test_stacked_residual_and_jacobian_equal_single_blocks(patch):
    # The full system shares one contact-point evaluation across its
    # blocks; each single-block system evaluates its own.
    rng = np.random.default_rng(5)
    net = lattice_net(patch, 10, 10)
    x = pack(net) + 1e-3 * rng.standard_normal(pack(net).size)
    weights = Weights(w_td=1e-3)
    system = assemble(net, patch, weights)
    res, jac = system.residual(x), system.jacobian(x).toarray()
    kinds = system.active_blocks()
    assert len(kinds) == 7
    raw = system.raw_energies(x)
    parts_res, parts_jac = [], []
    for kind in kinds:
        system.weights = Weights(**{
            f"w_{k}": weights.of(k) if k == kind else 0.0 for k in kinds})
        parts_res.append(system.residual(x))
        parts_jac.append(system.jacobian(x).toarray())
        block = system._block_raw(x, kind)
        assert raw[kind] == float(block @ block)
    assert np.array_equal(res, np.concatenate(parts_res))
    assert np.array_equal(jac, np.vstack(parts_jac))


def toy_problem():
    """``(residual, x0, res0, eqs)`` of ``r(x) = x - (1, -2)`` at ``x0 =
    0``, whose normal equations are the identity."""
    def residual(x):
        return np.array([x[0] - 1.0, x[1] + 2.0])

    x0 = np.zeros(2)
    jac = sp.csr_matrix(np.eye(2))
    res0 = residual(x0)
    return residual, x0, res0, layout_of(jac, np.arange(2)).form(jac, res0)


def test_toy_linear_least_squares():
    residual, x0, res0, eqs = toy_problem()
    x, escalations = _attempt_step(residual, x0, res0, eqs, 1e-4)
    # The first attempt is already damped: (1 + w_reg) d = -r.
    assert escalations == 0
    assert np.allclose(x, np.array([1.0, -2.0]) / (1.0 + 1e-4),
                       rtol=1e-14, atol=0.0)
    # A residual that no step lowers: w_reg |d|^2 rejects every level.
    x, escalations = _attempt_step(lambda x: res0, x0, res0, eqs, 1e-4)
    assert escalations == 9
    assert np.array_equal(x, x0)


def test_step_escalates_past_a_failed_solve(monkeypatch):
    residual, x0, res0, eqs = toy_problem()
    solve, mus = optimize.solve_normal_equations, []

    def fail_first(eqs, mu):
        mus.append(mu)
        if len(mus) == 1:
            raise RuntimeError("singular normal equations")
        return solve(eqs, mu)

    monkeypatch.setattr(optimize, "solve_normal_equations", fail_first)
    x, escalations = _attempt_step(residual, x0, res0, eqs, 1e-4)
    # Level 0 fails; level 1 solves with w_reg + w_reg * 10 and is taken.
    assert escalations == 1
    assert mus == [1e-4, 1e-4 + 1e-3]
    assert np.allclose(x, np.array([1.0, -2.0]) / (1.0 + 1.1e-3),
                       rtol=1e-14, atol=0.0)


def test_non_finite_band_solution_is_a_failed_solve(monkeypatch):
    # A band solve that returns NaN raises like a failed factorization,
    # and the step escalates past that level.
    import scipy.linalg

    residual, x0, res0, eqs = toy_problem()
    solve, calls = scipy.linalg.solveh_banded, []

    def nan_first(ab, b, **kwargs):
        # Row 0 of the lower band storage is the damped diagonal.
        calls.append(ab[0].copy())
        y = solve(ab, b, **kwargs)
        return np.full_like(y, np.nan) if len(calls) == 1 else y

    monkeypatch.setattr(scipy.linalg, "solveh_banded", nan_first)
    with pytest.raises(RuntimeError, match="singular"):
        solve_normal_equations(eqs, 1e-4)
    calls.clear()
    x, escalations = _attempt_step(residual, x0, res0, eqs, 1e-4)
    # Level 0 returns NaN; level 1 solves with w_reg + w_reg * 10.
    assert escalations == 1
    assert np.array_equal(calls[1], np.full(2, 1.0 + 1.1e-3))
    assert np.allclose(x, np.array([1.0, -2.0]) / (1.0 + 1.1e-3),
                       rtol=1e-14, atol=0.0)


def test_band_is_passed_in_lower_storage(patch, monkeypatch):
    # The contact pass of a 6x5 lattice has a band of nonzero width and
    # eliminates nothing, so its band is (J^T J)[order][:, order] + mu I.
    import scipy.linalg

    net = lattice_net(patch, 6, 5)
    system = assemble(net, patch, CONTACT)
    x = pack(net)
    jac = system.jacobian(x)
    eqs = system.normal_equations(jac, system.residual(x))
    lay, mu = eqs.layout, 1e-4
    assert lay.bw > 0 and lay.elim.size == 0
    solve, calls = scipy.linalg.solveh_banded, []

    def capture(ab, b, **kwargs):
        calls.append((ab.copy(), kwargs))
        return solve(ab, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solveh_banded", capture)
    solve_normal_equations(eqs, mu)
    (ab, kwargs), = calls
    assert kwargs["lower"] is True
    assert ab.shape == (lay.bw + 1, lay.n)
    # Row k holds the k-th subdiagonal; its last k entries lie outside.
    dense = np.zeros((lay.n, lay.n))
    for k, row in enumerate(ab):
        assert not np.any(row[lay.n - k:])
        at = np.arange(lay.n - k)
        dense[at + k, at] = dense[at, at + k] = row[:lay.n - k]
    want = (jac.T @ jac).toarray()[lay.order][:, lay.order]
    want[np.diag_indices(lay.n)] += mu
    assert dense.tobytes() == want.tobytes()


def _residual_block_damping_step(system, x, w_reg, max_escalations=8):
    """The damping as a residual block: ``J`` stacked over ``sqrt(w_reg)
    I`` and ``sqrt(w_reg) (x' - x)`` appended to the residual, with
    ``mu_0 = 0``, ``mu_k = w_reg * 10^k`` and no energy increase."""
    jac = sp.vstack([system.jacobian(x),
                     np.sqrt(w_reg) * sp.identity(x.size)]).tocsr()

    def residual(y):
        return np.concatenate([system.residual(y), np.sqrt(w_reg) * (y - x)])

    res0 = residual(x)
    eqs = layout_of(jac, lattice_order(system.vertex_shape)).form(jac, res0)
    for k in range(max_escalations + 1):
        mu = 0.0 if k == 0 else w_reg * 10.0 ** k
        y = x + solve_normal_equations(eqs, mu)
        res1 = residual(y)
        if res1 @ res1 <= res0 @ res0:
            return y, k
    return x.copy(), max_escalations + 1


@pytest.mark.parametrize("w_reg", [1e-4, 1e-6])
def test_diagonal_damping_equals_the_damping_residual_block(patch, w_reg):
    rng = np.random.default_rng(7)
    net = lattice_net(patch, 6, 5)
    x0 = pack(net) + 1e-3 * rng.standard_normal(pack(net).size)
    system = assemble(unpack(x0, net.vertex_shape), patch,
                      Weights(w_td=1e-3, w_reg=w_reg))
    x, want = x0, x0
    counts = []
    for _ in range(5):
        res0, jac = system.residual(x), system.jacobian(x)
        eqs = system.normal_equations(jac, res0)
        x, escalations = _attempt_step(system.residual, x, res0, eqs, w_reg)
        want, want_escalations = _residual_block_damping_step(system, want,
                                                              w_reg)
        assert escalations == want_escalations
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        counts.append(escalations)
    # On this net w_reg = 1e-6 escalates every step and 1e-4 never does.
    assert (max(counts) > 0) == (w_reg < 1e-4)


def test_weights_reject_nonfinite_and_negative_values():
    for bad in (math.nan, math.inf, -1e-3):
        with pytest.raises(ValueError, match="w_lfair"):
            Weights(w_lfair=bad)
    with pytest.raises(ValueError, match="w_reg"):
        Weights(w_reg=0.0)


def test_schedule_rejects_negative_fairness_decay():
    # A decay above 1 grows the fairness weights until they overflow.
    for bad in (-0.1, 1.0 + 1e-12, 1e200):
        with pytest.raises(ValueError, match="fairness_decay"):
            Schedule(fairness_decay=bad)
    Schedule(fairness_decay=0.0)
    Schedule(fairness_decay=1.0)


def test_fairness_weight_schedule(patch):
    net = lattice_net(patch, 4, 4)
    _, records = lm_run(net, patch, Weights(),
                        Schedule(max_iters=21, final_pass_iters=0))
    assert records[0].w_lfair == pytest.approx(1e-3)
    assert records[10].w_lfair == pytest.approx(1e-4)
    assert records[20].w_lfair == pytest.approx(1e-5)
    assert records[0].iteration == 1
    assert records[20].iteration == 21


def test_every_scheduled_iteration_is_recorded(patch):
    schedule = Schedule(max_iters=20, final_pass_iters=10)
    main, contact = 20, 10
    # Each pass runs and records every scheduled iteration, however small
    # the energy changes get.
    _, records = lm_run(lattice_net(patch, 4, 4), patch, Weights(), schedule)
    phases = [r.phase for r in records]
    assert phases == ["main"] * main + ["contact"] * contact


def test_empty_block_set_runs_its_schedule_and_keeps_the_net(patch):
    # With every energy weight 0 no residual block is active: each step
    # solves w_reg d = 0, so every record is flat and the net stays put.
    net = lattice_net(patch, 4, 4)
    zero = Weights(**{f"w_{kind}": 0.0 for kind in optimize.BLOCK_ORDER})
    out, records = lm_run(net, patch, zero,
                          Schedule(max_iters=20, final_pass_iters=10))
    assert [r.phase for r in records] == ["main"] * 20 + ["contact"] * 10
    assert all(r.e_total == 0.0 for r in records)
    assert np.array_equal(pack(out), pack(net))


def test_energy_monotone_with_inert_footpoints(patch):
    # Fixed weights (no decay within 10 iterations) and zero proximity
    # weights make the recorded total energy non-increasing.
    net = lattice_net(patch, 5, 5)
    w = Weights(w_prox=0.0, w_tan=0.0, w_td=0.0)
    _, records = lm_run(net, patch, w,
                        Schedule(max_iters=9, final_pass_iters=0))
    totals = [r.e_total for r in records]
    for a, b in zip(totals, totals[1:]):
        assert b <= a * (1.0 + 1e-12) + 1e-300


def test_perturbed_exact_net_reaches_machine_contact(patch):
    rng = np.random.default_rng(42)
    net = translational_offset_net(5, 5, d=0.25)
    x = pack(net)
    x = x + 1e-3 * rng.uniform(-1.0, 1.0, x.size)
    perturbed = unpack(x, net.vertex_shape)
    w = Weights(w_prox=0.0, w_tan=0.0, w_td=0.0)
    refined, records = lm_run(perturbed, patch, w,
                              Schedule(max_iters=30, final_pass_iters=20))
    assert records[-1].energies["oc"] <= 1e-18
    assert verify(refined, tol_oc=1e-9).is_lnet


def test_contact_pass_max_residual_never_increases(patch):
    net = lattice_net(patch, 5, 5)
    _, records = lm_run(net, patch, Weights(),
                        Schedule(max_iters=25, final_pass_iters=20))
    contact = [r for r in records if r.phase == "contact"]
    assert contact
    for a, b in zip(contact, contact[1:]):
        assert b.max_oc <= a.max_oc + 1e-14


def test_oc_residuals_invariant_under_offsetting(patch):
    net = lattice_net(patch, 5, 4)
    d = 0.07
    shifted = LNet(net.normals, net.intercepts + d, net.centers,
                   net.radii + d)
    s0 = assemble(net, patch, Weights())
    s1 = assemble(shifted, patch, Weights())
    oc0 = s0._block_raw(pack(net), "oc")
    oc1 = s1._block_raw(pack(shifted), "oc")
    assert np.max(np.abs(oc0 - oc1)) <= 1e-14


def test_fix_radii_keeps_radii_exact(patch):
    net = lattice_net(patch, 4, 4)
    r0 = net.radii.copy()
    const = float(np.min(r0)) * 0.9
    base = LNet(net.normals, net.intercepts, net.centers,
                np.full_like(net.radii, const))
    refined, _ = lm_run(base, patch, Weights(),
                        Schedule(max_iters=15, final_pass_iters=10),
                        fix_radii=True)
    assert np.array_equal(refined.radii, base.radii)
    free, _ = lm_run(base, patch, Weights(),
                     Schedule(max_iters=15, final_pass_iters=10),
                     fix_radii=False)
    assert not np.array_equal(free.radii, base.radii)


def test_weighted_energy_identity(patch):
    # || residual ||^2 equals the weighted sum of the raw block energies.
    net = lattice_net(patch, 4, 5)
    w = Weights(w_td=1e-3)
    system = assemble(net, patch, w)
    x = pack(net)
    res = system.residual(x)
    raw = system.raw_energies(x)
    total = sum(w.of(k) * raw[k] for k in raw)
    assert float(res @ res) == pytest.approx(total, rel=1e-12)
    assert system.total_energy(x) == pytest.approx(total, rel=1e-12)


def _reference_step(jac, res, mu, free=None):
    """``(J^T J + mu I) d = -J^T r`` by sparse LU on the free columns."""
    cols = np.arange(jac.shape[1]) if free is None else np.flatnonzero(free)
    jc = jac.tocsc()[:, cols]
    a = (jc.T @ jc + mu * sp.identity(cols.size)).tocsc()
    d = np.zeros(jac.shape[1])
    d[cols] = spla.splu(a).solve(-(jc.T @ res))
    return d


@pytest.mark.parametrize("fix_radii", [False, True])
@pytest.mark.parametrize("mu", [0.0, 1e-4, 1e2])
def test_banded_solve_matches_sparse_lu(patch, mu, fix_radii):
    net = lattice_net(patch, 6, 5)
    system = assemble(net, patch, Weights(w_td=1e-3), fix_radii=fix_radii)
    x = pack(net)
    free = None
    if fix_radii:
        free = np.ones(system.n_vars, dtype=bool)
        free[4 * np.arange(system.n_faces) + 3] = False
    # The main pass eliminates the intercepts and the contact pass keeps
    # them. The contact pass alone has fewer rows than variables, so its
    # J^T J is singular at mu = 0.
    passes = [(Weights(w_td=1e-3), True)]
    if mu > 0.0:
        passes.append((CONTACT, False))
    for weights, eliminates in passes:
        system.weights = weights
        res = system.residual(x)
        jac = system.jacobian(x)
        eqs = system.normal_equations(jac, res)
        assert eqs.layout.bw < eqs.layout.n - 1
        assert (eqs.layout.elim.size > 0) == eliminates
        d = solve_normal_equations(eqs, mu)
        want = _reference_step(jac, res, mu, free)
        assert np.linalg.norm(d - want) <= 1e-9 * np.linalg.norm(want)
        if fix_radii:
            assert np.all(d[~free] == 0.0)


def _normal_pattern(jac, order, elim=()):
    """Structural pattern of ``J^T J`` over the columns ``order``, in that
    order, with the columns ``elim`` eliminated: ``A + B^T B``, the pattern
    of the Schur complement ``A - B^T D^-1 B``. Sums of ones are positive,
    so no entry cancels."""
    ones = sp.csr_matrix((np.ones(jac.nnz), jac.indices, jac.indptr),
                         shape=jac.shape)
    kept, gone = ones[:, order], ones[:, np.asarray(elim, dtype=int)]
    coupling = gone.T @ kept
    return (kept.T @ kept + coupling.T @ coupling).tocsr()


def _bandwidth(pattern):
    coo = pattern.tocoo()
    return int(np.max(np.abs(coo.col - coo.row)))


@pytest.mark.parametrize("rows,cols", [(10, 10), (17, 9), (9, 17),
                                       (60, 20)])
def test_lattice_band_is_structural_and_no_wider_than_rcm(patch, rows, cols):
    net = lattice_net(patch, rows, cols)
    x = pack(net)
    fixed_radii = np.ones(x.size, dtype=bool)
    fixed_radii[4 * np.arange((rows - 1) * (cols - 1)) + 3] = False
    for fix_radii, free_cols in ((False, np.arange(x.size)),
                                 (True, np.flatnonzero(fixed_radii))):
        system = assemble(net, patch, Weights(), fix_radii=fix_radii)
        intercepts = free_cols[(free_cols >= system.plane_base)
                               & (free_cols % 4 == 3)]
        assert intercepts.size == rows * cols
        # The main pass eliminates exactly the free intercepts; in the
        # contact pass their fill would widen the band, so none leaves it.
        for weights, elim in ((Weights(), intercepts),
                              (CONTACT, intercepts[:0])):
            system.weights = weights
            jac = system.jacobian(x)
            layout = system.normal_equations(jac, system.residual(x)).layout
            assert np.array_equal(np.sort(layout.elim), elim)
            assert np.array_equal(np.sort(layout.order),
                                  np.setdiff1d(free_cols, elim))
            pattern = _normal_pattern(jac, layout.order, layout.elim)
            assert layout.bw == _bandwidth(pattern)
            perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
            assert layout.bw <= _bandwidth(pattern[perm][:, perm])


def test_singular_normal_equations_raise_runtime_error():
    jac = sp.csr_matrix(np.array([[1.0, 1.0], [2.0, 2.0]]))
    eqs = layout_of(jac, np.arange(2)).form(jac, np.ones(2))
    with pytest.raises(RuntimeError, match="singular"):
        solve_normal_equations(eqs, 0.0)
    assert np.all(np.isfinite(solve_normal_equations(eqs, 1e-3)))


def test_zero_pivot_of_an_eliminated_intercept_raises(patch):
    # Without the contact block no row holds an intercept: D = 0, and at
    # mu = 0 its pivot D + mu is zero.
    net = lattice_net(patch, 5, 4)
    system = assemble(net, patch, Weights(w_oc=0.0))
    x = pack(net)
    eqs = system.normal_equations(system.jacobian(x), system.residual(x))
    assert eqs.layout.elim.size == system.n_planes
    assert np.all(eqs.elim_diag == 0.0) and eqs.coupling.size == 0
    with pytest.raises(RuntimeError, match="singular"):
        solve_normal_equations(eqs, 0.0)
    d = solve_normal_equations(eqs, 1e-4)
    assert np.all(np.isfinite(d)) and np.all(d[eqs.layout.elim] == 0.0)


def test_layout_rejects_a_jacobian_of_another_pattern(patch, lattice_10):
    system = assemble(lattice_10, patch, Weights())
    x = pack(lattice_10)
    a, res = system.jacobian(x), system.residual(x)
    # The plan's layout is built with its pattern, before any formation.
    layout = system._plans[optimize.BLOCK_ORDER].layout
    # Half the rows, and one entry fewer: both inside the layout's band.
    half = a.shape[0] // 2
    fewer = a.copy()
    fewer.data[0] = 0.0
    fewer.eliminate_zeros()
    for jac, r in ((a[:half], res[:half]), (fewer, res)):
        with pytest.raises(ValueError, match="pattern"):
            layout.form(jac, r)
    _assert_same_equations(layout.form(a, res),
                           _public_normal_equations(layout, a, res))


def test_scipy_still_has_the_product_kernels():
    # BandLayout calls scipy's private sparse product kernels directly; a
    # scipy release that renames or drops them must fail here, by name.
    try:
        from scipy.sparse import _sparsetools
    except ImportError:
        _sparsetools = None
    missing = [name for name in ("csr_matmat", "csr_matmat_maxnnz",
                                 "csr_matvec")
               if not hasattr(_sparsetools, name)]
    assert not missing, (
        f"scipy.sparse._sparsetools lacks {', '.join(missing)}: "
        "BandLayout needs csr_matmat, csr_matmat_maxnnz and csr_matvec")


def _public_normal_equations(layout, jac, res):
    """The arrays of :func:`_fields` of ``layout`` formed with scipy's
    public ``jac.T @ jac``, which BandLayout.form must equal bit for bit:
    the band's upper entries at the positions of their transposes in
    LAPACK lower band storage, ``B`` at its structural positions (0 where
    the product has no entry), the diagonal ``D`` and the two parts of
    ``-J^T r``."""
    ata = jac.T @ jac
    i, j = (layout.rank[a] for a in ata.tocoo(copy=False).coords)
    upper = (i >= 0) & (i <= j) & (j < layout.n)
    i, j = i[upper], j[upper]
    slots = j - i + (layout.bw + 1) * i
    rhs = -(jac.T @ res)
    rows, cols = layout.elim[layout.b_row], layout.order[layout.b_col]
    # scipy answers an empty fancy index with a sparse matrix.
    coupling = (np.asarray(ata.tocsr()[rows, cols]).ravel() if rows.size
                else np.zeros(0))
    return (slots, ata.data[upper], rhs[layout.order], coupling,
            ata.diagonal()[layout.elim], rhs[layout.elim])


def _fields(eqs):
    return (eqs.slots, eqs.values, eqs.rhs, eqs.coupling, eqs.elim_diag,
            eqs.elim_rhs)


def _assert_same_equations(eqs, want):
    got = _fields(eqs)
    assert len(got) == len(want)
    for a, ref in zip(got, want):
        assert a.dtype == ref.dtype and a.shape == ref.shape
        assert a.tobytes() == ref.tobytes()


@pytest.fixture(scope="module")
def lattice_10(patch):
    return lattice_net(patch, 10, 10)


@pytest.mark.parametrize("case", ["main", "contact", "fix_radii"])
def test_layout_forms_the_public_product_bit_for_bit(patch, lattice_10, case):
    system = assemble(lattice_10, patch, Weights(),
                      fix_radii=case == "fix_radii")
    if case == "contact":
        system.weights = Weights(w_lfair=0.0, w_gfair=0.0, w_prox=0.0,
                                 w_tan=0.0, w_td=0.0)
    x = pack(lattice_10)
    jac, res = system.jacobian(x), system.residual(x)
    eqs = system.normal_equations(jac, res)
    _assert_same_equations(eqs, _public_normal_equations(eqs.layout, jac,
                                                         res))
    lay = eqs.layout
    # -J^T r comes from J^T's gathered values, and equals scipy's
    # -(jac.T @ res) bit for bit, also for a residual of mixed signs.
    rng = np.random.default_rng(6)
    for r in (res, rng.standard_normal(res.size)):
        got = system.normal_equations(jac, r)
        want = -(jac.T @ r)
        assert got.rhs.tobytes() == want[lay.order].tobytes()
        assert got.elim_rhs.tobytes() == want[lay.elim].tobytes()
    with pytest.raises(ValueError, match="residual length"):
        system.normal_equations(jac, res[:-1])
    if case != "contact":
        # D is w_oc = 1 times the number of faces at each vertex.
        faces_at = np.bincount(system.oc_vert, minlength=system.n_planes)
        assert np.array_equal(
            eqs.elim_diag, faces_at[(lay.elim - system.plane_base) // 4])
        assert np.count_nonzero(eqs.coupling) > 0
    # The Jacobian stores no entry that is zero for every net, so no entry
    # of J^T J cancels here and the product kernel drops none.
    dropped = (_normal_pattern(jac, np.arange(jac.shape[1])).nnz
               - (jac.T @ jac).nnz)
    assert dropped == 0, dropped


@pytest.mark.parametrize("other", ["other_cancellations"])
def test_layout_reused_across_jacobian_patterns(patch, lattice_10, other):
    system = assemble(lattice_10, patch, Weights())
    x = pack(lattice_10)
    a, res_a = system.jacobian(x), system.residual(x)
    # The same Jacobian pattern; zeroed entries make other products
    # cancel, so only the product's pattern changes.
    b, res_b = a.copy(), res_a
    b.data[::7] = 0.0
    assert (b.T @ b).nnz != (a.T @ a).nnz
    intercepts = system._plan().layout.elim
    assert intercepts.size == system.n_planes
    layout = layout_of(a, system.order, intercepts)
    for jac, res in ((a, res_a), (b, res_b), (a, res_a)):
        eqs = layout.form(jac, res)
        # B loses the entries that the zeroed ones cancel.
        assert np.any(eqs.coupling == 0.0) == (jac is b)
        fresh = layout_of(a, system.order, intercepts).form(jac, res)
        _assert_same_equations(eqs, _fields(fresh))
        _assert_same_equations(eqs, _public_normal_equations(layout, jac,
                                                             res))


def test_layout_tells_apart_products_with_equal_row_counts():
    # Rows 0-1, 2-3, 4-5 and 6-7 couple columns (0, 1), (0, 2), (3, 1)
    # and (3, 2). In ``a`` the (0, 1) and (3, 2) entries of J^T J cancel,
    # in ``b`` the (0, 2) and (3, 1) entries: every row of the product
    # loses one entry either way, so only its column indices differ.
    cols = np.array([0, 1, 0, 1, 0, 2, 0, 2, 1, 3, 1, 3, 2, 3, 2, 3])
    rows = np.repeat(np.arange(8), 2)
    a_vals = [1, 1, 1, -1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, -1, 1]
    b_vals = [1, 1, 1, 2, 1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 2, 1]
    a, b = (sp.csr_matrix((np.array(v, dtype=float), (rows, cols)),
                          shape=(8, 4)) for v in (a_vals, b_vals))
    res = np.arange(8.0)
    prods = [(m.T @ m).tocsr() for m in (a, b)]
    assert np.array_equal(prods[0].indptr, prods[1].indptr)
    assert not np.array_equal(prods[0].indices, prods[1].indices)
    layout = layout_of(a, np.arange(4))
    for jac in (a, b, a):
        _assert_same_equations(layout.form(jac, res),
                               _public_normal_equations(layout, jac, res))


def test_product_is_sized_once_per_plan(patch, monkeypatch):
    from scipy.sparse import _sparsetools

    calls = []
    maxnnz = _sparsetools.csr_matmat_maxnnz
    monkeypatch.setattr(_sparsetools, "csr_matmat_maxnnz",
                        lambda *a: calls.append(1) or maxnnz(*a))
    _, records = lm_run(lattice_net(patch, 4, 4), patch, Weights(),
                        Schedule(max_iters=6, final_pass_iters=3))
    assert len(records) == 9
    # One symbolic phase for the main pass and one for the contact pass.
    assert len(calls) == 2


def test_ordering_computed_once_per_active_block_set(patch, monkeypatch):
    calls = []
    layout = optimize.BandLayout
    monkeypatch.setattr(optimize, "BandLayout",
                        lambda *a: calls.append(a[2]) or layout(*a))
    net = lattice_net(patch, 4, 4)
    _, records = lm_run(net, patch, Weights(),
                        Schedule(max_iters=5, final_pass_iters=3))
    assert [r.phase for r in records] == ["main"] * 5 + ["contact"] * 3
    assert len(calls) == 2


def test_jacobian_pattern_built_once_per_active_block_set(patch,
                                                         monkeypatch):
    builds = []
    build = optimize.csr_pattern
    monkeypatch.setattr(optimize, "csr_pattern",
                        lambda *a: builds.append(a[2]) or build(*a))
    net = lattice_net(patch, 4, 4)
    # Without decay the fairness blocks drop out at iteration 11, and the
    # contact pass drops the other auxiliary blocks.
    _, records = lm_run(net, patch, Weights(),
                        Schedule(max_iters=15, final_pass_iters=3,
                                 fairness_decay=0.0))
    assert len(records) == 18
    assert [r.w_lfair > 0 for r in records[9:11]] == [True, False]
    # Each of the three sets builds its tables once: all blocks, all but
    # the fairness blocks, and the contact pass's unit and oc.
    assert len(builds) == 3
    assert builds[2][0] < builds[1][0] < builds[0][0]


def test_run_warns_once_about_footpoint_fallbacks(patch, caplog,
                                                 monkeypatch):
    net = lattice_net(patch, 4, 4)
    schedule = Schedule(max_iters=3, final_pass_iters=2)
    with caplog.at_level(logging.DEBUG, logger="lnets"):
        lm_run(net, patch, Weights(), schedule)
    assert not caplog.records
    monkeypatch.setattr(bspline, "PROJECTION_MAX_ITER", 0)
    with caplog.at_level(logging.WARNING, logger="lnets"):
        _, records = lm_run(net, patch, Weights(), schedule)
    # The contact pass refreshes only for its last record, at the
    # returned net.
    assert [r.footpoint_fallbacks for r in records] == [36, 36, 36, 0, 36]
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("lnets.optimize", "footpoints fell back to their seeds in records "
         "1, 2, 3, 5, at most 36 of 36 in one record")]


def test_run_builds_two_plans_and_the_contact_tables_lead_the_main_ones(
        patch, monkeypatch):
    builds, systems = [], []
    build, make = optimize.csr_pattern, optimize.assemble
    monkeypatch.setattr(optimize, "csr_pattern",
                        lambda *a: builds.append(1) or build(*a))
    monkeypatch.setattr(optimize, "assemble",
                        lambda *a: systems.append(make(*a)) or systems[-1])
    _, records = lm_run(lattice_net(patch, 5, 4), patch, Weights(),
                        Schedule(max_iters=12, final_pass_iters=3))
    assert [r.phase for r in records] == ["main"] * 12 + ["contact"] * 3
    assert len(builds) == 2
    (system,) = systems
    assert list(system._plans) == [optimize.BLOCK_ORDER, ("unit", "oc")]
    main, contact = system._plans.values()
    assert contact.pattern[0].size == 1 + system.n_planes + system.oc_face.size
    # The contact blocks lead the block order, so their own tables equal
    # the leading rows of the main pass's.
    for part, whole in zip(contact.pattern, main.pattern):
        assert np.array_equal(part, whole[:part.size])
        assert not part.flags.writeable
    assert main.layout.bw > contact.layout.bw


def test_jacobian_after_block_set_switches_equals_fresh_system(patch,
                                                               monkeypatch):
    builds = []
    build = optimize.csr_pattern
    monkeypatch.setattr(optimize, "csr_pattern",
                        lambda *a: builds.append(1) or build(*a))
    rng = np.random.default_rng(3)
    net = lattice_net(patch, 5, 6)
    x = pack(net) + 1e-3 * rng.standard_normal(pack(net).size)
    a, b = Weights(w_td=1e-3), Weights(w_lfair=0.0, w_gfair=0.0)
    contact = Weights(w_lfair=0.0, w_gfair=0.0, w_prox=0.0, w_tan=0.0,
                      w_td=0.0)
    c = replace(contact, w_lfair=1e-3)
    # Each distinct block set builds its tables once; a set seen again
    # reuses them.
    for sequence, n_builds in (((a, b, contact, a), 3), ((b, c, b, c), 2)):
        builds.clear()
        system = assemble(net, patch, sequence[0])
        got = []
        for weights in sequence:
            system.weights = weights
            got.append(system.jacobian(x))
        assert len(builds) == n_builds
        for weights, jac in zip(sequence, got):
            fresh = assemble(net, patch, weights).jacobian(x)
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(jac, attr),
                                      getattr(fresh, attr))
            assert not jac.indices.flags.writeable
            assert not jac.indptr.flags.writeable


def test_jacobian_after_fairness_decay_equals_fresh_system(patch,
                                                           monkeypatch):
    builds = []
    build = optimize.csr_pattern
    monkeypatch.setattr(optimize, "csr_pattern",
                        lambda *a: builds.append(1) or build(*a))
    rng = np.random.default_rng(4)
    net = lattice_net(patch, 5, 6)
    x = pack(net) + 1e-3 * rng.standard_normal(pack(net).size)
    system = assemble(net, patch, Weights(w_td=1e-3))
    system.jacobian(x)
    decayed = Weights(w_td=1e-3, w_lfair=1e-4, w_gfair=1e-4)
    system.weights = decayed
    got = system.jacobian(x)
    want = assemble(net, patch, decayed).jacobian(x)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert len(builds) == 2  # the decay reuses the system's tables


def test_footpoints_refreshed_only_where_the_energy_uses_them(patch,
                                                              monkeypatch):
    calls = []
    refresh = optimize.ResidualSystem.refresh_footpoints
    monkeypatch.setattr(
        optimize.ResidualSystem, "refresh_footpoints",
        lambda self, x: calls.append(self.weights.w_prox > 0)
        or refresh(self, x))
    _, records = lm_run(lattice_net(patch, 4, 4), patch, Weights(),
                        Schedule(max_iters=100, final_pass_iters=20))
    assert [r.phase for r in records] == ["main"] * 100 + ["contact"] * 20
    # Assembly, each main iteration, none in the contact pass, the end.
    assert calls == [True] * 101 + [False]


def test_refresh_at_an_unchanged_net_evaluates_no_jets(patch, monkeypatch):
    system = assemble(lattice_net(patch, 5, 5), patch, Weights())
    assert system.footpoint_fallbacks == 0
    feet, normals = system.foot_x.copy(), system.foot_n.copy()
    batches = []
    jets = kernels.surface_jets_batch
    monkeypatch.setattr(kernels, "surface_jets_batch",
                        lambda *a: batches.append(1) or jets(*a))
    system.refresh_footpoints(system.x0)
    assert batches == []
    assert np.array_equal(system.foot_x, feet)
    assert np.array_equal(system.foot_n, normals)
    # A tracked refresh: one Newton step, one jet batch.
    system.refresh_footpoints(system.x0 + 1e-4)
    assert len(batches) == 1


def test_tracked_refreshes_at_an_unchanged_net_reach_the_projection(patch):
    # The assembly's cold refresh converged, so later refreshes track: one
    # Newton step each, whose fixed point is the projection.
    system = assemble(lattice_net(patch, 5, 6), patch, Weights())
    rng = np.random.default_rng(12)
    x = system.x0 + 1e-4 * rng.standard_normal(system.n_vars)
    want = project_points(patch, system.contact_points_of(x),
                          system.foot_uv, system.foot_jets)
    system.refresh_footpoints(x)
    assert np.max(np.abs(system.foot_uv - want[0])) > 1e-12
    for _ in range(2):
        system.refresh_footpoints(x)
        assert system.footpoint_fallbacks == 0
        for got, ref in ((system.foot_uv, want[0]), (system.foot_x, want[1]),
                         (system.foot_n, want[2])):
            assert np.allclose(got, ref, rtol=0.0, atol=4 * np.spacing(1.0))


def test_tracked_rows_whose_step_does_not_shrink_the_gradient_are_projected(
        patch):
    system = assemble(lattice_net(patch, 5, 6), patch, Weights())
    rng = np.random.default_rng(13)
    x = system.x0 + 1e-5 * rng.standard_normal(system.n_vars)
    # Face (0, 0)'s sphere rises 1 above the surface, and its first contact
    # point's cached footpoint moves to a domain corner: from there the
    # Newton step does not shrink the gradient.
    x[2] += 1.0
    system.foot_uv[0] = (0.0, 0.0)
    system.foot_jets[0] = evaluate_jets(patch, [0.0], [0.0])[0]
    uv0, jets0 = system.foot_uv.copy(), system.foot_jets.copy()
    pts = system.contact_points_of(x)
    diff, grad = bspline._gradient(pts, jets0)
    done = bspline._stopped(jets0, diff, grad)
    step_uv = bspline._newton_step(patch, uv0, jets0, diff, grad)
    step_jets = evaluate_jets(patch, step_uv[:, 0], step_uv[:, 1])
    after = bspline._gradient(pts, step_jets)[1]
    shrunk = np.hypot(*after.T) < np.hypot(*grad.T)
    assert not shrunk[0] and shrunk[1:].all() and not done.any()

    system.refresh_footpoints(x)
    want = project_points(patch, pts[:1], uv0[:1], jets0[:1])
    got = (system.foot_uv, system.foot_x, system.foot_n, system.foot_jets)
    for mine, ref in zip(got, (want[0], want[1], want[2], want[4])):
        assert np.array_equal(mine[0], ref[0])
    assert system.footpoint_fallbacks == int(np.sum(~want[3]))
    # Every other row took its one step.
    assert np.array_equal(system.foot_uv[1:], step_uv[1:])
    assert np.array_equal(system.foot_jets[1:], step_jets[1:])
    # A refresh after fallbacks projects every row in full.
    full = project_points(patch, pts, system.foot_uv, system.foot_jets)
    system.refresh_footpoints(x)
    got = (system.foot_uv, system.foot_x, system.foot_n, system.foot_jets)
    for mine, ref in zip(got, (full[0], full[1], full[2], full[4])):
        assert np.array_equal(mine, ref)


def test_last_record_is_measured_at_footpoints_projected_in_full(
        patch, monkeypatch):
    # The system's own frame: its surface and the iterates its refreshes
    # see, the last at the returned net.
    systems, iterates = [], []
    make = optimize.assemble

    def assemble(*a):
        system = make(*a)
        refresh = system.refresh_footpoints
        system.refresh_footpoints = (
            lambda x: iterates.append(x.copy()) or refresh(x))
        return systems.append(system) or system

    monkeypatch.setattr(optimize, "assemble", assemble)
    _, records = lm_run(lattice_net(patch, 5, 5), patch, Weights(),
                        Schedule(max_iters=20, final_pass_iters=3))
    (system,) = systems
    pts = system.contact_points_of(iterates[-1])
    _, feet, normals, conv, jets = project_points(system.surface, pts)
    assert conv.all()
    assert bspline._stopped(system.foot_jets,
                            *bspline._gradient(pts, system.foot_jets)).all()
    assert np.allclose(system.foot_x, feet, rtol=0.0, atol=1e-12)
    diff = pts - feet
    prox = float(np.sum(diff * diff))
    tan = float(np.sum(np.einsum("kc,kc->k", diff, normals) ** 2))
    last = records[-1].energies
    assert last["prox"] == pytest.approx(prox, rel=1e-12)
    assert last["tan"] == pytest.approx(tan, rel=1e-9)


def test_escalations_reuse_the_normal_equations(patch, monkeypatch):
    formed, solved = [], []
    form = BandLayout.form
    solve = optimize.solve_normal_equations
    monkeypatch.setattr(BandLayout, "form",
                        lambda self, *a: formed.append(1) or form(self, *a))
    monkeypatch.setattr(optimize, "solve_normal_equations",
                        lambda *a: solved.append(1) or solve(*a))
    net = lattice_net(patch, 4, 4)
    _, records = lm_run(net, patch, Weights(),
                        Schedule(max_iters=10, final_pass_iters=10))
    escalations = sum(min(r.escalations, 8) for r in records)
    assert escalations > 0
    # One formation per record that solves; the records at the roundoff
    # floor form and solve nothing.
    solving = [r for r in records if r.solves > 0]
    assert 0 < len(solving) < len(records)
    assert len(formed) == len(solving)
    assert all(r.solves == min(r.escalations, 8) + 1 for r in solving)
    assert len(solved) == sum(r.solves for r in records)
    assert len(solved) == len(solving) + escalations


def roundoff_floor(x):
    """The floor at which :func:`lm_run` stops solving."""
    return 64.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(x)))


def test_contact_pass_stops_solving_at_the_roundoff_floor(patch):
    schedule = Schedule(max_iters=25, final_pass_iters=20)
    net, records = lm_run(lattice_net(patch, 5, 5), patch, Weights(),
                          schedule)
    assert [r.phase for r in records] == ["main"] * 25 + ["contact"] * 20
    floor = roundoff_floor(pack(net))
    first = next(i for i, r in enumerate(records) if r.solves == 0)
    assert records[first].phase == "contact" and first < len(records) - 1
    before = records[first - 1]
    assert before.max_oc <= floor
    assert math.sqrt(before.energies["unit"]) <= floor
    # From the floor on the net stays put: no solve, no escalation, and
    # each record measures the net the record before it measured.
    for prev, rec in zip(records[first - 1:], records[first:]):
        assert (rec.solves, rec.escalations) == (0, 0)
        assert rec.e_total == prev.e_total and rec.max_oc == prev.max_oc
    assert all(r.solves == min(r.escalations, 8) + 1
               for r in records[:first])
    report = verify(net)
    assert report.is_lnet and report.max_contact_residual <= floor


def test_contact_pass_above_the_floor_solves_every_record(patch):
    # The acceptance config's contact pass ends above the floor.
    spec = CongruenceSpec("tau_min", tau=0.75)
    grid = trace_grid(patch, spec, AngleField.constant(math.pi / 4),
                      GridSpec(16, 16, 0.13))
    net, records = lm_run(initialize(grid, patch, spec), patch, Weights(),
                          Schedule(max_iters=100, final_pass_iters=20))
    contact = [r for r in records if r.phase == "contact"]
    assert len(records) == 120 and len(contact) == 20
    assert all(r.solves >= 1 for r in records)
    assert contact[-1].max_oc > roundoff_floor(pack(net))


def _contact_iteration_after_a_record(system, x):
    """The record of one contact-pass iteration at ``x`` whose last record
    measured ``x``, and the net it returns."""
    raw, total, max_oc = system._energy_summary(x)
    records = [IterationRecord(1, "main", total, raw, max_oc, 0.0, 0.0, 0, 0,
                               1)]
    x_new = optimize._run_phase(system, x, CONTACT, Schedule(), 1, "contact",
                                records)
    return records[-1], x_new


def test_floor_stop_reads_the_unit_block(patch):
    # Scaling the normals, intercepts and radii of an exactly tangent net
    # scales its contact residuals, which stay at the floor, but moves its
    # normals off unit length: the pass keeps solving.
    net = solved_sphere_net(patch, 5, 5)
    s = 1.0 + 1e-6
    scaled = LNet(s * net.normals, s * net.intercepts, net.centers,
                  s * net.radii)
    for each, solves in ((net, False), (scaled, True)):
        system = assemble(each, patch, CONTACT)
        x = pack(each)
        assert system.max_contact_residual(x) <= roundoff_floor(x)
        unit = math.sqrt(system.raw_energies(x)["unit"])
        assert (unit > 1e-6) == solves
        record, x_new = _contact_iteration_after_a_record(system, x)
        assert (record.solves > 0) == solves
        assert np.array_equal(x_new, x) != solves


def test_residual_after_a_refresh_evaluates_only_the_footpoint_blocks(
        patch, monkeypatch):
    rng = np.random.default_rng(8)
    net = lattice_net(patch, 5, 6)
    x = pack(net) + 1e-4 * rng.standard_normal(pack(net).size)
    weights = Weights(w_td=1e-3)
    system = assemble(net, patch, weights)
    fresh = assemble(net, patch, weights)
    system.residual(x)
    system.refresh_footpoints(x)
    calls = []
    block_raw = optimize.ResidualSystem._block_raw
    monkeypatch.setattr(
        optimize.ResidualSystem, "_block_raw",
        lambda self, x, kind, pts=None: calls.append(kind)
        or block_raw(self, x, kind, pts))
    got = system.residual(x)
    assert calls == ["prox", "tan"]
    # A system that evaluates every block at the same footpoints.
    fresh.foot_x, fresh.foot_n = system.foot_x, system.foot_n
    want = fresh.residual(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # At the same net and footpoints every block is reused.
    calls.clear()
    assert system.residual(x).tobytes() == got.tobytes()
    system._energy_summary(x)
    assert calls == []
    # A new net evaluates every block again.
    system.residual(x + 1e-6)
    assert sorted(calls) == sorted(optimize.BLOCK_ORDER)


def test_refresh_footpoints_names_the_face_of_a_non_finite_contact(patch):
    system = assemble(lattice_net(patch, 4, 4), patch, Weights())
    x = system.x0.copy()
    x[0] = math.nan  # a coordinate of the first face's center
    with pytest.raises(ValueError,
                       match=r"contact of face \(0, 0\) at corner "
                       r"\(0, 0\): query point 0 is not finite") as info:
        system.refresh_footpoints(x)
    assert info.value.index == 0


def test_refresh_footpoints_names_face_and_corner():
    surface = mixed_patch(0.12)  # K < 0 for y > 0.12
    net = translational_offset_net(3, 3, d=0.2)  # face (i, j) near y = j/4
    with pytest.raises(CurvatureSignError,
                       match=r"contact of face \(0, 1\) at corner \(0, 0\)"
                       ) as info:
        assemble(net, surface, Weights())
    assert info.value.index == 4
    assert info.value.uv[1] > 0.56


def test_one_face_net_runs_through_lm_verify_and_export(patch):
    # A 2x2-vertex net has no strips, no face pairs, no planar quads and
    # no cones: the fairness and tangential-distance blocks are empty.
    net, records = lm_run(lattice_net(patch, 2, 2), patch)
    assert len(records) == 120
    assert all(r.energies[kind] == 0.0 for r in records
               for kind in ("lfair", "gfair", "td"))
    assert verify(net).is_lnet
    raw = tessellate(net)
    mesh = dedupe_mesh(raw)
    assert raw.counts == mesh.counts == (0, 0, 98)
