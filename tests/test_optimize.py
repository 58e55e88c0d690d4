"""Residual blocks, analytic Jacobians, and the refinement loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from lnets import (CongruenceSpec, CurvatureSignError, LNet, QuadGrid,
                   Schedule, Weights, assemble, initialize, kernels, lm_run,
                   optimize, verify)
from lnets.lnet import face_pairs
from lnets.optimize import (BandLayout, _attempt_step, lattice_order, pack,
                            solve_normal_equations, unpack)

from conftest import mixed_patch, translational_offset_net


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
        system.set_weights(Weights(**{
            f"w_{k}": weights.of(k) if k == kind else 0.0 for k in kinds}))
        parts_res.append(system.residual(x))
        parts_jac.append(system.jacobian(x).toarray())
        block = system._block_raw(x, kind)
        assert raw[kind] == float(block @ block)
    assert np.array_equal(res, np.concatenate(parts_res))
    assert np.array_equal(jac, np.vstack(parts_jac))


def test_toy_linear_least_squares():
    def residual(x):
        return np.array([x[0] - 1.0, x[1] + 2.0])

    x0 = np.zeros(2)
    jac = sp.csr_matrix(np.eye(2))
    res0 = residual(x0)
    eqs = BandLayout(jac, np.arange(2)).form(jac, res0)
    x, escalations = _attempt_step(residual, x0, res0, eqs, 1e-4)
    # The first attempt is already damped: (1 + w_reg) d = -r.
    assert escalations == 0
    assert np.allclose(x, np.array([1.0, -2.0]) / (1.0 + 1e-4),
                       rtol=1e-14, atol=0.0)
    # A residual that no step lowers: w_reg |d|^2 rejects every level.
    x, escalations = _attempt_step(lambda x: res0, x0, res0, eqs, 1e-4)
    assert escalations == 9
    assert np.array_equal(x, x0)


def _residual_block_damping_step(system, x, w_reg, max_escalations=8):
    """The damping as a residual block: ``J`` stacked over ``sqrt(w_reg)
    I`` and ``sqrt(w_reg) (x' - x)`` appended to the residual, with
    ``mu_0 = 0``, ``mu_k = w_reg * 10^k`` and no energy increase."""
    jac = sp.vstack([system.jacobian(x),
                     np.sqrt(w_reg) * sp.identity(x.size)]).tocsr()

    def residual(y):
        return np.concatenate([system.residual(y), np.sqrt(w_reg) * (y - x)])

    res0 = residual(x)
    eqs = BandLayout(jac, lattice_order(system.vertex_shape)).form(jac, res0)
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
                        Schedule(max_iters=21, final_pass_iters=0,
                                 converge_rtol=0.0))
    assert records[0].w_lfair == pytest.approx(1e-3)
    assert records[10].w_lfair == pytest.approx(1e-4)
    assert records[20].w_lfair == pytest.approx(1e-5)
    assert records[0].iteration == 1
    assert records[20].iteration == 21


@pytest.mark.parametrize("schedule,main,contact", [
    (Schedule(max_iters=20, final_pass_iters=10), 20, 10),
    (Schedule(max_iters=20, final_pass_iters=10, converge_rtol=1.0,
              converge_patience=1), 2, 2),
    (Schedule(max_iters=20, final_pass_iters=10, converge_rtol=1.0), 4, 4)],
    ids=["default", "patience1", "patience3"])
def test_flat_energy_ends_each_pass_early(patch, schedule, main, contact):
    # Every relative change is below 1, so each pass stops once
    # converge_patience changes in a row are flat: patience + 1 records.
    _, records = lm_run(lattice_net(patch, 4, 4), patch, Weights(), schedule)
    phases = [r.phase for r in records]
    assert phases == ["main"] * main + ["contact"] * contact


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
    res = system.residual(x)
    jac = system.jacobian(x)
    eqs = system.normal_equations(jac, res)
    assert eqs.layout.bw < eqs.layout.n - 1
    d = solve_normal_equations(eqs, mu)
    want = _reference_step(jac, res, mu, free)
    assert np.linalg.norm(d - want) <= 1e-9 * np.linalg.norm(want)
    if fix_radii:
        assert np.all(d[~free] == 0.0)


def _normal_pattern(jac, order):
    """Structural pattern of ``J^T J`` over the columns ``order``, in that
    order; sums of ones are positive, so no entry cancels."""
    ones = sp.csr_matrix((np.ones(jac.nnz), jac.indices, jac.indptr),
                         shape=jac.shape)[:, order]
    return (ones.T @ ones).tocsr()


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
    contact = Weights(w_lfair=0.0, w_gfair=0.0, w_prox=0.0, w_tan=0.0,
                      w_td=0.0)
    for fix_radii, free_cols in ((False, np.arange(x.size)),
                                 (True, np.flatnonzero(fixed_radii))):
        system = assemble(net, patch, Weights(), fix_radii=fix_radii)
        for weights in (Weights(), contact):
            system.set_weights(weights)
            jac = system.jacobian(x)
            layout = system.normal_equations(jac, system.residual(x)).layout
            assert np.array_equal(np.sort(layout.order), free_cols)
            pattern = _normal_pattern(jac, layout.order)
            assert layout.bw == _bandwidth(pattern)
            perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
            assert layout.bw <= _bandwidth(pattern[perm][:, perm])


def test_singular_normal_equations_raise_runtime_error():
    jac = sp.csr_matrix(np.array([[1.0, 1.0], [2.0, 2.0]]))
    eqs = BandLayout(jac, np.arange(2)).form(jac, np.ones(2))
    with pytest.raises(RuntimeError, match="singular"):
        solve_normal_equations(eqs, 0.0)
    assert np.all(np.isfinite(solve_normal_equations(eqs, 1e-3)))


def test_layout_rejects_a_jacobian_outside_its_band():
    jac = sp.csr_matrix(np.eye(3))
    layout = BandLayout(jac, np.arange(3))
    other = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="band"):
        layout.form(other, np.ones(3))


def test_ordering_computed_once_per_active_block_set(patch, monkeypatch):
    calls = []
    layout = optimize.BandLayout
    monkeypatch.setattr(optimize, "BandLayout",
                        lambda *a: calls.append(a[0].shape) or layout(*a))
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
                                 fairness_decay=0.0, converge_rtol=0.0))
    assert len(records) == 18
    assert [r.w_lfair > 0 for r in records[9:11]] == [True, False]
    # The set without fairness blocks is no prefix of the assembled one,
    # so it builds its own tables; the contact pass slices the first.
    assert len(builds) == 2
    assert builds[1][0] < builds[0][0]


def test_contact_pass_plan_slices_the_assembly_plan(patch, monkeypatch):
    builds, systems = [], []
    build, make = optimize.csr_pattern, optimize.assemble
    monkeypatch.setattr(optimize, "csr_pattern",
                        lambda *a: builds.append(1) or build(*a))
    monkeypatch.setattr(optimize, "assemble",
                        lambda *a: systems.append(make(*a)) or systems[-1])
    _, records = lm_run(lattice_net(patch, 5, 4), patch, Weights(),
                        Schedule(max_iters=12, final_pass_iters=3))
    assert [r.phase for r in records] == ["main"] * 12 + ["contact"] * 3
    assert len(builds) == 1
    (system,) = systems
    assert list(system._plans) == [optimize.BLOCK_ORDER, ("unit", "oc")]
    main, contact = system._plans.values()
    assert contact.pattern[0].size == 1 + system.n_planes + system.oc_face.size
    for part, whole in zip(contact.pattern, main.pattern):
        assert np.shares_memory(part, whole)
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
    # b drops blocks from the middle of a's rows and c adds one to the
    # contact blocks, so neither is a prefix of the assembled blocks and
    # each builds its own tables; the contact blocks slice a's.
    for sequence, n_builds in (((a, b, contact, a), 2), ((b, c, b, c), 2)):
        builds.clear()
        system = assemble(net, patch, sequence[0])
        got = []
        for weights in sequence:
            system.set_weights(weights)
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
    system.set_weights(decayed)
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
                        Schedule(max_iters=100, final_pass_iters=20,
                                 converge_rtol=0.0))
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
    system.refresh_footpoints(system.x0 + 1e-4)
    assert 0 < len(batches) <= 3


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
    assert len(formed) == len(records)
    assert len(solved) == len(records) + escalations


def test_refresh_footpoints_names_face_and_corner():
    surface = mixed_patch(0.12)  # K < 0 for y > 0.12
    net = translational_offset_net(3, 3, d=0.2)  # face (i, j) near y = j/4
    with pytest.raises(CurvatureSignError,
                       match=r"contact of face \(0, 1\) at corner \(0, 0\)"
                       ) as info:
        assemble(net, surface, Weights())
    assert info.value.index == 4
    assert info.value.uv[1] > 0.56
