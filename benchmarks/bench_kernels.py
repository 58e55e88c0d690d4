"""Benchmark the jet kernels, the streamline tracer, the batched
projection, the layers of one LM iteration and the export stages.

Run: python benchmarks/bench_kernels.py --points 20000 --repeats 20
(``--points 200 --repeats 1`` is a quick smoke run)

Every timing is the median of ``--repeats`` runs (a fifth as many for the
tracer, the projection, the LM layers and the export stages), after one
untimed warm-up call.

- ``jets``: one batch of ``--points`` parameter points and one single
  point through the per-span jet kernel.
- ``trace``: ``trace_grid`` on the acceptance config (default
  paraboloid, ``tau_min`` 0.75, constant angle pi/4, 16x16 requested at
  edge 0.13), with the number of frame-field batches it evaluates and the
  realized grid size.
- ``projection``: the grid-seeded batched closest-point projection.
- ``lm``: two footpoint refreshes after the net moves by about 1e-4, as
  an LM step does, each with the jet batches it evaluates: the tracked
  ``refresh_footpoints`` of the main pass (one Newton step per point from
  the last footpoints) and the full warm ``project_points`` of the same
  points from footpoints converged at the unmoved net (the refresh after
  fallbacks and at the returned net). Then one ``residual`` at a new net
  (every block evaluated) and one after a
  refresh at the net of the last evaluation (only the proximity and
  tangency blocks evaluated, the rest reused), one analytic
  ``jacobian`` and one formation of the normal equations (``J^T J`` and
  ``J^T r`` in the band layout) on uniform 10x10 and 40x40 lattices of
  the default patch, with the variable count and, for the main pass and
  the contact-only pass, one normal-equation solve (``mu = 1e-4``,
  banded Cholesky in LAPACK lower band storage) with its rate ``n *
  bw^2 / t`` in GFlop/s (``n`` band variables of bandwidth ``bw``; the
  band factorization takes about ``n * bw^2`` flops), the Jacobian's
  stored entries (``jac.nnz``), the entries of ``J^T J`` that the product
  kernel dropped because they cancelled (the symbolic size minus the
  numeric nnz), the number of variables eliminated by the Schur
  complement, the bandwidth of the reduced band in the lattice order and
  the size of the band in MiB. The
  main-pass solve includes the Schur update (the fill ``B^T D~^-1 B``
  subtracted from the band and the reduced right-hand side), which is
  also timed alone, on a band of zeros. The Jacobian and the normal
  equations are each timed twice: the first call of a freshly assembled
  system and a later call. The first Jacobian builds the plan's static
  structure (the Jacobian's sparsity pattern and index tables, the band
  layout and the symbolic phase of ``J^T J``); the first formation of
  the normal equations builds the band slots of the product. A later
  call only computes values (for the normal equations, the numeric
  product).
- ``cold``: the cold start of an LM run on the same lattices: the
  grid-seeded projection of every contact point, split into the seed
  selection and the Newton iteration from the selected seeds, and the
  first contact-pass Jacobian of a system whose main-pass Jacobian is
  built, which builds the contact pass's own tables and band layout.
- ``export``: ``tessellate``, ``dedupe_mesh`` and ``export_obj`` (to a
  temporary file) of an exactly tangent net on the default paraboloid,
  built in closed form, with the raw vertex and triangle counts. The net
  has ``min(64, max(8, isqrt(points / 4)))`` vertices per side: 64x64 at
  the default ``--points``, 8x8 in the smoke run. Beside each time are
  two memory figures: the rise of the process's peak resident memory
  (``ru_maxrss``) across the stage's first call, and the stage's own
  peak above its input, traced by ``tracemalloc`` in a second call.
  The first reads 0 once an earlier stage has raised the process's
  peak higher; the second does not depend on the stages before it. The
  line ends with the OBJ file's size in bytes and the rate at which
  ``export_obj`` writes it, in MB/s of OBJ text. This section runs
  first, before the others raise the peak.
"""

import argparse
import itertools
import logging
import math
import resource
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

from lnets import (AngleField, CongruenceSpec, GridSpec, LNet, QuadGrid,
                   Weights, assemble, convex_paraboloid_patch, initialize,
                   project_points)
from lnets.cli import export_obj
from lnets import kernels
from lnets.bspline import (PROJECTION_SEED_GRID, _seed_grid, _seed_select,
                           evaluate_jets)
from lnets.kernels import surface_jets_batch
from lnets.lnet import CORNERS
from lnets.optimize import (_schur_update, pack, solve_normal_equations,
                            unpack)
from lnets.remesh import frame_field, trace_grid_from_field
from lnets.tessellate import dedupe_mesh, tessellate


# The weights of the contact-only pass of ``lm_run``.
CONTACT_PASS = Weights(w_lfair=0.0, w_gfair=0.0, w_prox=0.0, w_tan=0.0,
                       w_td=0.0)


def time_fn(fn, repeats):
    """Median wall time of ``fn()`` in ms, after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def time_refreshed_residual(system, x, repeats):
    """Median wall time in ms of ``system.residual(x)`` right after a
    footpoint refresh at ``x``, the net of its last evaluation, after one
    untimed warm-up."""
    system.residual(x)
    times = []
    for _ in range(repeats + 1):
        system.refresh_footpoints(x)
        t0 = time.perf_counter()
        system.residual(x)
        times.append(time.perf_counter() - t0)
    return float(np.median(times[1:])) * 1e3


def peak_rss_mb():
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def count_jet_batches(fn):
    """Number of jet batches that ``fn()`` evaluates."""
    calls = []
    kernel = kernels.surface_jets_batch
    kernels.surface_jets_batch = lambda *a: calls.append(1) or kernel(*a)
    try:
        fn()
    finally:
        kernels.surface_jets_batch = kernel
    return len(calls)


def lattice_system(surf, size):
    """Residual system of a net initialized on a uniform lattice."""
    u0, u1, v0, v1 = surf.domain
    us = np.linspace(u0 + 0.06, u1 - 0.11, size)
    vs = np.linspace(v0 + 0.09, v1 - 0.07, size)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    grid = QuadGrid(np.stack([uu, vv], axis=2), surf.domain)
    net = initialize(grid, surf, CongruenceSpec("tau_min", tau=0.6))
    return assemble(net, surf, Weights()), pack(net)


def exact_paraboloid_net(size, alpha=1.0, beta=0.4, d=0.25):
    """Exactly tangent ``size x size`` net on ``z = (alpha x^2 + beta y^2)/2``.

    Vertex planes are the upward tangent planes on an asymmetric lattice
    of ``[-0.88, 0.74] x [-0.78, 0.86]``; each face sphere solves its four
    corner contact equations; the net is offset by ``d`` so every radius
    is positive.
    """
    x, y = np.meshgrid(np.linspace(-0.88, 0.74, size),
                       np.linspace(-0.78, 0.86, size), indexing="ij")
    points = np.stack([x, y, 0.5 * (alpha * x * x + beta * y * y)], axis=2)
    normals = np.stack([-alpha * x, -beta * y, np.ones_like(x)], axis=2)
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    intercepts = -np.vecdot(points, normals)
    m = size - 1
    a = np.empty((m, m, 4, 4))
    b = np.empty((m, m, 4))
    for k, (da, db) in enumerate(CORNERS):
        a[:, :, k, :3] = normals[da:da + m, db:db + m]
        a[:, :, k, 3] = -1.0
        b[:, :, k] = -intercepts[da:da + m, db:db + m]
    sol = np.linalg.solve(a, b[..., None])[..., 0]
    return LNet(normals, intercepts + d, sol[..., :3], sol[..., 3] + d)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=20000)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    few = max(3, args.repeats // 5)

    size = min(64, max(8, math.isqrt(args.points // 4)))
    net = exact_paraboloid_net(size)
    memory = []

    def first_call(fn):
        """``fn()``, recording the rise of the peak RSS across it and the
        traced peak of a second call, in MB."""
        before = peak_rss_mb()
        out = fn()
        rise = peak_rss_mb() - before
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        memory.append(f"+{rise:.1f} MB RSS, peak +{peak:.1f} MB")
        return out

    raw = first_call(lambda: tessellate(net))
    mesh = first_call(lambda: dedupe_mesh(raw))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.obj"
        first_call(lambda: export_obj(mesh, path))
        t_obj = time_fn(lambda: export_obj(mesh, path), few)
        obj_bytes = path.stat().st_size
    t_tess = time_fn(lambda: tessellate(net), few)
    t_dedupe = time_fn(lambda: dedupe_mesh(raw), few)
    print(f"export {size}x{size}: tessellate {t_tess:8.2f} ms "
          f"({memory[0]}), dedupe {t_dedupe:8.2f} ms ({memory[1]}), "
          f"export_obj {t_obj:8.2f} ms ({memory[2]})  "
          f"({raw.vertices.shape[0]} raw vertices, "
          f"{raw.triangles.shape[0]} triangles), OBJ {obj_bytes} B at "
          f"{obj_bytes / 1e3 / t_obj:.1f} MB/s")
    del raw, mesh

    surf = convex_paraboloid_patch()
    rng = np.random.default_rng(0)
    us = rng.uniform(0.0, 1.0, args.points)
    vs = rng.uniform(0.0, 1.0, args.points)
    call = (surf.breaks_u, surf.breaks_v, surf.degree_u, surf.degree_v,
            surf.coeffs)
    t_batch = time_fn(lambda: surface_jets_batch(*call, us, vs), args.repeats)
    t_one = time_fn(lambda: surface_jets_batch(*call, us[:1], vs[:1]),
                    args.repeats)
    print(f"jets        : {t_batch:8.2f} ms  ({args.points} points), "
          f"{t_one * 1e3:8.1f} us  (1 point)")

    # The acceptance grid is trimmed to 16x8 at the domain boundary; its
    # warning would repeat on every run.
    logging.getLogger("lnets.remesh").setLevel(logging.ERROR)
    field = partial(frame_field, surf, CongruenceSpec("tau_min", tau=0.75),
                    AngleField.constant(math.pi / 4))
    batches = []

    def counting(uv):
        batches.append(len(uv))
        return field(uv)

    spec = GridSpec(16, 16, 0.13)
    grid = trace_grid_from_field(counting, surf.domain, spec)
    t_trace = time_fn(lambda: trace_grid_from_field(field, surf.domain, spec),
                      few)
    print(f"trace       : {t_trace:8.2f} ms  ({len(batches)} frame batches, "
          f"{grid.rows}x{grid.cols} grid)")

    queries = rng.uniform(-0.5, 0.5, size=(2000, 3))
    queries[:, 2] += 0.5
    t_proj = time_fn(lambda: project_points(surf, queries), few)
    print(f"projection  : {t_proj:8.2f} ms  (2000 queries, grid-seeded)")

    for size in (10, 40):
        system, x = lattice_system(surf, size)
        moved = x + 1e-4 * rng.standard_normal(x.size)
        nets = itertools.cycle((moved, x))
        t_foot = time_fn(lambda: system.refresh_footpoints(next(nets)), few)
        n_foot = count_jet_batches(
            lambda: system.refresh_footpoints(next(nets)))
        feet = project_points(surf, system.contact_points_of(x))
        full = partial(project_points, surf, system.contact_points_of(moved),
                       feet[0], feet[4])
        t_full = time_fn(full, few)
        n_full = count_jet_batches(full)
        t_res = time_fn(lambda: system.residual(next(nets)), few)
        t_reuse = time_refreshed_residual(system, x, few)
        t_jac = time_fn(lambda: system.jacobian(x), few)
        firsts, forms, contacts = [], [], []
        for _ in range(few):
            fresh = assemble(unpack(x, system.vertex_shape), surf, Weights())
            res = fresh.residual(x)
            t0 = time.perf_counter()
            jac = fresh.jacobian(x)
            t1 = time.perf_counter()
            fresh.normal_equations(jac, res)
            t2 = time.perf_counter()
            fresh.weights = CONTACT_PASS
            fresh.jacobian(x)
            firsts.append(t1 - t0)
            forms.append(t2 - t1)
            contacts.append(time.perf_counter() - t2)
        t_first, t_form_first, t_contact = (
            float(np.median(t)) * 1e3 for t in (firsts, forms, contacts))
        jac, res = system.jacobian(x), system.residual(x)
        t_form = time_fn(lambda: system.normal_equations(jac, res), few)
        eqs = system.normal_equations(jac, res)
        band = np.zeros((eqs.layout.bw + 1) * eqs.layout.n)
        pivots = eqs.elim_diag + 1e-4
        t_schur = time_fn(lambda: _schur_update(eqs, pivots, band), few)
        del band, eqs
        bands = []
        for weights in (Weights(), CONTACT_PASS):
            system.weights = weights
            jac = system.jacobian(x)
            eqs = system.normal_equations(jac, system.residual(x))
            lay = eqs.layout
            t_solve = time_fn(lambda: solve_normal_equations(eqs, 1e-4), few)
            # The last table is the product's symbolic size.
            dropped = lay._tables[-1] - (jac.T @ jac).nnz
            rate = lay.n * lay.bw ** 2 / t_solve / 1e6
            bands.append(f"solve {t_solve:8.2f} ms at {rate:5.1f} GFlop/s, "
                         f"jac.nnz {jac.nnz}, {dropped} dropped from J^T J, "
                         f"{lay.elim.size} eliminated, bandwidth {lay.bw}, "
                         f"band {(lay.bw + 1) * lay.n * 8 / 2 ** 20:.1f} MiB")
            del eqs
        print(f"lm {size}x{size}    : footpoints tracked {t_foot:8.2f} ms "
              f"({n_foot} jet batches) / warm projection {t_full:8.2f} ms "
              f"({n_full} jet batches), residual "
              f"{t_res:8.2f} ms / after a refresh {t_reuse:8.2f} ms, "
              f"jacobian first {t_first:8.2f} ms / fill "
              f"{t_jac:8.2f} ms, normal equations first {t_form_first:8.2f} "
              f"ms / later {t_form:8.2f} ms, main-pass Schur update "
              f"{t_schur:6.2f} ms  "
              f"({system.n_vars} vars; main {bands[0]}; contact {bands[1]})")

        pts = system.contact_points_of(x)
        gu, gv = _seed_grid(surf, PROJECTION_SEED_GRID)
        grid_jets = evaluate_jets(surf, gu, gv)
        best = _seed_select(grid_jets[:, 0], pts)
        seeds_uv = np.stack([gu[best], gv[best]], axis=1)
        t_cold = time_fn(lambda: project_points(surf, pts), few)
        t_seed = time_fn(lambda: _seed_select(grid_jets[:, 0], pts), few)
        t_newton = time_fn(lambda: project_points(
            surf, pts, seeds_uv=seeds_uv, seed_jets=grid_jets[best]), few)
        print(f"cold {size}x{size}  : projection {t_cold:8.2f} ms "
              f"({len(pts)} points; seeds {t_seed:8.2f} ms, Newton "
              f"{t_newton:8.2f} ms), contact-pass jacobian first "
              f"{t_contact:8.2f} ms")


if __name__ == "__main__":
    main()
