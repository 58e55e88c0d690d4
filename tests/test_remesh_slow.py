"""The adaptive tracer against a fixed-step RK4 reference: the slow cases
of the tracer tests, about 10 s each for the acceptance and steep grids.
Also the acceptance run on a copy scaled by 100, about 3 s."""

import math

import numpy as np
import pytest

from lnets import (AngleField, BSplineSurface, GridSpec, initialize, lm_run,
                   trace_grid, verify)
from lnets import remesh
from lnets.remesh import _stage

from conftest import mixed_patch
from test_remesh import ACCEPTANCE_SPEC


# -- fixed-step RK4 reference tracer -----------------------------------------


def _rk4_step(field_fn, domain, family, p, direction, active, h):
    """One classic RK4 step of every active line, in place.

    Stage 1 is aligned with the line's last chord direction and stages
    2-4 with stage 1. Lines with a stage point outside the domain leave
    ``active`` and keep their position.
    """
    lines = np.flatnonzero(active)
    p0 = p[lines]
    ks = []
    for c in (0.0, 0.5, 0.5, 1.0):
        q = p0 + (c * h) * ks[-1] if ks else p0
        ref = ks[0] if ks else direction[lines]
        keep, k = _stage(field_fn, domain, family, lines, q, ref)
        if keep.size < lines.size:
            active[lines] = False
            active[lines[keep]] = True
            lines, p0, ks = lines[keep], p0[keep], [x[keep] for x in ks]
            if lines.size == 0:
                return
        ks.append(k)
    k1, k2, k3, k4 = ks
    p_new = p0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    step = p_new - p0
    norm = np.sqrt(np.vecdot(step, step))
    moved = norm > 0.0
    direction[lines[moved]] = step[moved] / norm[moved, None]
    p[lines] = p_new


def reference_march(h):
    """A drop-in for ``remesh._march`` that ignores its maximum step and
    divides every edge into ``round(edge_length / h)`` equal RK4 steps."""

    def march(field_fn, domain, family, starts, refs, budgets, edge_length,
              _h_max):
        steps = max(1, round(edge_length / h))
        h_eff = edge_length / steps
        p = np.array(starts, dtype=float)
        refs = np.asarray(refs, dtype=float)
        direction = refs / np.sqrt(np.vecdot(refs, refs))[:, None]
        out = [[] for _ in range(p.shape[0])]
        active = np.asarray(budgets) > 0
        while active.any():
            for _ in range(steps):
                _rk4_step(field_fn, domain, family, p, direction, active,
                          h_eff)
                if not active.any():
                    break
            for i in np.flatnonzero(active):
                out[i].append(p[i].copy())
                if len(out[i]) == budgets[i]:
                    active[i] = False
        return out

    return march


@pytest.mark.parametrize("case", ["acceptance", "steep", "mixed"])
def test_adaptive_trace_matches_fine_rk4_reference(case, patch, steep_patch,
                                                   monkeypatch):
    surface, size = {"acceptance": (patch, (16, 16, 0.13)),
                     "steep": (steep_patch, (9, 21, 0.1)),
                     "mixed": (mixed_patch(0.5), (5, 5, 0.1))}[case]
    field = AngleField.constant(math.pi / 4)
    grid = trace_grid(surface, ACCEPTANCE_SPEC, field, GridSpec(*size))
    u0, u1, v0, v1 = surface.domain
    monkeypatch.setattr(remesh, "_march", reference_march(
        math.hypot(u1 - u0, v1 - v0) / 3200.0))
    ref = trace_grid(surface, ACCEPTANCE_SPEC, field, GridSpec(*size))
    assert grid.uv.shape == ref.uv.shape
    assert np.max(np.abs(grid.uv - ref.uv)) <= 1e-8


def test_acceptance_copy_scaled_by_100_stays_an_lnet(patch):
    # With the surface and the edge length scaled by 100, footpoints fall
    # back to their seeds in every main-pass refresh, so each refresh
    # after them projects in full. The returned net verifies with a max
    # contact residual of 7.67e-13; tracking the footpoints through the
    # fallbacks by one Newton step per refresh left it at 1.26e-6.
    s = 100.0
    surface = BSplineSurface(patch.degree_u, patch.degree_v, patch.knots_u,
                             patch.knots_v, s * patch.control_grid)
    grid = trace_grid(surface, ACCEPTANCE_SPEC,
                      AngleField.constant(math.pi / 4),
                      GridSpec(16, 16, 0.13 * s))
    net, records = lm_run(initialize(grid, surface, ACCEPTANCE_SPEC), surface)
    report = verify(net)
    assert report.is_lnet and report.max_contact_residual <= 1e-12
    assert sum(r.footpoint_fallbacks > 0 for r in records) == 101
