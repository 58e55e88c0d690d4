"""Angle fields, frame sampling and streamline grid extraction."""

import logging
import math
from functools import partial

import numpy as np
import pytest

from lnets import (AngleField, CongruenceSpec, CurvatureSignError, GridSpec,
                   QuadGrid, TracingError, UmbilicError, frame_at,
                   frame_field, theta_eval, trace_grid)
from lnets import remesh
from lnets.remesh import FrameSample, trace_grid_from_field

from conftest import mixed_patch


def test_theta_eval_families():
    assert theta_eval(AngleField.constant(math.pi / 4), 0.3, 0.9) \
        == math.pi / 4
    lin = AngleField("linear_u", 0.0, math.pi / 3)
    assert theta_eval(lin, 0.5, 0.0) == pytest.approx(math.pi / 6)
    assert theta_eval(AngleField("linear_v", 0.0, math.pi / 3), 0.0, 1.0) \
        == pytest.approx(math.pi / 3)
    cos = AngleField("cosine_u", 0.0, math.pi / 2)
    assert theta_eval(cos, 0.0, 0.0) == pytest.approx(math.pi / 2)
    assert theta_eval(cos, 0.25, 0.0) == pytest.approx(math.pi / 4)
    assert theta_eval(cos, 0.5, 0.0) == pytest.approx(0.0, abs=1e-16)


def test_theta_cosine_is_exactly_periodic():
    cos_u = AngleField("cosine_u", 0.1, 1.3)
    cos_v = AngleField("cosine_v", 0.1, 1.3)
    # Dyadic samples: u + 1 is exactly representable.
    for k in range(64):
        u = k / 64.0
        assert theta_eval(cos_u, u, 0.0) == theta_eval(cos_u, u + 1.0, 0.0)
        assert theta_eval(cos_v, 0.0, u) == theta_eval(cos_v, 0.0, u + 1.0)


def test_angle_field_validation():
    with pytest.raises(ValueError):
        AngleField.constant(2.0)
    with pytest.raises(ValueError):
        AngleField("linear_u", -0.1, 1.0)
    with pytest.raises(ValueError):
        AngleField("spline_u", 0.0, 1.0)
    # theta_eval reads only theta_min of a constant field.
    with pytest.raises(ValueError, match="constant field has one angle"):
        AngleField("constant", 0.3, 0.9)
    assert AngleField("constant", 0.3, 0.3) == AngleField.constant(0.3)


def test_frame_at_zero_angle_gives_principal_directions(patch):
    spec = CongruenceSpec("tau_min", tau=0.5)
    sample = frame_at(patch, spec, AngleField.constant(0.0), 0.5, 0.5)
    assert np.allclose(sample.d1_3d, [1, 0, 0], atol=1e-12)
    assert np.allclose(sample.d2_3d, [0, 1, 0], atol=1e-12)


def test_frame_at_conjugate_pair_example(steep_patch):
    # Center of the steep patch has curvatures (2, 1); with r = 0.25 and
    # a 45-degree first direction the partner is 3 t1 - 4 t2 normalized.
    spec = CongruenceSpec("explicit", value=0.25)
    sample = frame_at(steep_patch, spec, AngleField.constant(math.pi / 4),
                      0.5, 0.5)
    want = np.array([3.0, -4.0, 0.0]) / 5.0
    assert np.allclose(sample.d2_3d, want, atol=1e-12)


def test_frame_at_umbilic_reports_location(steep_patch):
    # The steep patch has an exact umbilic at (x, y) = (0.5, 0).
    spec = CongruenceSpec("tau_min", tau=0.5)
    with pytest.raises(UmbilicError, match="u=0.75"):
        frame_at(steep_patch, spec, AngleField.constant(0.0), 0.75, 0.5)


@pytest.mark.parametrize("field", [
    AngleField.constant(0.6), AngleField("linear_u", 0.1, 1.2),
    AngleField("linear_v", 0.2, 1.4), AngleField("cosine_u", 0.0, 1.1),
    AngleField("cosine_v", 0.3, 1.5)], ids=lambda f: f.family)
@pytest.mark.parametrize("spec", [
    CongruenceSpec("tau_min", tau=0.7),
    CongruenceSpec("explicit", value=0.3),
    CongruenceSpec("explicit", value=lambda u, v: 0.2 + 0.1 * u * v)],
    ids=["tau_min", "constant", "callable"])
def test_frame_field_rows_equal_frame_at(patch, field, spec):
    uv = np.random.default_rng(11).uniform(0.0, 1.0, size=(9, 2))
    batch = frame_field(patch, spec, field, uv)
    for k, (u, v) in enumerate(uv):
        one = frame_at(patch, spec, field, u, v)
        for name in ("uv", "d1_uv", "d2_uv", "d1_3d", "d2_3d"):
            assert np.array_equal(getattr(batch, name)[k],
                                  getattr(one, name)), name


def test_frame_field_reports_first_umbilic_in_batch(steep_patch):
    # (0.25, 0.5) is the other umbilic; the earlier one is reported.
    uv = [(0.5, 0.5), (0.6, 0.3), (0.75, 0.5), (0.25, 0.5)]
    spec = CongruenceSpec("tau_min", tau=0.5)
    with pytest.raises(UmbilicError, match="u=0.75") as info:
        frame_field(steep_patch, spec, AngleField.constant(0.0), uv)
    assert info.value.index == 2
    assert np.array_equal(info.value.uv, [0.75, 0.5])


def test_pushforward_roundtrip(patch):
    spec = CongruenceSpec("tau_min", tau=0.6)
    field = AngleField.constant(0.3)
    rng = np.random.default_rng(3)
    from lnets import evaluate_jet
    for u, v in rng.uniform(0.1, 0.9, size=(20, 2)):
        s = frame_at(patch, spec, field, u, v)
        jet = evaluate_jet(patch, u, v)
        for duv, d3d in ((s.d1_uv, s.d1_3d), (s.d2_uv, s.d2_3d)):
            push = duv[0] * jet.f_u + duv[1] * jet.f_v
            assert np.linalg.norm(push - d3d) <= 1e-9


def constant_field(d1_uv, d2_uv):
    d1 = np.asarray(d1_uv, float)
    d2 = np.asarray(d2_uv, float)

    def field_fn(uv):
        n = len(uv)
        return FrameSample(uv, np.tile(d1, (n, 1)), np.tile(d2, (n, 1)),
                           np.tile(np.append(d1, 0.0), (n, 1)),
                           np.tile(np.append(d2, 0.0), (n, 1)))

    return field_fn


def test_trace_constant_axis_field_gives_uniform_grid():
    grid = trace_grid_from_field(constant_field((1, 0), (0, 1)),
                                 (0, 1, 0, 1), GridSpec(3, 3, 0.2))
    assert grid.rows == 3 and grid.cols == 3
    want_u = np.array([0.3, 0.5, 0.7])
    for i in range(3):
        assert np.allclose(grid.uv[i, :, 0], want_u, atol=1e-12)
        assert np.allclose(grid.uv[i, :, 1], 0.3 + 0.2 * i, atol=1e-12)


def test_trace_rotated_constant_field_lines_are_straight():
    ang = 0.35
    d1 = (math.cos(ang), math.sin(ang))
    d2 = (-math.sin(ang), math.cos(ang))
    grid = trace_grid_from_field(constant_field(d1, d2), (0, 1, 0, 1),
                                 GridSpec(3, 3, 0.15))
    for i in range(grid.rows):
        pts = grid.uv[i]
        chords = np.diff(pts, axis=0)
        lengths = np.linalg.norm(chords, axis=1)
        assert np.allclose(lengths, 0.15, atol=1e-12)
        for ch in chords:
            assert abs(ch[0] * d1[1] - ch[1] * d1[0]) <= 1e-9


def test_trace_trims_to_domain():
    grid = trace_grid_from_field(constant_field((1, 0), (0, 1)),
                                 (0, 1, 0, 1), GridSpec(50, 50, 0.2))
    assert grid.rows <= 50 and grid.cols <= 50
    assert np.all(grid.uv[..., 0] >= 0) and np.all(grid.uv[..., 0] <= 1)
    assert np.all(grid.uv[..., 1] >= 0) and np.all(grid.uv[..., 1] <= 1)
    # A 0.2 spacing fits at most 5 whole edges inside a unit box.
    assert grid.rows == 5 and grid.cols == 5


def test_trace_detects_field_singularity():
    ang = math.radians(2.0)
    d2 = (math.cos(ang), math.sin(ang))
    with pytest.raises(TracingError):
        trace_grid_from_field(constant_field((1, 0), d2), (0, 1, 0, 1),
                              GridSpec(3, 3, 0.2))


def test_trace_error_carries_uv_and_line():
    # The second direction swings onto the first beyond u = 0.8, which
    # only the +u half-lines of the rows (odd lines) reach.
    def field_fn(uv):
        n = len(uv)
        ang = np.where(uv[:, 0] > 0.8, math.radians(2.0), math.pi / 2)
        d1 = np.tile([1.0, 0.0], (n, 1))
        d2 = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return FrameSample(uv, d1, d2, np.pad(d1, ((0, 0), (0, 1))),
                           np.pad(d2, ((0, 0), (0, 1))))

    with pytest.raises(TracingError) as info:
        trace_grid_from_field(field_fn, (0, 1, 0, 1), GridSpec(5, 9, 0.1))
    exc = info.value
    assert exc.line % 2 == 1
    assert exc.uv.shape == (2,) and exc.uv[0] > 0.8
    assert f"line {exc.line} " in str(exc)


def test_tracer_never_queries_outside_domain():
    ang = 0.35
    inner = constant_field((math.cos(ang), math.sin(ang)),
                           (-math.sin(ang), math.cos(ang)))
    queried = []

    def recording(uv):
        queried.append(np.array(uv))
        return inner(uv)

    grid = trace_grid_from_field(recording, (0, 1, 0, 1),
                                 GridSpec(9, 15, 0.1))
    pts = np.concatenate(queried)
    assert grid.cols < 15
    assert np.all((pts >= 0.0) & (pts <= 1.0))


def test_tracer_never_evaluates_an_empty_batch():
    # Every line of both marches leaves the unit box part-way through an
    # edge; no RK4 stage may follow once all of them have stopped.
    inner = constant_field((1, 0), (0, 1))
    sizes = []

    def recording(uv):
        sizes.append(len(uv))
        return inner(uv)

    grid = trace_grid_from_field(recording, (0, 1, 0, 1),
                                 GridSpec(50, 50, 0.2))
    assert grid.rows == 5 and grid.cols == 5
    assert min(sizes) > 0


def test_trace_grid_warns_once_when_clipped(patch, caplog):
    spec = CongruenceSpec("tau_min", tau=0.75)
    field = AngleField.constant(math.pi / 4)
    with caplog.at_level(logging.WARNING, logger="lnets"):
        grid = trace_grid(patch, spec, field, GridSpec(5, 12, 0.2))
    records = [r for r in caplog.records if r.name.startswith("lnets")]
    assert len(records) == 1
    assert records[0].levelno == logging.WARNING
    assert records[0].name == "lnets.remesh"
    assert "5x12 requested" in records[0].getMessage()
    assert f"{grid.rows}x{grid.cols} realized" in records[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lnets"):
        trace_grid_from_field(constant_field((1, 0), (0, 1)), (0, 1, 0, 1),
                              GridSpec(3, 3, 0.2))
    assert not caplog.records


def test_trace_grid_on_surface_aligns_with_field(patch):
    spec = CongruenceSpec("tau_min", tau=0.75)
    field = AngleField.constant(math.pi / 4)
    grid = trace_grid(patch, spec, field, GridSpec(7, 7, 0.22))
    assert grid.rows >= 4 and grid.cols >= 4
    # Chord directions of first-family lines stay within 10 degrees of
    # the local first field direction.
    from lnets import evaluate_jet
    for i in range(grid.rows):
        for j in range(grid.cols - 1):
            mid = 0.5 * (grid.uv[i, j] + grid.uv[i, j + 1])
            s = frame_at(patch, spec, field, mid[0], mid[1])
            jet = evaluate_jet(patch, mid[0], mid[1])
            chord_uv = grid.uv[i, j + 1] - grid.uv[i, j]
            chord = chord_uv[0] * jet.f_u + chord_uv[1] * jet.f_v
            cosang = abs(np.dot(chord, s.d1_3d)) / (
                np.linalg.norm(chord) * np.linalg.norm(s.d1_3d))
            assert math.degrees(math.acos(min(1.0, cosang))) <= 10.0


def test_quad_grid_rejects_degenerate_cells():
    uv = np.zeros((2, 2, 2))
    uv[1, 0] = (1, 0)
    uv[0, 1] = (1, 0)  # duplicate corner collapses the cell
    uv[1, 1] = (1, 0)
    with pytest.raises(ValueError):
        QuadGrid(uv, (0, 1, 0, 1))


@pytest.mark.parametrize("edge_length", [1e-16, 1e-300])
def test_trace_names_the_first_degenerate_cell(patch, edge_length):
    # Steps too short to move the points off 0.5 collapse the cells.
    with pytest.raises(TracingError, match=r"cell \(0, \d\) at \(u=0.5, "
                       r"v=0.5\) is degenerate") as info:
        trace_grid(patch, ACCEPTANCE_SPEC, AngleField.constant(math.pi / 4),
                   GridSpec(4, 4, edge_length))
    assert np.max(np.abs(info.value.uv - 0.5)) <= 1e-15
    assert info.value.line is None


ACCEPTANCE_SPEC = CongruenceSpec("tau_min", tau=0.75)


def test_rk4_step_at_or_above_edge_length_traces_the_default_grid(patch):
    # Each step is cut to the arclength left to the next vertex, which is
    # at most edge_length, so a larger largest step is never taken.
    field = AngleField.constant(math.pi / 4)
    default = trace_grid(patch, ACCEPTANCE_SPEC, field, GridSpec(6, 6, 0.2))
    for h_max in (0.2, 5.0):
        grid = trace_grid(patch, ACCEPTANCE_SPEC, field,
                          GridSpec(6, 6, 0.2, rk4_step=h_max))
        assert np.array_equal(grid.uv, default.uv)
    smaller = trace_grid(patch, ACCEPTANCE_SPEC, field,
                         GridSpec(6, 6, 0.2, rk4_step=0.05))
    assert not np.array_equal(smaller.uv, default.uv)


def test_acceptance_trace_takes_at_most_300_frame_batches(patch):
    sizes = []
    inner = partial(frame_field, patch, ACCEPTANCE_SPEC,
                    AngleField.constant(math.pi / 4))

    def recording(uv):
        sizes.append(len(uv))
        return inner(uv)

    grid = trace_grid_from_field(recording, patch.domain,
                                 GridSpec(16, 16, 0.13))
    assert (grid.rows, grid.cols) == (16, 8)
    assert len(sizes) <= 300


def test_trace_into_negative_curvature_names_seed_line():
    # K < 0 above v = 0.5: the +v seed line fails on its first step.
    with pytest.raises(CurvatureSignError, match="family 1 line 1 ") as info:
        trace_grid(mixed_patch(0.0), ACCEPTANCE_SPEC,
                   AngleField.constant(math.pi / 4), GridSpec(9, 9, 0.15))
    assert info.value.line == 1
    assert info.value.uv[1] > 0.5


def test_trace_through_umbilic_raises(steep_patch):
    # The centre row (row 4) runs along y = 0, where the principal
    # directions swap at the umbilics (u, v) = (0.25, 0.5) and (0.75, 0.5).
    # The jump keeps the error estimate high, so stage points close in on
    # the umbilic until the frame field rejects one. The two half-lines
    # are mirror images; rounding decides which one lands close enough.
    with pytest.raises(UmbilicError) as info:
        trace_grid(steep_patch, ACCEPTANCE_SPEC, AngleField.constant(0.0),
                   GridSpec(9, 21, 0.1))
    exc = info.value
    assert exc.line in (8, 9)
    assert str(exc).startswith(f"family 0 line {exc.line} ")
    umbilic = (0.25, 0.5) if exc.line == 8 else (0.75, 0.5)
    assert np.max(np.abs(exc.uv - umbilic)) <= 1e-8


def test_march_raises_when_the_step_falls_below_the_floor():
    # The last stage of every attempt, at the candidate end point, returns
    # a NaN direction, so every error estimate is NaN and every attempt is
    # rejected. The call cap fails a march that shrinks its step forever.
    inner = constant_field((1, 0), (0, 1))
    calls = []

    def nan_at_ends(uv):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("the march does not stop")
        s = inner(uv)
        if len(calls) % 6 == 1 and len(calls) > 1:
            s.d1_uv[:] = np.nan
        return s

    start = [0.3, 0.4]
    with pytest.raises(TracingError, match="family 0 line 0 .*floor") as info:
        remesh._march(nan_at_ends, (0, 1, 0, 2), 0, [start], [[1.0, 0.0]],
                      [3], 0.1, 0.1)
    assert info.value.line == 0
    assert np.array_equal(info.value.uv, start)
    # 0.1 shrinks by 5x per attempt to below 1e-12 * sqrt(5) in 16 attempts.
    assert len(calls) == 1 + 6 * 16


def circle_field(center):
    """Unit field whose first family runs counterclockwise on circles
    about ``center`` and whose second family points away from it."""
    center = np.asarray(center, float)

    def field_fn(uv):
        r = uv - center
        d2 = r / np.sqrt(np.vecdot(r, r))[:, None]
        d1 = np.stack([-d2[:, 1], d2[:, 0]], axis=1)
        return FrameSample(uv, d1, d2, np.pad(d1, ((0, 0), (0, 1))),
                           np.pad(d2, ((0, 0), (0, 1))))

    return field_fn


def test_rejected_steps_leave_the_line_in_place():
    # A radius-0.1 circle turns too fast for a first step of 0.1 at the
    # tolerance, so the controller must reject. One line: after the start
    # batch, each attempt is six batches, the first at p0 + h k1 / 5 and
    # the sixth at the candidate end point.
    center = np.array([0.5, 0.5])
    inner = circle_field(center)
    batches = []

    def recording(uv):
        batches.append(np.array(uv))
        return inner(uv)

    radius, edge, budget = 0.1, 0.1, 8
    start = [0.5, 0.5 - radius]
    (vertices,) = remesh._march(recording, (0, 1, 0, 1), 0, [start],
                                [[1.0, 0.0]], [budget], edge, edge)
    assert (len(batches) - 1) % 6 == 0
    ends = np.concatenate(batches[6::6])
    assert abs(np.linalg.norm(ends[0] - center) - radius) > 1e-7
    # The retry starts from the same point with a shorter step.
    first, retry = batches[1][0], batches[7][0]
    assert first[1] == retry[1] == start[1]
    assert start[0] < retry[0] < first[0]
    # Vertices sit at exactly edge_length arclength apart on the circle.
    angle = -0.5 * math.pi + edge / radius * np.arange(1, budget + 1)
    want = center + radius * np.stack([np.cos(angle), np.sin(angle)], 1)
    assert len(vertices) == budget
    assert np.max(np.abs(np.array(vertices) - want)) <= 1e-8


def test_march_raises_at_a_non_finite_direction():
    # Beyond u = 0.6 the field is NaN. Its NaN direction at the first stage
    # point past 0.6 would put the next stage point nowhere, which the
    # domain check used to take for the boundary, ending the line early.
    inner = constant_field((1, 0), (0, 1))

    def nan_beyond(uv):
        s = inner(uv)
        s.d1_uv[uv[:, 0] > 0.6] = np.nan
        return s

    with pytest.raises(TracingError, match="family 0 line 0 .*non-finite"
                       ) as info:
        remesh._march(nan_beyond, (0, 1, 0, 1), 0, [[0.3, 0.5]],
                      [[1.0, 0.0]], [6], 0.1, 0.1)
    assert info.value.line == 0
    assert 0.6 < info.value.uv[0] <= 0.7 and info.value.uv[1] == 0.5
