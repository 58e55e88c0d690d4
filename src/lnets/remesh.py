"""Angle fields, batched conjugate frame fields and extraction of a
field-aligned regular quad grid in the parameter domain.

:func:`frame_field` samples the conjugate direction pair at a batch of
parameter points from one jet batch. The tracer integrates the two
families of the line field with the embedded Dormand-Prince 5(4) pair
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
section II.4). The traced directions have unit 3D speed, so the march
integrates in arclength. Each line keeps its own step size, at most
``GridSpec.rk4_step``: a step is accepted when the norm of its local
error estimate is at most ``TRACE_TOL`` (1e-9 in parameter units), and a
rejected attempt leaves the line where it was. Steps are cut to the
arclength left to the next vertex, so vertices land at exactly
``edge_length`` of arclength with no interpolation. The last stage of a
step is evaluated at its end point and serves as the first stage of the
next (FSAL), so an attempt costs six frame batches. The tracer advances
all half-streamlines of a phase in lockstep, and every stage evaluates
the frame field once, on the stage points of all lines still active:

1. the two seed half-lines of the second family, marching from the
   domain center toward -v and +v;
2. after one batch evaluation of all seeds, both first-family
   half-lines of every seed row.

Direction fields are sign-ambiguous; orientation is propagated by
choosing, at every stage, the sign that maximizes the dot product with
the first stage of the step, seeded positively along +u (first family)
and +v (second family) at the domain center. The first-family
orientation of the seed rows is propagated serially along the seed curve.

Each line has an active mask. It is cleared when a stage point of any
attempt leaves the domain box, which is checked before evaluating, so the
frame field is never queried outside the domain and the vertex in
progress is dropped; and when the line has produced its own vertex
budget. The grid is trimmed to the maximal complete rectangle, so it may
be smaller than requested; a trimmed grid is logged as a warning on
``lnets.remesh``.

Errors. The lines of a phase are numbered in the order a line-by-line
tracer visits them: seed line 0 runs toward -v and 1 toward +v; row ``i``
owns line ``2 i`` (toward -u) and ``2 i + 1`` (toward +u). Stages run in
order. Within a stage, a typed frame error from the evaluation
(:class:`UmbilicError`, :class:`CurvatureSignError`,
:class:`SingularRadiusError`, :class:`FlatError`) comes before the
5-degree field-angle check (:class:`TracingError`), and either one names
the lowest offending line and its ``(u, v)`` in the message and in the
``line`` and ``uv`` fields; an error of the seed batch names the lowest
offending seed row instead. Every line evaluates the points a
line-by-line tracer would, so tracing fails exactly when that tracer
does; with several offending lines the one reported may differ. Where
the field jumps, as the principal directions do through an umbilic, the
error estimate stays large until the step shrinks, so stage points
crowd toward the jump; that is how a line through an umbilic meets the
frame field's :class:`UmbilicError`. A non-finite direction at a start
or stage point, which would put the next stage point outside the domain
box and end the line silently, raises :class:`TracingError` after the
field-angle check. A line whose error estimate does not fall with the
step (a NaN estimate, say, from a step's end point) would shrink it
without end; a rejection below ``MIN_STEP`` times the domain diagonal
raises :class:`TracingError` instead. So does a grid trimmed below 2x2,
and a grid with a degenerate cell, which names the first such cell.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bspline import BSplineSurface, evaluate_jets, principal_frames
from .conjugacy import CongruenceSpec, pseudo_lconj_partners
from .errors import LnetsError, TracingError, located

logger = logging.getLogger(__name__)

ANGLE_FAMILIES = ("constant", "linear_u", "linear_v", "cosine_u", "cosine_v")
# Two traced directions closer than this (as lines) abort tracing.
MIN_FIELD_ANGLE = math.radians(5.0)
# Smallest tolerated |cell area| relative to the mean cell area.
EPS_CELL = 1e-8
# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Table II.5.2). Row
# i gives the stage-(i + 2) point from the slopes k1..k(i+1). The last row
# is the fifth-order solution, so its slope is the next step's k1 (FSAL).
DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Fifth- minus fourth-order weights of k1..k7: the local error estimate.
DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
        -1 / 40)
# Local error allowed per step, in parameter units.
TRACE_TOL = 1e-9
# Step-size controller: safety factor and bounds of the step ratio.
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 10.0
# Smallest step a rejected attempt may leave, relative to the domain
# diagonal. Steps toward a field jump, such as an umbilic, stay above 1e-7.
MIN_STEP = 1e-12


@dataclass(frozen=True)
class AngleField:
    """First-direction angle against ``t1`` over the normalized domain.

    Families: ``constant`` (fixed value), ``linear_u`` / ``linear_v``
    (linear blend from ``theta_min`` to ``theta_max`` along one parameter)
    and ``cosine_u`` / ``cosine_v`` (cosine wave between the two bounds,
    periodic with period 1). All angles lie in ``[0, pi/2]``.
    """

    family: str
    theta_min: float
    theta_max: float

    def __post_init__(self):
        if self.family not in ANGLE_FAMILIES:
            raise ValueError(f"unknown angle family {self.family!r}")
        for name in ("theta_min", "theta_max"):
            val = float(getattr(self, name))
            object.__setattr__(self, name, val)
            if not 0.0 <= val <= math.pi / 2.0 + 1e-15:
                raise ValueError(f"{name}={val:g} outside [0, pi/2]")
        if self.family == "constant" and self.theta_min != self.theta_max:
            raise ValueError(f"a constant field has one angle, got "
                             f"theta_min={self.theta_min:g} and "
                             f"theta_max={self.theta_max:g}")

    @classmethod
    def constant(cls, value: float) -> "AngleField":
        return cls("constant", value, value)


def theta_eval(field: AngleField, u, v):
    """Angle of the first direction at normalized coordinates ``(u, v)``.

    ``u`` and ``v`` are scalars (a float is returned) or arrays of one
    shape. The cosine families evaluate on the fractional part of the
    running coordinate, making them exactly periodic.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    lo, hi = field.theta_min, field.theta_max
    if field.family == "constant":
        theta = np.full(u.shape, lo)
    elif field.family == "linear_u":
        theta = (1.0 - u) * lo + u * hi
    elif field.family == "linear_v":
        theta = (1.0 - v) * lo + v * hi
    else:
        t = u if field.family == "cosine_u" else v
        t = t - np.floor(t)
        theta = (0.5 * (lo + hi)
                 + 0.5 * (hi - lo) * np.cos(2.0 * math.pi * t))
    return theta if theta.ndim else float(theta)


@dataclass(frozen=True)
class FrameSample:
    """Conjugate direction pairs at one parameter point or a batch.

    ``d1_uv``/``d2_uv`` hold the parameter-domain coefficients and
    ``d1_3d``/``d2_3d`` the corresponding tangent vectors, related by the
    pushforward ``d_3d = d_u f_u + d_v f_v``. A batch of ``N`` points has
    shapes ``(N, 2)`` for ``uv`` and the ``_uv`` fields and ``(N, 3)``
    for the ``_3d`` fields; a single point drops the leading axis.
    """

    uv: np.ndarray
    d1_uv: np.ndarray
    d2_uv: np.ndarray
    d1_3d: np.ndarray
    d2_3d: np.ndarray


def _tangents_to_uv(jets: np.ndarray, *vectors: np.ndarray):
    """Coefficients of ``(N, 3)`` tangent vectors in the ``(f_u, f_v)``
    basis, one ``(N, 2)`` array per argument."""
    f_u, f_v = jets[:, 1], jets[:, 2]
    e = np.vecdot(f_u, f_u)
    f = np.vecdot(f_u, f_v)
    g = np.vecdot(f_v, f_v)
    det = e * g - f * f
    out = []
    for d in vectors:
        b1 = np.vecdot(d, f_u)
        b2 = np.vecdot(d, f_v)
        c = np.empty((d.shape[0], 2))
        c[:, 0] = (g * b1 - f * b2) / det
        c[:, 1] = (e * b2 - f * b1) / det
        out.append(c)
    return out


def frame_field(surface: BSplineSurface, spec: CongruenceSpec,
                field: AngleField, uv) -> FrameSample:
    """Conjugate frame samples at the parameter points ``uv`` (``(N, 2)``).

    One jet batch feeds the batched principal frames, congruence radii
    and contact-curve partners. The first direction makes the field angle
    with ``t1``; the second solves
    ``(k1 - r k1^2) a1 b1 + (k2 - r k2^2) a2 b2 = 0``. Each row equals
    :func:`frame_at` at that point bit for bit.

    A frame, radius or partner error is raised for the first offending
    point, with its ``(u, v)`` in the message and in ``uv`` and its row
    in ``index``.
    """
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    jets = evaluate_jets(surface, uv[:, 0], uv[:, 1])
    u0, u1, v0, v1 = surface.domain
    theta = theta_eval(field, (uv[:, 0] - u0) / (u1 - u0),
                       (uv[:, 1] - v0) / (v1 - v0))
    a = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    try:
        frames = principal_frames(jets)
        r = spec.radii(frames.kappa1, uv)
        b = pseudo_lconj_partners(frames.kappa1, frames.kappa2, r, a)
    except LnetsError as exc:
        if exc.index is None:
            raise
        u, v = uv[exc.index]
        raise located(type(exc), f"at (u={u:.6g}, v={v:.6g}): {exc}",
                      index=exc.index, uv=uv[exc.index].copy()) from exc
    d1_3d = a[:, :1] * frames.t1 + a[:, 1:] * frames.t2
    d2_3d = b[:, :1] * frames.t1 + b[:, 1:] * frames.t2
    d1_uv, d2_uv = _tangents_to_uv(jets, d1_3d, d2_3d)
    return FrameSample(uv, d1_uv, d2_uv, d1_3d, d2_3d)


def frame_at(surface: BSplineSurface, spec: CongruenceSpec, field: AngleField,
             u: float, v: float) -> FrameSample:
    """Conjugate frame sample at surface parameters ``(u, v)``; the
    one-point :func:`frame_field`."""
    s = frame_field(surface, spec, field, [[u, v]])
    return FrameSample(s.uv[0], s.d1_uv[0], s.d2_uv[0], s.d1_3d[0],
                       s.d2_3d[0])


@dataclass(frozen=True)
class GridSpec:
    """Requested grid size and tracing resolution.

    ``edge_length`` is the target spacing between grid vertices measured
    on the surface. ``rk4_step`` is the largest step of the adaptive
    tracer, in arclength; it defaults to ``edge_length``. (The name
    dates from a fixed-step RK4 tracer and is kept so configs load.)
    """

    rows: int
    cols: int
    edge_length: float
    rk4_step: float | None = None

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 cols")
        if not self.edge_length > 0:
            raise ValueError("edge_length must be positive")
        if self.rk4_step is not None and not self.rk4_step > 0:
            raise ValueError("rk4_step must be positive")


def _first_degenerate_cell(uv: np.ndarray):
    """The first cell ``(i, j)`` of the grid ``uv``, row-major, whose area
    is not above ``EPS_CELL`` times the mean cell area, or ``None``."""
    # A quad's area is half the cross product of its diagonals.
    a = uv[1:, 1:] - uv[:-1, :-1]
    b = uv[:-1, 1:] - uv[1:, :-1]
    area = 0.5 * np.abs(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    bad = ~(area > EPS_CELL * np.mean(area))  # every cell if all are flat
    if bad.any():
        return tuple(int(k) for k in np.argwhere(bad)[0])
    return None


@dataclass(frozen=True)
class QuadGrid:
    """Regular grid of parameter points with implied quad combinatorics."""

    uv: np.ndarray
    domain: tuple

    def __post_init__(self):
        uv = np.asarray(self.uv, dtype=float)
        if uv.ndim != 3 or uv.shape[2] != 2 or uv.shape[0] < 2 or uv.shape[1] < 2:
            raise ValueError("uv must have shape (rows>=2, cols>=2, 2)")
        object.__setattr__(self, "uv", uv)
        u0, u1, v0, v1 = self.domain
        if (np.any(uv[..., 0] < u0) or np.any(uv[..., 0] > u1)
                or np.any(uv[..., 1] < v0) or np.any(uv[..., 1] > v1)):
            raise ValueError("grid vertices outside the parameter domain")
        if _first_degenerate_cell(uv) is not None:
            raise ValueError("grid contains degenerate cells")

    @property
    def rows(self) -> int:
        return self.uv.shape[0]

    @property
    def cols(self) -> int:
        return self.uv.shape[1]


def _evaluate(field_fn, q: np.ndarray, label: str, lines: np.ndarray):
    """``field_fn(q)``; a located error is re-raised naming its line."""
    try:
        return field_fn(q)
    except LnetsError as exc:
        if exc.index is None:
            raise
        line = int(lines[exc.index])
        raise located(type(exc), f"{label} {line} {exc}", uv=exc.uv,
                      line=line) from exc


def _stage(field_fn, domain, family: int, lines: np.ndarray, q: np.ndarray,
           ref: np.ndarray, at_end: bool = False):
    """Sign-aligned unit-3D-speed directions at the stage points ``q``.

    Returns ``(keep, w)``: the rows of ``lines`` whose point lies in the
    domain box, and their directions of ``family``, aligned with the
    matching rows of ``ref``. Points outside the box are not evaluated.
    A non-finite direction raises :class:`TracingError` unless the points
    are a step's candidate end points (``at_end``), where it only makes
    the error estimate NaN.
    """
    u0, u1, v0, v1 = domain
    keep = np.flatnonzero((u0 <= q[:, 0]) & (q[:, 0] <= u1)
                          & (v0 <= q[:, 1]) & (q[:, 1] <= v1))
    if keep.size < lines.size:
        if keep.size == 0:
            return keep, np.empty((0, 2))
        lines, q, ref = lines[keep], q[keep], ref[keep]
    s = _evaluate(field_fn, q, f"family {family} line", lines)
    d1, d2 = s.d1_3d, s.d2_3d
    n1 = np.sqrt(np.vecdot(d1, d1))
    n2 = np.sqrt(np.vecdot(d2, d2))
    cosang = np.abs(np.vecdot(d1, d2)) / (n1 * n2)
    w = (s.d1_uv / n1[:, None]) if family == 0 else (s.d2_uv / n2[:, None])
    for bad, what in ((np.arccos(np.minimum(cosang, 1.0)) < MIN_FIELD_ANGLE,
                       "field directions closer than 5 degrees"),
                      ((not at_end) & ~np.all(np.isfinite(w), axis=1),
                       "non-finite field direction")):
        if bad.any():
            k = int(np.argmax(bad))
            line = int(lines[k])
            raise located(TracingError, f"family {family} line {line} at "
                          f"(u={q[k, 0]:.6g}, v={q[k, 1]:.6g}): {what}",
                          uv=q[k].copy(), line=line)
    return keep, np.where((np.vecdot(w, ref) < 0.0)[:, None], -w, w)


def _combine(weights, ks):
    """``sum(w * k)`` over the nonzero weights."""
    return sum(w * k for w, k in zip(weights, ks) if w)


def _dp_attempt(field_fn, domain, family: int, lines: np.ndarray,
                p0: np.ndarray, k1: np.ndarray, h: np.ndarray):
    """One Dormand-Prince attempt of step ``h`` (``(n,)``) for every line.

    Evaluates the six stages after ``k1``, each aligned with ``k1``.
    Returns ``(keep, p1, k7, err)``: the rows of ``lines`` whose stage
    points all lie in the domain box, their fifth-order end points, the
    slopes there and the norms of their local error estimates.
    """
    keep = np.arange(lines.size)
    h = h[:, None]
    ks = [k1]
    for row in DP_A:
        q = p0 + h * _combine(row, ks)
        kept, k = _stage(field_fn, domain, family, lines, q, k1,
                         at_end=row is DP_A[-1])
        if kept.size < lines.size:
            if kept.size == 0:
                return kept, q[:0], k, np.empty(0)
            keep, lines, p0, h, q, k1 = (a[kept] for a in
                                         (keep, lines, p0, h, q, k1))
            ks = [x[kept] for x in ks]
        ks.append(k)
    e = h * _combine(DP_E, ks)
    return keep, q, ks[-1], np.sqrt(np.vecdot(e, e))


def _march(field_fn, domain, family: int, starts, refs, budgets,
           edge_length: float, h_max: float) -> list:
    """Vertices at ``edge_length`` spacing along half-streamlines.

    Line ``i`` starts at ``starts[i]`` heading along ``refs[i]`` and stops
    after ``budgets[i]`` vertices or at the domain boundary; all lines
    advance in lockstep, each with its own step size, at most ``h_max``.
    A step is accepted when its local error estimate is at most
    ``TRACE_TOL``; a rejected attempt leaves its line where it was. Steps
    are cut to the arclength left to the next vertex. A rejection that
    leaves a step below ``MIN_STEP`` times the domain diagonal raises
    :class:`TracingError` for the lowest such line. Returns one list of
    vertices per line.
    """
    p = np.array(starts, dtype=float)
    n = p.shape[0]
    h_min = MIN_STEP * math.hypot(domain[1] - domain[0],
                                  domain[3] - domain[2])
    out = [[] for _ in range(n)]
    lines = np.flatnonzero(np.asarray(budgets) > 0)
    if lines.size == 0:
        return out
    keep, k = _stage(field_fn, domain, family, lines, p[lines],
                     np.asarray(refs, dtype=float)[lines])
    slope = np.zeros_like(p)
    slope[lines[keep]] = k
    active = np.zeros(n, dtype=bool)
    active[lines[keep]] = True
    h = np.full(n, float(h_max))
    left = np.full(n, float(edge_length))
    grow = np.full(n, FAC_MAX)
    while active.any():
        lines = np.flatnonzero(active)
        step = np.minimum(h[lines], left[lines])
        keep, p1, k7, err = _dp_attempt(field_fn, domain, family, lines,
                                        p[lines], slope[lines], step)
        active[lines] = False
        lines, step = lines[keep], step[keep]
        active[lines] = True
        ok = err <= TRACE_TOL
        with np.errstate(divide="ignore"):
            fac = SAFETY * (err / TRACE_TOL) ** -0.2
        # fmax maps a NaN estimate to FAC_MIN: a rejection that shrinks
        # the step, so the march cannot stall on it.
        fac = np.fmin(grow[lines], np.fmax(FAC_MIN, fac))
        at_vertex = step == left[lines]
        h[lines] = np.minimum(h_max, step * fac)
        stalled = ~ok & (h[lines] < h_min)
        if stalled.any():
            line = int(lines[np.argmax(stalled)])
            raise located(
                TracingError, f"family {family} line {line} at (u="
                f"{p[line, 0]:.6g}, v={p[line, 1]:.6g}): step {h[line]:.3g} "
                f"below the floor {h_min:.3g}; the error estimate does not "
                f"fall with the step", uv=p[line].copy(), line=line)
        # The step after a rejection may not grow.
        grow[lines] = np.where(ok, FAC_MAX, 1.0)
        moved = lines[ok]
        p[moved] = p1[ok]
        slope[moved] = k7[ok]
        left[moved] = np.where(at_vertex[ok], edge_length,
                               left[moved] - step[ok])
        for i in lines[ok & at_vertex]:
            out[i].append(p[i].copy())
            if len(out[i]) == budgets[i]:
                active[i] = False
    return out


def _initial_direction(sample: FrameSample, family: int) -> np.ndarray:
    """Positive orientation at the seed: +u for family 0, +v for family 1."""
    duv = (sample.d1_uv if family == 0 else sample.d2_uv)[0]
    primary = 0 if family == 0 else 1
    if duv[primary] != 0.0:
        return duv if duv[primary] > 0 else -duv
    return duv if duv[1 - primary] > 0 else -duv


def trace_grid_from_field(field_fn, domain, spec: GridSpec) -> QuadGrid:
    """Trace a quad grid from a batched frame-field callable.

    ``field_fn(uv)`` maps ``(N, 2)`` points inside ``domain`` to a batched
    :class:`FrameSample`; it is never called outside ``domain``. Rows
    follow the first family, columns the second; the seed row passes
    through the domain center.
    """
    u0, u1, v0, v1 = domain
    h_max = spec.edge_length if spec.rk4_step is None else spec.rk4_step
    center = np.array([0.5 * (u0 + u1), 0.5 * (v0 + v1)])
    center_sample = field_fn(center[None])

    # Seeds march outward from the center along the second family.
    n_lo = (spec.rows - 1) // 2
    n_hi = spec.rows - 1 - n_lo
    d2_ref = _initial_direction(center_sample, 1)
    lo_pts, hi_pts = _march(field_fn, domain, 1, [center, center],
                            [-d2_ref, d2_ref], [n_lo, n_hi],
                            spec.edge_length, h_max)
    seeds = np.array(lo_pts[::-1] + [center] + hi_pts)
    center_row = len(lo_pts)

    # Orient the first family consistently along the seed curve.
    d1 = _evaluate(field_fn, seeds, "seed row",
                   np.arange(len(seeds))).d1_uv
    refs = np.empty_like(d1)
    refs[center_row] = _initial_direction(center_sample, 0)
    for k in range(center_row + 1, len(seeds)):
        refs[k] = d1[k] if float(np.dot(d1[k], refs[k - 1])) >= 0 else -d1[k]
    for k in range(center_row - 1, -1, -1):
        refs[k] = d1[k] if float(np.dot(d1[k], refs[k + 1])) >= 0 else -d1[k]

    # Row i owns lines 2 i (toward -ref) and 2 i + 1 (toward +ref).
    c_lo = (spec.cols - 1) // 2
    c_hi = spec.cols - 1 - c_lo
    halves = _march(field_fn, domain, 0, np.repeat(seeds, 2, axis=0),
                    np.stack([-refs, refs], axis=1).reshape(-1, 2),
                    [c_lo, c_hi] * len(seeds), spec.edge_length, h_max)
    lo, hi = halves[0::2], halves[1::2]

    # Trim to the maximal complete rectangle.
    keep_lo = min(map(len, lo))
    keep_hi = min(map(len, hi))
    if len(seeds) < 2 or keep_lo + keep_hi < 1:
        raise TracingError(
            f"traced grid is {len(seeds)}x{keep_lo + keep_hi + 1} after "
            f"trimming at the domain boundary; a grid needs at least 2x2")
    uv = np.empty((len(seeds), keep_lo + keep_hi + 1, 2))
    for i, seed in enumerate(seeds):
        uv[i] = lo[i][:keep_lo][::-1] + [seed] + hi[i][:keep_hi]
    cell = _first_degenerate_cell(uv)
    if cell is not None:
        raise located(TracingError, f"traced grid cell {cell} at (u="
                      f"{uv[cell][0]:.6g}, v={uv[cell][1]:.6g}) is degenerate",
                      uv=uv[cell].copy())
    grid = QuadGrid(uv, tuple(domain))
    if grid.rows < spec.rows or grid.cols < spec.cols:
        logger.warning("traced grid trimmed at the domain boundary: "
                       "%dx%d requested, %dx%d realized",
                       spec.rows, spec.cols, grid.rows, grid.cols)
    return grid


def trace_grid(surface: BSplineSurface, spec: CongruenceSpec,
               field: AngleField, seeds: GridSpec) -> QuadGrid:
    """Field-aligned quad grid on the surface parameter domain."""
    return trace_grid_from_field(partial(frame_field, surface, spec, field),
                                 surface.domain, seeds)
