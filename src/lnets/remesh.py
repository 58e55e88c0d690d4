"""Angle fields, batched conjugate frame fields and extraction of a
field-aligned regular quad grid in the parameter domain.

:func:`frame_field` samples the conjugate direction pair at a batch of
parameter points from one jet batch. The tracer integrates the two
families of the line field with classic RK4 at a fixed parameter step.
It advances all half-streamlines of a phase in lockstep, and every RK4
stage evaluates the frame field once, on the stage points of all lines
still active:

1. the two seed half-lines of the second family, marching from the
   domain center toward -v and +v;
2. after one batch evaluation of all seeds, both first-family
   half-lines of every seed row.

Direction fields are sign-ambiguous; orientation is propagated by
choosing, at every evaluation, the sign that maximizes the dot product
with the previous direction, seeded positively along +u (first family)
and +v (second family) at the domain center. The first-family
orientation of the seed rows is propagated serially along the seed curve.

Each line has an active mask. It is cleared when a stage point leaves the
domain box, which is checked before evaluating, so the frame field is
never queried outside the domain and the vertex in progress is dropped;
and when the line has produced its own vertex budget. The grid is
trimmed to the maximal complete rectangle, so it may be smaller than
requested; a trimmed grid is logged as a warning on ``lnets.remesh``.

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
does; with several offending lines the one reported may differ.
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

    @classmethod
    def constant(cls, value: float) -> "AngleField":
        return cls("constant", value, value)

    @classmethod
    def linear_u(cls, theta_min: float, theta_max: float) -> "AngleField":
        return cls("linear_u", theta_min, theta_max)

    @classmethod
    def linear_v(cls, theta_min: float, theta_max: float) -> "AngleField":
        return cls("linear_v", theta_min, theta_max)

    @classmethod
    def cosine_u(cls, theta_min: float, theta_max: float) -> "AngleField":
        return cls("cosine_u", theta_min, theta_max)

    @classmethod
    def cosine_v(cls, theta_min: float, theta_max: float) -> "AngleField":
        return cls("cosine_v", theta_min, theta_max)


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
    on the surface; ``rk4_step`` defaults to (domain diagonal) / 400.
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
        d10 = uv[1:, :-1] - uv[:-1, :-1]
        d01 = uv[:-1, 1:] - uv[:-1, :-1]
        d11 = uv[1:, 1:] - uv[:-1, :-1]

        def cross2(a, b):
            return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

        # Shoelace area of each cell, split along the (i,j)->(i+1,j+1) diagonal.
        area = 0.5 * (cross2(d10, d11) + cross2(d11, d01))
        mean = float(np.mean(np.abs(area)))
        if mean == 0.0 or np.min(np.abs(area)) < EPS_CELL * mean:
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
           ref: np.ndarray):
    """Sign-aligned unit-3D-speed directions at the stage points ``q``.

    Returns ``(keep, w)``: the rows of ``lines`` whose point lies in the
    domain box, and their directions of ``family``, aligned with the
    matching rows of ``ref``. Points outside the box are not evaluated.
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
    close = np.arccos(np.minimum(cosang, 1.0)) < MIN_FIELD_ANGLE
    if close.any():
        k = int(np.argmax(close))
        line = int(lines[k])
        raise TracingError(
            f"family {family} line {line} at (u={q[k, 0]:.6g}, "
            f"v={q[k, 1]:.6g}): field directions closer than 5 degrees",
            uv=q[k].copy(), line=line)
    w = (s.d1_uv / n1[:, None]) if family == 0 else (s.d2_uv / n2[:, None])
    return keep, np.where((np.vecdot(w, ref) < 0.0)[:, None], -w, w)


def _rk4_step(field_fn, domain, family: int, p: np.ndarray,
              direction: np.ndarray, active: np.ndarray, h: float) -> None:
    """One RK4 step of every active line, updating the arrays in place.

    Lines with a stage point outside the domain leave ``active`` and keep
    their position.
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


def _march(field_fn, domain, family: int, starts, refs, budgets,
           edge_length: float, h: float) -> list:
    """Vertices at ``edge_length`` spacing along half-streamlines.

    Line ``i`` starts at ``starts[i]`` heading along ``refs[i]`` and stops
    after ``budgets[i]`` vertices or at the domain boundary; all lines
    advance in lockstep. The spacing is divided into an integral number
    of RK4 steps close to the requested step size. Returns one list of
    vertices per line.
    """
    steps = max(1, round(edge_length / h))
    h_eff = edge_length / steps
    p = np.array(starts, dtype=float)
    refs = np.asarray(refs, dtype=float)
    direction = refs / np.sqrt(np.vecdot(refs, refs))[:, None]
    out = [[] for _ in range(p.shape[0])]
    active = np.asarray(budgets) > 0
    while active.any():
        for _ in range(steps):
            _rk4_step(field_fn, domain, family, p, direction, active, h_eff)
            if not active.any():
                break
        for i in np.flatnonzero(active):
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
    h = spec.rk4_step
    if h is None:
        h = math.hypot(u1 - u0, v1 - v0) / 400.0
    center = np.array([0.5 * (u0 + u1), 0.5 * (v0 + v1)])
    center_sample = field_fn(center[None])

    # Seeds march outward from the center along the second family.
    n_lo = (spec.rows - 1) // 2
    n_hi = spec.rows - 1 - n_lo
    d2_ref = _initial_direction(center_sample, 1)
    lo_pts, hi_pts = _march(field_fn, domain, 1, [center, center],
                            [-d2_ref, d2_ref], [n_lo, n_hi],
                            spec.edge_length, h)
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
                    [c_lo, c_hi] * len(seeds), spec.edge_length, h)
    lo, hi = halves[0::2], halves[1::2]

    # Trim to the maximal complete rectangle.
    keep_lo = min(map(len, lo))
    keep_hi = min(map(len, hi))
    uv = np.empty((len(seeds), keep_lo + keep_hi + 1, 2))
    for i, seed in enumerate(seeds):
        uv[i] = lo[i][:keep_lo][::-1] + [seed] + hi[i][:keep_hi]
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
