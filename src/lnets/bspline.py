"""Tensor-product B-spline reference surfaces.

Evaluation with second-order jets, principal frames with the
inward-normal orientation rule, and closest-point projection. The heavy
per-point arithmetic lives in :mod:`lnets.kernels`; this module owns
validation, orientation and the Newton projection logic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .conjugacy import EPS_CLASS, first_positive
from .errors import (CurvatureSignError, LnetsError, UmbilicError, checked,
                     json_fields, located, read_json)

# Regularity threshold: |f_u x f_v| must exceed EPS_REG * |f_u| |f_v|.
EPS_REG = 1e-10
# Sample-grid resolution used to seed closest-point projection.
PROJECTION_SEED_GRID = 24
# Newton steps of closest-point projection before a point falls back to
# its seed.
PROJECTION_MAX_ITER = 50
# Query rows per seed-screening block: a (256, 576) product per block, 1.2 MB
# for 576 seeds.
_SEED_BLOCK = 256
# Screening tolerance 2 delta = _SEED_TOL (|x| + R)^2 in centred coordinates
# (see :func:`_seed_select`): 32 units of roundoff. The smallest normal
# number is added to it to cover underflow.
_SEED_TOL = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class BSplineSurface:
    """Clamped tensor-product B-spline surface with 3D control points.

    Interior knots repeat at most ``degree`` times. ``breaks_u``,
    ``breaks_v`` and ``coeffs`` hold the per-span polynomial patches
    (:func:`lnets.kernels.power_coefficients`) that every jet reads.
    """

    degree_u: int
    degree_v: int
    knots_u: np.ndarray
    knots_v: np.ndarray
    control_grid: np.ndarray
    breaks_u: np.ndarray = field(init=False, repr=False, compare=False)
    breaks_v: np.ndarray = field(init=False, repr=False, compare=False)
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("knots_u", "knots_v", "control_grid"):
            object.__setattr__(self, name, np.ascontiguousarray(
                getattr(self, name), dtype=float))
        if self.degree_u < 1 or self.degree_v < 1:
            raise ValueError("degrees must be >= 1")
        if self.control_grid.ndim != 3 or self.control_grid.shape[2] != 3:
            raise ValueError("control_grid must have shape (n_u, n_v, 3)")
        for name in ("knots_u", "knots_v", "control_grid"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for name, knots, degree, n_ctrl in (
                ("knots_u", self.knots_u, self.degree_u, self.control_grid.shape[0]),
                ("knots_v", self.knots_v, self.degree_v, self.control_grid.shape[1])):
            if n_ctrl < degree + 1:
                raise ValueError(f"too few control points along {name[-1]}")
            if knots.shape != (n_ctrl + degree + 1,):
                raise ValueError(
                    f"{name} must have {n_ctrl + degree + 1} entries, "
                    f"got {knots.shape[0]}")
            if np.any(np.diff(knots) < 0):
                raise ValueError(f"{name} must be nondecreasing")
            # Exact end multiplicities also make the domain nonempty.
            mult = np.unique(knots, return_counts=True)[1]
            if mult[0] != degree + 1 or mult[-1] != degree + 1:
                raise ValueError(f"{name} must be clamped "
                                 f"(end multiplicity {degree + 1})")
            if mult[1:-1].max(initial=0) > degree:
                raise ValueError(
                    f"{name} has an interior knot of multiplicity "
                    f"{mult[1:-1].max()} > degree {degree}; the surface "
                    f"would be discontinuous there")
        for name, value in zip(("breaks_u", "breaks_v", "coeffs"),
                               kernels.power_coefficients(
                                   self.knots_u, self.knots_v, self.degree_u,
                                   self.degree_v, self.control_grid)):
            object.__setattr__(self, name, value)

    @property
    def domain(self):
        """Parameter rectangle ``(u_min, u_max, v_min, v_max)``."""
        return (float(self.breaks_u[0]), float(self.breaks_u[-1]),
                float(self.breaks_v[0]), float(self.breaks_v[-1]))


@dataclass(frozen=True)
class SurfaceJet2:
    """Point value and derivatives up to order two of a surface patch."""

    f: np.ndarray
    f_u: np.ndarray
    f_v: np.ndarray
    f_uu: np.ndarray
    f_uv: np.ndarray
    f_vv: np.ndarray

    def __post_init__(self):
        for name in ("f", "f_u", "f_v", "f_uu", "f_uv", "f_vv"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            object.__setattr__(self, name, v)
        if _unit_normals(self.f_u[None], self.f_v[None])[1][0]:
            raise ValueError("jet is not regular: f_u and f_v are parallel")


def evaluate_jets(surface: BSplineSurface, us, vs) -> np.ndarray:
    """Batched jet evaluation; returns ``(N, 6, 3)`` arrays.

    Second axis order: ``f, f_u, f_v, f_uu, f_uv, f_vv``. Parameters must
    lie inside the surface domain.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    u0, u1, v0, v1 = surface.domain
    if (np.any(us < u0) or np.any(us > u1)
            or np.any(vs < v0) or np.any(vs > v1)):
        raise ValueError("parameters outside the surface domain")
    return kernels.surface_jets_batch(
        surface.breaks_u, surface.breaks_v, surface.degree_u,
        surface.degree_v, surface.coeffs, us, vs)


def evaluate_jet(surface: BSplineSurface, u: float, v: float) -> SurfaceJet2:
    """Jet of the surface at a single parameter point."""
    return SurfaceJet2(*evaluate_jets(surface, [u], [v])[0])


@dataclass(frozen=True)
class PrincipalFrames:
    """Right-handed orthonormal frames ``(t1, t2, n)`` with curvatures.

    ``n`` points to the side that makes both curvatures positive and
    ``kappa1 >= kappa2``; ``t1`` belongs to ``kappa1``. A batch of ``N``
    frames has ``(N, 3)`` vectors and ``(N,)`` curvatures; a single frame
    drops the leading axis.
    """

    t1: np.ndarray
    t2: np.ndarray
    n: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of ``(N, 3)`` arrays (as ``np.cross``)."""
    out = np.empty(a.shape)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _jet_rows(jet: SurfaceJet2) -> np.ndarray:
    """One jet as a ``(1, 6, 3)`` batch."""
    return np.stack([jet.f, jet.f_u, jet.f_v, jet.f_uu, jet.f_uv,
                     jet.f_vv])[None]


def _unit_normals(f_u: np.ndarray, f_v: np.ndarray):
    """Unit normals ``f_u x f_v / |f_u x f_v|`` of ``(N, 3)`` tangents.

    Returns ``(m, irregular)``. A row is irregular when its tangents are
    parallel, ``|f_u x f_v| <= EPS_REG |f_u| |f_v|``; it keeps the
    unnormalized cross product.
    """
    m = _cross(f_u, f_v)
    m_norm = np.sqrt(np.vecdot(m, m))
    irregular = m_norm <= EPS_REG * np.sqrt(np.vecdot(f_u, f_u)) * np.sqrt(
        np.vecdot(f_v, f_v))
    m /= np.where(irregular, 1.0, m_norm)[:, None]
    return m, irregular


def _oriented_forms(jets: np.ndarray):
    """Oriented normals and shape operators of ``(N, 6, 3)`` jets.

    Returns ``(n, (s11, s12, s21, s22), gauss, irregular)``. The normal
    ``n`` follows the positive-mean-curvature rule; the shape operator
    ``[[E, F], [F, G]]^-1 [[L, M], [M, N]]`` is taken relative to it in
    the ``(f_u, f_v)`` basis, so its eigenvalues are the principal
    curvatures. Rows flagged ``irregular`` (parallel tangents) hold
    placeholders. Dot products go row by row through ``np.vecdot``, the
    BLAS dot of ``np.dot``, so each row equals the result for that jet
    alone bit for bit.
    """
    f_u, f_v = jets[:, 1], jets[:, 2]
    m, irregular = _unit_normals(f_u, f_v)
    e = np.vecdot(f_u, f_u)
    f = np.vecdot(f_u, f_v)
    g = np.vecdot(f_v, f_v)
    ll = np.vecdot(jets[:, 3], m)
    mm = np.vecdot(jets[:, 4], m)
    nn = np.vecdot(jets[:, 5], m)
    det_i = e * g - f * f
    det_i[irregular] = 1.0
    gauss = (ll * nn - mm * mm) / det_i
    mean = (e * nn - 2.0 * f * mm + g * ll) / (2.0 * det_i)
    sign = np.where(mean > 0.0, 1.0, -1.0)
    ll, mm, nn = sign * ll, sign * mm, sign * nn
    shape = ((g * ll - f * mm) / det_i, (g * mm - f * nn) / det_i,
             (e * mm - f * ll) / det_i, (e * nn - f * mm) / det_i)
    return sign[:, None] * m, shape, gauss, irregular


def _raise_first(checks) -> None:
    """Raise for the first row that fails any ``(bad, cls, message)`` check.

    The checks are tried in order on that row; ``message(k)`` builds the
    text and the row is the error's ``index``.
    """
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if not bad.any():
        return
    k = int(np.argmax(bad))
    for mask, cls, message in checks:
        if mask[k]:
            raise located(cls, message(k), index=k)


def _convex_checks(gauss: np.ndarray, irregular: np.ndarray) -> list:
    """Regularity and positive Gaussian curvature, in that order."""
    return [(irregular, ValueError,
             lambda k: "jet is not regular: f_u and f_v are parallel"),
            (gauss <= 0.0, CurvatureSignError,
             lambda k: f"Gaussian curvature {gauss[k]:g} is not positive")]


def oriented_normals(jets: np.ndarray) -> np.ndarray:
    """Unit normals of ``(N, 6, 3)`` jets, chosen so that the mean
    curvature is positive; ``(N, 3)``.

    On a positively curved surface this is the inward normal. The first
    row that is irregular (``ValueError``) or whose Gaussian curvature is
    not positive (:class:`CurvatureSignError`) raises; its row is the
    error's ``index``.
    """
    n, _, gauss, irregular = _oriented_forms(jets)
    _raise_first(_convex_checks(gauss, irregular))
    return n


def oriented_normal(jet: SurfaceJet2) -> np.ndarray:
    """Oriented normal of one jet (see :func:`oriented_normals`)."""
    return oriented_normals(_jet_rows(jet))[0]


def principal_frames(jets: np.ndarray) -> PrincipalFrames:
    """Principal frames and curvatures from ``(N, 6, 3)`` jets.

    The shape operator is diagonalized in closed form; the normal follows
    the positive-mean-curvature rule, curvatures are ordered
    ``kappa1 >= kappa2`` and the sign of ``t1`` is fixed so that its first
    nonzero component is positive. Each row equals the frame of that jet
    alone bit for bit.

    The first row that is irregular (``ValueError``), not positively
    curved (:class:`CurvatureSignError`) or umbilic
    (:class:`UmbilicError`) raises; its row is the error's ``index``.
    """
    n, (s11, s12, s21, s22), gauss, irregular = _oriented_forms(jets)
    tr = s11 + s22
    disc = np.sqrt(np.maximum(tr * tr / 4.0 - (s11 * s22 - s12 * s21), 0.0))
    kappa1 = tr / 2.0 + disc
    kappa2 = tr / 2.0 - disc
    umbilic = (np.abs(kappa1 - kappa2)
               <= EPS_CLASS * np.maximum(np.abs(kappa1), np.abs(kappa2)))
    _raise_first(_convex_checks(gauss, irregular) + [
        (umbilic, UmbilicError, lambda k: f"principal curvatures coincide: "
         f"{kappa1[k]:g} ~ {kappa2[k]:g}"),
        (kappa2 <= 0.0, CurvatureSignError,
         lambda k: f"principal curvature {kappa2[k]:g} <= 0")])

    # Two eigenvector candidates per row; the longer one is better
    # conditioned.
    cand = np.empty((jets.shape[0], 2, 2))
    cand[:, 0, 0] = s12
    cand[:, 0, 1] = kappa1 - s11
    cand[:, 1, 0] = kappa1 - s22
    cand[:, 1, 1] = s21
    sq = np.vecdot(cand, cand)
    ab = np.where((sq[:, 0] >= sq[:, 1])[:, None], cand[:, 0], cand[:, 1])
    t1 = ab[:, :1] * jets[:, 1] + ab[:, 1:] * jets[:, 2]
    t1 = first_positive(t1 / np.sqrt(np.vecdot(t1, t1))[:, None])
    return PrincipalFrames(t1, _cross(n, t1), n, kappa1, kappa2)


def principal_frame(jet: SurfaceJet2) -> PrincipalFrames:
    """Principal frame of one jet (see :func:`principal_frames`)."""
    fr = principal_frames(_jet_rows(jet))
    return PrincipalFrames(fr.t1[0], fr.t2[0], fr.n[0],
                           fr.kappa1[0], fr.kappa2[0])


def _seed_grid(surface: BSplineSurface, m: int):
    u0, u1, v0, v1 = surface.domain
    us = np.linspace(u0, u1, m)
    vs = np.linspace(v0, v1, m)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    return uu.ravel(), vv.ravel()


def _seed_select(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Index of the closest seed per query; first minimum wins on ties.

    Seeds are ordered u-major then v, so the first minimum is the one with
    the smallest ``u`` and then the smallest ``v``. The result equals
    ``np.argmin(((points - x) ** 2).sum(axis=1))`` per query ``x``, ties
    and all.

    Queries are screened :data:`_SEED_BLOCK` rows at a time by ``s = |p|^2
    - 2 x.p``, one matrix product per block, in coordinates centred on the
    seeds' centroid. With ``u`` the unit roundoff, ``R`` the largest
    centred seed norm and ``|x|`` the centred query norm, the computed
    ``s`` lies within ``9 u (|x| + R)^2`` of the exact ``|x - p|^2 -
    |x|^2``, and the squared distance above within ``5 u (|x| + R)^2`` of
    the exact one. So the seed that the exact expression ranks first has a
    screened value within ``2 delta = 32 u (|x| + R)^2`` of the row's
    smallest. A row with no other seed that close takes its screened
    minimum; the others rank their seeds within ``2 delta`` by the exact
    expression. Non-finite values make every seed of the row a candidate.
    """
    centre = points.mean(axis=0)
    p = points - centre
    sq = np.vecdot(p, p)
    # Rows (x, 1) times columns (-2 p, |p|^2) give s in one product.
    screen = np.vstack([-2.0 * p.T, sq])
    x = np.column_stack([xs - centre, np.ones(xs.shape[0])])
    tol = (_SEED_TOL * (np.sqrt(np.vecdot(x[:, :3], x[:, :3]))
                        + np.sqrt(sq.max(initial=0.0))) ** 2
           + np.finfo(float).tiny)
    best = np.empty(xs.shape[0], dtype=np.intp)
    for lo in range(0, xs.shape[0], _SEED_BLOCK):
        s = x[lo:lo + _SEED_BLOCK] @ screen
        rows = np.arange(s.shape[0])
        first = np.argmin(s, axis=1)
        best[lo:lo + _SEED_BLOCK] = first
        lim = s[rows, first] + tol[lo:lo + _SEED_BLOCK]
        s[rows, first] = np.inf
        tied = np.flatnonzero(~(s.min(axis=1) > lim))
        if tied.size:
            cand = ~(s[tied] > lim[tied, None])
            cand[np.arange(tied.size), first[tied]] = True
            t, k = np.nonzero(cand)
            d2 = np.full(cand.shape, np.inf)
            d2[t, k] = ((points[k] - xs[lo + tied[t]]) ** 2).sum(axis=1)
            best[lo + tied] = np.argmin(d2, axis=1)
    return best


def project_points(surface: BSplineSurface, xs: np.ndarray,
                   seeds_uv: np.ndarray | None = None,
                   seed_jets: np.ndarray | None = None):
    """Batched closest-point projection by damped Newton iteration.

    Seeds come from the best of an inclusive :data:`PROJECTION_SEED_GRID`
    square parameter sample (ties resolved toward smaller ``u``, then
    smaller ``v``) unless ``seeds_uv`` (and ``seed_jets``, their jets)
    provide warm starts. Iterates are clamped to the domain; points that
    have not converged after :data:`PROJECTION_MAX_ITER` steps fall back to
    their seed parameters.
    Each row keeps the jets of its last iterate; none is evaluated twice.

    Returns ``(uv, feet, normals, converged, jets)`` with shapes
    ``(N, 2), (N, 3), (N, 3), (N,), (N, 6, 3)``; ``jets`` are the surface
    jets at the returned parameters. A footpoint without an oriented
    normal (see :func:`oriented_normals`) raises with its row in ``index``
    and its parameters in ``uv``.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 3)
    n_pts = xs.shape[0]
    u0, u1, v0, v1 = surface.domain
    scale = max(u1 - u0, v1 - v0)

    if seeds_uv is None:
        gu, gv = _seed_grid(surface, PROJECTION_SEED_GRID)
        jets = evaluate_jets(surface, gu, gv)
        best = _seed_select(jets[:, 0, :], xs)
        uv = np.stack([gu[best], gv[best]], axis=1)
        jets = jets[best]
    else:
        uv = np.asarray(seeds_uv, dtype=float).reshape(-1, 2).copy()
        jets = (evaluate_jets(surface, uv[:, 0], uv[:, 1])
                if seed_jets is None else seed_jets)
    seeds = uv.copy()

    out = jets.copy()
    converged = np.zeros(n_pts, dtype=bool)
    active = np.ones(n_pts, dtype=bool)
    for _ in range(PROJECTION_MAX_ITER):
        idx = np.flatnonzero(active)
        diff = jets[:, 0, :] - xs[idx]
        g1 = np.einsum("nc,nc->n", diff, jets[:, 1, :])
        g2 = np.einsum("nc,nc->n", diff, jets[:, 2, :])
        speed = np.maximum(np.linalg.norm(jets[:, 1, :], axis=1),
                           np.linalg.norm(jets[:, 2, :], axis=1))
        dist = np.linalg.norm(diff, axis=1)
        tol = 1e-13 * (1.0 + dist * speed)
        done = np.hypot(g1, g2) <= tol
        converged[idx[done]] = True
        active[idx[done]] = False
        out[idx[done]] = jets[done]
        if np.all(done):
            break

        rest = ~done
        sub = idx[rest]
        a11 = (np.einsum("nc,nc->n", jets[:, 1, :], jets[:, 1, :])
               + np.einsum("nc,nc->n", diff, jets[:, 3, :]))[rest]
        a12 = (np.einsum("nc,nc->n", jets[:, 1, :], jets[:, 2, :])
               + np.einsum("nc,nc->n", diff, jets[:, 4, :]))[rest]
        a22 = (np.einsum("nc,nc->n", jets[:, 2, :], jets[:, 2, :])
               + np.einsum("nc,nc->n", diff, jets[:, 5, :]))[rest]
        b1, b2 = g1[rest], g2[rest]
        det = a11 * a22 - a12 * a12
        # Regularize nearly singular systems toward gradient descent.
        bad = np.abs(det) <= 1e-300
        damp = np.where(bad, 1e-8 * np.maximum(np.abs(a11) + np.abs(a22), 1.0), 0.0)
        a11 = a11 + damp
        a22 = a22 + damp
        det = a11 * a22 - a12 * a12
        du = (a22 * b1 - a12 * b2) / det
        dv = (a11 * b2 - a12 * b1) / det
        step = np.hypot(du, dv)
        lim = 0.25 * scale
        shrink = np.where(step > lim, lim / step, 1.0)
        uv[sub, 0] = np.clip(uv[sub, 0] - shrink * du, u0, u1)
        uv[sub, 1] = np.clip(uv[sub, 1] - shrink * dv, v0, v1)
        jets = evaluate_jets(surface, uv[sub, 0], uv[sub, 1])

    uv[~converged] = seeds[~converged]
    feet = out[:, 0, :]
    try:
        normals = oriented_normals(out)
    except (LnetsError, ValueError) as exc:
        k = exc.index
        raise located(type(exc), f"footpoint at (u={uv[k, 0]:.6g}, "
                      f"v={uv[k, 1]:.6g}): {exc}", index=k,
                      uv=uv[k].copy()) from exc
    return uv, feet, normals, converged, out


# Kinds of the surface document (see :func:`lnets.errors.json_fields`).
_SURFACE_KINDS = {"degree_u": int, "degree_v": int, "knots_u": np.ndarray,
                  "knots_v": np.ndarray, "control_points": np.ndarray}


def surface_to_dict(surface: BSplineSurface) -> dict:
    """JSON-ready dictionary in the documented surface schema."""
    return {
        "degree_u": surface.degree_u,
        "degree_v": surface.degree_v,
        "knots_u": surface.knots_u.tolist(),
        "knots_v": surface.knots_v.tolist(),
        "control_points": surface.control_grid.tolist(),
    }


def surface_from_dict(data: dict) -> BSplineSurface:
    """Parse the surface schema strictly: unknown keys are rejected."""
    f = json_fields(data, "surface", _SURFACE_KINDS, _SURFACE_KINDS)
    return checked(BSplineSurface, "surface", f["degree_u"], f["degree_v"],
                   f["knots_u"], f["knots_v"], f["control_points"])


def load_surface(path) -> BSplineSurface:
    """Load a surface from its JSON document."""
    return surface_from_dict(read_json(path))


def save_surface(surface: BSplineSurface, path) -> None:
    """Write a surface as a JSON document."""
    Path(path).write_text(json.dumps(surface_to_dict(surface), indent=1),
                          encoding="utf-8")


def convex_paraboloid_patch(alpha: float = 1.0,
                            beta: float = 0.4) -> BSplineSurface:
    """Built-in convex test patch: the graph ``z = (a x^2 + b y^2) / 2``.

    Represented exactly as a biquadratic Bezier patch over ``[-1, 1]^2``.
    For ``alpha != beta`` the patch is positively curved and free of
    umbilic points, which makes it a convenient reference surface for
    tests and for the command-line examples.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    coords = np.array([-1.0, 0.0, 1.0])
    pu = np.array([0.5 * alpha, -0.5 * alpha, 0.5 * alpha])
    qv = np.array([0.5 * beta, -0.5 * beta, 0.5 * beta])
    ctrl = np.empty((3, 3, 3))
    for i in range(3):
        for j in range(3):
            ctrl[i, j] = (coords[i], coords[j], pu[i] + qv[j])
    knots = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    return BSplineSurface(2, 2, knots, knots, ctrl)
