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
from .errors import (CurvatureSignError, IrregularError, UmbilicError,
                     checked, json_fields, locating, raise_first, read_json)

# Regularity threshold: |f_u x f_v| must exceed EPS_REG * |f_u| |f_v|.
EPS_REG = 1e-10
# Sample-grid resolution used to seed closest-point projection.
PROJECTION_SEED_GRID = 24
# Newton steps of closest-point projection before a point falls back to
# its seed: its grid seed or its warm start. The LM's tracked footpoint
# refresh takes one step per point instead (:func:`_track`).
PROJECTION_MAX_ITER = 50
# Query rows per seed-screening block: a (256, 576) product per block, 1.2 MB
# for 576 seeds.
_SEED_BLOCK = 256


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
            raise IrregularError(
                "jet is not regular: f_u and f_v are parallel")


def evaluate_jets(surface: BSplineSurface, us, vs) -> np.ndarray:
    """Batched jet evaluation; returns ``(N, 6, 3)`` arrays.

    Second axis order: ``f, f_u, f_v, f_uu, f_uv, f_vv``. Parameters must
    lie inside the surface domain; a NaN parameter does not.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    u0, u1, v0, v1 = surface.domain
    if not (np.all(us >= u0) and np.all(us <= u1)
            and np.all(vs >= v0) and np.all(vs <= v1)):
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


def _convex_checks(gauss: np.ndarray, irregular: np.ndarray) -> list:
    """Regularity and positive Gaussian curvature, in that order."""
    return [(irregular, IrregularError,
             lambda k: "jet is not regular: f_u and f_v are parallel"),
            (gauss <= 0.0, CurvatureSignError,
             lambda k: f"Gaussian curvature {gauss[k]:g} is not positive")]


def oriented_normals(jets: np.ndarray) -> np.ndarray:
    """Unit normals of ``(N, 6, 3)`` jets, chosen so that the mean
    curvature is positive; ``(N, 3)``.

    On a positively curved surface this is the inward normal. The first
    row that is irregular (:class:`IrregularError`) or whose Gaussian
    curvature is not positive (:class:`CurvatureSignError`) raises; its
    row is the error's ``index``.
    """
    n, _, gauss, irregular = _oriented_forms(jets)
    raise_first(_convex_checks(gauss, irregular))
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

    The first row that is irregular (:class:`IrregularError`), not
    positively curved (:class:`CurvatureSignError`) or umbilic
    (:class:`UmbilicError`) raises; its row is the error's ``index``.
    """
    n, (s11, s12, s21, s22), gauss, irregular = _oriented_forms(jets)
    tr = s11 + s22
    disc = np.sqrt(np.maximum(tr * tr / 4.0 - (s11 * s22 - s12 * s21), 0.0))
    kappa1 = tr / 2.0 + disc
    kappa2 = tr / 2.0 - disc
    umbilic = (np.abs(kappa1 - kappa2)
               <= EPS_CLASS * np.maximum(np.abs(kappa1), np.abs(kappa2)))
    raise_first(_convex_checks(gauss, irregular) + [
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
    """Index of a nearest seed per query.

    Queries are screened :data:`_SEED_BLOCK` rows at a time by ``s = |p|^2
    - 2 x.p``, one matrix product per block, in coordinates centred on the
    seeds' centroid, and each takes the seed of its smallest ``s``. With
    ``u`` the unit roundoff, ``R`` the largest centred seed norm and ``|x|``
    the centred query norm, the computed ``s`` lies within ``9 u (|x| +
    R)^2`` of the exact ``|x - p|^2 - |x|^2``. So the chosen seed's squared
    distance exceeds the smallest by at most ``18 u (|x| + R)^2``, a bound
    that does not grow with the distance from the origin; which of seeds
    that close is chosen is not specified.
    """
    centre = points.mean(axis=0)
    p = points - centre
    # Rows (x, 1) times columns (-2 p, |p|^2) give s in one product.
    screen = np.vstack([-2.0 * p.T, np.vecdot(p, p)])
    x = np.column_stack([xs - centre, np.ones(xs.shape[0])])
    best = np.empty(xs.shape[0], dtype=np.intp)
    for lo in range(0, xs.shape[0], _SEED_BLOCK):
        best[lo:lo + _SEED_BLOCK] = np.argmin(
            x[lo:lo + _SEED_BLOCK] @ screen, axis=1)
    return best


def _grid_seeds(surface: BSplineSurface, xs: np.ndarray):
    """Parameters and jets of each query's nearest sample of the
    :data:`PROJECTION_SEED_GRID` square grid."""
    gu, gv = _seed_grid(surface, PROJECTION_SEED_GRID)
    jets = evaluate_jets(surface, gu, gv)
    best = _seed_select(jets[:, 0, :], xs)
    return np.stack([gu[best], gv[best]], axis=1), jets[best]


def _gradient(xs: np.ndarray, jets: np.ndarray):
    """The offsets ``diff = S - x`` of the points of ``jets`` from the
    queries ``xs`` and the gradient ``g`` of ``|S - x|^2 / 2`` in ``(u,
    v)``, ``(N, 2)``."""
    diff = jets[:, 0, :] - xs
    return diff, np.stack([np.einsum("nc,nc->n", diff, jets[:, 1, :]),
                           np.einsum("nc,nc->n", diff, jets[:, 2, :])], axis=1)


def _stopped(jets: np.ndarray, diff: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows of :func:`_gradient`'s data that pass the stop test ``|g| <=
    1e-13 (1 + |S - x| speed)``, with ``speed`` the larger of ``|S_u|`` and
    ``|S_v|``."""
    speed = np.sqrt(np.maximum(np.vecdot(jets[:, 1, :], jets[:, 1, :]),
                               np.vecdot(jets[:, 2, :], jets[:, 2, :])))
    dist = np.sqrt(np.vecdot(diff, diff))
    return np.hypot(g[:, 0], g[:, 1]) <= 1e-13 * (1.0 + dist * speed)


def _newton_step(surface: BSplineSurface, uv: np.ndarray, jets: np.ndarray,
                 diff: np.ndarray, g: np.ndarray):
    """Parameters after one damped Newton step from ``uv``, whose jets are
    ``jets`` and whose :func:`_gradient` data are ``diff`` and ``g``. A
    step longer than a quarter of the domain's longer side is shortened to
    it, and the iterate is clamped to the domain."""
    u0, u1, v0, v1 = surface.domain
    lim = 0.25 * max(u1 - u0, v1 - v0)
    a11 = (np.einsum("nc,nc->n", jets[:, 1, :], jets[:, 1, :])
           + np.einsum("nc,nc->n", diff, jets[:, 3, :]))
    a12 = (np.einsum("nc,nc->n", jets[:, 1, :], jets[:, 2, :])
           + np.einsum("nc,nc->n", diff, jets[:, 4, :]))
    a22 = (np.einsum("nc,nc->n", jets[:, 2, :], jets[:, 2, :])
           + np.einsum("nc,nc->n", diff, jets[:, 5, :]))
    b1, b2 = g[:, 0], g[:, 1]
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
    shrink = np.where(step > lim, lim / step, 1.0)
    return np.stack([np.clip(uv[:, 0] - shrink * du, u0, u1),
                     np.clip(uv[:, 1] - shrink * dv, v0, v1)], axis=1)


def _newton(surface: BSplineSurface, xs: np.ndarray, uv: np.ndarray,
            jets: np.ndarray):
    """Damped Newton iteration of closest-point projection from the seeds
    ``uv`` (updated in place) and their jets ``jets``.

    Returns ``(uv, converged, jets)``; a row that has not converged after
    :data:`PROJECTION_MAX_ITER` steps keeps its seed and the seed's jets,
    the others the jets of their last iterate, so none is evaluated twice.
    """
    seeds = uv.copy()
    out = jets.copy()
    converged = np.zeros(xs.shape[0], dtype=bool)
    for _ in range(PROJECTION_MAX_ITER):
        idx = np.flatnonzero(~converged)
        diff, g = _gradient(xs[idx], jets)
        done = _stopped(jets, diff, g)
        converged[idx[done]] = True
        out[idx[done]] = jets[done]
        if np.all(done):
            break
        sub = idx[~done]
        uv[sub] = _newton_step(surface, uv[sub], jets[~done], diff[~done],
                               g[~done])
        jets = evaluate_jets(surface, uv[sub, 0], uv[sub, 1])

    uv[~converged] = seeds[~converged]
    return uv, converged, out


def _queries(xs) -> np.ndarray:
    """Query points as ``(N, 3)`` floats; a non-finite one raises
    ValueError with its row in ``index``."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 3)
    raise_first([(~np.isfinite(xs).all(axis=1), ValueError,
                  lambda k: f"query point {k} is not finite")])
    return xs


def _footpoints(uv: np.ndarray, converged: np.ndarray, jets: np.ndarray):
    """:func:`project_points`' result from the parameters, convergence and
    jets of every row; oriented normals are taken in one call."""
    with locating(lambda k: "footpoint ", uv):
        normals = oriented_normals(jets)
    return uv, jets[:, 0, :], normals, converged, jets


def project_points(surface: BSplineSurface, xs: np.ndarray,
                   seeds_uv: np.ndarray | None = None,
                   seed_jets: np.ndarray | None = None):
    """Batched closest-point projection by damped Newton iteration.

    Each point starts from its nearest sample of an inclusive
    :data:`PROJECTION_SEED_GRID` square parameter grid (its grid seed;
    :func:`_seed_select`) unless ``seeds_uv`` (and ``seed_jets``, their
    jets) provide warm starts. Iterates are clamped to the domain. A point
    that has not converged after :data:`PROJECTION_MAX_ITER` steps falls
    back to its seed, warm or grid. Each row keeps the jets of its returned
    parameters; none is evaluated twice.

    Returns ``(uv, feet, normals, converged, jets)`` with shapes
    ``(N, 2), (N, 3), (N, 3), (N,), (N, 6, 3)``; ``jets`` are the surface
    jets at the returned parameters. A footpoint without an oriented
    normal (see :func:`oriented_normals`) raises with its row in ``index``
    and its parameters in ``uv``. A non-finite query point raises
    ValueError with its row in ``index``.
    """
    xs = _queries(xs)
    if seeds_uv is None:
        uv, jets = _grid_seeds(surface, xs)
    else:
        uv = np.asarray(seeds_uv, dtype=float).reshape(-1, 2).copy()
        jets = (evaluate_jets(surface, uv[:, 0], uv[:, 1])
                if seed_jets is None else seed_jets)
    return _footpoints(*_newton(surface, xs, uv, jets))


def _track(surface: BSplineSurface, xs: np.ndarray, seeds_uv: np.ndarray,
           seed_jets: np.ndarray):
    """:func:`project_points`' result after one damped Newton step per
    query from the warm starts ``seeds_uv`` and their jets ``seed_jets``.

    A row whose warm start passes the stop test keeps it; when every row
    does, no jet is evaluated. A row whose step does not shrink its
    gradient gets the Newton iteration of :func:`project_points` from its
    warm start instead, with its fallback to that start; it is the only
    kind of row that can be unconverged. The other rows are returned after
    their step, whether or not they pass the stop test there.
    """
    xs = _queries(xs)
    diff, g = _gradient(xs, seed_jets)
    keep = _stopped(seed_jets, diff, g)
    converged = np.ones(xs.shape[0], dtype=bool)
    if keep.all():
        return _footpoints(seeds_uv.copy(), converged, seed_jets.copy())
    uv = np.where(keep[:, None], seeds_uv,
                  _newton_step(surface, seeds_uv, seed_jets, diff, g))
    jets = evaluate_jets(surface, uv[:, 0], uv[:, 1])
    g_new = _gradient(xs, jets)[1]
    redo = np.flatnonzero(~keep & ~(np.hypot(g_new[:, 0], g_new[:, 1])
                                    < np.hypot(g[:, 0], g[:, 1])))
    if redo.size:
        uv[redo], converged[redo], jets[redo] = _newton(
            surface, xs[redo], seeds_uv[redo], seed_jets[redo])
    return _footpoints(uv, converged, jets)


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
