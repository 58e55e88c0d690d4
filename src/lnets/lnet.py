"""Discrete net with a plane per grid vertex, a sphere per face and a cone
per edge, on square-grid combinatorics.

Grid conventions: the vertex grid has shape ``(vr, vc)``; faces form the
``(vr-1, vc-1)`` grid, face ``(i, j)`` having corner vertices ``(i, j)``,
``(i+1, j)``, ``(i+1, j+1)``, ``(i, j+1)``. Axis 0 triples advance the
first index, axis 1 triples the second. Boundary vertices touch fewer than
four faces; iteration is always over existing incidences only.

Orientation: a sphere is a center ``c`` and a signed radius ``r``,
positive for inward-pointing normals (``r = 0`` is a point). A plane is
``<n, x> + h = 0`` with unit normal ``n``. Sphere and plane are in
oriented contact when ``<n, c> + h = r``.

A face-corner incidence ``k = 4 f + m`` joins face ``f`` (row-major) to
its corner vertex ``m`` of :data:`CORNERS`; its contact point is
``c_f - r_f n_v``. :func:`contact_incidences` and
:func:`strip_incidences` are the one source of this numbering and of the
incidences that bound each cone strip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bspline import (BSplineSurface, evaluate_jets, oriented_normals,
                      principal_frames, project_points)
from .conjugacy import CongruenceSpec
from .errors import ConfigError, checked, json_array, json_fields, read_json
from .remesh import QuadGrid

# Default absolute tolerance on per-incidence contact residuals.
DEFAULT_TOL_OC = 1e-9
# Tolerance on ``| |n| - 1 |`` of a verified net's plane normals; well
# above double rounding, far below geometric feature scale.
TOL_UNIT = 1e-9

LNET_FORMAT_VERSION = 1

# Face-corner offsets in deterministic order.
CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class LNet:
    """Vertex planes and face spheres of a plane/cone/sphere net.

    ``normals``/``intercepts`` have vertex-grid shape, ``centers``/``radii``
    face-grid shape. Whether the net actually satisfies the contact and
    admissibility conditions is the business of :func:`verify`.
    """

    normals: np.ndarray
    intercepts: np.ndarray
    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        n = np.ascontiguousarray(self.normals, dtype=float)
        h = np.ascontiguousarray(self.intercepts, dtype=float)
        c = np.ascontiguousarray(self.centers, dtype=float)
        r = np.ascontiguousarray(self.radii, dtype=float)
        if n.ndim != 3 or n.shape[2] != 3 or n.shape[0] < 2 or n.shape[1] < 2:
            raise ValueError("normals must have shape (vr>=2, vc>=2, 3)")
        if h.shape != n.shape[:2]:
            raise ValueError("intercepts shape must match the vertex grid")
        fr, fc = n.shape[0] - 1, n.shape[1] - 1
        if c.shape != (fr, fc, 3):
            raise ValueError("centers must have shape (vr-1, vc-1, 3)")
        if r.shape != (fr, fc):
            raise ValueError("radii shape must match the face grid")
        for name, arr in (("normals", n), ("intercepts", h),
                          ("centers", c), ("radii", r)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contain non-finite values")
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "intercepts", h)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    @property
    def vertex_shape(self):
        return self.normals.shape[:2]

    @property
    def face_shape(self):
        return self.centers.shape[:2]


def initialize(grid: QuadGrid, surface: BSplineSurface,
               spec: CongruenceSpec) -> LNet:
    """Initial net from a field-aligned quad grid.

    Vertex planes take the surface normal and pass through the grid
    vertex (``h = -<v, n>``); face spheres sit at the projection of the
    quad barycenter, offset along the normal by the congruence radius
    there. The result is generally not yet in exact oriented contact.
    """
    uv = grid.uv
    vr, vc = grid.rows, grid.cols
    jets = evaluate_jets(surface, uv[..., 0].ravel(), uv[..., 1].ravel())
    points = jets[:, 0, :].reshape(vr, vc, 3)
    normals = oriented_normals(jets).reshape(vr, vc, 3)
    intercepts = -np.einsum("ijc,ijc->ij", points, normals)

    bary = 0.25 * (points[:-1, :-1] + points[1:, :-1]
                   + points[1:, 1:] + points[:-1, 1:])
    uv_feet, feet, foot_normals, _, foot_jets = project_points(
        surface, bary.reshape(-1, 3))
    fr, fc = vr - 1, vc - 1
    radii = spec.radii(principal_frames(foot_jets).kappa1, uv_feet)
    centers = feet + radii[:, None] * foot_normals
    return LNet(normals, intercepts,
                centers.reshape(fr, fc, 3), radii.reshape(fr, fc))


def contact_incidences(fr: int, fc: int):
    """Face and vertex of every face-corner incidence, two ``(4 F,)`` arrays.

    Incidence ``k = 4 f + m`` joins face ``f`` (row-major) to its corner
    ``m`` of :data:`CORNERS`.
    """
    i, j = np.divmod(np.arange(fr * fc), fc)
    da, db = np.array(CORNERS).T
    vert = (i[:, None] + da) * (fc + 1) + j[:, None] + db
    return np.repeat(np.arange(fr * fc), 4), vert.reshape(-1)


def strip_incidences(fr: int, fc: int):
    """Contact incidences bounding the strips, as ``(ell, gamma)``.

    Each is a ``(T, 8)`` array of incidence indices (see
    :func:`contact_incidences`). Let ``e`` be the axis step and ``x`` the
    cross step; face ``(i, j)`` and vertex ``(i, j)`` share indices.

    - ``ell`` row of the face triple ``f, f+e, f+2e``: ``a0..a3`` are the
      contacts of ``f`` and ``f+e`` with plane ``f+e``, then of ``f+e``
      and ``f+2e`` with plane ``f+2e``; ``b0..b3`` the same with planes
      ``f+e+x`` and ``f+2e+x``.
    - ``gamma`` row of the plane triple ``p, p+e, p+2e``: ``alpha0..3``
      are the contacts of sphere ``p-x`` with planes ``p`` and ``p+e``,
      then of sphere ``p-x+e`` with ``p+e`` and ``p+2e``; ``beta0..3``
      the same with spheres ``p`` and ``p+e``.

    Rows go axis 0 first, then row-major by the first face or plane.
    """
    def inc(face, corner):
        # CORNERS lists (da, db) at index 2 da + db.
        return 4 * (face[0] * fc + face[1]) + 2 * corner[0] + corner[1]

    def shift(face, step):
        return face[0] + step[0], face[1] + step[1]

    o, d = (0, 0), (1, 1)
    ell, gamma = [], []
    for e, x in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
        f0 = np.meshgrid(np.arange(fr - 2 * e[0]), np.arange(fc - 2 * e[1]),
                         indexing="ij")
        f1 = shift(f0, e)
        f2 = shift(f1, e)
        ell.append(np.stack([
            inc(f0, e), inc(f1, o), inc(f1, e), inc(f2, o),
            inc(f0, d), inc(f1, x), inc(f1, d), inc(f2, x)],
            axis=-1).reshape(-1, 8))
        # s0 = p - x runs over the faces whose neighbour s0 + (1, 1) exists.
        s0 = np.meshgrid(np.arange(fr - 1), np.arange(fc - 1), indexing="ij")
        s1 = shift(s0, e)
        s3 = shift(s0, x)
        s2 = shift(s1, x)
        gamma.append(np.stack([
            inc(s0, x), inc(s0, d), inc(s1, x), inc(s1, d),
            inc(s3, o), inc(s3, e), inc(s2, o), inc(s2, e)],
            axis=-1).reshape(-1, 8))
    return np.concatenate(ell), np.concatenate(gamma)


def contact_points(net: LNet) -> np.ndarray:
    """All sphere/plane contact points ``c - r n`` as ``(F, 4, 3)``.

    Second axis follows the corner order of :data:`CORNERS` for each face
    in row-major order.
    """
    face, vert = contact_incidences(*net.face_shape)
    c = net.centers.reshape(-1, 3)
    r = net.radii.reshape(-1)
    return (c[face] - r[face, None]
            * net.normals.reshape(-1, 3)[vert]).reshape(-1, 4, 3)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking the contact, admissibility and unit-normal
    conditions."""

    max_contact_residual: float
    num_inadmissible_edges: int
    is_lnet: bool
    max_unit_deviation: float


def face_pairs(fr: int, fc: int) -> np.ndarray:
    """Flat indices of edge-adjacent faces as ``(P, 2)``.

    Axis-0 pairs ``(i, j), (i+1, j)`` come first, then axis-1 pairs
    ``(i, j), (i, j+1)``, each in row-major order of the first face.
    """
    f = np.arange(fr * fc).reshape(fr, fc)
    return np.concatenate([
        np.stack([f[:-1].ravel(), f[1:].ravel()], axis=1),
        np.stack([f[:, :-1].ravel(), f[:, 1:].ravel()], axis=1)])


def verify(net: LNet, tol_oc: float = DEFAULT_TOL_OC) -> VerifyReport:
    """Check all face-corner contacts, edge admissibilities and normals.

    ``is_lnet`` holds when the largest contact residual stays within
    ``tol_oc``, every adjacent sphere pair admits a tangent cone and
    every plane normal is unit length within :data:`TOL_UNIT`
    (``max_unit_deviation``): the contact residual is a distance only
    for a unit normal.
    """
    fr, fc = net.face_shape
    face, vert = contact_incidences(fr, fc)
    c = net.centers.reshape(-1, 3)
    r = net.radii.reshape(-1)
    res = (np.einsum("kc,kc->k", c[face], net.normals.reshape(-1, 3)[vert])
           + net.intercepts.reshape(-1)[vert] - r[face])
    max_res = float(np.max(np.abs(res)))

    fa, fb = face_pairs(fr, fc).T
    d = c[fa] - c[fb]
    bad = int(np.count_nonzero(~(np.vecdot(d, d) > (r[fa] - r[fb]) ** 2)))

    unit_dev = float(np.max(np.abs(
        np.linalg.norm(net.normals, axis=2) - 1.0)))
    return VerifyReport(max_res, bad, (max_res <= tol_oc and bad == 0
                                       and unit_dev <= TOL_UNIT), unit_dev)


# Kinds of the net document (see :func:`lnets.errors.json_fields`).
_LNET_KINDS = {"format_version": int, "planes": list, "spheres": list}


def lnet_to_dict(net: LNet) -> dict:
    """JSON-ready dictionary: vertex grid of ``[[nx,ny,nz], h]`` under
    ``planes`` and face grid of ``[[cx,cy,cz], r]`` under ``spheres``."""
    vr, vc = net.vertex_shape
    fr, fc = net.face_shape
    planes = [[[list(net.normals[i, j]), float(net.intercepts[i, j])]
               for j in range(vc)] for i in range(vr)]
    spheres = [[[list(net.centers[i, j]), float(net.radii[i, j])]
                for j in range(fc)] for i in range(fr)]
    return {"format_version": LNET_FORMAT_VERSION,
            "planes": planes, "spheres": spheres}


def _cells(grid: list, where: str):
    """Vectors and scalars of a grid of ``[[x, y, z], s]`` cells."""
    cells = np.asarray(grid, dtype=object)
    if cells.ndim != 3 or cells.shape[2] != 2:
        raise ConfigError(f"{where} must be a grid of [[x, y, z], s] cells")
    return (json_array(cells[..., 0].tolist(), where),
            json_array(cells[..., 1].tolist(), where))


def lnet_from_dict(data: dict) -> LNet:
    """Strict parse of the net schema."""
    f = json_fields(data, "net", _LNET_KINDS, _LNET_KINDS)
    if f["format_version"] != LNET_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported net format_version {f['format_version']!r}")
    return checked(LNet, "net", *_cells(f["planes"], "net: planes"),
                   *_cells(f["spheres"], "net: spheres"))


def load_lnet(path) -> LNet:
    return lnet_from_dict(read_json(path))


def save_lnet(net: LNet, path) -> None:
    Path(path).write_text(json.dumps(lnet_to_dict(net)), encoding="utf-8")
