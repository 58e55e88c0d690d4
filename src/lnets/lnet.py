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
``c_f - r_f n_v`` (:func:`incidence_points`). :func:`contact_incidences`
and :func:`strip_incidences` are the one source of this numbering and of
the incidences that bound each cone strip.

The two conditions of a net are stated once, over flat arrays, and both
:func:`verify` and the LM residual blocks of :mod:`lnets.optimize` call
them: :func:`contact_residuals`, the oriented-contact residual ``<n_v,
c_f> + h_v - r_f`` of each incidence, and :func:`cone_gaps`, ``|c_a -
c_b|^2 - (r_a - r_b)^2`` of each adjacent sphere pair, positive exactly
where a cone joins the two spheres.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bspline import (BSplineSurface, evaluate_jets, oriented_normals,
                      principal_frames, project_points)
from .conjugacy import CongruenceSpec
from .errors import (ConfigError, checked, json_array, json_fields, locating,
                     read_json)
from .remesh import QuadGrid

logger = logging.getLogger(__name__)

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
    Barycenters whose projection does not converge keep their seed
    footpoints, and one warning gives their count and first face.
    """
    uv = grid.uv
    vr, vc = grid.rows, grid.cols
    jets = evaluate_jets(surface, uv[..., 0].ravel(), uv[..., 1].ravel())
    points = jets[:, 0, :].reshape(vr, vc, 3)
    with locating(lambda k: "grid vertex (%d, %d) " % divmod(k, vc),
                  uv.reshape(-1, 2)):
        normals = oriented_normals(jets).reshape(vr, vc, 3)
    intercepts = -np.einsum("ijc,ijc->ij", points, normals)

    bary = 0.25 * (points[:-1, :-1] + points[1:, :-1]
                   + points[1:, 1:] + points[:-1, 1:])
    uv_feet, feet, foot_normals, converged, foot_jets = project_points(
        surface, bary.reshape(-1, 3))
    fr, fc = vr - 1, vc - 1
    stray = np.flatnonzero(~converged)
    if stray.size:
        logger.warning("%d of %d face footpoints did not converge and keep "
                       "their seeds, the first at face (%d, %d)", stray.size,
                       converged.size, *divmod(int(stray[0]), fc))
    with locating(lambda k: "face (%d, %d) footpoint " % divmod(k, fc),
                  uv_feet):
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
    def axis0(k):
        # Contacts of faces (i, j) and (i+1, j) with plane (i+1, j+db), as
        # [i, j, db, face].
        pairs = np.stack([k[:-1, :, 1], k[1:, :, 0]], axis=-1)
        # Contacts of faces (i, j) and (i, j+1) with plane (i+da, j+1), as
        # [i, j, face, da].
        sides = np.stack([k[:, :-1, :, 1], k[:, 1:, :, 0]], axis=2)
        return (np.stack([pairs[:-1], pairs[1:]], axis=3),
                np.stack([sides[:-1], sides[1:]], axis=3))

    # CORNERS lists (da, db) at index 2 da + db.
    k = np.arange(4 * fr * fc).reshape(fr, fc, 2, 2)
    ell0, gamma0 = axis0(k)
    # Axis 1 is axis 0 of the transposed grid: face (j, i), corner (db, da).
    ell1, gamma1 = (t.swapaxes(0, 1) for t in axis0(k.transpose(1, 0, 3, 2)))
    return (np.concatenate([ell0.reshape(-1, 8), ell1.reshape(-1, 8)]),
            np.concatenate([gamma0.reshape(-1, 8), gamma1.reshape(-1, 8)]))


def incidence_points(c, r, n, face, vert) -> np.ndarray:
    """Contact points ``c_f - r_f n_v`` of the incidences ``(face, vert)``
    of the flat sphere centres ``c``, radii ``r`` and plane normals ``n``,
    ``(K, 3)``."""
    return c[face] - r[face, None] * n[vert]


def contact_residuals(c, r, n, h, face, vert) -> np.ndarray:
    """Oriented-contact residuals ``<n_v, c_f> + h_v - r_f`` of the
    incidences ``(face, vert)`` of flat spheres ``(c, r)`` and planes
    ``(n, h)``, ``(K,)``."""
    return np.einsum("kc,kc->k", c[face], n[vert]) + h[vert] - r[face]


def cone_gaps(c, r, a, b) -> np.ndarray:
    """``|c_a - c_b|^2 - (r_a - r_b)^2`` of the flat sphere pairs ``(a,
    b)``: positive exactly where a cone joins the two spheres."""
    d = c[a] - c[b]
    dr = r[a] - r[b]
    return np.einsum("kc,kc->k", d, d) - dr * dr


def contact_points(net: LNet) -> np.ndarray:
    """All sphere/plane contact points ``c - r n`` as ``(F, 4, 3)``.

    Second axis follows the corner order of :data:`CORNERS` for each face
    in row-major order.
    """
    return incidence_points(net.centers.reshape(-1, 3), net.radii.reshape(-1),
                            net.normals.reshape(-1, 3),
                            *contact_incidences(*net.face_shape)
                            ).reshape(-1, 4, 3)


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
    c = net.centers.reshape(-1, 3)
    r = net.radii.reshape(-1)
    res = contact_residuals(c, r, net.normals.reshape(-1, 3),
                            net.intercepts.reshape(-1),
                            *contact_incidences(*net.face_shape))
    max_res = float(np.max(np.abs(res)))
    gaps = cone_gaps(c, r, *face_pairs(*net.face_shape).T)
    bad = int(np.count_nonzero(~(gaps > 0.0)))

    unit_dev = float(np.max(np.abs(
        np.linalg.norm(net.normals, axis=2) - 1.0)))
    return VerifyReport(max_res, bad, (max_res <= tol_oc and bad == 0
                                       and unit_dev <= TOL_UNIT), unit_dev)


# Kinds of the net document (see :func:`lnets.errors.json_fields`).
_LNET_KINDS = {"format_version": int, "planes": list, "spheres": list}


def lnet_to_dict(net: LNet) -> dict:
    """JSON-ready dictionary: vertex grid of ``[[nx,ny,nz], h]`` under
    ``planes`` and face grid of ``[[cx,cy,cz], r]`` under ``spheres``."""
    def cells(vectors, scalars):
        return [[list(cell) for cell in zip(*row)]
                for row in zip(vectors.tolist(), scalars.tolist())]

    return {"format_version": LNET_FORMAT_VERSION,
            "planes": cells(net.normals, net.intercepts),
            "spheres": cells(net.centers, net.radii)}


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
