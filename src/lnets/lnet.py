"""Discrete net with a plane per grid vertex, a sphere per face and a cone
per edge, on square-grid combinatorics.

Grid conventions: the vertex grid has shape ``(vr, vc)``; faces form the
``(vr-1, vc-1)`` grid, face ``(i, j)`` having corner vertices ``(i, j)``,
``(i+1, j)``, ``(i+1, j+1)``, ``(i, j+1)``. Axis 0 triples advance the
first index, axis 1 triples the second. Boundary vertices touch fewer than
four faces; iteration is always over existing incidences only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bspline import (BSplineSurface, evaluate_jets, oriented_normals,
                      principal_frames, project_points)
from .conjugacy import CongruenceSpec
from .errors import AdmissibilityError, ConfigError
from .geometry import OrPlane, OrSphere
from .remesh import QuadGrid

# Default absolute tolerance on per-incidence contact residuals.
DEFAULT_TOL_OC = 1e-9

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

    def plane(self, i: int, j: int) -> OrPlane:
        return OrPlane(self.normals[i, j], self.intercepts[i, j])

    def sphere(self, i: int, j: int) -> OrSphere:
        return OrSphere(self.centers[i, j], self.radii[i, j])


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


def contact_points(net: LNet) -> np.ndarray:
    """All sphere/plane contact points ``c - r n`` as ``(F, 4, 3)``.

    Second axis follows the corner order of :data:`CORNERS` for each face
    in row-major order.
    """
    fr, fc = net.face_shape
    out = np.empty((fr, fc, 4, 3))
    for k, (da, db) in enumerate(CORNERS):
        n = net.normals[da:da + fr, db:db + fc]
        out[:, :, k, :] = (net.centers
                           - net.radii[..., None] * n)
    return out.reshape(fr * fc, 4, 3)


@dataclass(frozen=True)
class StripContactPoints:
    """The sixteen contact points bounding one strip location.

    ``a``/``b`` are the straight-segment endpoints of a face triple
    (rows ``a0..a3`` / ``b0..b3``); ``alpha``/``beta`` are the arc
    endpoints of the plane triple anchored at the same start index.
    """

    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


def _face_triple_planes(i: int, j: int, axis: int):
    """Shared corner-plane indices (p0, p1, p3, p2) of a face triple."""
    if axis == 0:
        return (i + 1, j), (i + 2, j), (i + 1, j + 1), (i + 2, j + 1)
    return (i, j + 1), (i, j + 2), (i + 1, j + 1), (i + 1, j + 2)


def ell_points(net: LNet, i: int, j: int, axis: int = 0):
    """Straight-segment endpoints ``a0..a3, b0..b3`` of a face triple.

    The triple starts at face ``(i, j)`` and advances along ``axis``;
    ``a`` points lie on the first shared-plane side, ``b`` on the other.
    """
    fr, fc = net.face_shape
    step = (1, 0) if axis == 0 else (0, 1)
    fi = [(i + k * step[0], j + k * step[1]) for k in range(3)]
    if not (0 <= fi[2][0] < fr and 0 <= fi[2][1] < fc) or i < 0 or j < 0:
        raise IndexError("face triple out of range")
    p0, p1, p3, p2 = _face_triple_planes(i, j, axis)
    c = [net.centers[f] for f in fi]
    r = [net.radii[f] for f in fi]
    n0, n1 = net.normals[p0], net.normals[p1]
    n3, n2 = net.normals[p3], net.normals[p2]
    a = np.array([c[0] - r[0] * n0, c[1] - r[1] * n0,
                  c[1] - r[1] * n1, c[2] - r[2] * n1])
    b = np.array([c[0] - r[0] * n3, c[1] - r[1] * n3,
                  c[1] - r[1] * n2, c[2] - r[2] * n2])
    return a, b


def gamma_points(net: LNet, i: int, j: int, axis: int = 0):
    """Arc endpoints ``alpha0..alpha3, beta0..beta3`` of a plane triple.

    The triple starts at vertex ``(i, j)`` and advances along ``axis``.
    The four spheres touching consecutive plane pairs must exist, so the
    cross index must be interior (``1 <= j <= fc-1`` for axis 0).
    """
    vr, vc = net.vertex_shape
    fr, fc = net.face_shape
    if axis == 0:
        if not (0 <= i and i + 2 < vr and 1 <= j <= fc - 1):
            raise IndexError("plane triple out of range")
        planes = [(i + k, j) for k in range(3)]
        s0, s3 = (i, j - 1), (i, j)
        s1, s2 = (i + 1, j - 1), (i + 1, j)
    else:
        if not (0 <= j and j + 2 < vc and 1 <= i <= fr - 1):
            raise IndexError("plane triple out of range")
        planes = [(i, j + k) for k in range(3)]
        s0, s3 = (i - 1, j), (i, j)
        s1, s2 = (i - 1, j + 1), (i, j + 1)
    ni, nj, nk = (net.normals[p] for p in planes)
    c0, r0 = net.centers[s0], net.radii[s0]
    c1, r1 = net.centers[s1], net.radii[s1]
    c2, r2 = net.centers[s2], net.radii[s2]
    c3, r3 = net.centers[s3], net.radii[s3]
    alpha = np.array([c0 - r0 * ni, c0 - r0 * nj, c1 - r1 * nj, c1 - r1 * nk])
    beta = np.array([c3 - r3 * ni, c3 - r3 * nj, c2 - r2 * nj, c2 - r2 * nk])
    return alpha, beta


def strip_contact_points(net: LNet, i: int, j: int,
                         axis: int = 0) -> StripContactPoints:
    """All sixteen strip points anchored at start index ``(i, j)``.

    ``a``/``b`` come from the face triple starting at face ``(i, j)``,
    ``alpha``/``beta`` from the plane triple starting at vertex ``(i, j)``
    along the same axis; the latter requires the cross index to be
    interior (see :func:`gamma_points`).
    """
    a, b = ell_points(net, i, j, axis)
    alpha, beta = gamma_points(net, i, j, axis)
    return StripContactPoints(a, b, alpha, beta)


def tangential_distance(si: OrSphere, sj: OrSphere) -> float:
    """Length of the common tangent segment between two spheres.

    ``sqrt(|ci-cj|^2 - (ri-rj)^2)``; requires strict admissibility (the
    boundary case has no tangent cone and raises
    :class:`AdmissibilityError`).
    """
    d2 = float(np.dot(si.center - sj.center, si.center - sj.center))
    dr2 = (si.radius - sj.radius) ** 2
    if not d2 > dr2:
        raise AdmissibilityError(
            f"|ci-cj|^2 = {d2:g} <= (ri-rj)^2 = {dr2:g}")
    return float(np.sqrt(d2 - dr2))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking the contact and admissibility conditions."""

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
    """Check all face-corner contacts and edge admissibilities.

    ``is_lnet`` holds when the largest contact residual stays within
    ``tol_oc`` and every adjacent sphere pair admits a tangent cone.
    ``max_unit_deviation`` reports how far plane normals are from unit
    length (informational).
    """
    fr, fc = net.face_shape
    max_res = 0.0
    for da, db in CORNERS:
        n = net.normals[da:da + fr, db:db + fc]
        h = net.intercepts[da:da + fr, db:db + fc]
        res = np.einsum("ijc,ijc->ij", net.centers, n) + h - net.radii
        max_res = max(max_res, float(np.max(np.abs(res))))

    fa, fb = face_pairs(fr, fc).T
    c = net.centers.reshape(-1, 3)
    r = net.radii.reshape(-1)
    d = c[fa] - c[fb]
    bad = int(np.count_nonzero(~(np.vecdot(d, d) > (r[fa] - r[fb]) ** 2)))

    unit_dev = float(np.max(np.abs(
        np.linalg.norm(net.normals, axis=2) - 1.0)))
    return VerifyReport(max_res, bad, max_res <= tol_oc and bad == 0,
                        unit_dev)


_LNET_KEYS = {"format_version", "planes", "spheres"}


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


def lnet_from_dict(data: dict) -> LNet:
    """Strict parse of the net schema."""
    if not isinstance(data, dict):
        raise ConfigError("net document must be a JSON object")
    unknown = set(data) - _LNET_KEYS
    if unknown:
        raise ConfigError(f"unknown net keys: {sorted(unknown)}")
    missing = _LNET_KEYS - set(data)
    if missing:
        raise ConfigError(f"missing net keys: {sorted(missing)}")
    if data["format_version"] != LNET_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported net format_version {data['format_version']!r}")
    try:
        planes = data["planes"]
        normals = np.asarray([[e[0] for e in row] for row in planes], float)
        intercepts = np.asarray([[e[1] for e in row] for row in planes], float)
        spheres = data["spheres"]
        centers = np.asarray([[e[0] for e in row] for row in spheres], float)
        radii = np.asarray([[e[1] for e in row] for row in spheres], float)
        return LNet(normals, intercepts, centers, radii)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"invalid net data: {exc}") from exc


def load_lnet(path) -> LNet:
    with open(path, "r", encoding="utf-8") as fh:
        return lnet_from_dict(json.load(fh))


def save_lnet(net: LNet, path) -> None:
    Path(path).write_text(json.dumps(lnet_to_dict(net)), encoding="utf-8")
