"""Triangle tessellation of a verified net into labeled planar, conical
and spherical patches.

Watertightness is obtained constructively: every curve shared by two
patches is sampled once and both patches reference the very same floating
point values, so shared boundary vertices are bit-identical and collapse
under :func:`dedupe_mesh`, the one vertex merge before OBJ export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LnetsError
from .geometry import SphereFamily, tangent_normal_circle
from .lnet import DEFAULT_TOL_OC, LNet, contact_points, verify

LABEL_PLANAR = "planar"
LABEL_CONICAL = "conical"
LABEL_SPHERICAL = "spherical"


@dataclass(frozen=True)
class TessellationParams:
    """Sampling density of the curved patches.

    ``arc_samples`` is the number of samples per circular boundary arc,
    ``ruling_samples`` the number of rulings across each cone strip. The
    tessellator places one ruling per arc station, so the two counts must
    agree for the shared boundaries to match up.
    """

    arc_samples: int = 8
    ruling_samples: int = 8

    def __post_init__(self):
        if self.arc_samples < 2 or self.ruling_samples < 2:
            raise ValueError("sample counts must be at least 2")
        if self.arc_samples != self.ruling_samples:
            raise ValueError(
                "arc_samples and ruling_samples must agree: one ruling is "
                "emitted per arc station")


@dataclass
class LabeledMesh:
    """Triangle soup with a patch-kind label per triangle."""

    vertices: np.ndarray
    triangles: np.ndarray
    labels: list

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        if len(self.labels) != self.triangles.shape[0]:
            raise ValueError("one label per triangle required")


def _slerp_arc(n0: np.ndarray, n1: np.ndarray, count: int) -> np.ndarray:
    """Spherical interpolation between two unit normals, endpoints exact."""
    out = np.empty((count, 3))
    out[0] = n0
    out[-1] = n1
    omega = math.acos(min(1.0, max(-1.0, float(np.dot(n0, n1)))))
    for k in range(1, count - 1):
        t = k / (count - 1)
        if omega < 1e-9:
            n = (1.0 - t) * n0 + t * n1
        else:
            n = (math.sin((1.0 - t) * omega) * n0
                 + math.sin(t * omega) * n1) / math.sin(omega)
        out[k] = n / np.linalg.norm(n)
    return out


def _circle_arc(net: LNet, face_a, face_b, va, vb, count: int) -> np.ndarray:
    """Normals along the common-tangent circle of two adjacent spheres,
    running from the normal of vertex ``va`` to that of ``vb`` along the
    minor arc. The endpoint normals are taken verbatim from the net."""
    fam = SphereFamily(net.sphere(*face_a), net.sphere(*face_b))
    alpha, w_hat, e1, e2 = tangent_normal_circle(fam)
    rho = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    n0 = net.normals[va]
    n1 = net.normals[vb]
    t0 = math.atan2(float(np.dot(n0, e2)), float(np.dot(n0, e1)))
    t1 = math.atan2(float(np.dot(n1, e2)), float(np.dot(n1, e1)))
    dt = t1 - t0
    if dt > math.pi:
        dt -= 2.0 * math.pi
    elif dt <= -math.pi:
        dt += 2.0 * math.pi
    out = np.empty((count, 3))
    out[0] = n0
    out[-1] = n1
    for k in range(1, count - 1):
        t = t0 + dt * k / (count - 1)
        out[k] = alpha * w_hat + rho * (math.cos(t) * e1 + math.sin(t) * e2)
    return out


def _edge_tables(net: LNet, count: int):
    """Arc-normal samples for every interior face edge.

    Keys are ``(axis, i, j)`` for the edge between faces ``(i, j)`` and
    its axis-neighbor; values run from the first bounding vertex to the
    second (ordering documented in the module body).
    """
    fr, fc = net.face_shape
    arcs = {}
    for i in range(fr - 1):
        for j in range(fc):
            arcs[(0, i, j)] = _circle_arc(net, (i, j), (i + 1, j),
                                          (i + 1, j), (i + 1, j + 1), count)
    for i in range(fr):
        for j in range(fc - 1):
            arcs[(1, i, j)] = _circle_arc(net, (i, j), (i, j + 1),
                                          (i, j + 1), (i + 1, j + 1), count)
    return arcs


def _coons(bottom, top, left, right):
    """Transfinite interpolation of four compatible boundary polylines."""
    s_n = bottom.shape[0]
    t_n = left.shape[0]
    s = np.linspace(0.0, 1.0, s_n)[:, None, None]
    t = np.linspace(0.0, 1.0, t_n)[None, :, None]
    grid = ((1.0 - t) * bottom[:, None, :] + t * top[:, None, :]
            + (1.0 - s) * left[None, :, :] + s * right[None, :, :]
            - ((1.0 - s) * (1.0 - t) * bottom[0]
               + s * (1.0 - t) * bottom[-1]
               + (1.0 - s) * t * top[0]
               + s * t * top[-1]))
    return grid


def tessellate(net: LNet, params: TessellationParams = TessellationParams(),
               tol_oc: float = DEFAULT_TOL_OC) -> LabeledMesh:
    """Labeled triangle mesh of a verified net.

    Per interior vertex the planar quad through its four contact points;
    per interior face edge a cone strip ruled between the bounding contact
    arcs; per face a spherical patch bounded by its four contact arcs,
    filled by transfinite interpolation re-projected to the sphere.
    Patches on the outer rim use great-circle arcs between the boundary
    contact points. Shared boundary samples are referenced, not
    recomputed, so the mesh is combinatorially watertight after
    :func:`dedupe_mesh`.
    """
    report = verify(net, tol_oc)
    if not report.is_lnet:
        raise LnetsError(
            f"net fails verification (max residual "
            f"{report.max_contact_residual:g}, "
            f"{report.num_inadmissible_edges} inadmissible edges)")

    count = params.arc_samples
    fr, fc = net.face_shape
    vr, vc = net.vertex_shape
    arcs = _edge_tables(net, count)

    def side_points(face, key, va, vb):
        c = net.centers[face]
        r = net.radii[face]
        if key in arcs:
            normals = arcs[key]
        else:
            normals = _slerp_arc(net.normals[va], net.normals[vb], count)
        return c - r * normals

    vertices = []
    triangles = []
    labels = []

    def emit(points):
        base = len(vertices)
        vertices.extend(points)
        return base

    # Planar vertex quads (interior vertices only).
    corner_contact = contact_points(net).reshape(fr, fc, 4, 3)
    for i in range(1, vr - 1):
        for j in range(1, vc - 1):
            quad = [corner_contact[i - 1, j - 1, 3],
                    corner_contact[i, j - 1, 1],
                    corner_contact[i, j, 0],
                    corner_contact[i - 1, j, 2]]
            base = emit(quad)
            triangles.append((base, base + 1, base + 2))
            triangles.append((base, base + 2, base + 3))
            labels.extend([LABEL_PLANAR, LABEL_PLANAR])

    # Cone strips along interior edges.
    for (axis, i, j), normals in arcs.items():
        fa = (i, j)
        fb = (i + 1, j) if axis == 0 else (i, j + 1)
        pa = net.centers[fa] - net.radii[fa] * normals
        pb = net.centers[fb] - net.radii[fb] * normals
        base_a = emit(pa)
        base_b = emit(pb)
        for k in range(count - 1):
            triangles.append((base_a + k, base_a + k + 1, base_b + k + 1))
            triangles.append((base_a + k, base_b + k + 1, base_b + k))
            labels.extend([LABEL_CONICAL, LABEL_CONICAL])

    # Spherical face patches. Point spheres (the planar-faces limit) have
    # no spherical surface; their patch is skipped entirely.
    for i in range(fr):
        for j in range(fc):
            c = net.centers[i, j]
            r = net.radii[i, j]
            if r == 0.0:
                continue
            bottom = side_points((i, j), (1, i, j - 1), (i, j), (i + 1, j))
            top = side_points((i, j), (1, i, j), (i, j + 1), (i + 1, j + 1))
            left = side_points((i, j), (0, i - 1, j), (i, j), (i, j + 1))
            right = side_points((i, j), (0, i, j), (i + 1, j), (i + 1, j + 1))
            grid = _coons(bottom, top, left, right)
            inner = grid[1:-1, 1:-1]
            rel = inner - c
            norms = np.linalg.norm(rel, axis=2, keepdims=True)
            np.divide(rel, norms, out=rel, where=norms > 0)
            grid[1:-1, 1:-1] = c + abs(r) * rel
            grid[:, 0] = bottom
            grid[:, -1] = top
            grid[0, :] = left
            grid[-1, :] = right
            base = emit(grid.reshape(-1, 3))
            for p in range(count - 1):
                for q in range(count - 1):
                    v00 = base + p * count + q
                    v10 = base + (p + 1) * count + q
                    triangles.append((v00, v10, v10 + 1))
                    triangles.append((v00, v10 + 1, v00 + 1))
                    labels.extend([LABEL_SPHERICAL, LABEL_SPHERICAL])

    return LabeledMesh(np.asarray(vertices), np.asarray(triangles), labels)


def dedupe_mesh(mesh: LabeledMesh) -> LabeledMesh:
    """Merge bit-identical vertices and drop degenerate triangles.

    Vertices are keyed on the bit pattern of their coordinates, so
    ``-0.0`` and ``0.0`` stay distinct. A triangle with two corners on the
    same key is dropped together with its label. The surviving vertices
    are numbered by first appearance in the corner stream of the kept
    triangles, in triangle order; vertices that no kept triangle uses are
    dropped. This is the single vertex merge of the export path.
    """
    verts = np.ascontiguousarray(mesh.vertices)
    keys = verts.view(np.dtype((np.void, 3 * verts.itemsize))).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    tris = inverse[mesh.triangles]
    keep = ((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
            & (tris[:, 0] != tris[:, 2]))
    corners = tris[keep].ravel()
    used, at = np.unique(corners, return_index=True)
    order = used[np.argsort(at)]
    number = np.empty(first.size, dtype=int)
    number[order] = np.arange(order.size)
    labels = [lab for lab, k in zip(mesh.labels, keep.tolist()) if k]
    return LabeledMesh(verts[first[order]], number[corners], labels)
