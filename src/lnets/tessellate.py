"""Triangle tessellation of a verified net into labeled planar, conical
and spherical patches.

Watertightness is obtained constructively: every curve shared by two
patches is sampled once and both patches reference the very same floating
point values, so shared boundary vertices are bit-identical and collapse
under :func:`dedupe_mesh`, the one vertex merge before OBJ export.

Each patch kind is emitted as one array. The contact-normal arcs of all
vertex edges are two tables, one per parameter direction; cone strips are
broadcast against them; the spherical faces are one batch of Coons grids
re-projected to their spheres; triangles are a fixed index template per
patch kind plus per-patch vertex offsets. The order of the raw mesh is
fixed: planar quads of the interior vertices (row-major), then cone
strips of the interior edges (axis 0, then axis 1, each row-major; the
arc on the first face's sphere, then on the second's), then the
spherical patches of the faces with nonzero radius (row-major, each a
``count x count`` grid), so each kind is one run of triangles, in the
order of :data:`LABELS`. The arcs take ``atan2`` and ``acos`` from
:mod:`math`, one call per arc end: numpy's versions can differ from them
in the last bit, which would move the sampled vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LnetsError
from .geometry import tangent_normal_circle
from .lnet import DEFAULT_TOL_OC, LNet, contact_points, verify

# The patch kinds, in the order of their runs of triangles.
LABELS = ("planar", "conical", "spherical")


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
    """Triangle soup in one run per patch kind: ``counts[k]`` triangles
    of kind ``LABELS[k]``, in that order."""

    vertices: np.ndarray
    triangles: np.ndarray
    counts: tuple

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        self.counts = tuple(int(n) for n in self.counts)
        if (len(self.counts) != len(LABELS) or min(self.counts) < 0
                or sum(self.counts) != self.triangles.shape[0]):
            raise ValueError(f"counts {self.counts}: need one nonnegative "
                             f"triangle count per kind, summing to "
                             f"{self.triangles.shape[0]}")


def _slerp_arcs(n0: np.ndarray, n1: np.ndarray, count: int) -> np.ndarray:
    """Spherical interpolation from each unit normal of ``n0`` to the same
    row of ``n1`` (both ``(N, 3)``) as ``(N, count, 3)``; the endpoints
    are taken verbatim."""
    out = np.empty((n0.shape[0], count, 3))
    out[:, 0] = n0
    out[:, -1] = n1
    omega = np.array([math.acos(min(1.0, max(-1.0, d)))
                      for d in np.vecdot(n0, n1).tolist()])
    t = (np.arange(1, count - 1) / (count - 1))[None, :, None]
    n = (1.0 - t) * n0[:, None] + t * n1[:, None]
    arc = omega >= 1e-9
    w = omega[arc][:, None, None]
    n[arc] = (np.sin((1.0 - t) * w) * n0[arc][:, None]
              + np.sin(t * w) * n1[arc][:, None]) / np.sin(w)
    out[:, 1:-1] = n / np.sqrt(np.vecdot(n, n))[..., None]
    return out


def _circle_arcs(c0, r0, c1, r1, n0, n1, count: int) -> np.ndarray:
    """Normals along the common-tangent circles of sphere pairs.

    Row ``k`` pairs the spheres ``(c0[k], r0[k])`` and ``(c1[k], r1[k])``
    and runs from the normal ``n0[k]`` to ``n1[k]`` along the minor arc,
    as ``(N, count, 3)``; the endpoints are taken verbatim.
    """
    alpha, w_hat, e1, e2 = tangent_normal_circle(c0, r0, c1, r1)
    rho = np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha))

    def angle(n):
        return np.array(list(map(math.atan2, np.vecdot(n, e2).tolist(),
                                 np.vecdot(n, e1).tolist())))

    t0 = angle(n0)
    dt = angle(n1) - t0
    dt = np.where(dt > math.pi, dt - 2.0 * math.pi,
                  np.where(dt <= -math.pi, dt + 2.0 * math.pi, dt))
    t = t0[:, None] + dt[:, None] * np.arange(1, count - 1) / (count - 1)
    cos_t = np.cos(t)[..., None]
    sin_t = np.sin(t)[..., None]
    out = np.empty((n0.shape[0], count, 3))
    out[:, 0] = n0
    out[:, -1] = n1
    out[:, 1:-1] = (alpha[:, None, None] * w_hat[:, None]
                    + rho[:, None, None] * (cos_t * e1[:, None]
                                            + sin_t * e2[:, None]))
    return out


def _arc_tables(net: LNet, count: int):
    """Contact-normal samples along every vertex edge of the net.

    ``a[i, j]`` runs from the normal of vertex ``(i, j)`` to that of
    ``(i, j+1)``, shape ``(fr+1, fc, count, 3)``; ``b[i, j]`` from
    ``(i, j)`` to ``(i+1, j)``, shape ``(fr, fc+1, count, 3)``. An
    interior edge follows the common-tangent circle of the two faces it
    separates (the lower-index face first); a rim edge follows the great
    circle between its end normals.
    """
    fr, fc = net.face_shape
    n, c, r = net.normals, net.centers, net.radii

    def circle(c0, r0, c1, r1, n0, n1):
        lead = r0.shape
        return _circle_arcs(c0.reshape(-1, 3), r0.ravel(), c1.reshape(-1, 3),
                            r1.ravel(), n0.reshape(-1, 3), n1.reshape(-1, 3),
                            count).reshape(lead + (count, 3))

    def slerp(n0, n1):
        return _slerp_arcs(n0.reshape(-1, 3), n1.reshape(-1, 3),
                           count).reshape(n0.shape[:2] + (count, 3))

    a = np.empty((fr + 1, fc, count, 3))
    b = np.empty((fr, fc + 1, count, 3))
    a[1:-1] = circle(c[:-1], r[:-1], c[1:], r[1:], n[1:-1, :-1], n[1:-1, 1:])
    b[:, 1:-1] = circle(c[:, :-1], r[:, :-1], c[:, 1:], r[:, 1:],
                        n[:-1, 1:-1], n[1:, 1:-1])
    a[[0, -1]] = slerp(n[[0, -1], :-1], n[[0, -1], 1:])
    b[:, [0, -1]] = slerp(n[:-1, [0, -1]], n[1:, [0, -1]])
    return a, b


def _coons(bottom, top, left, right):
    """Transfinite interpolation of four compatible boundary polylines per
    patch: ``(M, s_n, 3)`` bottom/top and ``(M, t_n, 3)`` left/right give
    the ``(M, s_n, t_n, 3)`` grids."""
    s_n = bottom.shape[1]
    t_n = left.shape[1]
    s = np.linspace(0.0, 1.0, s_n)[None, :, None, None]
    t = np.linspace(0.0, 1.0, t_n)[None, None, :, None]
    grid = ((1.0 - t) * bottom[:, :, None, :] + t * top[:, :, None, :]
            + (1.0 - s) * left[:, None, :, :] + s * right[:, None, :, :]
            - ((1.0 - s) * (1.0 - t) * bottom[:, None, None, 0]
               + s * (1.0 - t) * bottom[:, None, None, -1]
               + (1.0 - s) * t * top[:, None, None, 0]
               + s * t * top[:, None, None, -1]))
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
    c, r = net.centers, net.radii
    a, b = _arc_tables(net, count)

    # Planar quads of the interior vertices, row-major.
    cc = contact_points(net).reshape(fr, fc, 4, 3)
    quads = np.stack([cc[:-1, :-1, 3], cc[1:, :-1, 1], cc[1:, 1:, 0],
                      cc[:-1, 1:, 2]], axis=2).reshape(-1, 4, 3)

    # Cone strips along interior edges, axis 0 then axis 1, each row-major:
    # the arc on the first face's sphere, then on the second's.
    def strips(arcs, c0, r0, c1, r1):
        return np.stack([c0[:, :, None] - r0[:, :, None, None] * arcs,
                         c1[:, :, None] - r1[:, :, None, None] * arcs],
                        axis=2).reshape(-1, 2 * count, 3)

    cones = np.concatenate([
        strips(a[1:-1], c[:-1], r[:-1], c[1:], r[1:]),
        strips(b[:, 1:-1], c[:, :-1], r[:, :-1], c[:, 1:], r[:, 1:])])

    # Spherical face patches, row-major. Point spheres (the planar-faces
    # limit) have no spherical surface; their patch is skipped entirely.
    live = r != 0.0
    cs = c[live][:, None]
    rs = r[live][:, None, None]
    bottom = cs - rs * b[:, :-1][live]
    top = cs - rs * b[:, 1:][live]
    left = cs - rs * a[:-1][live]
    right = cs - rs * a[1:][live]
    grid = _coons(bottom, top, left, right)
    rel = grid[:, 1:-1, 1:-1] - cs[:, None]
    norms = np.linalg.norm(rel, axis=-1, keepdims=True)
    np.divide(rel, norms, out=rel, where=norms > 0)
    grid[:, 1:-1, 1:-1] = cs[:, None] + np.abs(rs[:, None]) * rel
    grid[:, :, 0] = bottom
    grid[:, :, -1] = top
    grid[:, 0, :] = left
    grid[:, -1, :] = right
    spheres = grid.reshape(-1, count * count, 3)

    # Triangles: one index template per patch kind, shifted by the first
    # vertex of each patch.
    k = np.arange(count - 1)
    strip_tpl = np.stack([k, k + 1, count + k + 1,
                          k, count + k + 1, count + k], axis=1)
    v00 = (k[:, None] * count + k[None, :]).ravel()
    v10 = v00 + count
    sphere_tpl = np.stack([v00, v10, v10 + 1, v00, v10 + 1, v00 + 1], axis=1)
    patches = ((quads, np.array([0, 1, 2, 0, 2, 3])), (cones, strip_tpl),
               (spheres, sphere_tpl))
    triangles, counts, base = [], [], 0
    for points, template in patches:
        n_patches, size = points.shape[:2]
        template = template.reshape(-1, 3)
        offsets = base + size * np.arange(n_patches)
        triangles.append((offsets[:, None, None] + template).reshape(-1, 3))
        counts.append(n_patches * template.shape[0])
        base += n_patches * size
    vertices = np.concatenate([p.reshape(-1, 3) for p, _ in patches])
    return LabeledMesh(vertices, np.concatenate(triangles), counts)


def dedupe_mesh(mesh: LabeledMesh) -> LabeledMesh:
    """Merge bit-identical vertices and drop degenerate triangles.

    Vertices are keyed on the bit pattern of their coordinates, so
    ``-0.0`` and ``0.0`` stay distinct. A triangle with two corners on the
    same key is dropped from its kind's count. The surviving vertices
    are numbered by first appearance in the corner stream of the kept
    triangles, in triangle order; vertices that no kept triangle uses are
    dropped. This is the single vertex merge of the export path.
    """
    verts = np.ascontiguousarray(mesh.vertices)
    bits = verts.view(np.uint64)
    # Stable sort on the bit patterns: each run of equal keys starts at
    # its first vertex.
    order = np.lexsort((bits[:, 2], bits[:, 1], bits[:, 0]))
    keys = bits[order]
    start = np.ones(order.size, dtype=bool)
    start[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    first = order[start]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(start) - 1
    tris = inverse[mesh.triangles]
    keep = ((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
            & (tris[:, 0] != tris[:, 2]))
    corners = tris[keep].ravel()
    used, at = np.unique(corners, return_index=True)
    order = used[np.argsort(at)]
    number = np.empty(first.size, dtype=int)
    number[order] = np.arange(order.size)
    counts = [np.count_nonzero(run)
              for run in np.split(keep, np.cumsum(mesh.counts)[:-1])]
    return LabeledMesh(verts[first[order]], number[corners], counts)
