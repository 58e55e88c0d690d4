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

from .errors import AdmissibilityError, LnetsError, located
from .lnet import DEFAULT_TOL_OC, LNet, contact_points, verify

# The patch kinds, in the order of their runs of triangles.
LABELS = ("planar", "conical", "spherical")


@dataclass(frozen=True)
class TessellationParams:
    """Sampling density of the curved patches.

    ``arc_samples`` is the number of samples per circular boundary arc.
    Each cone strip is ruled at the stations of its two arcs, one ruling
    per sample, so the ruling count is ``arc_samples`` too.
    """

    arc_samples: int = 8

    def __post_init__(self):
        if self.arc_samples < 2:
            raise ValueError("arc_samples must be at least 2")


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


def _plane_basis(w_hat: np.ndarray):
    """Deterministic orthonormal bases of the planes orthogonal to the rows
    of ``w_hat`` ``(N, 3)``.

    Each row uses the coordinate axis of smallest absolute component of
    its ``w_hat`` (lowest index on ties) to avoid near-parallel
    degeneracy.
    """
    axis = np.zeros_like(w_hat)
    axis[np.arange(w_hat.shape[0]), np.argmin(np.abs(w_hat), axis=1)] = 1.0
    e1 = axis - np.vecdot(axis, w_hat)[:, None] * w_hat
    e1 /= np.sqrt(np.vecdot(e1, e1))[:, None]
    e2 = np.cross(w_hat, e1)
    return e1, e2


def tangent_normal_circle(c0: np.ndarray, r0: np.ndarray, c1: np.ndarray,
                          r1: np.ndarray):
    """Normal circles ``(alpha, w_hat, e1, e2)`` of a batch of sphere pairs.

    Row ``k`` pairs the sphere ``(c0[k], r0[k])`` with ``(c1[k], r1[k])``
    (centers ``(N, 3)``, radii ``(N,)``). The normals of the planes in
    oriented contact with both spheres are ``alpha*w_hat +
    sqrt(1-alpha^2) * (cos(t) e1 + sin(t) e2)``: ``alpha`` is ``(N,)``,
    ``w_hat`` the unit center offset and ``e1, e2`` an orthonormal basis
    of its orthogonal plane, each ``(N, 3)``. The first pair that admits
    no common tangent plane (``|c1-c0|^2 <= (r1-r0)^2``) raises
    :class:`AdmissibilityError` with its row in ``index``.
    """
    w = c1 - c0
    d2 = np.vecdot(w, w)
    dr2 = (r1 - r0) ** 2
    bad = np.flatnonzero(~(d2 > dr2))
    if bad.size:
        k = int(bad[0])
        raise located(AdmissibilityError,
                      f"spheres admit no common tangent planes: "
                      f"|c0-c1|^2 = {d2[k]:g} <= (r0-r1)^2 = {dr2[k]:g}",
                      index=k)
    length = np.sqrt(d2)
    w_hat = w / length[:, None]
    alpha = (r1 - r0) / length
    e1, e2 = _plane_basis(w_hat)
    return alpha, w_hat, e1, e2


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
            f"{report.num_inadmissible_edges} inadmissible edges, max unit "
            f"deviation {report.max_unit_deviation:g})")

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


# Odd multipliers of :func:`_row_hash`, one per coordinate.
_ROW_MIX = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)

# Corners renumbered in place per step of :func:`dedupe_mesh`.
_RENUMBER_BLOCK = 1 << 16


def _row_hash(bits: np.ndarray) -> np.ndarray:
    """A 64-bit mix of the three coordinate bit patterns of each row of
    ``bits`` ``(N, 3)`` uint64.

    Equal rows get equal hashes. Each step folds the high half of the
    running hash into the low half before it takes the next column, so
    sign flips in two coordinates (the top bits of two columns) do not
    cancel, as they would in a plain xor of the scaled columns.
    """
    h = np.zeros(bits.shape[0], dtype=np.uint64)
    for col, k in zip(bits.T, _ROW_MIX):
        h ^= h >> 32
        h ^= col
        h *= k
    return h


def _split_collisions(bits, order, tied, same) -> None:
    """Re-sort on the full key the runs of ``order`` whose rows share a
    hash but not their coordinates, and update ``same`` for them.

    ``tied[i]`` and ``same[i]`` say whether the rows at sorted positions
    ``i`` and ``i + 1`` share their hash and their bit pattern.
    """
    run = np.concatenate(([0], np.cumsum(~tied)))
    rows = np.flatnonzero(np.isin(run, run[np.flatnonzero(tied & ~same)]))
    sub = order[rows]
    key = bits[sub]
    perm = np.lexsort((key[:, 2], key[:, 1], key[:, 0], run[rows]))
    order[rows] = sub[perm]
    key = key[perm]
    pair = np.flatnonzero(rows[1:] == rows[:-1] + 1)
    same[rows[pair]] = np.all(key[pair + 1] == key[pair], axis=1)


def _group_rows(bits: np.ndarray):
    """Groups of the bit-identical rows of ``bits`` ``(N, 3)`` uint64: the
    group of every row and one row of every group.

    The rows are sorted once on :func:`_row_hash` and neighbours are
    compared on all three columns, so a group is exactly a set of equal
    rows; a run of rows that share a hash but differ is re-sorted on the
    full key.
    """
    h = _row_hash(bits)
    order = np.argsort(h)
    h = h[order]
    tied = h[1:] == h[:-1]
    same = tied.copy()
    for col in bits.T:
        key = col[order]
        same &= key[1:] == key[:-1]
    if not np.array_equal(same, tied):
        _split_collisions(bits, order, tied, same)
    start = np.ones(order.size, dtype=bool)
    start[1:] = ~same
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(start) - 1
    return group, order[start]


def _first_appearance(values: np.ndarray, n: int) -> np.ndarray:
    """The distinct entries of ``values`` (each in ``range(n)``) in order of
    first appearance, without sorting ``values``."""
    index = np.min_scalar_type(values.size)
    # first[g]: the position of the first g (values.size if none).
    first = np.full(n, values.size, dtype=index)
    np.minimum.at(first, values, np.arange(values.size, dtype=index))
    marked = np.zeros(values.size + 1, dtype=bool)
    marked[first] = True
    return values[np.flatnonzero(marked[:-1])]


def dedupe_mesh(mesh: LabeledMesh) -> LabeledMesh:
    """Merge bit-identical vertices and drop degenerate triangles.

    Vertices are keyed on the bit pattern of their coordinates, so
    ``-0.0`` and ``0.0`` stay distinct. A triangle with two corners on the
    same key is dropped from its kind's count. The surviving vertices
    are numbered by first appearance in the corner stream of the kept
    triangles, in triangle order; vertices that no kept triangle uses are
    dropped. This is the single vertex merge of the export path. Its
    largest temporary is the corner stream, which is renumbered in place.
    """
    verts = np.ascontiguousarray(mesh.vertices)
    group, rep = _group_rows(verts.view(np.uint64))
    tris = group[mesh.triangles]
    del group
    keep = ((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
            & (tris[:, 0] != tris[:, 2]))
    corners = (tris if keep.all() else tris[keep]).reshape(-1)
    del tris
    seq = _first_appearance(corners, rep.size)
    number = np.empty(rep.size, dtype=np.intp)
    number[seq] = np.arange(seq.size)
    for lo in range(0, corners.size, _RENUMBER_BLOCK):
        block = corners[lo:lo + _RENUMBER_BLOCK]
        block[...] = number[block]
    counts = [np.count_nonzero(run)
              for run in np.split(keep, np.cumsum(mesh.counts)[:-1])]
    return LabeledMesh(verts[rep[seq]], corners, counts)
