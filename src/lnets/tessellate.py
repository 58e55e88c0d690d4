"""Triangle tessellation of a verified net into labeled planar, conical
and spherical patches.

Watertightness is obtained constructively: every curve shared by two
patches is sampled once and both patches reference the very same floating
point values, so shared boundary vertices are bit-identical and collapse
under :func:`dedupe_mesh`, the one vertex merge before OBJ export.

The raw mesh is written once into its vertex and triangle arrays, which
are sized in advance from the net shape, ``arc_samples`` and the faces
of nonzero radius. The contact-normal arcs of all vertex edges are two
tables, one per parameter direction; cone strips are broadcast against
them into their slice of the vertices; the spherical faces are Coons
grids re-projected to their spheres, computed in blocks of
:data:`_SPHERE_BLOCK` faces straight into their slice; triangles are a
fixed index template per patch kind plus per-patch vertex offsets, added
into their slice, in ``int32`` unless the mesh has ``2**31`` vertices or
more. So the call peaks at little more than its output. The order of the
raw mesh is fixed: planar quads of the interior vertices (row-major),
then cone strips of the interior edges (axis 0, then axis 1, each
row-major; the arc on the first face's sphere, then on the second's),
then the spherical patches of the faces with nonzero radius (row-major,
each a ``count x count`` grid), so each kind is one run of triangles, in
the order of :data:`LABELS`.

Along an edge the contact normals are the normals of the tangent planes
of the edge's cone, a circle about the cone's axis, the line through the
two face spheres' centres. One rotation samples them on every edge: it
turns the first end normal about a unit axis at a fixed height ``<n,
axis> = alpha``, through the signed angle to the second end normal. An
interior edge turns about its centre offset with ``alpha = (r1 - r0)/|c1
- c0|``, so every sample is tangent to both spheres; a rim edge, which
bounds one sphere only, turns about ``n0 x n1`` with ``alpha = 0``, the
great circle of its end normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, LnetsError, check_count
from .lnet import DEFAULT_TOL_OC, LNet, contact_points, verify

# The patch kinds, in the order of their runs of triangles.
LABELS = ("planar", "conical", "spherical")

# Spherical faces interpolated per step of :func:`tessellate`.
_SPHERE_BLOCK = 128


@dataclass(frozen=True)
class TessellationParams:
    """Sampling density of the curved patches.

    ``arc_samples`` is the number of samples per circular boundary arc.
    Each cone strip is ruled at the stations of its two arcs, one ruling
    per sample, so the ruling count is ``arc_samples`` too.
    """

    arc_samples: int = 8

    def __post_init__(self):
        check_count("arc_samples", self.arc_samples, 2)


@dataclass
class LabeledMesh:
    """Triangle soup in one run per patch kind: ``counts[k]`` triangles
    of kind ``LABELS[k]``, in that order."""

    vertices: np.ndarray
    triangles: np.ndarray
    counts: tuple

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        tris = np.asarray(self.triangles)
        if tris.size == 0:
            tris = tris.astype(int)
        elif not np.issubdtype(tris.dtype, np.integer):
            raise ValueError(f"triangle indices must be integers, not "
                             f"{tris.dtype}")
        self.triangles = tris.reshape(-1, 3)
        self.counts = tuple(int(n) for n in self.counts)
        if (len(self.counts) != len(LABELS) or min(self.counts) < 0
                or sum(self.counts) != self.triangles.shape[0]):
            raise ValueError(f"counts {self.counts}: need one nonnegative "
                             f"triangle count per kind, summing to "
                             f"{self.triangles.shape[0]}")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must be finite")
        n = self.vertices.shape[0]
        if self.triangles.size and not (0 <= self.triangles.min()
                                        and self.triangles.max() < n):
            raise ValueError(f"triangle indices must lie in [0, {n})")


def _turn_arcs(n0, n1, axis, alpha, count: int) -> np.ndarray:
    """Normals turned from each row of ``n0`` to the same row of ``n1``
    (``(..., 3)``), as ``(..., count, 3)``.

    Row ``k`` turns about ``axis[k]``, a unit vector or zero, at the fixed
    height ``<n, axis[k]> = alpha[k]``: its samples are ``alpha axis +
    rho (cos(t) e1 + sin(t) e2)`` with ``rho = sqrt(1 - alpha^2)``, ``e1``
    the unit component of ``n0`` across the axis and ``e2 = axis x e1``.
    ``t`` runs in equal steps through the signed angle from ``e1`` to
    ``n1``'s component across the axis, the shorter way round. The
    endpoints are taken verbatim. A zero axis with ``alpha = 0`` gives the
    constant arc ``n0 / |n0|``.
    """
    e1 = n0 - np.vecdot(n0, axis)[..., None] * axis
    e1 /= np.sqrt(np.vecdot(e1, e1))[..., None]
    e2 = np.cross(axis, e1)
    theta = np.arctan2(np.vecdot(n1, e2), np.vecdot(n1, e1))
    t = theta[..., None, None] * (np.arange(1, count - 1)
                                  / (count - 1))[:, None]
    ring = np.cos(t) * e1[..., None, :] + np.sin(t) * e2[..., None, :]
    rho = np.sqrt(1.0 - alpha * alpha)
    out = np.empty(n0.shape[:-1] + (count, 3))
    out[..., 0, :] = n0
    out[..., -1, :] = n1
    out[..., 1:-1, :] = (alpha[..., None, None] * axis[..., None, :]
                         + rho[..., None, None] * ring)
    return out


def _edge_arcs(n, c, r, count: int) -> np.ndarray:
    """Contact-normal samples from the normal of vertex ``(i, j)`` to that
    of ``(i, j+1)`` for the vertex normals ``n``, face centres ``c`` and
    radii ``r`` of a net, ``(vr, vc-1, count, 3)``.

    An interior edge turns about the unit offset from the centre of face
    ``(i-1, j)`` to that of ``(i, j)``, the axis of the cone that both
    spheres touch, at ``alpha = (r1 - r0)/|c1 - c0|``, so every sample is
    tangent to both spheres. A rim edge turns about ``n0 x n1`` at
    ``alpha = 0``: the great circle of its end normals. The rim axis is
    formed as ``n0 x (n1 - n0)``, whose difference is exact for nearby
    normals, so the axis keeps its direction when they differ by a few
    ulps and is zero when they are equal.
    """
    n0, n1 = n[:, :-1], n[:, 1:]
    axis = np.empty(n0.shape)
    alpha = np.zeros(n0.shape[:-1])
    axis[1:-1] = c[1:] - c[:-1]
    alpha[1:-1] = r[1:] - r[:-1]
    axis[[0, -1]] = np.cross(n0[[0, -1]], n1[[0, -1]] - n0[[0, -1]])
    length = np.sqrt(np.vecdot(axis, axis))
    np.divide(axis, length[..., None], out=axis, where=length[..., None] > 0)
    alpha[1:-1] /= length[1:-1]
    return _turn_arcs(n0, n1, axis, alpha, count)


def _arc_tables(net: LNet, count: int):
    """Contact-normal samples along every vertex edge of the net.

    ``a[i, j]`` runs from the normal of vertex ``(i, j)`` to that of
    ``(i, j+1)``, shape ``(fr+1, fc, count, 3)``; ``b[i, j]`` from
    ``(i, j)`` to ``(i+1, j)``, shape ``(fr, fc+1, count, 3)``. See
    :func:`_edge_arcs`; ``b`` is the ``a`` table of the transposed net.
    """
    n, c, r = net.normals, net.centers, net.radii
    a = _edge_arcs(n, c, r, count)
    b = _edge_arcs(n.swapaxes(0, 1), c.swapaxes(0, 1), r.T, count)
    return a, b.swapaxes(0, 1)


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

    A net that :func:`~lnets.lnet.verify` rejects at ``tol_oc`` raises
    :class:`AdmissibilityError` if some adjacent spheres admit no cone,
    else :class:`LnetsError`.
    """
    report = verify(net, tol_oc)
    if not report.is_lnet:
        raise (AdmissibilityError if report.num_inadmissible_edges
               else LnetsError)(
            f"net fails verification (max residual "
            f"{report.max_contact_residual:g}, "
            f"{report.num_inadmissible_edges} inadmissible edges, max unit "
            f"deviation {report.max_unit_deviation:g})")

    count = params.arc_samples
    fr, fc = net.face_shape
    c, r = net.centers, net.radii
    a, b = _arc_tables(net, count)
    cc = contact_points(net).reshape(fr, fc, 4, 3)
    live_i, live_j = np.nonzero(r != 0.0)

    # Patch counts, vertices and triangles per patch of each kind, and the
    # one mesh they are written into.
    n_cones = ((fr - 1) * fc, fr * (fc - 1))
    kinds = (((fr - 1) * (fc - 1), 4, 2),
             (sum(n_cones), 2 * count, 2 * (count - 1)),
             (live_i.size, count * count, 2 * (count - 1) ** 2))
    n_verts = [n * size for n, size, _ in kinds]
    n_tris = [n * per for n, _, per in kinds]
    vertices = np.empty((sum(n_verts), 3))
    triangles = np.empty((sum(n_tris), 3), dtype=np.int32
                         if sum(n_verts) < 2 ** 31 else np.int64)
    quads, cones, spheres = np.split(vertices, np.cumsum(n_verts)[:-1])

    # Planar quads of the interior vertices, row-major.
    quads = quads.reshape(fr - 1, fc - 1, 4, 3)
    quads[:, :, 0] = cc[:-1, :-1, 3]
    quads[:, :, 1] = cc[1:, :-1, 1]
    quads[:, :, 2] = cc[1:, 1:, 0]
    quads[:, :, 3] = cc[:-1, 1:, 2]

    # Cone strips along interior edges, axis 0 then axis 1, each row-major:
    # the arc on the first face's sphere, then on the second's.
    axis0, axis1 = np.split(cones, [n_cones[0] * 2 * count])
    for strips, arcs, first, second in (
            (axis0.reshape(fr - 1, fc, 2, count, 3), a[1:-1],
             np.s_[:-1], np.s_[1:]),
            (axis1.reshape(fr, fc - 1, 2, count, 3), b[:, 1:-1],
             np.s_[:, :-1], np.s_[:, 1:])):
        for half, face in enumerate((first, second)):
            out = strips[:, :, half]
            np.multiply(r[face][:, :, None, None], arcs, out=out)
            np.subtract(c[face][:, :, None], out, out=out)

    # Spherical face patches, row-major, in blocks of faces. Point spheres
    # (the planar-faces limit) have no spherical surface; their patch is
    # skipped entirely.
    spheres = spheres.reshape(-1, count, count, 3)
    for lo in range(0, live_i.size, _SPHERE_BLOCK):
        i = live_i[lo:lo + _SPHERE_BLOCK]
        j = live_j[lo:lo + _SPHERE_BLOCK]
        cs = c[i, j][:, None]
        rs = r[i, j][:, None, None]
        bottom = cs - rs * b[i, j]
        top = cs - rs * b[i, j + 1]
        left = cs - rs * a[i, j]
        right = cs - rs * a[i + 1, j]
        grid = spheres[lo:lo + _SPHERE_BLOCK]
        grid[...] = _coons(bottom, top, left, right)
        rel = grid[:, 1:-1, 1:-1] - cs[:, None]
        norms = np.linalg.norm(rel, axis=-1, keepdims=True)
        np.divide(rel, norms, out=rel, where=norms > 0)
        grid[:, 1:-1, 1:-1] = cs[:, None] + np.abs(rs[:, None]) * rel
        grid[:, :, 0] = bottom
        grid[:, :, -1] = top
        grid[:, 0, :] = left
        grid[:, -1, :] = right

    # Triangles: one index template per patch kind, shifted by the first
    # vertex of each patch.
    k = np.arange(count - 1)
    strip_tpl = np.stack([k, k + 1, count + k + 1,
                          k, count + k + 1, count + k], axis=1)
    v00 = (k[:, None] * count + k[None, :]).ravel()
    v10 = v00 + count
    sphere_tpl = np.stack([v00, v10, v10 + 1, v00, v10 + 1, v00 + 1], axis=1)
    templates = (np.array([0, 1, 2, 0, 2, 3]), strip_tpl, sphere_tpl)
    base = 0
    for (n, size, per), out, template in zip(
            kinds, np.split(triangles, np.cumsum(n_tris)[:-1]), templates):
        offsets = np.arange(n, dtype=triangles.dtype) * size + base
        np.add(offsets[:, None, None],
               template.reshape(per, 3).astype(triangles.dtype),
               out=out.reshape(n, per, 3))
        base += n * size
    return LabeledMesh(vertices, triangles, n_tris)


# Odd multipliers of :func:`_row_hash`, one per coordinate.
_ROW_MIX = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)

# Corners scanned or renumbered in place per step of :func:`dedupe_mesh`.
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
    del h
    same = tied.copy()
    for col in bits.T:
        key = col[order]
        same &= key[1:] == key[:-1]
    del key
    if not np.array_equal(same, tied):
        _split_collisions(bits, order, tied, same)
    del tied
    start = np.ones(order.size, dtype=bool)
    start[1:] = ~same
    del same
    rank = np.cumsum(start, out=np.empty(order.size, dtype=np.intp))
    rank -= 1
    group = np.empty(order.size, dtype=np.intp)
    group[order] = rank
    return group, order[start]


def _first_appearance(values: np.ndarray, n: int) -> np.ndarray:
    """The distinct entries of ``values`` (each in ``range(n)``) in order of
    first appearance, without sorting ``values``."""
    index = np.min_scalar_type(values.size)
    # first[g]: the position of the first g (values.size if none).
    first = np.full(n, values.size, dtype=index)
    for lo in range(0, values.size, _RENUMBER_BLOCK):
        block = values[lo:lo + _RENUMBER_BLOCK]
        np.minimum.at(first, block,
                      np.arange(lo, lo + block.size, dtype=index))
    marked = np.zeros(values.size + 1, dtype=bool)
    marked[first] = True
    del first
    return values[np.flatnonzero(marked[:-1])]


def dedupe_mesh(mesh: LabeledMesh) -> LabeledMesh:
    """Merge bit-identical vertices and drop degenerate triangles.

    Vertices are keyed on the bit pattern of their coordinates, so
    ``-0.0`` and ``0.0`` stay distinct. A triangle with two corners on the
    same key is dropped from its kind's count. The surviving vertices
    are numbered by first appearance in the corner stream of the kept
    triangles, in triangle order; vertices that no kept triangle uses are
    dropped. This is the single vertex merge of the export path.

    The triangles come back ``int64`` whatever the input's integer type.
    The largest working arrays are the corner stream, which is the
    output's triangles and is renumbered in place, and the input's size
    in sort keys and group numbers while the vertices are grouped; the
    positions of first appearance are found and the corners renumbered
    in blocks of :data:`_RENUMBER_BLOCK`. On the exact 64x64 net the
    call peaks about 21 MB above its 15.5 MB input, for an 18.2 MB
    result.
    """
    verts = np.ascontiguousarray(mesh.vertices)
    group, rep = _group_rows(verts.view(np.uint64))
    tris = group[mesh.triangles]
    del group
    keep = ((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
            & (tris[:, 0] != tris[:, 2]))
    corners = (tris if keep.all() else tris[keep]).reshape(-1)
    del tris
    counts = [np.count_nonzero(run)
              for run in np.split(keep, np.cumsum(mesh.counts)[:-1])]
    del keep
    seq = _first_appearance(corners, rep.size)
    index = np.int32 if rep.size < 2 ** 31 else np.intp
    number = np.empty(rep.size, dtype=index)
    number[seq] = np.arange(seq.size, dtype=index)
    rep = rep[seq]
    del seq
    for lo in range(0, corners.size, _RENUMBER_BLOCK):
        block = corners[lo:lo + _RENUMBER_BLOCK]
        block[...] = number[block]
    del number
    return LabeledMesh(verts[rep], corners, counts)
