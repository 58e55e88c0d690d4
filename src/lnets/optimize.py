"""Sparse Levenberg-Marquardt refinement of an initialized net.

Variable layout: one block of four scalars per face sphere
(``cx, cy, cz, r``, faces in row-major order) followed by one block of
four per vertex plane (``nx, ny, nz, h``, vertices in row-major order).

Residual blocks appear in the fixed order unit, contact, segment
fairness, arc fairness, proximity, tangency, tangential distance; blocks
whose weight is zero are omitted from the residual vector (raw energies
are still reported for all of them). The two fairness blocks are second
differences of the contact points ``P = c - r n`` that bound the strips:
each row ``k`` of the ``ell`` (segment) or ``gamma`` (arc) table of
:func:`lnets.lnet.strip_incidences` gives ``(P[k1] - P[k0]) - (P[k3] -
P[k2])`` and the same for ``k4..k7``.

Each LM step is proximal: it minimizes ``|r(x + d)|^2 + w_reg |d|^2``
to first order, so ``w_reg`` is added to the diagonal of ``J^T J`` in
both passes, and escalations add ``w_reg * 10^k`` on top of it. An
iteration whose last record has every active block at the roundoff
floor makes no solve (:func:`_at_floor`).

Each raw block is evaluated once per iterate and footpoints: the system
keeps the blocks of its last evaluation with their ``x`` and footpoints,
so after a refresh at an unchanged ``x`` only ``prox`` and ``tan`` are
evaluated again.

The fairness, proximity and tangency blocks are linear in ``P``, so
their Jacobian rows are sums of ``coef * dP/dx``. The band order
(:func:`lattice_order`) is fixed at assembly and makes ``J^T J`` banded.
Each active block set has one :class:`LMPlan`, built on its first use:
its Jacobian's CSR pattern and value segments, and the band layout on
that pattern, which holds the symbolic phase of ``J^T J`` (the pattern
of ``J^T``, the gather of its values and the product's size). The
pattern holds no entry that is zero for every net. Each iteration that
solves fills the Jacobian's values, forms ``J^T J`` with the numeric
phase alone and ``J^T r`` from the values of ``J^T`` that it gathers,
and solves the damped normal equations by banded Cholesky
factorization in LAPACK lower band storage; escalations reuse ``J^T J``
and only change the damping on its diagonal. A plane's intercept ``h``
enters only the contact rows, one per row, so the intercepts' block of
``J^T J`` is diagonal; where that narrows the band (the main pass), the
layout eliminates them by a Schur complement before each factorization
and recovers their step after it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .bspline import BSplineSurface, _track, project_points
from .errors import check_count, locating
from .lnet import (CORNERS, LNet, cone_gaps, contact_incidences,
                   contact_residuals, face_pairs, incidence_points,
                   strip_incidences)

logger = logging.getLogger(__name__)

# scipy is imported by the functions that use it, so that only an LM run
# pays for loading it: the verify, tessellate and report commands never do.
if TYPE_CHECKING:
    import scipy.sparse as sp

BLOCK_ORDER = ("unit", "oc", "lfair", "gfair", "prox", "tan", "td")
# The blocks linear in the contact points, and those of them that also
# read the footpoints.
POINT_BLOCKS = ("lfair", "gfair", "prox", "tan")
FOOTPOINT_BLOCKS = ("prox", "tan")
MAX_ESCALATIONS = 8


@dataclass(frozen=True)
class Weights:
    """Energy weights and the LM damping weight ``w_reg``, which is not an
    energy: each step minimizes ``|r(x + d)|^2 + w_reg |d|^2`` with
    ``w_reg > 0``. The defaults are the tuning the pipeline ships with.

    :func:`lm_run` applies every weight, ``w_reg`` included, in its
    normalized frame, where the control grid has centroid 0 and rms radius
    1, so the same weights give the same net in any units."""

    w_oc: float = 1.0
    w_lfair: float = 1e-3
    w_gfair: float = 1e-3
    w_prox: float = 1e-4
    w_tan: float = 1e-4
    w_td: float = 1e-5
    w_reg: float = 1e-4
    w_unit: float = 10.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.w_reg == 0.0:
            raise ValueError("w_reg must be positive: it provides the damping")

    def of(self, kind: str) -> float:
        return getattr(self, f"w_{kind}")


@dataclass(frozen=True)
class Schedule:
    """Iteration counts and the fairness decay rule.

    The main pass runs ``max_iters`` iterations. Its fairness weights are
    multiplied by ``fairness_decay`` (in [0, 1]) every ``decay_every``
    iterations. A contact-only pass of ``final_pass_iters`` iterations
    follows, with only the contact and unit-normal energies (still damped
    by ``w_reg``). At least one of the two counts is positive. Every
    iteration is recorded; one whose last record is at the roundoff
    floor is measured without a solve. Footpoints are refreshed in the
    iterations that solve with a positive proximity or tangency weight,
    by one Newton step per footpoint while the last refresh converged
    everywhere, and once more at the returned net, where they converge
    (:meth:`ResidualSystem.refresh_footpoints`).
    """

    max_iters: int = 100
    fairness_decay: float = 0.1
    decay_every: int = 10
    final_pass_iters: int = 20

    def __post_init__(self):
        for name, low in (("max_iters", 0), ("final_pass_iters", 0),
                          ("decay_every", 1)):
            check_count(name, getattr(self, name), low)
        if self.max_iters + self.final_pass_iters == 0:
            raise ValueError("max_iters and final_pass_iters are both 0: "
                             "a run needs at least one iteration")
        if not 0.0 <= self.fairness_decay <= 1.0:
            raise ValueError("fairness_decay must be in [0, 1]")


def pack(net: LNet) -> np.ndarray:
    """Flatten a net into the documented variable vector."""
    fr, fc = net.face_shape
    vr, vc = net.vertex_shape
    sph = np.empty((fr * fc, 4))
    sph[:, :3] = net.centers.reshape(-1, 3)
    sph[:, 3] = net.radii.ravel()
    pl = np.empty((vr * vc, 4))
    pl[:, :3] = net.normals.reshape(-1, 3)
    pl[:, 3] = net.intercepts.ravel()
    return np.concatenate([sph.ravel(), pl.ravel()])


def lattice_order(vertex_shape) -> np.ndarray:
    """Band order of the variables: sorted by lattice position, plane ``(i,
    j)`` at ``(2i, 2j)`` and sphere ``(i, j)`` at ``(2i + 1, 2j + 1)``,
    along the longer vertex axis first, so the band spans one
    cross-section of the shorter axis."""
    vr, vc = vertex_shape
    spheres = 2 * np.indices((vr - 1, vc - 1)).reshape(2, -1) + 1
    planes = 2 * np.indices((vr, vc)).reshape(2, -1)
    rows, cols = np.repeat(np.concatenate([spheres, planes], axis=1), 4, 1)
    return np.lexsort((cols, rows) if vr >= vc else (rows, cols))


def unpack(x: np.ndarray, vertex_shape) -> LNet:
    """Rebuild a net from a variable vector."""
    vr, vc = vertex_shape
    fr, fc = vr - 1, vc - 1
    sph = x[:4 * fr * fc].reshape(fr, fc, 4)
    pl = x[4 * fr * fc:].reshape(vr, vc, 4)
    return LNet(pl[..., :3], pl[..., 3], sph[..., :3], sph[..., 3])


class ResidualSystem:
    """Residual blocks and sparse Jacobian layout for one net shape.

    Holds the static incidence index arrays, the current weights, the
    frozen footpoint data of the proximity blocks, the band ``order`` of
    the free variables and one :class:`LMPlan` per active block set.
    """

    def __init__(self, net: LNet, surface: BSplineSurface, weights: Weights,
                 fix_radii: bool = False):
        self.surface = surface
        self.weights = weights
        vr, vc = net.vertex_shape
        fr, fc = net.face_shape
        self.vertex_shape = (vr, vc)
        self.n_faces = fr * fc
        self.n_planes = vr * vc
        self.n_vars = 4 * (self.n_faces + self.n_planes)
        self.plane_base = 4 * self.n_faces
        self.x0 = pack(net)

        # Contact incidences k = 4 f + m and the strips they bound.
        self.oc_face, self.oc_vert = contact_incidences(fr, fc)
        self.ell, self.gamma = strip_incidences(fr, fc)

        # Adjacent sphere pairs of the tangential-distance block.
        self.td_pairs = face_pairs(fr, fc)

        self.foot_x = None
        self.foot_n = None
        self.foot_uv = None
        self.foot_jets = None
        self.footpoint_fallbacks = 0
        # Whether a refresh may track converged footpoints by one Newton
        # step; lm_run clears it for the refresh at the returned net.
        self._tracking = True
        order = lattice_order(self.vertex_shape)
        if fix_radii:
            order = order[(order >= self.plane_base) | (order % 4 != 3)]
        self.order = order
        self._plans = {}
        self._evaluated = (None, None, {})
        self.refresh_footpoints(self.x0)

    # -- state ------------------------------------------------------------

    def _split(self, x: np.ndarray):
        sph = x[:self.plane_base].reshape(self.n_faces, 4)
        pl = x[self.plane_base:].reshape(self.n_planes, 4)
        return sph[:, :3], sph[:, 3], pl[:, :3], pl[:, 3]

    def contact_points_of(self, x: np.ndarray) -> np.ndarray:
        """Sphere/plane contact points of every incidence, ``(K, 3)``."""
        c, r, n, _ = self._split(x)
        return incidence_points(c, r, n, self.oc_face, self.oc_vert)

    def refresh_footpoints(self, x: np.ndarray) -> None:
        """Move the footpoints to the contact points of ``x``.

        The first refresh projects cold. A refresh after one whose
        footpoints all converged tracks them: each point takes one damped
        Newton step from its footpoint's parameters and jets, so the
        Newton iteration runs across LM iterations (:func:`_track`; Wang,
        Pottmann & Liu, ACM TOG 25(2), 2006). A point whose step does not
        shrink its gradient, every point of a refresh after fallbacks and
        every point of :func:`lm_run`'s refresh at the returned net get
        :func:`project_points`' warm projection. The points that do not
        converge keep their seeds and are counted as fallbacks. The rule
        for a refresh after fallbacks keeps a point that fell back from
        being tracked and then counted as converged. In :func:`lm_run`'s
        normalized frame no measured run falls back, from the acceptance
        config scaled by 0.01 to 1000; only projections cut to 0 Newton
        steps (``PROJECTION_MAX_ITER``, in the tests) reach the rule.
        """
        tracked = (self._tracking and self.foot_jets is not None
                   and not self.footpoint_fallbacks)
        uv, feet, normals, conv, jets = self._project(
            _track if tracked else project_points,
            self.contact_points_of(x), self.foot_uv, self.foot_jets)
        self.footpoint_fallbacks = int(np.sum(~conv))
        self.foot_uv = uv
        self.foot_x = feet
        self.foot_n = normals
        self.foot_jets = jets

    def _project(self, project, pts: np.ndarray, seeds_uv, seed_jets):
        """``project(surface, pts, seeds_uv, seed_jets)``, which is
        :func:`project_points` or :func:`_track`, of the contact points
        ``pts``.

        A located footpoint error is re-raised naming the face and corner
        of its contact incidence, which is its ``index``.
        """
        def where(k):
            i, j = divmod(int(self.oc_face[k]), self.vertex_shape[1] - 1)
            return f"contact of face ({i}, {j}) at corner {CORNERS[k % 4]}: "

        with locating(where):
            return project(self.surface, pts, seeds_uv, seed_jets)

    # -- residuals ----------------------------------------------------------

    def _block_raw(self, x: np.ndarray, kind: str,
                   pts: np.ndarray | None = None) -> np.ndarray:
        """Unweighted residual entries of one block kind.

        ``pts`` are the contact points of ``x``
        (:meth:`contact_points_of`); the fairness, proximity and tangency
        blocks compute them when not given.
        """
        c, r, n, h = self._split(x)
        if pts is None and kind in POINT_BLOCKS:
            pts = self.contact_points_of(x)
        if kind == "unit":
            return np.einsum("pc,pc->p", n, n) - 1.0
        if kind == "oc":
            return contact_residuals(c, r, n, h, self.oc_face, self.oc_vert)
        if kind in ("lfair", "gfair"):
            # Second differences (P[k1] - P[k0]) - (P[k3] - P[k2]) of the
            # contact points along both halves of every strip.
            k = (self.ell if kind == "lfair" else self.gamma).reshape(-1, 2, 4)
            p0, p1, p2, p3 = (np.take(pts, k[..., m], axis=0)
                              for m in range(4))
            return ((p1 - p0) - (p3 - p2)).reshape(-1)
        if kind == "prox":
            return (pts - self.foot_x).reshape(-1)
        if kind == "tan":
            diff = pts - self.foot_x
            return np.einsum("kc,kc->k", diff, self.foot_n)
        if kind == "td":
            return cone_gaps(c, r, *self.td_pairs.T)
        raise ValueError(f"unknown block kind {kind!r}")

    def active_blocks(self):
        return tuple(k for k in BLOCK_ORDER if self.weights.of(k) > 0.0)

    def _blocks(self, x: np.ndarray, kinds) -> dict:
        """Raw blocks ``kinds`` at ``x``, each evaluated once per ``x`` and
        footpoints: a block of the last evaluation is reused while ``x``
        is unchanged and, for ``prox`` and ``tan``, while the footpoints
        are the same. The contact points are computed only when a missing
        block needs them."""
        at, foot_x, known = self._evaluated
        if not np.array_equal(at, x):
            at, known = x.copy(), {}
        elif foot_x is not self.foot_x:
            for kind in FOOTPOINT_BLOCKS:
                known.pop(kind, None)
        missing = [kind for kind in kinds if kind not in known]
        pts = (self.contact_points_of(x)
               if any(kind in POINT_BLOCKS for kind in missing) else None)
        for kind in missing:
            known[kind] = self._block_raw(x, kind, pts)
        self._evaluated = (at, self.foot_x, known)
        return {kind: known[kind] for kind in kinds}

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Stacked residual vector, each block scaled by sqrt(weight)."""
        blocks = self._blocks(x, self.active_blocks())
        parts = [np.sqrt(self.weights.of(kind)) * res
                 for kind, res in blocks.items()]
        return np.concatenate(parts) if parts else np.empty(0)

    def block_slices(self) -> dict:
        """Row ranges of the active blocks, stacked in
        :data:`BLOCK_ORDER` as in the residual vector; each block's row
        count is the length of its residual at the assembled net."""
        out = {}
        at = 0
        for kind in self.active_blocks():
            size = self._block_raw(self.x0, kind).size
            out[kind] = slice(at, at + size)
            at += size
        return out

    def raw_energies(self, x: np.ndarray) -> dict:
        """Unweighted sum of squares of every block kind."""
        return self._energy_summary(x)[0]

    def total_energy(self, x: np.ndarray) -> float:
        return self._weighted_total(self.raw_energies(x))

    def max_contact_residual(self, x: np.ndarray) -> float:
        return _max_abs(self._block_raw(x, "oc"))

    def _weighted_total(self, raw: dict) -> float:
        return float(sum(self.weights.of(k) * raw[k] for k in BLOCK_ORDER))

    def _energy_summary(self, x: np.ndarray):
        """``(raw_energies, total_energy, max_contact_residual)`` of every
        block kind, evaluating only the blocks not yet known at ``x`` and
        the footpoints."""
        blocks = self._blocks(x, BLOCK_ORDER)
        raw = {kind: float(res @ res) for kind, res in blocks.items()}
        return raw, self._weighted_total(raw), _max_abs(blocks["oc"])

    # -- Jacobian -----------------------------------------------------------

    def _jac_tables(self) -> LMPlan:
        """Plan of the active blocks: the pattern (:func:`csr_pattern`)
        and value segments of the COO triplets (repeats add up) of their
        Jacobian rows. The ``size`` triplets of segment ``(kind, size,
        coef, gather, minus)`` are ``sqrt(w_kind) * coef`` (times ``foot_n``
        for ``tan``) times ``x[gather] - x[minus]`` where given. Fairness,
        proximity and tangency rows chain through the entries of ``dP_k[comp]
        / dx``: 1 at ``c_f[comp]``, ``-n_v[comp]`` at ``r_f`` and ``-r_f``
        at ``n_v[comp]``. Arc-fairness rows leave out the ``c_f`` entries:
        each of their differences ``P[k1] - P[k0]`` joins two contacts of
        one sphere, ``-r_f (n_1 - n_0)``, so the centre's ``+1`` and ``-1``
        cancel for every net. No triplet is zero for every net. An empty
        block set gets an empty pattern."""
        rows, cols = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        segments = []

        def add(kind, rr, cc, coef, gather=None, minus=None):
            rows.append(np.ravel(rr))
            cols.append(np.ravel(cc))
            segments.append((kind, rows[-1].size, coef) + tuple(
                None if g is None else np.ravel(g).astype(np.int32)
                for g in (gather, minus)))

        # Columns of sphere f and plane p: sph[f, comp], pl[p, comp].
        var = np.arange(self.n_vars).reshape(-1, 4)
        sph, pl = var[:self.n_faces], var[self.n_faces:]
        comp = np.arange(3)
        incidence = np.arange(self.oc_face.size)[:, None]
        slices = self.block_slices()
        for kind, block in slices.items():
            at = block.start
            if kind == "unit":
                cc = pl[:, :3]
                add(kind, at + np.arange(3 * self.n_planes) // 3, cc, 2, cc)
            elif kind == "oc":
                rr = at + np.arange(self.oc_face.size)
                fc, vc = sph[self.oc_face, :3], pl[self.oc_vert, :3]
                add(kind, np.repeat(rr, 3), fc, 1, vc)
                add(kind, rr, sph[self.oc_face, 3], -1)
                add(kind, np.repeat(rr, 3), vc, 1, fc)
                add(kind, rr, pl[self.oc_vert, 3], 1)
            elif kind in POINT_BLOCKS:
                # Row rr gets sign * dP_kk[comp] / dx. Fairness rows take
                # the signs of P[k0..k3] in (P[k1] - P[k0]) - (P[k3] - P[k2]).
                kk, rr, sign = incidence, at + 3 * incidence + comp, 1
                if kind == "tan":
                    rr = at + incidence
                elif kind != "prox":
                    kk = (self.ell if kind == "lfair"
                          else self.gamma).reshape(-1, 2, 4, 1)
                    rr = at + 3 * np.arange(kk.size // 4).reshape(
                        -1, 2, 1, 1) + comp
                    sign = np.array([-1, 1, 1, -1])[:, None]
                rr, kk, cc, sign = (a.ravel() for a in np.broadcast_arrays(
                    rr, kk, comp, sign))
                sign = sign.astype(np.int8)
                f, v = self.oc_face[kk], self.oc_vert[kk]
                r_col, n_col = sph[f, 3], pl[v, cc]
                if kind != "gfair":  # arc centre partials cancel
                    add(kind, rr, sph[f, cc], sign)
                add(kind, rr, r_col, -sign, n_col)
                add(kind, rr, n_col, -sign, r_col)
            elif kind == "td":
                rr = at + np.arange(self.td_pairs.shape[0])
                a, b = sph[self.td_pairs[:, 0]], sph[self.td_pairs[:, 1]]
                add(kind, np.repeat(rr, 3), a[:, :3], 2, a[:, :3], b[:, :3])
                add(kind, np.repeat(rr, 3), b[:, :3], -2, a[:, :3], b[:, :3])
                add(kind, rr, a[:, 3], -2, a[:, 3], b[:, 3])
                add(kind, rr, b[:, 3], 2, a[:, 3], b[:, 3])
        shape = (max((b.stop for b in slices.values()), default=0),
                 self.n_vars)
        pattern = csr_pattern(np.concatenate(rows), np.concatenate(cols),
                              shape)
        # The intercepts enter only the contact rows, one per row.
        order = self.order
        intercepts = order[(order >= self.plane_base) & (order % 4 == 3)]
        return LMPlan(pattern, segments, BandLayout(*pattern[:2], shape,
                                                    order, intercepts))

    def _plan(self) -> LMPlan:
        """The plan of the active block set, built on its first use."""
        kinds = self.active_blocks()
        if kinds not in self._plans:
            self._plans[kinds] = self._jac_tables()
        return self._plans[kinds]

    def jacobian(self, x: np.ndarray, mode: str = "analytic") -> sp.csr_matrix:
        """Sparse Jacobian of the scaled residual vector.

        ``analytic`` fills the shared, read-only pattern of the active
        block set's plan from its value segments (the proximity blocks
        treat their footpoints as constants); ``finite_diff`` takes
        central differences with step ``1e-6 * (1 + |x_i|)`` per variable.
        """
        import scipy.sparse as sp

        if mode == "analytic":
            plan = self._plan()
            indptr, indices, slot = plan.pattern
            vals = np.empty(slot.size)
            at = 0
            for kind, size, coef, gather, minus in plan.segments:
                w = np.sqrt(self.weights.of(kind)) * (
                    coef * self.foot_n.ravel() if kind == "tan" else coef)
                if gather is not None:
                    w = w * (x[gather] if minus is None
                             else x[gather] - x[minus])
                vals[at:at + size] = w
                at += size
            # The matrix shares the plan's read-only index arrays.
            return sp.csr_matrix(
                (np.bincount(slot, vals, indices.size), indices, indptr),
                shape=(indptr.size - 1, self.n_vars))
        if mode != "finite_diff":
            raise ValueError(f"unknown jacobian mode {mode!r}")
        x = np.asarray(x, dtype=float)
        steps = 1e-6 * (1.0 + np.abs(x))
        return sp.csr_matrix(np.column_stack([
            (self.residual(x + e) - self.residual(x - e)) / (2.0 * step)
            for step, e in zip(steps, np.diag(steps))]))

    def normal_equations(self, jac: sp.csr_matrix,
                         res: np.ndarray) -> NormalEquations:
        """``J^T J`` and ``-J^T r`` of the active block set's Jacobian and
        residual in its plan's band layout."""
        return self._plan().layout.form(jac, res)


@dataclass
class LMPlan:
    """Static LM structure of one active block set, built together: the
    read-only CSR ``pattern`` (:func:`csr_pattern`) and value ``segments``
    (:meth:`ResidualSystem._jac_tables`) of its Jacobian, and the band
    ``layout`` of its normal equations on that pattern."""

    pattern: tuple
    segments: list
    layout: BandLayout


def csr_pattern(rows: np.ndarray, cols: np.ndarray, shape):
    """Read-only int32 CSR ``(indptr, indices, slot)`` of COO positions:
    ``np.bincount(slot, vals, indices.size)`` is the CSR data, repeats
    summed and cancelled entries kept."""
    import scipy.sparse as sp

    pattern = sp.csr_array((np.ones(rows.size), (rows, cols)), shape=shape)
    pattern.data = np.arange(pattern.nnz, dtype=float)
    # scipy answers an empty fancy index with a sparse array.
    slot = pattern[rows, cols] if rows.size else rows
    out = tuple(a.astype(np.int32) for a in (
        pattern.indptr, pattern.indices, slot))
    for a in out:
        a.flags.writeable = False
    return out


def assemble(net: LNet, surface: BSplineSurface, weights: Weights,
             fix_radii: bool = False) -> ResidualSystem:
    """Residual system for a net, with footpoints frozen at assembly and
    the radii left out of its band order under ``fix_radii``."""
    return ResidualSystem(net, surface, weights, fix_radii)


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


class BandLayout:
    """Banded Cholesky layout of ``J^T J`` for the Jacobian sparsity
    pattern ``indptr``, ``indices`` of ``shape``, with the columns ``elim``
    (a subset of ``order``) eliminated by a Schur complement when that
    pays.

    Columns leave the band as a block whose part of ``J^T J`` is diagonal,
    the reduced system of bundle adjustment (Triggs, McLauchlan, Hartley &
    Fitzgibbon, *Bundle Adjustment -- A Modern Synthesis*, 2000, 6.1): no
    Jacobian row may hold two of them. Then ``J^T J = [[A, B^T], [B, D]]``
    with ``D`` diagonal, and the step solves ``A - B^T D~^-1 B``, ``D~ = D +
    mu``, in the band. Eliminating them adds the fill ``b_v b_v^T`` of
    each eliminated variable's row ``b_v`` of ``B`` to the band; they are
    kept in the band unless removing them lowers ``n * bw^2``, the cost of
    the factorization. In the main pass the plane intercepts go (bandwidth
    155 -> 135 at 10x10, 635 -> 555 at 40x40); in the contact pass they
    stay, since the fill would couple the spheres around each vertex and
    widen the band (43 -> 73 at 10x10).

    Band variable ``i`` is Jacobian column ``order[i]`` and eliminated
    variable ``e`` is column ``elim[e]``; ``rank`` maps them to ``i`` and
    ``n + e``, and every other column, which is frozen, to -1. ``bw``, the
    bandwidth of the reduced matrix, is the largest rank span of any
    Jacobian row or of any ``b_v``. Entry ``(i, j)``, ``i <= j``, lives at
    its transpose's position ``band[j - i, i]`` of LAPACK lower band
    storage of shape ``(bw + 1, n)``, flattened in Fortran order: flat
    ``bw * i + j``, so band column ``i`` holds row ``i`` of the upper
    triangle from the diagonal on. ``B``'s structural entries are
    ``(b_row[k], b_col[k])``, sorted, and the fill tables list, for each
    eliminated variable, the pairs ``fill_left <= fill_right`` of its
    entries and their band positions ``fill_slots`` (284,504 pairs on
    191,450 positions at 40x40).

    ``J^T J`` is formed in the two phases of a sparse product. The
    symbolic phase runs when the layout is built, once per
    :class:`LMPlan`: the int32 CSR pattern of ``J^T``, the int32
    ``gather`` that makes ``jac.data[gather]`` its values, and the
    product's size from scipy's ``csr_matmat_maxnnz``. At 40x40 these
    tables take 3.3 MB in the main pass (399,696 Jacobian entries) and
    0.5 MB in the contact pass. Each :meth:`form` runs only the numeric
    phase, scipy's ``csr_matmat``, into transient buffers of the symbolic
    size (6.9 MB at 40x40). The kernel drops entries that cancel exactly.
    The Jacobian stores no entry that is zero for every net, so on a
    generic net the product keeps its symbolic pattern; only values
    cancel entries: 8 in the first formation of the acceptance config and
    about 700 in each main-pass formation of a constant-radius net. So the
    band slots and the ``B`` and ``D`` positions of the product are kept
    for its last pattern and rebuilt when that changes.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, shape,
                 order: np.ndarray, elim=()):
        import scipy.sparse as sp
        from scipy.sparse._sparsetools import csr_matmat_maxnnz

        self.n_vars = shape[1]
        self.order, self.bw, self.elim, self.b_row, self.b_col = _eliminate(
            indptr, indices, shape, np.asarray(order),
            np.asarray(elim, dtype=np.intp))
        n = self.n = self.order.size
        self.rank = np.full(shape[1], -1, dtype=np.int32)
        self.rank[self.order] = np.arange(n)
        self.rank[self.elim] = n + np.arange(self.elim.size)
        self.diag = (self.bw + 1) * np.arange(n)
        # Pairs a <= b of each eliminated variable's entries of B, which are
        # sorted by band rank, so ``(b_col[a], b_col[b])`` has ``i <= j``.
        ends = np.searchsorted(self.b_row, self.b_row, side="right")
        reps = ends - np.arange(ends.size)
        left = np.repeat(np.arange(ends.size), reps)
        right = left + np.arange(left.size) - np.repeat(np.cumsum(reps) - reps,
                                                        reps)
        self.fill_slots, self.fill_left, self.fill_right = (
            a.astype(np.int32) for a in (
                self.bw * self.b_col[left] + self.b_col[right], left, right))
        indptr, indices = (np.asarray(a, dtype=np.int32)
                           for a in (indptr, indices))
        # The CSC arrays of J are the CSR arrays of J^T, built as
        # ``jac.T @ jac`` builds them; J's value positions ride along as data.
        trans = sp.csr_matrix(
            (np.arange(indices.size, dtype=np.int32), indices, indptr),
            shape=shape).tocsc()
        t_indptr, t_indices, gather = (np.asarray(a, dtype=np.int32) for a in (
            trans.indptr, trans.indices, trans.data))
        size = csr_matmat_maxnnz(self.n_vars, self.n_vars, t_indptr,
                                 t_indices, indptr, indices)
        self._tables = indptr, indices, t_indptr, t_indices, gather, size
        self._slots = (None,) * 6

    def form(self, jac: sp.csr_matrix, res: np.ndarray) -> NormalEquations:
        """``J^T J`` and ``-J^T r`` of a Jacobian of this layout's pattern.

        The product is scipy's ``jac.T @ jac`` bit for bit: the same kernel
        on the same operands, in the same order. ``J^T r`` is scipy's
        ``csr_matvec`` on ``J^T``'s pattern and the values the product
        gathers; like ``jac.T @ res`` it sums each entry's terms in
        increasing Jacobian row from 0, so it equals that bit for bit.
        Raises ``ValueError`` for a Jacobian of another pattern or a
        residual of another length."""
        from scipy.sparse._sparsetools import csr_matmat, csr_matvec

        j_indptr, j_indices, t_indptr, t_indices, gather, size = self._tables
        if not (np.array_equal(j_indptr, jac.indptr)
                and np.array_equal(j_indices, jac.indices)):
            raise ValueError("Jacobian pattern differs from the layout's")
        if np.shape(res) != (j_indptr.size - 1,):
            raise ValueError("residual length differs from the Jacobian's")
        n = self.n_vars
        indptr = np.empty(n + 1, dtype=np.int32)
        indices = np.empty(size, dtype=np.int32)
        data = np.empty(size, dtype=jac.data.dtype)
        t_data = np.take(jac.data, gather)
        csr_matmat(n, n, t_indptr, t_indices, t_data,
                   j_indptr, j_indices, jac.data, indptr, indices, data)
        jtr = np.zeros(n, dtype=data.dtype)
        csr_matvec(n, j_indptr.size - 1, t_indptr, t_indices, t_data,
                   np.asarray(res, dtype=data.dtype), jtr)
        del t_data
        nnz = indptr[-1]
        indices = indices[:nnz]
        last_indptr, last_indices, upper, slots, coupled, to = self._slots
        if not (np.array_equal(last_indptr, indptr)
                and np.array_equal(last_indices, indices)):
            # ``jac.T @ jac`` returns these arrays as a CSC matrix: entry
            # ``k`` of column ``c`` is ``(indices[k], c)``.
            j = np.repeat(self.rank, np.diff(indptr))
            i = self.rank[indices]
            upper = (i >= 0) & (i <= j) & (j < self.n)
            slots = self.bw * i[upper] + j[upper]
            # Column ``n + e`` is eliminated variable ``e``: its rows in the
            # band are B's entries, and its own row is D's.
            coupled = (i >= 0) & (j >= self.n) & ((i < self.n) | (i == j))
            e, i = j[coupled].astype(np.int64) - self.n, i[coupled]
            to = np.where(i < self.n, np.searchsorted(
                self.b_row * self.n + self.b_col, e * self.n + i),
                self.b_row.size + e)
            self._slots = indptr, indices, upper, slots, coupled, to
        data = data[:nnz]
        blocks = np.zeros(self.b_row.size + self.elim.size)
        blocks[to] = data[coupled]
        rhs = -jtr
        return NormalEquations(self, slots, data[upper], rhs[self.order],
                               blocks[:self.b_row.size],
                               blocks[self.b_row.size:], rhs[self.elim])


def _row_span(indptr: np.ndarray, rank: np.ndarray, n: int) -> int:
    """Largest span of the ranks ``rank`` (-1 outside the band of ``n``) of
    the entries of any row of a CSR pattern."""
    starts = indptr[:-1][np.diff(indptr) > 0]
    span = (np.maximum.reduceat(rank, starts)
            - np.minimum.reduceat(np.where(rank < 0, n, rank), starts))
    return int(np.max(span, initial=0))


def _eliminate(indptr, indices, shape, order, elim):
    """``(order, bw, elim, b_row, b_col)`` of :class:`BandLayout`: the
    columns ``elim`` leave the band when no Jacobian row holds two of them
    and their removal lowers ``n * bw^2`` with the fill counted; otherwise
    none leaves."""
    rank = np.full(shape[1], -1, dtype=np.int32)
    rank[order] = np.arange(order.size)
    bw = _row_span(indptr, rank[indices], order.size)
    none = order, bw, elim[:0], elim[:0], elim[:0]
    which = np.full(shape[1], -1)
    which[elim] = np.arange(elim.size)
    hit = np.flatnonzero(which[indices] >= 0)
    rows = np.searchsorted(indptr, hit, side="right") - 1
    # A row holding two eliminated columns would couple them in J^T J.
    if not elim.size or np.any(rows[1:] == rows[:-1]):
        return none
    kept = order[which[order] < 0]
    rank[:] = -1
    rank[kept] = np.arange(kept.size)
    # The entries of the rows that hold an eliminated column couple it to
    # their band columns.
    counts = indptr[rows + 1] - indptr[rows]
    at = (np.repeat(indptr[rows] - np.cumsum(counts) + counts, counts)
          + np.arange(counts.sum()))
    e, c = np.repeat(which[indices[hit]], counts), rank[indices[at]]
    keys = np.sort(e[c >= 0] * kept.size + c[c >= 0])
    b_row, b_col = np.divmod(keys[np.diff(keys, prepend=-1) > 0], kept.size)
    ends = np.searchsorted(b_row, b_row, side="right")
    reduced = max(_row_span(indptr, rank[indices], kept.size),
                  int(np.max(b_col[ends - 1] - b_col, initial=0)))
    if kept.size * reduced ** 2 >= order.size * bw ** 2:
        return none
    return kept, reduced, elim, b_row, b_col


@dataclass(frozen=True)
class NormalEquations:
    """``J^T J`` and ``-J^T r`` in the blocks of ``layout``. The band
    block's upper entries ``values`` go to the flat positions ``slots``
    of their transposes in lower band storage, and ``rhs`` is its part of
    ``-J^T r`` in band order.
    ``coupling`` holds ``B``'s structural entries (``layout.b_row``,
    ``layout.b_col``; zero where the product cancelled), ``elim_diag`` is
    ``D`` and ``elim_rhs`` the eliminated variables' part of ``-J^T r``;
    all three are empty when ``layout`` eliminates none."""

    layout: BandLayout
    slots: np.ndarray
    values: np.ndarray
    rhs: np.ndarray
    coupling: np.ndarray
    elim_diag: np.ndarray
    elim_rhs: np.ndarray


def _schur_update(eqs: NormalEquations, pivots: np.ndarray,
                  band: np.ndarray) -> np.ndarray:
    """Subtract ``B^T D~^-1 B`` from the flat ``band`` in place and return
    the reduced right-hand side ``rhs - B^T D~^-1 g``, with ``D~`` the
    damped ``pivots``."""
    lay = eqs.layout
    scaled = eqs.coupling / pivots[lay.b_row]
    np.subtract.at(band, lay.fill_slots,
                   scaled[lay.fill_left] * eqs.coupling[lay.fill_right])
    return eqs.rhs - np.bincount(lay.b_col, scaled * eqs.elim_rhs[lay.b_row],
                                 lay.n)


def solve_normal_equations(eqs: NormalEquations, mu: float) -> np.ndarray:
    """Solve ``(J^T J + mu I) d = -J^T r`` by banded Cholesky factorization.

    The band is in LAPACK lower band storage and LAPACK factors it as ``L
    L^T``; the same factorization in upper storage (``U^T U``) reads the
    band in a slower order. The layout's eliminated variables are solved
    by their Schur complement: the band holds ``A + mu I - B^T D~^-1 B``
    with ``D~ = D + mu``, and their step is ``D~^-1 (g - B y)`` from the
    band step ``y``. Variables outside the layout's free columns get a
    zero step. Raises ``RuntimeError`` when the damped matrix is not
    positive definite.
    """
    from scipy.linalg import LinAlgError, solveh_banded

    lay = eqs.layout
    pivots = eqs.elim_diag + mu
    if not np.all(pivots > 0.0):
        raise RuntimeError("singular normal equations")
    band = np.zeros((lay.bw + 1) * lay.n)
    band[eqs.slots] = eqs.values
    band[lay.diag] += mu
    rhs = _schur_update(eqs, pivots, band)
    try:
        y = solveh_banded(band.reshape((lay.bw + 1, lay.n), order="F"),
                          rhs, overwrite_ab=True, lower=True,
                          check_finite=False)
    except LinAlgError as exc:
        raise RuntimeError("singular normal equations") from exc
    if not np.all(np.isfinite(y)):
        raise RuntimeError("singular normal equations")
    d = np.zeros(lay.n_vars)
    d[lay.order] = y
    d[lay.elim] = (eqs.elim_rhs - np.bincount(
        lay.b_row, eqs.coupling * y[lay.b_col], lay.elim.size)) / pivots
    return d


@dataclass
class IterationRecord:
    """Per-iteration log entry of :func:`lm_run`, measured at the net the
    iteration returns, in the run's normalized frame. With ``s`` the rms
    radius of the surface's control grid, every energy but ``E_unit`` is
    the caller's-units energy divided by ``s^2`` and ``max_oc`` is divided
    by ``s``; ``E_unit`` is the same in both, and ``e_total`` weighs the
    frame's energies. ``solves`` is the number of band solves it made: 0
    at the roundoff floor (:func:`_at_floor`), else one per damping level
    tried, ``min(escalations, MAX_ESCALATIONS) + 1``.
    ``footpoint_fallbacks`` counts the footpoints that fell back to their
    seeds in the refresh the iteration made, 0 if it made none."""

    iteration: int
    phase: str
    e_total: float
    energies: dict
    max_oc: float
    w_lfair: float
    w_gfair: float
    escalations: int
    footpoint_fallbacks: int
    solves: int
    ms: float = field(default=0.0)


def _attempt_step(residual_fn, x: np.ndarray, res0: np.ndarray,
                  eqs: NormalEquations, w_reg: float):
    """One proximal step with escalation on energy increase or solver failure.

    Level ``k`` solves ``eqs``, the normal equations at ``x``, with ``w_reg
    + mu_k`` on the diagonal (``mu_0 = 0``, ``mu_k = w_reg 10^k``) and
    accepts ``d`` if ``|r(x + d)|^2 + w_reg |d|^2 <= |r(x)|^2``. Returns
    ``(x_new, escalations)``; a zero step, with ``MAX_ESCALATIONS + 1``
    escalations, when no level up to :data:`MAX_ESCALATIONS` is accepted.
    """
    e0 = float(res0 @ res0)
    for k in range(MAX_ESCALATIONS + 1):
        mu = 0.0 if k == 0 else w_reg * 10.0 ** k
        try:
            delta = solve_normal_equations(eqs, w_reg + mu)
        except RuntimeError:
            continue
        x_try = x + delta
        res1 = residual_fn(x_try)
        if float(res1 @ res1) + w_reg * float(delta @ delta) <= e0:
            return x_try, k
    return x.copy(), MAX_ESCALATIONS + 1


def _at_floor(record: IterationRecord, kinds, x: np.ndarray) -> bool:
    """Whether every block ``kinds`` of ``record`` is at the roundoff
    floor ``64 eps max(1, max|x|)``, with ``x`` in :func:`lm_run`'s
    normalized frame: ``max_oc`` for ``oc`` and ``sqrt(E_k)`` for every
    other kind (Madsen, Nielsen & Tingleff, *Methods for Non-Linear Least
    Squares Problems*, 2004, 3.2)."""
    floor = 64.0 * np.finfo(float).eps * max(1.0, _max_abs(x))
    return all((record.max_oc if kind == "oc"
                else np.sqrt(record.energies[kind])) <= floor
               for kind in kinds)


def _run_phase(system: ResidualSystem, x: np.ndarray, weights: Weights,
               schedule: Schedule, n_iters: int, phase: str,
               records: list) -> np.ndarray:
    """Run and record ``n_iters`` iterations. One whose last record is at
    the roundoff floor keeps ``x`` and the footpoints and makes no solve;
    its record reuses the last evaluation."""
    for it in range(1, n_iters + 1):
        t0 = time.perf_counter()
        factor = schedule.fairness_decay ** ((it - 1) // schedule.decay_every)
        w_it = replace(weights, w_lfair=weights.w_lfair * factor,
                       w_gfair=weights.w_gfair * factor)
        system.weights = w_it
        escal = solves = fallbacks = 0
        if not (records and _at_floor(records[-1], system.active_blocks(),
                                      x)):
            if set(FOOTPOINT_BLOCKS) & set(system.active_blocks()):
                system.refresh_footpoints(x)
                fallbacks = system.footpoint_fallbacks
            res0 = system.residual(x)
            jac_x = system.jacobian(x)
            eqs = system.normal_equations(jac_x, res0)
            del jac_x  # free it before the band is allocated
            x, escal = _attempt_step(system.residual, x, res0, eqs,
                                     weights.w_reg)
            solves = min(escal, MAX_ESCALATIONS) + 1
        raw, total, max_oc = system._energy_summary(x)
        records.append(IterationRecord(
            iteration=len(records) + 1, phase=phase, e_total=total,
            energies=raw, max_oc=max_oc,
            w_lfair=w_it.w_lfair, w_gfair=w_it.w_gfair, escalations=escal,
            footpoint_fallbacks=fallbacks, solves=solves,
            ms=(time.perf_counter() - t0) * 1e3))
    return x


def lm_run(net: LNet, surface: BSplineSurface, weights: Weights = Weights(),
           schedule: Schedule = Schedule(), fix_radii: bool = False):
    """Refine a net: main pass with all energies, then contact-only pass.

    The run works in one normalized frame, so its result does not depend on
    the units or the placement of the input (Marquardt, SIAM J. Appl.
    Math. 11(2), 1963, on variable scaling; Hartley, IEEE PAMI 19(6),
    1997, on centring and isotropic scaling). With ``t`` the centroid and
    ``s`` the rms radius of the surface's control points, the surface's
    control grid becomes ``(grid - t) / s`` and the net ``c' = (c - t) /
    s``, ``r' = r / s`` and ``h' = (h + <n, t>) / s``, with its normals
    unchanged. Assembly, both passes and the refresh at the returned net
    run there. The returned net is the input plus the change ``d`` of the
    run mapped back: ``n + d_n``, ``h + s d_h - <d_n, t>``, ``c + s d_c``
    and ``r + s d_r``, so a net that the run leaves unchanged comes back
    bit for bit. The records are measured in the normalized frame
    (:class:`IterationRecord`).

    ``fix_radii`` freezes every sphere radius at its initial value, which
    is the faithful treatment of an exactly prescribed constant radius.
    Returns the refined net and the list of :class:`IterationRecord`.
    The main pass tracks converged footpoints by one Newton step per
    refresh; the last record is measured after a refresh at the returned
    net that projects every footpoint until it converges. If any record
    has footpoint fallbacks, one warning names those records and the
    largest count.
    """
    grid = surface.control_grid.reshape(-1, 3)
    t = grid.mean(axis=0)
    s = float(np.sqrt(np.mean(np.vecdot(grid - t, grid - t))))
    system = assemble(
        LNet(net.normals, (net.intercepts + net.normals @ t) / s,
             (net.centers - t) / s, net.radii / s),
        replace(surface, control_grid=(surface.control_grid - t) / s),
        weights, fix_radii)
    x = system.x0.copy()
    records: list[IterationRecord] = []
    x = _run_phase(system, x, weights, schedule, schedule.max_iters,
                   "main", records)
    # The contact-only pass keeps the unit and contact blocks.
    w_final = replace(weights, **{f"w_{kind}": 0.0 for kind in BLOCK_ORDER
                                  if kind not in ("unit", "oc")})
    x = _run_phase(system, x, w_final, schedule, schedule.final_pass_iters,
                   "contact", records)
    # The last record reports E_prox and E_tan at the returned net, against
    # footpoints projected until they converge.
    system._tracking = False
    system.refresh_footpoints(x)
    last = records[-1]
    last.energies, last.e_total, last.max_oc = system._energy_summary(x)
    last.footpoint_fallbacks = system.footpoint_fallbacks
    fell = [rec.iteration for rec in records if rec.footpoint_fallbacks]
    if fell:
        logger.warning("footpoints fell back to their seeds in records %s, "
                       "at most %d of %d in one record",
                       ", ".join(map(str, fell)),
                       max(rec.footpoint_fallbacks for rec in records),
                       system.oc_face.size)
    d = unpack(x - system.x0, system.vertex_shape)
    return LNet(net.normals + d.normals,
                net.intercepts + s * d.intercepts - d.normals @ t,
                net.centers + s * d.centers, net.radii + s * d.radii), records
