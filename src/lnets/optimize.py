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
both passes, and escalations add ``w_reg * 10^k`` on top of it.

The fairness, proximity and tangency blocks are linear in ``P``, so
their Jacobian rows are sums of ``coef * dP/dx``. The band order
(:func:`lattice_order`) is fixed at assembly and makes ``J^T J`` banded.
Each active block set has one :class:`LMPlan`: its Jacobian's CSR
pattern, value segments and band layout. The contact pass's blocks lead
:data:`BLOCK_ORDER`, so its plan slices the main pass's tables. Each
iteration solves the damped normal equations by banded Cholesky
factorization; escalations reuse ``J^T J`` and only change the damping
on its diagonal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .bspline import BSplineSurface, project_points
from .errors import LnetsError, located
from .lnet import (CORNERS, LNet, contact_incidences, face_pairs,
                   strip_incidences)

# scipy is imported by the functions that use it, so that only an LM run
# pays for loading it: the verify, tessellate and report commands never do.
if TYPE_CHECKING:
    import scipy.sparse as sp

BLOCK_ORDER = ("unit", "oc", "lfair", "gfair", "prox", "tan", "td")


@dataclass(frozen=True)
class Weights:
    """Energy weights and the LM damping weight ``w_reg``, which is not an
    energy: each step minimizes ``|r(x + d)|^2 + w_reg |d|^2`` with
    ``w_reg > 0``. The defaults are the tuning the pipeline ships with."""

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

    Fairness weights are multiplied by ``fairness_decay`` (in [0, 1])
    every ``decay_every`` iterations; after the main iterations a
    contact-only pass of ``final_pass_iters`` steps runs with only the
    contact and unit-normal energies (still damped by ``w_reg``).
    Footpoints are refreshed in the iterations whose proximity or
    tangency weight is positive and once at the returned net. The main
    loop also stops early when the relative total-energy change stays
    below ``converge_rtol`` for ``converge_patience`` consecutive
    iterations.
    """

    max_iters: int = 100
    fairness_decay: float = 0.1
    decay_every: int = 10
    final_pass_iters: int = 20
    converge_rtol: float = 1e-14
    converge_patience: int = 3

    def __post_init__(self):
        for name, low in (("max_iters", 0), ("final_pass_iters", 0),
                          ("decay_every", 1), ("converge_patience", 1)):
            n = getattr(self, name)
            if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                    or n < low):
                raise ValueError(f"{name}={n!r} must be an integer >= {low}")
        if not 0.0 <= self.fairness_decay <= 1.0:
            raise ValueError("fairness_decay must be in [0, 1]")
        if not self.converge_rtol >= 0.0:
            raise ValueError("converge_rtol must be nonnegative")


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
        order = lattice_order(self.vertex_shape)
        if fix_radii:
            order = order[(order >= self.plane_base) | (order % 4 != 3)]
        self.order = order
        self._assembled = self.active_blocks()
        self._plans = {}
        self._evaluated = (None, None, {})
        self.refresh_footpoints(self.x0)

    # -- state ------------------------------------------------------------

    def set_weights(self, weights: Weights) -> None:
        self.weights = weights

    def _split(self, x: np.ndarray):
        sph = x[:self.plane_base].reshape(self.n_faces, 4)
        pl = x[self.plane_base:].reshape(self.n_planes, 4)
        return sph[:, :3], sph[:, 3], pl[:, :3], pl[:, 3]

    def contact_points_of(self, x: np.ndarray) -> np.ndarray:
        """Sphere/plane contact points of every incidence, ``(K, 3)``."""
        c, r, n, _ = self._split(x)
        return (c[self.oc_face]
                - r[self.oc_face, None] * n[self.oc_vert])

    def refresh_footpoints(self, x: np.ndarray) -> None:
        """Project all contact points onto the reference surface.

        Projections warm-start from the previous parameters and their jets
        once available; fallbacks to grid seeding are counted.
        """
        pts = self.contact_points_of(x)
        uv, feet, normals, conv, jets = self._project(
            pts, self.foot_uv, self.foot_jets, np.arange(len(pts)))
        if not np.all(conv) and self.foot_uv is not None:
            # Re-seed the stragglers from the coarse grid.
            bad = ~conv
            uv[bad], feet[bad], normals[bad], conv[bad], jets[bad] = (
                self._project(pts[bad], None, None, np.flatnonzero(bad)))
        self.footpoint_fallbacks = int(np.sum(~conv))
        self.foot_uv = uv
        self.foot_x = feet
        self.foot_n = normals
        self.foot_jets = jets

    def _project(self, pts: np.ndarray, seeds_uv, seed_jets,
                 incidences: np.ndarray):
        """:func:`project_points` of the contact points of ``incidences``.

        A located footpoint error is re-raised naming the face and corner
        of its contact incidence, which becomes its ``index``.
        """
        try:
            return project_points(self.surface, pts, seeds_uv=seeds_uv,
                                  seed_jets=seed_jets)
        except (LnetsError, ValueError) as exc:
            if getattr(exc, "index", None) is None:
                raise
            k = int(incidences[exc.index])
            i, j = divmod(int(self.oc_face[k]), self.vertex_shape[1] - 1)
            raise located(type(exc), f"contact of face ({i}, {j}) at corner "
                          f"{CORNERS[k % 4]}: {exc}", index=k,
                          uv=exc.uv) from exc

    # -- residuals ----------------------------------------------------------

    def _block_raw(self, x: np.ndarray, kind: str,
                   pts: np.ndarray | None = None) -> np.ndarray:
        """Unweighted residual entries of one block kind.

        ``pts`` are the contact points of ``x``
        (:meth:`contact_points_of`); the fairness, proximity and tangency
        blocks compute them when not given.
        """
        c, r, n, h = self._split(x)
        if pts is None and kind in ("lfair", "gfair", "prox", "tan"):
            pts = self.contact_points_of(x)
        if kind == "unit":
            return np.einsum("pc,pc->p", n, n) - 1.0
        if kind == "oc":
            return (np.einsum("kc,kc->k", c[self.oc_face], n[self.oc_vert])
                    + h[self.oc_vert] - r[self.oc_face])
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
            if self.td_pairs.shape[0] == 0:
                return np.empty(0)
            d = c[self.td_pairs[:, 0]] - c[self.td_pairs[:, 1]]
            dr = r[self.td_pairs[:, 0]] - r[self.td_pairs[:, 1]]
            return np.einsum("kc,kc->k", d, d) - dr * dr
        raise ValueError(f"unknown block kind {kind!r}")

    def active_blocks(self):
        return tuple(k for k in BLOCK_ORDER if self.weights.of(k) > 0.0)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Stacked residual vector, each block scaled by sqrt(weight)."""
        pts = self.contact_points_of(x)
        blocks = {kind: self._block_raw(x, kind, pts)
                  for kind in self.active_blocks()}
        self._evaluated = (x.copy(), self.foot_x, blocks)
        parts = [np.sqrt(self.weights.of(kind)) * res
                 for kind, res in blocks.items()]
        return np.concatenate(parts) if parts else np.empty(0)

    def block_slices(self, kinds=None) -> dict:
        """Row ranges of the blocks ``kinds`` (default: the active ones)
        stacked in :data:`BLOCK_ORDER`, as in the residual vector."""
        sizes = {"unit": self.n_planes, "oc": self.oc_face.size,
                 "lfair": 6 * self.ell.shape[0],
                 "gfair": 6 * self.gamma.shape[0],
                 "prox": 3 * self.oc_face.size, "tan": self.oc_face.size,
                 "td": self.td_pairs.shape[0]}
        out = {}
        at = 0
        for kind in self.active_blocks() if kinds is None else kinds:
            out[kind] = slice(at, at + sizes[kind])
            at += sizes[kind]
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
        """``(raw_energies, total_energy, max_contact_residual)`` from one
        evaluation of every block that :meth:`residual` has not just
        evaluated at the same ``x`` and footpoints."""
        at, foot_x, known = self._evaluated
        if not (foot_x is self.foot_x and np.array_equal(at, x)):
            known = {}
        pts = self.contact_points_of(x)
        blocks = {kind: known[kind] if kind in known
                  else self._block_raw(x, kind, pts) for kind in BLOCK_ORDER}
        raw = {kind: float(res @ res) for kind, res in blocks.items()}
        return raw, self._weighted_total(raw), _max_abs(blocks["oc"])

    # -- Jacobian -----------------------------------------------------------

    def _jac_tables(self, kinds) -> LMPlan:
        """Plan of the blocks ``kinds``: the pattern (:func:`csr_pattern`)
        and value segments of the COO triplets (repeats add up) of their
        Jacobian rows. The ``size`` triplets of segment ``(kind, size,
        coef, gather, minus)`` are ``sqrt(w_kind) * coef`` (times ``foot_n``
        for ``tan``) times ``x[gather] - x[minus]`` where given. Fairness,
        proximity and tangency rows chain through the entries of ``dP_k[comp]
        / dx``: 1 at ``c_f[comp]``, ``-n_v[comp]`` at ``r_f`` and ``-r_f``
        at ``n_v[comp]``."""
        rows, cols, segments = [], [], []

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
        slices = self.block_slices(kinds)
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
            elif kind in ("lfair", "gfair", "prox", "tan"):
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
        return LMPlan(csr_pattern(np.concatenate(rows), np.concatenate(cols),
                                  shape), segments)

    def _plan(self, kinds) -> LMPlan:
        """The plan of the blocks ``kinds``, built on their first use.

        The blocks weighted at assembly own their Jacobian tables. A
        shorter leading run of them, such as the contact pass's ``unit``
        and ``oc``, holds the first rows of those tables, so its plan
        slices them (:meth:`LMPlan.prefix`); any other set builds its own.
        """
        plan = self._plans.get(kinds)
        if plan is None:
            main = self._assembled
            if len(kinds) < len(main) and kinds == main[:len(kinds)]:
                rows = max((b.stop for b in
                            self.block_slices(kinds).values()), default=0)
                plan = self._plan(main).prefix(rows, kinds)
            elif kinds:
                plan = self._jac_tables(kinds)
            else:  # no block was weighted at assembly
                empty = np.empty(0, np.int32)
                plan = LMPlan((np.zeros(1, np.int32), empty, empty), [])
            self._plans[kinds] = plan
        return plan

    def jacobian(self, x: np.ndarray, mode: str = "analytic") -> sp.csr_matrix:
        """Sparse Jacobian of the scaled residual vector.

        ``analytic`` fills the shared, read-only pattern of the active
        block set's plan from its value segments (the proximity blocks
        treat their footpoints as constants); ``finite_diff`` takes
        central differences with step ``1e-6 * (1 + |x_i|)`` per variable.
        """
        import scipy.sparse as sp

        if mode == "analytic":
            plan = self._plan(self.active_blocks())
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
            # Set after construction: the constructor copies a prefix plan's
            # slices, as scipy prunes views of much larger arrays.
            jac = sp.csr_matrix((indptr.size - 1, self.n_vars))
            jac.data, jac.indices, jac.indptr = (
                np.bincount(slot, vals, indices.size), indices, indptr)
            return jac
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
        residual in its plan's band layout, which the set's first call
        builds from ``jac`` in :attr:`order`."""
        plan = self._plan(self.active_blocks())
        if plan.layout is None:
            plan.layout = BandLayout(jac, self.order)
        return plan.layout.form(jac, res)


@dataclass
class LMPlan:
    """Static LM structure of one active block set: the read-only CSR
    ``pattern`` (:func:`csr_pattern`) and value ``segments``
    (:meth:`ResidualSystem._jac_tables`) of its Jacobian, and the band
    ``layout`` of its normal equations, built from its first Jacobian."""

    pattern: tuple
    segments: list
    layout: BandLayout | None = None

    def prefix(self, rows: int, kinds) -> LMPlan:
        """The plan of the leading blocks ``kinds`` (the first ``rows``
        rows): slices of this plan's tables. Their entries and triplets
        come first, so no entry or slot moves."""
        indptr, indices, slot = self.pattern
        segments = [seg for seg in self.segments if seg[0] in kinds]
        triplets = sum(seg[1] for seg in segments)
        return LMPlan((indptr[:rows + 1], indices[:indptr[rows]],
                       slot[:triplets]), segments)


def csr_pattern(rows: np.ndarray, cols: np.ndarray, shape):
    """Read-only int32 CSR ``(indptr, indices, slot)`` of COO positions:
    ``np.bincount(slot, vals, indices.size)`` is the CSR data, repeats
    summed and cancelled entries kept."""
    import scipy.sparse as sp

    pattern = sp.csr_array((np.ones(rows.size), (rows, cols)), shape=shape)
    pattern.data = np.arange(pattern.nnz, dtype=float)
    out = tuple(a.astype(np.int32) for a in (
        pattern.indptr, pattern.indices, pattern[rows, cols]))
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
    """Banded Cholesky layout of ``J^T J`` for one Jacobian sparsity pattern.

    Band variable ``i`` is Jacobian column ``order[i]``; other columns are
    frozen. ``bw``, the largest rank span of any Jacobian row, is the
    bandwidth of ``J^T J``. Entry ``(i, j)``, ``i <= j``, lives at
    ``band[bw + i - j, j]`` of LAPACK upper band storage of shape ``(bw +
    1, n)``, flattened in Fortran order. The band slots of ``J^T J`` are
    kept for its last pattern, which changes only when an entry cancels
    exactly.
    """

    def __init__(self, jac: sp.csr_matrix, order: np.ndarray):
        self.order = np.asarray(order)
        n = self.n = self.order.size
        self.n_vars = jac.shape[1]
        self.rank = np.full(jac.shape[1], -1, dtype=np.int32)
        self.rank[self.order] = np.arange(n)
        rank = self.rank[jac.indices]
        starts = jac.indptr[:-1][np.diff(jac.indptr) > 0]
        span = (np.maximum.reduceat(rank, starts)
                - np.minimum.reduceat(np.where(rank < 0, n, rank), starts))
        self.bw = int(np.max(span, initial=0))
        self.diag = self.bw + (self.bw + 1) * np.arange(n)
        self._slots = (None, None, None, None)

    def form(self, jac: sp.csr_matrix, res: np.ndarray) -> NormalEquations:
        """``J^T J`` and ``-J^T r`` of a Jacobian with this layout's pattern."""
        ata = jac.T @ jac
        indptr, indices, upper, slots = self._slots
        if not (np.array_equal(indptr, ata.indptr)
                and np.array_equal(indices, ata.indices)):
            i, j = (self.rank[a] for a in ata.tocoo(copy=False).coords)
            upper = (i >= 0) & (i <= j)
            i, j = i[upper], j[upper]
            if np.any(j - i > self.bw):
                raise ValueError("Jacobian sparsity exceeds the layout's band")
            slots = self.bw + i - j + (self.bw + 1) * j
            self._slots = ata.indptr, ata.indices, upper, slots
        return NormalEquations(self, slots, ata.data[upper],
                               -(jac.T @ res)[self.order])


@dataclass(frozen=True)
class NormalEquations:
    """``J^T J`` and ``-J^T r`` in the order of ``layout``: the upper
    entries ``values`` go to the flat band positions ``slots``."""

    layout: BandLayout
    slots: np.ndarray
    values: np.ndarray
    rhs: np.ndarray


def solve_normal_equations(eqs: NormalEquations, mu: float) -> np.ndarray:
    """Solve ``(J^T J + mu I) d = -J^T r`` by banded Cholesky factorization.

    Variables outside the layout's free columns get a zero step. Raises
    ``RuntimeError`` when the damped matrix is not positive definite.
    """
    from scipy.linalg import LinAlgError, solveh_banded

    lay = eqs.layout
    band = np.zeros((lay.bw + 1) * lay.n)
    band[eqs.slots] = eqs.values
    band[lay.diag] += mu
    try:
        y = solveh_banded(band.reshape((lay.bw + 1, lay.n), order="F"),
                          eqs.rhs, overwrite_ab=True, check_finite=False)
    except LinAlgError as exc:
        raise RuntimeError("singular normal equations") from exc
    if not np.all(np.isfinite(y)):
        raise RuntimeError("singular normal equations")
    d = np.zeros(lay.n_vars)
    d[lay.order] = y
    return d


@dataclass
class IterationRecord:
    """Per-iteration log entry of :func:`lm_run`."""

    iteration: int
    phase: str
    e_total: float
    energies: dict
    max_oc: float
    w_lfair: float
    w_gfair: float
    escalations: int
    footpoint_fallbacks: int
    ms: float = field(default=0.0)


def _attempt_step(residual_fn, x: np.ndarray, res0: np.ndarray,
                  eqs: NormalEquations, w_reg: float,
                  max_escalations: int = 8):
    """One proximal step with escalation on energy increase or solver failure.

    Level ``k`` solves ``eqs``, the normal equations at ``x``, with ``w_reg
    + mu_k`` on the diagonal (``mu_0 = 0``, ``mu_k = w_reg 10^k``) and
    accepts ``d`` if ``|r(x + d)|^2 + w_reg |d|^2 <= |r(x)|^2``. Returns
    ``(x_new, escalations)``; a zero step when no level is accepted.
    """
    e0 = float(res0 @ res0)
    for k in range(max_escalations + 1):
        mu = 0.0 if k == 0 else w_reg * 10.0 ** k
        try:
            delta = solve_normal_equations(eqs, w_reg + mu)
        except RuntimeError:
            continue
        x_try = x + delta
        res1 = residual_fn(x_try)
        if float(res1 @ res1) + w_reg * float(delta @ delta) <= e0:
            return x_try, k
    return x.copy(), max_escalations + 1


def _run_phase(system: ResidualSystem, x: np.ndarray, weights: Weights,
               schedule: Schedule, n_iters: int, phase: str,
               records: list) -> np.ndarray:
    flat_count = 0
    prev_total = None
    for it in range(1, n_iters + 1):
        t0 = time.perf_counter()
        factor = schedule.fairness_decay ** ((it - 1) // schedule.decay_every)
        w_it = replace(weights, w_lfair=weights.w_lfair * factor,
                       w_gfair=weights.w_gfair * factor)
        system.set_weights(w_it)
        if w_it.w_prox > 0.0 or w_it.w_tan > 0.0:
            system.refresh_footpoints(x)
        res0 = system.residual(x)
        jac_x = system.jacobian(x)
        eqs = system.normal_equations(jac_x, res0)
        del jac_x  # free it before the band is allocated
        x, escal = _attempt_step(system.residual, x, res0, eqs,
                                 weights.w_reg)
        raw, total, max_oc = system._energy_summary(x)
        records.append(IterationRecord(
            iteration=len(records) + 1, phase=phase, e_total=total,
            energies=raw, max_oc=max_oc,
            w_lfair=w_it.w_lfair, w_gfair=w_it.w_gfair, escalations=escal,
            footpoint_fallbacks=system.footpoint_fallbacks,
            ms=(time.perf_counter() - t0) * 1e3))
        if prev_total is not None:
            ref = max(abs(prev_total), abs(total), 1e-300)
            if abs(prev_total - total) / ref < schedule.converge_rtol:
                flat_count += 1
                if flat_count >= schedule.converge_patience:
                    break
            else:
                flat_count = 0
        prev_total = total
    return x


def lm_run(net: LNet, surface: BSplineSurface, weights: Weights = Weights(),
           schedule: Schedule = Schedule(), fix_radii: bool = False):
    """Refine a net: main pass with all energies, then contact-only pass.

    ``fix_radii`` freezes every sphere radius at its initial value, which
    is the faithful treatment of an exactly prescribed constant radius.
    Returns the refined net and the list of :class:`IterationRecord`.
    """
    system = assemble(net, surface, weights, fix_radii)
    x = system.x0.copy()
    records: list[IterationRecord] = []
    x = _run_phase(system, x, weights, schedule, schedule.max_iters,
                   "main", records)
    w_final = Weights(w_oc=weights.w_oc, w_unit=weights.w_unit,
                      w_reg=weights.w_reg, w_lfair=0.0, w_gfair=0.0,
                      w_prox=0.0, w_tan=0.0, w_td=0.0)
    x = _run_phase(system, x, w_final, schedule, schedule.final_pass_iters,
                   "contact", records)
    if records:
        # The last record reports E_prox and E_tan at the returned net.
        system.refresh_footpoints(x)
        last = records[-1]
        last.energies, last.e_total, last.max_oc = system._energy_summary(x)
        last.footpoint_fallbacks = system.footpoint_fallbacks
    return unpack(x, system.vertex_shape), records
