"""Oriented spheres, planes and cones in Euclidean 3-space and their
representation as points / isotropic hyperplanes of Minkowski 4-space.

Conventions used throughout the package:

* An oriented sphere is a pair ``(c, r)`` of center and signed radius.
  Positive radius means inward-pointing normals; ``r = 0`` is a point.
* An oriented plane is given in Hesse normal form ``<n, x> + h = 0`` with
  unit normal ``n``; ``h`` is the signed distance of the origin.
* Oriented contact of sphere and plane means ``<n, c> + h = r``.
* The Minkowski lift maps the sphere ``(c, r)`` to the 4-point ``(c, r)``
  and the plane ``(n, h)`` to the hyperplane with isotropic normal
  ``N = (n, 1)`` and intercept ``h``; the inner product has signature
  ``(+, +, +, -)``.

All functions are pure and operate on immutable values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, located

# Tolerance for unit-normal checks; well above double rounding, far below
# geometric feature scale.
EPS_UNIT = 1e-9
# Tolerance for isotropy / light-like classification.
EPS_ISO = 1e-9


def _as_vec(x, n: int) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"expected a {n}-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite components")
    return a


@dataclass(frozen=True)
class OrSphere:
    """Oriented sphere with center ``c`` and signed radius ``r``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec(self.center, 3))
        object.__setattr__(self, "radius", float(self.radius))
        if not np.isfinite(self.radius):
            raise ValueError("radius must be finite")


@dataclass(frozen=True)
class OrPlane:
    """Oriented plane ``<n, x> + h = 0``.

    The normal is expected to be unit length (within ``EPS_UNIT``) by every
    consumer except the optimizer, which treats unitness as a soft
    constraint and therefore bypasses this type internally.
    """

    normal: np.ndarray
    intercept: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _as_vec(self.normal, 3))
        object.__setattr__(self, "intercept", float(self.intercept))
        if not np.isfinite(self.intercept):
            raise ValueError("intercept must be finite")


@dataclass(frozen=True)
class MinkowskiPoint:
    """Point of R^{3,1}; the lift of an oriented sphere."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vec(self.x, 4))


@dataclass(frozen=True)
class IsotropicHyperplane:
    """Hyperplane ``<<N, X>> + h = 0`` with isotropic normal ``N = (n, 1)``.

    The fourth component of ``N`` is fixed to 1 (canonical scaling), which
    makes ``<<N, N>> = |n|^2 - 1`` vanish exactly for unit ``n``.
    """

    N: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "N", _as_vec(self.N, 4))
        object.__setattr__(self, "h", float(self.h))
        if abs(self.N[3] - 1.0) > EPS_ISO:
            raise ValueError("isotropic normal must have fourth component 1")
        if abs(minkowski_inner(self.N, self.N)) > EPS_ISO:
            raise ValueError("normal is not isotropic within tolerance")


@dataclass(frozen=True)
class SphereFamily:
    """Linear family ``s(t) = (1-t) s0 + t s1`` of oriented spheres.

    An admissible family (``||c0-c1||^2 > (r0-r1)^2`` strictly) envelopes an
    oriented cone: the set of planes in oriented contact with both spheres.
    """

    s0: OrSphere
    s1: OrSphere

    def __post_init__(self):
        d2 = float(np.dot(self.s1.center - self.s0.center,
                          self.s1.center - self.s0.center))
        dr2 = (self.s1.radius - self.s0.radius) ** 2
        if not d2 > dr2:
            raise AdmissibilityError(
                f"spheres admit no common tangent planes: "
                f"|c0-c1|^2 = {d2:g} <= (r0-r1)^2 = {dr2:g}")

    def at(self, t: float) -> OrSphere:
        """Member of the linear family at parameter ``t``."""
        return OrSphere((1.0 - t) * self.s0.center + t * self.s1.center,
                        (1.0 - t) * self.s0.radius + t * self.s1.radius)


class LineClass(enum.Enum):
    """Causal type of a direction in R^{3,1}."""

    SPACE_LIKE = "space_like"
    LIGHT_LIKE = "light_like"
    TIME_LIKE = "time_like"


def minkowski_inner(a, b) -> float:
    """Inner product of signature (+,+,+,-) on R^{3,1}."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - a[3] * b[3])


def lift(e):
    """Map a sphere to its 4-point, a plane to its isotropic hyperplane."""
    if isinstance(e, OrSphere):
        return MinkowskiPoint(np.append(e.center, e.radius))
    if isinstance(e, OrPlane):
        return IsotropicHyperplane(np.append(e.normal, 1.0), e.intercept)
    raise TypeError(f"cannot lift {type(e).__name__}")


def classify_direction(g) -> LineClass:
    """Classify a nonzero 4-direction by the sign of ``<<g, g>>``.

    The zero test is relative to the Euclidean magnitude of ``g`` so that
    the classification is scale invariant.
    """
    g = _as_vec(g, 4)
    scale = float(np.dot(g, g))
    if scale == 0.0:
        raise ValueError("cannot classify the zero vector")
    q = minkowski_inner(g, g)
    if abs(q) <= EPS_ISO * scale:
        return LineClass.LIGHT_LIKE
    return LineClass.SPACE_LIKE if q > 0 else LineClass.TIME_LIKE


def contact_residual(s: OrSphere, p: OrPlane, check_unit: bool = True) -> float:
    """Signed distance of the sphere center from the plane, minus the radius.

    Zero exactly when sphere and plane are in oriented contact.
    """
    if check_unit:
        nn = float(np.dot(p.normal, p.normal))
        if abs(nn - 1.0) > 2.0 * EPS_UNIT:
            raise ValueError(f"plane normal is not unit: |n|^2 = {nn!r}")
    return float(np.dot(p.normal, s.center)) + p.intercept - s.radius


def offset(e, d: float):
    """Offset a sphere or plane by distance ``d`` along its normals.

    Adds ``d`` to the signed radius of a sphere and to the intercept of a
    plane; oriented contact is invariant under doing both.
    """
    d = float(d)
    if isinstance(e, OrSphere):
        return OrSphere(e.center, e.radius + d)
    if isinstance(e, OrPlane):
        return OrPlane(e.normal, e.intercept + d)
    raise TypeError(f"cannot offset {type(e).__name__}")


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


def common_tangent_normals(fam: SphereFamily, k: int) -> list[OrPlane]:
    """Sample ``k`` oriented planes tangent to both spheres of the family.

    The normals of all common tangent planes form the circle
    ``{n : |n| = 1, <n, c1-c0> = r1-r0}``; they are sampled at uniform
    angles starting from the deterministic basis of
    :func:`tangent_normal_circle`. Intercepts are ``h = r0 - <n, c0>``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    alpha, w_hat, e1, e2 = (a[0] for a in tangent_normal_circle(
        fam.s0.center[None], np.array([fam.s0.radius]),
        fam.s1.center[None], np.array([fam.s1.radius])))
    rho = float(np.sqrt(1.0 - alpha * alpha))
    planes = []
    for i in range(k):
        t = 2.0 * np.pi * i / k
        n = alpha * w_hat + rho * (np.cos(t) * e1 + np.sin(t) * e2)
        h = fam.s0.radius - float(np.dot(n, fam.s0.center))
        planes.append(OrPlane(n, h))
    return planes


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


def cone_vertex(fam: SphereFamily):
    """Vertex of the enveloped cone, or ``None`` for a cylinder / line.

    The vertex is the point member ``s(t*)`` of the linear family, reached
    at ``t* = r0 / (r0 - r1)``; it does not exist when ``r0 = r1``.
    """
    r0, r1 = fam.s0.radius, fam.s1.radius
    if r0 == r1:
        return None
    t = r0 / (r0 - r1)
    return (1.0 - t) * fam.s0.center + t * fam.s1.center
