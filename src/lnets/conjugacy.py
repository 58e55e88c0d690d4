"""Conjugacy of surface directions relative to an attached tangent sphere
congruence, dual curvature radii, and the classification of contact
elements.

Notation: ``kappa1 >= kappa2 > 0`` are the principal curvatures with radii
``rho_i = 1/kappa_i``; ``r`` is the signed radius of the congruence sphere
at the contact element. The two fundamental coefficient pairs are

* ``(rho_2 - r, rho_1 - r)`` - the dual curvature radii relative to the
  congruence, attached to the first and second principal slots, and
* ``(kappa1 - r kappa1^2, kappa2 - r kappa2^2)`` - the coefficients of the
  contact-curve ("pseudo-conjugate") relation used for field generation.

Directions are expressed as coefficient pairs in the orthonormal principal
basis ``(t1, t2)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FlatError, SingularRadiusError, located

# Relative tolerance deciding when a dual curvature radius "vanishes";
# always applied against a local length scale, never absolutely.
EPS_CLASS = 1e-8


class ContactClass(enum.Enum):
    """Contact-element type by the sign pattern of the dual radii."""

    L_HYPERBOLIC = "l_hyperbolic"
    L_PARABOLIC = "l_parabolic"
    L_ELLIPTIC = "l_elliptic"
    L_FLAT = "l_flat"


@dataclass(frozen=True)
class CongruenceSpec:
    """Sphere-radius prescription for the attached congruence.

    ``tau_min`` mode sets ``r = tau * min(rho_1, rho_2)`` with
    ``tau in (0, 1)``, which keeps the radius strictly below the smaller
    principal radius everywhere. ``explicit`` mode takes a positive
    constant or a callable ``value(u, v)``; values reaching the smaller
    principal radius raise :class:`SingularRadiusError` where evaluated.
    """

    mode: str
    tau: float | None = None
    value: object = None

    def __post_init__(self):
        if self.mode == "tau_min":
            if self.tau is None or not 0.0 < float(self.tau) < 1.0:
                raise ValueError("tau must lie strictly between 0 and 1")
            object.__setattr__(self, "tau", float(self.tau))
        elif self.mode == "explicit":
            if self.value is None:
                raise ValueError("explicit mode needs a value")
            if not callable(self.value):
                object.__setattr__(self, "value", float(self.value))
        else:
            raise ValueError(f"unknown congruence mode {self.mode!r}")

    def radii(self, kappa1, uv=None) -> np.ndarray:
        """Congruence radii at a batch of contact elements.

        ``kappa1`` holds the larger principal curvature per element;
        ``uv`` (``(N, 2)``) is forwarded point by point to a callable
        explicit field and is unused in the other modes. An inadmissible
        radius raises :class:`SingularRadiusError` for the first offending
        element, whose row is the error's ``index``.
        """
        rho_min = 1.0 / np.asarray(kappa1, dtype=float)
        if self.mode == "tau_min":
            return self.tau * rho_min
        if callable(self.value):
            r = np.array([self.value(u, v)
                          for u, v in np.asarray(uv, dtype=float).tolist()],
                         dtype=float)
        else:
            r = np.full(rho_min.shape, self.value)
        bad = ~(r > 0.0) | (r >= rho_min)
        if bad.any():
            k = int(np.argmax(bad))
            if not r[k] > 0.0:
                msg = f"congruence radius {r[k]:g} must be positive"
            else:
                msg = (f"congruence radius {r[k]:g} reaches the smaller "
                       f"principal radius {rho_min[k]:g}")
            raise located(SingularRadiusError, msg, index=k)
        return r


@dataclass(frozen=True)
class DualCurvature:
    """Dual curvature radii relative to the congruence and their product."""

    rho_s1: float
    rho_s2: float
    Lambda: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "Lambda", self.rho_s1 * self.rho_s2)


@dataclass(frozen=True)
class SpecialAngles:
    """Self-conjugate / principal-symmetric direction angles from ``t1``.

    Angles are reported in ``[0, pi/2]``; each stands for a ``+-`` pair.
    """

    asymptotic: float | None
    characteristic: float | None


def first_positive(x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` with signs fixed so that the first component larger
    than ``1e-12`` in magnitude is positive (rows without one are kept)."""
    big = np.abs(x) > 1e-12
    lead = x[np.arange(x.shape[0]), np.argmax(big, axis=1)]
    return np.where((big.any(axis=1) & (lead < 0.0))[:, None], -x, x)


def _partners(coef1, coef2, a, scale) -> np.ndarray:
    """Unit solutions ``b`` of ``coef1 a1 b1 + coef2 a2 b2 = 0``, row-wise.

    ``a`` is ``(N, 2)``; the coefficients and ``scale`` are ``(N,)``.
    Degenerate rows: both coefficients vanishing (relative to ``scale``)
    raise :class:`FlatError`; a single vanishing coefficient gives the
    principal direction of the vanishing slot, to which every direction
    is conjugate. The first offending row is the error's ``index``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("direction must be a 2-vector")
    coef1 = np.asarray(coef1, dtype=float)
    coef2 = np.asarray(coef2, dtype=float)
    zero1 = np.abs(coef1) <= EPS_CLASS * scale
    zero2 = np.abs(coef2) <= EPS_CLASS * scale
    b = np.empty(a.shape)
    b[:, 0] = coef2 * a[:, 1]
    b[:, 1] = -coef1 * a[:, 0]
    norm = np.sqrt(np.vecdot(b, b))
    moved = norm > 0.0
    flat = zero1 & zero2
    bad = flat | ~(moved | zero1 | zero2)
    if bad.any():
        k = int(np.argmax(bad))
        if flat[k]:
            raise located(FlatError, "both form coefficients vanish", index=k)
        raise located(ValueError, "direction must be nonzero", index=k)
    b = first_positive(b / np.where(moved, norm, 1.0)[:, None])
    if not moved.all():
        b[~moved & zero1] = (1.0, 0.0)
        b[~moved & ~zero1] = (0.0, 1.0)
    return b


def lconj_partner(frame, r: float, a) -> np.ndarray:
    """Direction conjugate to ``a`` relative to the congruence of radius
    ``r``, in principal coordinates.

    Solves ``(rho_2 - r) a1 b1 + (rho_1 - r) a2 b2 = 0`` and normalizes the
    result (unit length, first nonzero component positive).
    """
    rho1 = 1.0 / frame.kappa1
    rho2 = 1.0 / frame.kappa2
    return _partners([rho2 - r], [rho1 - r], np.reshape(a, (1, -1)),
                     max(abs(rho1), abs(rho2)))[0]


def pseudo_lconj_partners(kappa1, kappa2, r, a) -> np.ndarray:
    """Contact-curve partner directions of the rows of ``a`` (``(N, 2)``).

    Solves ``(kappa1 - r kappa1^2) a1 b1 + (kappa2 - r kappa2^2) a2 b2 = 0``
    per row with the same normalization and degeneracy rules as
    :func:`lconj_partner`; ``kappa1``, ``kappa2`` and ``r`` are ``(N,)``.
    """
    k1 = np.asarray(kappa1, dtype=float)
    k2 = np.asarray(kappa2, dtype=float)
    c1 = k1 - r * k1 * k1
    c2 = k2 - r * k2 * k2
    return _partners(c1, c2, a, np.maximum(np.abs(k1), np.abs(k2)))


def pseudo_lconj_partner(frame, r: float, a) -> np.ndarray:
    """Contact-curve partner direction of ``a`` at one contact element
    (see :func:`pseudo_lconj_partners`)."""
    return pseudo_lconj_partners([frame.kappa1], [frame.kappa2], r,
                                 np.reshape(a, (1, -1)))[0]


def dual_curvature_record(frame, r: float) -> DualCurvature:
    """Principal dual curvature radii relative to the congruence."""
    return DualCurvature(1.0 / frame.kappa2 - r, 1.0 / frame.kappa1 - r)


def classify_contact(dc: DualCurvature, scale: float) -> ContactClass:
    """Classify a contact element from its dual radii.

    ``scale`` is a local length scale (callers with a frame use
    ``max(rho_1, rho_2)``); radii within ``EPS_CLASS * scale`` of zero
    count as vanishing.
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    zero1 = abs(dc.rho_s1) <= EPS_CLASS * scale
    zero2 = abs(dc.rho_s2) <= EPS_CLASS * scale
    if zero1 and zero2:
        return ContactClass.L_FLAT
    if zero1 != zero2:
        return ContactClass.L_PARABOLIC
    return (ContactClass.L_ELLIPTIC if dc.Lambda > 0.0
            else ContactClass.L_HYPERBOLIC)


def special_angles(dc: DualCurvature) -> SpecialAngles:
    """Self-conjugate and principal-symmetric conjugate angles.

    For a hyperbolic element the self-conjugate angle is
    ``atan(sqrt(-rho_s1 / rho_s2))``; for an elliptic one the
    principal-symmetric angle is ``atan(sqrt(rho_s1 / rho_s2))``. A
    parabolic element has the single self-conjugate direction in the
    principal slot of its vanishing radius. Flat elements are rejected.
    """
    scale = max(abs(dc.rho_s1), abs(dc.rho_s2))
    if not scale > 0.0:
        raise FlatError("both dual radii vanish")
    # The larger radius is the scale, so it never counts as vanishing and
    # the element is not flat.
    cls = classify_contact(dc, scale)
    if cls is ContactClass.L_PARABOLIC:
        angle = 0.0 if abs(dc.rho_s1) <= EPS_CLASS * scale else math.pi / 2.0
        return SpecialAngles(asymptotic=angle, characteristic=None)
    if cls is ContactClass.L_HYPERBOLIC:
        return SpecialAngles(
            asymptotic=math.atan(math.sqrt(-dc.rho_s1 / dc.rho_s2)),
            characteristic=None)
    return SpecialAngles(
        asymptotic=None,
        characteristic=math.atan(math.sqrt(dc.rho_s1 / dc.rho_s2)))


def midsphere_radius(frame) -> float:
    """Radius of the tangent sphere centered midway between the principal
    curvature centers: ``(rho_1 + rho_2) / 2``."""
    return 0.5 * (1.0 / frame.kappa1 + 1.0 / frame.kappa2)
