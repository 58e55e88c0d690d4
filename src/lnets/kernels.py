"""Batched tensor-product B-spline jets by Bézier extraction.

A clamped surface is split once into one polynomial patch per knot span
(:func:`power_coefficients`); a jet batch (:func:`surface_jets_batch`)
is then a span lookup, the powers of the local parameters, one gather
of span coefficients and two small batched matmuls. See Piegl & Tiller,
*The NURBS Book* (2nd ed.), A5.1 and A5.6, and Borden, Scott, Evans &
Hughes, *Isogeometric finite element data structures based on Bézier
extraction of NURBS* (IJNME 87, 2011).
"""

from __future__ import annotations

from math import comb

import numpy as np


def _power_segments(knots, degree, ctrl):
    """Breakpoints and per-span power coefficients along axis 0 of ``ctrl``.

    Knot insertion (Boehm's rule) raises every interior knot to
    multiplicity ``degree``, which leaves ``degree + 1`` Bézier points
    per span; they are rewritten in the power basis of the local
    parameter ``s`` in ``[0, 1]``. Returns ``(breaks, segs)``;
    ``segs[k, j]`` is the coefficient of ``s**j`` on span ``k``.
    """
    breaks, mult = np.unique(knots, return_counts=True)
    shape = (-1,) + (1,) * (ctrl.ndim - 1)
    for u, m in zip(breaks[1:-1], mult[1:-1]):
        for _ in range(degree - m):
            k = int(np.searchsorted(knots, u, side="right")) - 1
            i = np.arange(k - degree + 1, k + 1)
            alpha = ((u - knots[i]) / (knots[i + degree] - knots[i]))
            alpha = alpha.reshape(shape)
            ctrl = np.concatenate([
                ctrl[:k - degree + 1],
                alpha * ctrl[i] + (1.0 - alpha) * ctrl[i - 1], ctrl[k:]])
            knots = np.insert(knots, k + 1, u)
    bezier = ctrl[degree * np.arange(breaks.size - 1)[:, None]
                  + np.arange(degree + 1)]
    # s**j coefficient of the Bernstein form: C(p, j) C(j, i) (-1)**(j-i).
    to_power = np.array([[comb(degree, j) * comb(j, i) * (-1) ** (j - i)
                          for i in range(degree + 1)]
                         for j in range(degree + 1)], dtype=float)
    return breaks, np.einsum("ji,si...->sj...", to_power, bezier)


def power_coefficients(knots_u, knots_v, degree_u, degree_v, ctrl):
    """Per-span polynomial patches of a clamped B-spline surface whose
    interior knots repeat at most ``degree`` times.

    Returns ``(breaks_u, breaks_v, coeffs)``: the distinct knot values
    and a ``(spans_u, spans_v, degree_u + 1, degree_v + 1, 3)`` tensor
    whose ``[a, b, i, j]`` entry is the coefficient of ``s**i t**j`` on
    span ``(a, b)``, with ``s, t`` its local parameters in ``[0, 1]``.
    Extraction runs along u first, then along v.
    """
    breaks_u, cu = _power_segments(knots_u, degree_u, ctrl)
    breaks_v, cuv = _power_segments(knots_v, degree_v,
                                    np.moveaxis(cu, 2, 0))
    return (breaks_u, breaks_v,
            np.ascontiguousarray(cuv.transpose(2, 0, 3, 1, 4)))


def _power_rows(breaks, degree, params):
    """Span index and ``(N, 3, degree + 1)`` rows; row ``a`` holds the
    ``a``-th parameter derivatives of ``s**0 .. s**degree``.

    Spans are right-continuous; the right end of the domain belongs to
    the last span.
    """
    span = np.searchsorted(breaks[1:-1], params, side="right")
    lo = breaks[span]
    h = breaks[span + 1] - lo
    j = np.arange(degree + 1)
    powers = np.vander((params - lo) / h, degree + 1, increasing=True)
    rows = np.zeros((params.size, 3, degree + 1))
    rows[:, 0] = powers
    rows[:, 1, 1:] = powers[:, :-1] * (j[1:] / h[:, None])
    rows[:, 2, 2:] = powers[:, :-2] * ((j[2:] * (j[2:] - 1))
                                       / (h * h)[:, None])
    return span, rows


def surface_jets_batch(breaks_u, breaks_v, degree_u, degree_v, coeffs,
                       us, vs):
    """Jets at the parameter pairs of the float arrays ``us``, ``vs``
    (``N`` each) from :func:`power_coefficients`.

    Returns an ``(N, 6, 3)`` array whose second axis is ordered
    ``f, f_u, f_v, f_uu, f_uv, f_vv``. The gathered span coefficients
    are contracted with the v rows, then with the u rows. Each row
    depends only on its own parameters, so it equals the one-point
    evaluation bit for bit.
    """
    su, ru = _power_rows(breaks_u, degree_u, us)
    sv, rv = _power_rows(breaks_v, degree_v, vs)
    n = us.shape[0]
    # along_v[n, i, b, c]: b-th v-derivative of the s**i coefficient.
    along_v = np.matmul(rv[:, None], coeffs[su, sv])
    both = np.matmul(ru, along_v.reshape(n, degree_u + 1, 9))
    # both[n, a, b, c]: the (a, b)-th derivative; take the six jet slots.
    return both.reshape(n, 3, 3, 3)[:, [0, 1, 0, 2, 1, 0], [0, 0, 1, 0, 1, 2]]
