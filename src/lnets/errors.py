"""Exception types shared across the package, the integer count check
and a checked JSON reader.

This module alone says where an error happened: :func:`raise_first`
raises for a batch's first bad row, :func:`locating` re-raises a row's
error with its caller's location, and :func:`relabeled` builds such a
re-raise, which keeps the error's type and its location fields."""

import json
import reprlib
import sys
import typing
from contextlib import contextmanager

import numpy as np


class LnetsError(Exception):
    """Base class for all package-specific errors.

    Errors about one point of a batch carry its row in ``index``; errors
    located in the parameter domain carry ``uv`` and, when raised by the
    streamline tracer, the traced ``line``. Unset fields are ``None``. A
    re-raise that adds a caller's context (:func:`relabeled`) keeps them.
    """

    index = None
    uv = None
    line = None


class AdmissibilityError(LnetsError):
    """Two oriented spheres admit no common oriented tangent plane.

    Raised by :func:`lnets.tessellate` when the verification it runs first
    finds adjacent face spheres with ||c0 - c1||^2 <= (r0 - r1)^2,
    including the boundary case of equality (a cone needs the strict
    inequality).
    """


class IrregularError(LnetsError, ValueError):
    """The surface is not regular at a point: its tangents ``f_u`` and
    ``f_v`` are parallel, so it has no normal there."""


class UmbilicError(LnetsError):
    """Principal directions are not defined: the two curvatures coincide."""


class CurvatureSignError(LnetsError):
    """The surface point violates the positive-curvature requirement."""


class SingularRadiusError(LnetsError):
    """Congruence radius reaches or exceeds the smaller principal radius,
    which would create swallowtail-type singularities."""


class FlatError(LnetsError):
    """Both dual curvature radii vanish; every direction is self-conjugate
    and no partner direction is determined."""


class TracingError(LnetsError):
    """Streamline tracing failed: near-parallel field directions, a step
    below the tracer's floor, a non-finite field direction, or a grid
    trimmed below 2x2 or with a degenerate cell."""


class ConfigError(LnetsError):
    """Invalid run configuration or input file."""


def located(cls, message: str, **fields) -> Exception:
    """``cls(message)`` with location fields (``index``, ``uv``, ``line``)
    set as attributes."""
    exc = cls(message)
    for name, value in fields.items():
        setattr(exc, name, value)
    return exc


def _row(values, k: int):
    """Row ``k`` of ``values``: a copied array, or a Python scalar."""
    row = np.asarray(values)[k]
    return row.copy() if isinstance(row, np.ndarray) else row.item()


def raise_first(checks, **fields) -> None:
    """Raise for the first row that fails any ``(bad, cls, message)`` check.

    The checks are tried in order on that row ``k``, and ``message(k)``
    builds the text of the first that fails. Each keyword names a location
    field (``uv``, ``line``) and gives an array whose row ``k`` the error
    carries there; without keywords, ``k`` is the error's ``index``.
    """
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if not bad.any():
        return
    k = int(np.argmax(bad))
    where = {name: _row(value, k) for name, value in fields.items()}
    for mask, cls, message in checks:
        if mask[k]:
            raise located(cls, message(k), **(where or {"index": k}))


def relabeled(exc: Exception, prefix: str, **fields) -> Exception:
    """A new error of ``exc``'s type whose message is ``prefix`` before
    ``exc``'s. It carries ``exc``'s location fields, with ``fields`` set
    over them."""
    kept = {name: getattr(exc, name) for name in ("index", "uv", "line")
            if getattr(exc, name, None) is not None}
    return located(type(exc), f"{prefix}{exc}", **{**kept, **fields})


@contextmanager
def locating(what, uv=None, **rows):
    """Locate a batch's row error with its caller's context.

    An :class:`LnetsError`, or a ``ValueError``, raised inside the block
    for row ``k`` (its ``index``) is raised again as its own type,
    prefixed ``what(k)``. With ``uv``, the prefix goes on with ``"at
    (u=..., v=...): "`` from the row's parameters ``uv[k]``, which the
    error also carries in ``uv``. Each keyword array gives row ``k``'s
    value of the location field it names, as ``line=lines`` does. Every
    other location field, ``index`` among them, is kept. An error without
    a row passes unchanged.
    """
    try:
        yield
    except (LnetsError, ValueError) as exc:
        k = getattr(exc, "index", None)
        if k is None:
            raise
        prefix = what(k)
        fields = {name: _row(values, k) for name, values in rows.items()}
        if uv is not None:
            u, v = fields["uv"] = _row(uv, k)
            prefix += f"at (u={u:.6g}, v={v:.6g}): "
        raise relabeled(exc, prefix, **fields) from exc


def check_count(name: str, n, low: int) -> None:
    """Raise ValueError unless ``n`` is an integer (a Python or numpy
    integer, not a bool) of at least ``low``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {n!r}")


def read_json(path):
    """The JSON document in ``path``; a malformed file is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # too deeply nested
            raise ConfigError(f"{path}: not a JSON document: {exc}") from exc


# What each kind of :func:`json_fields` takes, for its messages.
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "a boolean", list: "an array", dict: "an object",
               np.ndarray: "an array of numbers", type(None): "null"}


def _is_kind(value, kind) -> bool:
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:  # an integer beyond the float range is not finite
        return (isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max)
    return isinstance(value, list if kind is np.ndarray else kind)


def json_array(value, where: str) -> np.ndarray:
    """Nested arrays of JSON numbers, all of one shape, as a float array."""
    leaves = {type(x) for x in np.asarray(value, dtype=object).ravel()}
    if bool in leaves or not all(issubclass(t, (int, float)) for t in leaves):
        raise ConfigError(f"{where} must be nested arrays of numbers of one "
                          f"shape")
    return checked(np.asarray, where, value, dtype=float)


def json_fields(data, where: str, kinds: dict, required=()) -> dict:
    """The fields of the JSON object ``data``, checked against ``kinds``.

    ``kinds`` maps every allowed key to ``int`` (a JSON integer, never a
    bool), ``float`` (a finite number; an integer becomes a float),
    ``np.ndarray`` (see :func:`json_array`), ``str``, ``bool``, ``list``,
    ``dict`` or a union such as ``float | None``. A missing ``required``
    key, any other key or a value of another kind is a ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got "
                          f"{reprlib.repr(data)}")
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}: unknown fields {unknown}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigError(f"{where}: missing fields {missing}")
    out = {}
    for key, value in data.items():
        options = typing.get_args(kinds[key]) or (kinds[key],)
        kind = next((k for k in options if _is_kind(value, k)), None)
        if kind is None:
            raise ConfigError(
                f"{where}: {key} must be "
                f"{' or '.join(_KIND_NAMES[k] for k in options)}, got "
                f"{reprlib.repr(value)}")
        if kind is float:
            value = float(value)
        elif kind is np.ndarray:
            value = json_array(value, f"{where}: {key}")
        out[key] = value
    return out


def checked(make, where: str, *args, **kwargs):
    """``make(*args, **kwargs)``, with the ValueError, TypeError or
    OverflowError of its checks raised as a ConfigError naming ``where``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
