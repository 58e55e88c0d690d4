"""Exception types shared across the package, and a checked JSON reader."""

import json


class LnetsError(Exception):
    """Base class for all package-specific errors.

    Errors about one point of a batch carry its row in ``index``; errors
    located in the parameter domain carry ``uv`` and, when raised by the
    streamline tracer, the traced ``line``. Unset fields are ``None``.
    """

    index = None
    uv = None
    line = None


class AdmissibilityError(LnetsError):
    """Two oriented spheres admit no common oriented tangent plane.

    Raised when ||c0 - c1||^2 <= (r0 - r1)^2, including the boundary case
    of equality (a cone needs the strict inequality).
    """


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
    """Streamline tracing hit a field degeneracy (near-parallel directions)."""

    def __init__(self, message, uv=None, line=None):
        super().__init__(message)
        self.uv = uv
        self.line = line


class ConfigError(LnetsError):
    """Invalid run configuration or input file."""


def located(cls, message: str, **fields) -> Exception:
    """``cls(message)`` with location fields (``index``, ``uv``, ``line``)
    set as attributes."""
    exc = cls(message)
    for name, value in fields.items():
        setattr(exc, name, value)
    return exc


def read_json(path):
    """The JSON document in ``path``; a malformed file is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a JSON document: {exc}") from exc
