"""Exception hierarchy for the toolkit.

Every error raised on purpose derives from :class:`FormconesError`, so callers
(including the CLI) can map failures to exit codes without matching on
messages.
"""

__all__ = [
    "FormconesError",
    "DegenerateRay",
    "DimensionMismatch",
    "NotPointed",
    "NotFullDimensional",
    "DegenerateSpace",
    "RankUnsupported",
    "OutsideEffective",
    "BoundaryPoint",
    "NoReferenceData",
    "RouteMismatch",
    "InternalError",
]


class FormconesError(Exception):
    """Base class for all toolkit errors."""


class DegenerateRay(FormconesError):
    """A zero vector was used where a ray direction is required."""


class DimensionMismatch(FormconesError):
    """Operands live in different ambient ranks."""


class NotPointed(FormconesError):
    """The cone has a positive-dimensional lineality space."""


class NotFullDimensional(FormconesError):
    """The cone does not span the ambient space."""


class DegenerateSpace(FormconesError):
    """The space has Picard rank 1, so its cone data is trivial."""


class RankUnsupported(FormconesError):
    """Refused size: a Picard rank above the computation's bound.

    The README's paragraph on exit codes lists the bounds.
    """


class OutsideEffective(FormconesError):
    """The divisor class lies outside the effective cone."""


class BoundaryPoint(FormconesError):
    """The divisor class sits on a wall, so no chamber interior contains it."""


class NoReferenceData(FormconesError):
    """No bundled reference data covers the requested space."""


class InternalError(FormconesError):
    """An internal consistency check failed; this is a bug if it fires."""


class RouteMismatch(InternalError):
    """Two independent evaluation routes of the same formula disagree."""
