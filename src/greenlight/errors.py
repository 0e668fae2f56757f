"""Exception types raised across the package."""


class GreenlightError(ValueError):
    """Base class for all domain errors."""


class InvalidGeometryError(GreenlightError):
    """Intersection geometry is unusable (too few arms, bad arm index)."""


class InvalidSpecError(GreenlightError):
    """Instance description violates a structural requirement."""


class DimensionError(GreenlightError):
    """An array or phase does not match the instance dimensions."""


class MalformedArrayError(GreenlightError):
    """Encoded queue array breaks the zero-padding layout."""


class ConstraintViolationError(GreenlightError):
    """A phase opens two conflicting paths."""


class OracleTooLargeError(GreenlightError):
    """Full enumeration would exceed the configured cap."""


class TooManyPhasesError(GreenlightError):
    """The junction has more feasible phases than enumeration allows."""


class FileFormatError(GreenlightError):
    """A file could not be read, parsed, validated or written."""
