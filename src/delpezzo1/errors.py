"""Exception hierarchy.

Every domain error raised by this package derives from DelPezzoError, so the
CLI (and library callers) can distinguish bad mathematical input from bugs.
"""

__all__ = [
    "DelPezzoError", "MalformedLabelError", "OutOfRangeError", "NotSymmetricError",
    "NonTerminationError", "VariantMismatchError", "InvalidConfigurationError",
    "UnrecognizedConfigurationError", "InvalidGermError", "NotAtOriginError",
    "NonSquarefreeError", "DepthExceededError", "NotQuasihomogeneousError",
    "InvalidSurfaceError", "AssumptionNotAssertedError", "UnsupportedClassError",
]


def brief(obj: object, width: int = 80) -> object:
    """obj as an error message quotes it; past width characters, str(obj) cut to fit with "..."."""
    text = str(obj)
    return obj if len(text) <= width else text[:width - 3] + "..."


def quoted(obj: object, width: int = 80) -> str:
    """repr(brief(obj)), as an error message quotes obj, cut further where escapes lengthen it.

    A repr longer than width + 2 bytes in UTF-8 (two for the quotes) is the
    repr of a shorter cut of str(obj), so that no input fills a message
    however many of its characters print as escapes or as several bytes.
    """
    text, k = brief(obj, width), width - 3
    while len(repr(text).encode()) > width + 2:
        text, k = str(obj)[:k] + "...", k - 1
    return repr(text)


def brief_keys(keys: set) -> object:
    """Keys of any types as an error message lists them: by repr, each cut, the list to 200."""
    return brief([brief(k) for k in sorted(keys, key=repr)], 200)


class DelPezzoError(Exception):
    """Base class for all domain errors raised by delpezzo1."""


class MalformedLabelError(DelPezzoError, ValueError):
    """A Dynkin label does not match [ADE][0-9]+."""


class OutOfRangeError(DelPezzoError, ValueError):
    """A Dynkin label names a type outside A1..A8, D4..D8, E6..E8."""


class NotSymmetricError(DelPezzoError, ValueError):
    """A matrix handed to a definiteness test is not symmetric."""


class NonTerminationError(DelPezzoError, RuntimeError):
    """The cycle iteration exceeded its cap; indicates an internal bug."""


class VariantMismatchError(DelPezzoError, ValueError):
    """A configuration variant is not defined for the given singularity type."""


class InvalidConfigurationError(DelPezzoError, ValueError):
    """Configuration input violates a structural precondition."""


class UnrecognizedConfigurationError(DelPezzoError, ValueError):
    """A configuration does not match any known anticanonical pattern."""


class InvalidGermError(DelPezzoError, ValueError):
    """Input cannot be interpreted as a bivariate polynomial germ."""


class NotAtOriginError(InvalidGermError):
    """The germ does not vanish at the origin."""


class NonSquarefreeError(InvalidGermError):
    """The germ has a repeated factor."""


class DepthExceededError(DelPezzoError, RuntimeError):
    """The blowup tree exceeded the depth cap; pathological input."""


class NotQuasihomogeneousError(DelPezzoError, ValueError):
    """No positive weights make the germ weighted-homogeneous."""


class InvalidSurfaceError(DelPezzoError, ValueError):
    """A surface specification fails its admissibility constraints."""


class AssumptionNotAssertedError(DelPezzoError, ValueError):
    """An operation requires assumption flags that were not asserted."""


class UnsupportedClassError(DelPezzoError, ValueError):
    """No source-side constraint is defined for this target class."""
