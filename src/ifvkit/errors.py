"""Exception hierarchy for ifvkit.

Every failure mode raised by the library derives from IfvkitError, so callers
can catch one base class at API boundaries (the CLI maps subclasses to exit
codes).
"""


class IfvkitError(Exception):
    """Base class for all ifvkit errors."""


class DomainViolation(IfvkitError):
    """A membership/non-membership pair lies outside its admissible region."""


class BadParameter(IfvkitError):
    """A scalar parameter (exponent, rung, weight) is out of range."""


class LengthMismatch(IfvkitError):
    """Parallel sequences (values vs. weights) have different lengths."""


class RungMismatch(IfvkitError):
    """Orthopair values with different rungs were mixed in one operation."""


class UniverseMismatch(IfvkitError):
    """Two fuzzy sets do not share the same ordered universe."""


class EmptyCollection(IfvkitError):
    """An infimum/supremum was requested over an empty collection."""


class EmptySamples(IfvkitError):
    """The decomposition check received an empty sample list."""


class EmptyPatternSet(IfvkitError):
    """Classification was requested against zero patterns."""


class InconsistentScan(IfvkitError):
    """A score-scan descriptor violates its own invariants."""


class NonTotalMap(IfvkitError):
    """An extension mapping is not defined on every universe element."""
