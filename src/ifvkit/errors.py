"""Exception hierarchy for ifvkit.

Every failure mode raised by the library derives from IfvkitError, so callers
can catch one base class at API boundaries (the CLI maps subclasses to exit
codes), whatever the input: constructors and ``from_json`` parsers raise one
on malformed JSON and non-numbers too.  An error in a nested JSON value carries
its ``path``, outermost key first, shown as a prefix: ``values/1: ...``.
"""


class IfvkitError(Exception):
    """Base class for all ifvkit errors."""

    path: tuple = ()  # JSON keys and list indices of the failing value
    def __str__(self) -> str:
        text = super().__str__()
        return f"{'/'.join(map(str, self.path))}: {text}" if self.path else text


def _at(key, parse, *args):
    """``parse(*args)``; an IfvkitError it raises gets ``key`` prepended to its path."""
    try:
        return parse(*args)
    except IfvkitError as exc:
        exc.path = (key, *exc.path)
        raise


class DomainViolation(IfvkitError):
    """A membership/non-membership pair lies outside its admissible region."""


class BadParameter(IfvkitError):
    """A parameter is malformed (a non-number, a wrong JSON shape) or out of range."""


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
