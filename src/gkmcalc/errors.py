"""Exception hierarchy shared across the package, the limits on input past
which one is raised, and the base of the package's value records."""

import sys

# the largest equivalence-search bound; at rank 2 its box takes about 2 s
MAX_BOUND = 1000


def int_digit_limit():
    """The most decimal digits an int may have and still be converted to a
    string: Python's int-to-str limit (missing before Python 3.10.7, off
    when 0; 4300 is its default)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


class Record:
    """A plain value record. A subclass names its fields in `_fields`, and
    also as its `__slots__` unless it needs an instance dict. Fields are set
    by position or keyword; one left out reads its class attribute. repr,
    == and hash read the fields in order; repr has a dataclass's format."""

    __slots__ = ()

    def __init__(self, *values, **named):
        named.update(zip(self._fields, values))
        for name, value in named.items():
            setattr(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class GkmError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GkmError, ValueError):
    pass


class ZeroVector(GkmError, ValueError):
    pass


class SchemaError(GkmError, ValueError):
    """Malformed or out-of-contract input file."""


class UnknownExample(GkmError, LookupError):
    pass


class InvalidGraph(GkmError, ValueError):
    """Operation requires a graph satisfying the GKM conditions."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class XRayError(GkmError, ValueError):
    pass


class ChernRequiresSignedGraph(GkmError, ValueError):
    pass


class LocalizationRequiresSignedGraph(GkmError, ValueError):
    pass


class NonIntegralLocalizationSum(GkmError, ArithmeticError):
    pass


class NoConnection(GkmError, ValueError):
    """A valid signed graph with no connection, so no point evaluates the
    integral on A."""


class TorsionInQuotient(GkmError, ArithmeticError):
    """The quotient by the augmentation ideal has torsion, violating the
    freeness hypothesis (vanishing odd cohomology) the computation rests on."""


class NotInSubalgebra(GkmError, ArithmeticError):
    """A class that should lie in the edge-congruence subalgebra does not."""


class GeneratorsDoNotSpan(GkmError, ValueError):
    pass


class Not6Dimensional(GkmError, ValueError):
    pass
