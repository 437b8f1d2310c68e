"""Exception hierarchy shared across the package."""


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


class TorsionInQuotient(GkmError, ArithmeticError):
    """The quotient by the augmentation ideal has torsion, violating the
    freeness hypothesis (vanishing odd cohomology) the computation rests on."""


class NotInSubalgebra(GkmError, ArithmeticError):
    """A class that should lie in the edge-congruence subalgebra does not."""


class GeneratorsDoNotSpan(GkmError, ValueError):
    pass


class Not6Dimensional(GkmError, ValueError):
    pass
