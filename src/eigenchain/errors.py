"""Exception types shared across the package."""


class EigenchainError(Exception):
    """Base class for every error raised by this package."""


class RingMismatch(EigenchainError):
    """Operands belong to different coefficient rings."""


class NotInvertible(EigenchainError):
    """Element (or matrix) has no inverse in its ring."""


class NotAField(EigenchainError):
    """Operation requires a field but the ring is the integers."""


class NotIntegerRing(EigenchainError):
    """Operation requires the integers (e.g. Smith normal form)."""


class ShapeMismatch(EigenchainError):
    """Matrix dimensions are incompatible with the requested operation."""


class ValidationError(EigenchainError):
    """A structural invariant is violated (shapes, d*d = 0, basis rank, ...)."""


class ParseError(EigenchainError):
    """Input text could not be parsed; carries position info when available."""


class ConventionMismatch(EigenchainError):
    """Mixed chain/cochain conventions where a single one is required."""


class NotScalarSource(EigenchainError):
    """Mapping cone requires the source complex to have zero differentials."""


class LayoutMismatch(EigenchainError):
    """Homotopy or map does not fit the cone's recorded block layout."""


class BadIndex(EigenchainError):
    """Simplicial input references a vertex outside the declared range."""


class TooLarge(EigenchainError):
    """Brute-force oracle input exceeds its enumeration budget."""


class NotSaturated(EigenchainError):
    """A submodule of a free Z-module is not a direct summand.

    The quotient has torsion; ``factors`` holds the offending invariant
    factors (the ones different from 1) and ``degree`` the chain degree
    at which the split failed, when applicable.
    """

    def __init__(self, factors, degree=None):
        self.factors = list(factors)
        self.degree = degree
        where = f" at degree {degree}" if degree is not None else ""
        super().__init__(f"submodule not saturated{where}: invariant factors {self.factors}")


class TorsionHomology(EigenchainError):
    """Homology over Z has torsion, so no free scalar object matches it."""

    def __init__(self, degree, factors):
        self.degree = degree
        self.factors = list(factors)
        super().__init__(f"homology at degree {degree} has torsion {self.factors}")


class HypothesisFailure(EigenchainError):
    """A hypothesis needed for the explicit null-homotopy does not hold."""

    def __init__(self, reason, degree):
        self.reason = reason
        self.degree = degree
        super().__init__(f"{reason} at degree {degree}")
