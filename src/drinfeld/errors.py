"""The library's exceptions, and `clip` for user text in their messages."""


class DrinfeldError(Exception):
    """Base class for all library errors."""


class NotPrime(DrinfeldError):
    """A claimed prime characteristic is composite."""


class BoundExceeded(DrinfeldError):
    """A requested object falls outside the supported desk scale."""


class NoEmbedding(DrinfeldError):
    """No field embedding exists for the requested pair."""


class ZeroPolynomial(DrinfeldError):
    """The zero polynomial was passed where a nonzero one is required."""


class NonCoprimeModuli(DrinfeldError):
    """Chinese remaindering received moduli with a common factor."""


class FieldMismatch(DrinfeldError):
    """Operands live over different base fields."""


class DivisionByZero(DrinfeldError, ZeroDivisionError):
    """Division by the zero element or zero operator."""


class Inseparable(DrinfeldError):
    """An additive operator with vanishing constant term has no full kernel."""


class NotFound(DrinfeldError):
    """A bounded search ran out of budget.

    Carries the cap that was exhausted.
    """

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or f"search exhausted (cap={cap})")


class CharacteristicIdeal(DrinfeldError):
    """The requested prime equals the characteristic ideal, where torsion degenerates."""


class CapExceeded(DrinfeldError):
    """A splitting extension would exceed the configured degree cap."""

    def __str__(self):  # a callable text is built only when read
        return self.args[0]() if callable(self.args[0]) else str(self.args[0])


class BadReduction(DrinfeldError):
    """Specialization at a place where the leading coefficient vanishes."""


class InsufficientModulus(DrinfeldError):
    """The combined modulus is too small to pin down the reconstructed element."""


class ZeroDenominator(DrinfeldError):
    """A rational function was given a zero denominator."""


class InvariantError(DrinfeldError):
    """A computed result broke an invariant the mathematics guarantees."""


class Reducible(DrinfeldError):
    """A polynomial required to be irreducible was detected to factor."""


class NonUnitContent(DrinfeldError):
    """A bivariate polynomial has nontrivial content in the eliminated variable."""


class RootDoesNotExist(DrinfeldError):
    """A requested p-power root does not exist in the ambient field."""


class NotAMorphism(DrinfeldError):
    """A generator assignment violates an algebraic relation."""


class ParseError(DrinfeldError):
    """Malformed textual or JSON input."""


def clip(text: str) -> str:
    """User text as an error message quotes it: its first 40 characters."""
    return text if len(text) <= 40 else text[:40] + "..."
