"""Exception hierarchy.

Two families matter for the CLI exit code: validation errors (bad or
out-of-scope input, exit 2) and computational limits (a configured bound
or CPython's int-str digit limit was reached, exit 3).  All else is a bug.
"""

_ECHO = 40  # the most characters of an input that an error message quotes


def _excerpt(text: str, show=repr) -> str:
    """show(text), or show of its first _ECHO characters and the length of
    text when it is longer: no error message echoes a long input in full."""
    if len(text) <= _ECHO:
        return show(text)
    return f"{show(text[:_ECHO])}... ({len(text)} characters)"


class OctaqError(Exception):
    pass


class ValidationFailure(OctaqError):
    """Input is malformed or outside the supported domain."""


class ComputationalLimit(OctaqError):
    """A configured search bound or factoring budget was exhausted."""


class FactorizationIncomplete(ComputationalLimit):
    """A cofactor was neither split within the factoring budget nor proven
    prime (primality is proven only below rationals.PSI_13)."""


class SearchExhausted(ComputationalLimit):
    """A bounded search ended without a witness."""


class Reducible(ValidationFailure):
    """Polynomial factors over Q where irreducibility is required."""


class NotPrimitive(ValidationFailure):
    """Tschirnhaus image does not generate the field."""


class NotPrincipal(ValidationFailure):
    """Quartic field admits no defining polynomial X^4 + bX + c."""


class NotOctahedral(ValidationFailure):
    """Galois group of the quartic is not S4."""


class DegenerateParameter(ValidationFailure):
    """Curve parameter t is 0, 1 or a rational square."""


class ExcludedParameter(ValidationFailure):
    """Parameter hits the excluded value of a one-parameter family."""


class CyclotomicExcluded(ValidationFailure):
    """Discriminant class -3 (field of cube roots of unity) is out of scope."""


class DegenerateUnresolvable(ComputationalLimit):
    """The Tschirnhaus dodges of quartic.witt_formula (at most
    quartic.WITT_DODGES) reached no non-degenerate model."""


class InvalidTypeParameter(ValidationFailure):
    """Obstruction parameter b with (-1, b) nontrivial."""


class ParseError(ValidationFailure):
    """Malformed table file or polynomial string."""


def _digit_limit(exc: Exception) -> bool:
    """Whether exc is CPython's int-str conversion guard, met by a number of
    the input or the result past sys.get_int_max_str_digits() digits."""
    text = "integer string conversion"
    return isinstance(exc, ValueError) and text in str(exc)
