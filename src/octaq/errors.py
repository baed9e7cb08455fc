"""Exception hierarchy.

Two families matter for the CLI exit code: validation errors (bad or
out-of-scope input, exit 2) and computational limits (a configured bound
was exhausted, exit 3).  Everything else is a bug.
"""


class OctaqError(Exception):
    pass


class ValidationFailure(OctaqError):
    """Input is malformed or outside the supported domain."""


class ComputationalLimit(OctaqError):
    """A configured search bound, precision or factoring budget was exhausted."""


class FactorizationIncomplete(ComputationalLimit):
    """A cofactor was neither split within the factoring budget nor proven
    prime (primality is proven only below rationals.PSI_13)."""


class PrecisionExhausted(ComputationalLimit):
    """Root certification failed at the maximum working precision."""


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


class DegenerateUnresolvable(OctaqError):
    """Perturbation retries failed to reach a non-degenerate configuration."""


class InvalidTypeParameter(ValidationFailure):
    """Obstruction parameter b with (-1, b) nontrivial."""


class ParseError(ValidationFailure):
    """Malformed table file or polynomial string."""


class ValidationError(ValidationFailure):
    """Table row violates a structural invariant."""
