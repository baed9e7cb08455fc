"""Runtime knobs, overridable through environment variables.

CLI flags take precedence over the environment; library callers can pass
explicit values to the functions that accept them.
"""

import os

from .errors import ValidationFailure

_DEFAULTS = {
    "OCTA_FACTOR_BUDGET": 10**6,     # Pollard rho iterations per factorization
    "OCTA_SEARCH_BOX": 50,           # principalize lattice box
    "OCTA_PRECISION": 60,            # root-finding digits
    "OCTA_SYMBOLIC_SAMPLES": 20,     # sampled t values for per-t arithmetic checks
}


def _get(name: str) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return _DEFAULTS[name]
    try:
        value = int(raw)
    except ValueError:
        raise ValidationFailure(f"{name}={raw!r} is not an integer") from None
    if value < 0:
        raise ValidationFailure(f"{name}={raw!r} is negative")
    return value


def factor_budget() -> int:
    return _get("OCTA_FACTOR_BUDGET")


def search_box() -> int:
    return _get("OCTA_SEARCH_BOX")


def precision() -> int:
    return _get("OCTA_PRECISION")


def symbolic_samples() -> int:
    return _get("OCTA_SYMBOLIC_SAMPLES")
