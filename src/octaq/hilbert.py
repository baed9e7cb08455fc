"""Hilbert symbols over Q, 2-torsion Brauer classes, Hasse-Witt invariants.

A place is a prime integer or ``INF`` (the archimedean place, encoded as
float infinity so that sorted() puts it last).  A 2-torsion Brauer class
is identified with its finite, even-cardinality set of ramified places;
the group law is symmetric difference.

The local symbol at an odd prime p uses the valuation/Legendre formula
    (a, b)_p = (-1)^(alpha*beta*(p-1)/2) * (u|p)^beta * (w|p)^alpha
for a = p^alpha u, b = p^beta w with u, w p-units, and at 2 the unit
formula with eps(u) = (u-1)/2 mod 2 and omega(u) = (u^2-1)/8 mod 2.

The Witt invariant of a diagonal form <a_1,...,a_n> is the Hasse-Witt
product of the symbols (a_i, a_j) over pairs i < j; the opposite pairing
convention exists in the literature, and the test suite pins this one
against the principality criterion on all known-principal table rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import FactorizationIncomplete, OctaqError
from .rationals import _val_unit, factorize

INF = float("inf")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = factorize(n)
    return f.complete and f.factors == {n: 1}


def check_place(v) -> None:
    if v == INF:
        return
    if isinstance(v, int) and is_prime(v):
        return
    raise ValueError(f"{v!r} is not a place (prime or INF)")


@dataclass(frozen=True)
class BrauerClass:
    ramified: frozenset

    def __post_init__(self):
        if len(self.ramified) % 2 != 0:
            raise OctaqError(
                f"odd ramification set {sorted(self.ramified)} violates reciprocity")

    @property
    def is_trivial(self) -> bool:
        return not self.ramified

    def __mul__(self, other: "BrauerClass") -> "BrauerClass":
        return BrauerClass(self.ramified ^ other.ramified)

    def places(self) -> list:
        return sorted(self.ramified)

    def __repr__(self):
        if not self.ramified:
            return "BrauerClass{}"
        return "BrauerClass{" + ", ".join(
            "oo" if p == INF else str(p) for p in self.places()) + "}"


TRIVIAL = BrauerClass(frozenset())


def _legendre(u: Fraction, p: int) -> int:
    """(u|p) for a p-unit u, odd p."""
    r = (u.numerator * pow(u.denominator, -1, p)) % p
    t = pow(r, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _mod8(u: Fraction) -> int:
    """Odd rational u modulo 8 (denominator inverted; d^-1 = d mod 8)."""
    return (u.numerator * u.denominator) % 8


def _eps(u: Fraction) -> int:
    return (_mod8(u) % 4 - 1) // 2 % 2


def _omega(u: Fraction) -> int:
    return 0 if _mod8(u) in (1, 7) else 1


def hilbert_symbol(a: Fraction | int, b: Fraction | int, v) -> int:
    """Local Hilbert symbol (a, b)_v in {+1, -1}."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = v
    check_place(p)
    if p == 2:
        alpha, u = _val_unit(a, 2)
        beta, w = _val_unit(b, 2)
        exp = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if exp % 2 else 1
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    sign = 1
    if (alpha * beta * ((p - 1) // 2)) % 2:
        sign = -sign
    if beta % 2 and _legendre(u, p) == -1:
        sign = -sign
    if alpha % 2 and _legendre(w, p) == -1:
        sign = -sign
    return sign


def _support(x: Fraction) -> set[int]:
    primes: set[int] = set()
    for n in (x.numerator, x.denominator):
        if abs(n) != 1:
            f = factorize(n)
            if not f.complete:
                raise FactorizationIncomplete(
                    f"cannot list the prime support of {n}")
            primes.update(f.factors.keys())
    return primes


def brauer_class(a: Fraction | int, b: Fraction | int) -> BrauerClass:
    """Class of the quaternion algebra (a, b) as its ramification set.

    Only 2, infinity, and the odd primes in the support of a and b can
    ramify; reciprocity (even cardinality) is asserted on the result.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Brauer class needs nonzero arguments")
    candidates: set = {2, INF}
    candidates.update(_support(a))
    candidates.update(_support(b))
    ramified = frozenset(v for v in candidates if hilbert_symbol(a, b, v) == -1)
    return BrauerClass(ramified)


def class_product(*classes: BrauerClass) -> BrauerClass:
    out = TRIVIAL
    for c in classes:
        out = out * c
    return out


def witt_invariant_diagonal(coeffs: Iterable[Fraction | int]) -> BrauerClass:
    """Hasse-Witt invariant of <a_1, ..., a_n>: product of (a_i, a_j), i<j."""
    cs = [Fraction(c) for c in coeffs]
    if any(c == 0 for c in cs):
        raise ValueError("diagonal form must have nonzero entries")
    out = TRIVIAL
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            out = out * brauer_class(cs[i], cs[j])
    return out
