"""Hilbert symbols over Q, 2-torsion Brauer classes, Hasse-Witt invariants.

A place is a prime integer or ``INF`` (the archimedean place, encoded as
float infinity so that sorted() puts it last).  A 2-torsion Brauer class
is identified with its finite, even-cardinality set of ramified places;
the group law is symmetric difference.

A symbol depends only on the square classes of its arguments, and
n/d = n*d / d^2 is in the class of the integer n*d, so each argument is
reduced once to n*d and the local formulas are evaluated on integers.
At an odd prime p, for a = p^alpha u and b = p^beta w with u, w p-units,
    (a, b)_p = (-1)^(alpha*beta*(p-1)/2) * (u|p)^beta * (w|p)^alpha
with (u|p) by Euler's criterion; at 2 the exponent is
eps(u) eps(w) + alpha omega(w) + beta omega(u) with eps(u) = (u-1)/2 and
omega(u) = (u^2-1)/8 mod 2, read from u mod 8; at INF the signs decide.

The Witt invariant of a diagonal form <a_1,...,a_n> is the Hasse-Witt
product of the symbols (a_i, a_j) over pairs i < j, evaluated at a set of
places the caller knows to contain every ramified one; the opposite
pairing convention exists in the literature, and the test suite pins this
one against the principality criterion on all known-principal table rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Iterable

from .errors import FactorizationIncomplete, OctaqError
from .rationals import _strip, factorize

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


def _class_rep(x: Fraction | int) -> int:
    """n*d for x = n/d: an integer in the square class of x."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator * x.denominator


def _symbol(a: int, b: int, v) -> int:
    """(a, b)_v for nonzero integers a, b and a checked place v."""
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    (a, alpha), (b, beta) = _strip(a, v), _strip(b, v)
    if v == 2:
        # eps(u) = 1 iff u = 3 mod 4, omega(u) = 1 iff u = 3, 5 mod 8
        exp = ((a % 4 == 3 and b % 4 == 3) + alpha * (b % 8 in (3, 5))
               + beta * (a % 8 in (3, 5)))
        return -1 if exp % 2 else 1
    sign = -1 if alpha * beta * (v // 2) % 2 else 1
    if beta % 2 and pow(a, v // 2, v) != 1:
        sign = -sign
    if alpha % 2 and pow(b, v // 2, v) != 1:
        sign = -sign
    return sign


def hilbert_symbol(a: Fraction | int, b: Fraction | int, v) -> int:
    """Local Hilbert symbol (a, b)_v in {+1, -1}."""
    a, b = _class_rep(a), _class_rep(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    check_place(v)
    return _symbol(a, b, v)


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
    m, n = _class_rep(a), _class_rep(b)
    return BrauerClass(frozenset(v for v in candidates
                                 if _symbol(m, n, v) == -1))


def class_product(*classes: BrauerClass) -> BrauerClass:
    out = TRIVIAL
    for c in classes:
        out = out * c
    return out


def witt_invariant_diagonal(coeffs: Iterable[Fraction | int],
                            places: Iterable) -> BrauerClass:
    """Hasse-Witt invariant of <a_1, ..., a_n>: the places v of ``places``
    with prod_{i<j} (a_i, a_j)_v = -1.  ``places`` must hold every place
    where the invariant can ramify; one left out is read as unramified."""
    cs = [_class_rep(c) for c in coeffs]
    if any(c == 0 for c in cs):
        raise ValueError("diagonal form must have nonzero entries")
    places = list(places)
    for v in places:
        check_place(v)
    return _witt(cs, places)


def _witt(cs: Iterable[int], places: Iterable) -> BrauerClass:
    """witt_invariant_diagonal on nonzero integers cs at places the caller
    has already proved to be places."""
    pairs = list(combinations(cs, 2))
    return BrauerClass(frozenset(v for v in places if prod(
        _symbol(a, b, v) for a, b in pairs) == -1))
