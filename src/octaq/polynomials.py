"""Dense univariate polynomials over an exact coefficient ring.

Three coefficient rings are supported, all immutable:

* ``Fraction`` (the field object is the ``QQ`` singleton),
* ``PolyElement`` in the ring Q[s] (``PolyRing``): integer coefficients
  over one denominator, divided only by nonzero constants, so an identity
  between rational functions of s is checked with its denominators
  cleared,
* ``QuadElement`` u + v*sqrt(t) in Q(sqrt(t)) = Q[s]/(s^2 - t) for a
  fixed non-square rational t (``QuadField``, a ``PolyRing``): the same
  integer numerators over one denominator, at most two of them, since
  each product is reduced by s^2 = t as it is formed.  As in Q[s], an
  element is divided only by a nonzero rational.

Coefficients are stored lowest degree first with a nonzero leading
coefficient; the zero polynomial has an empty tuple.  Every ring and Z
share one list kernel per operation: _poly_mul, _poly_add and
_divmod_monic, long division by a monic (Knuth, TAOCP vol. 2, 4.6.1).
UniPoly's +, * and divmod and PolyElement's + and * run on them, as do
quartic's integer Newton images, Hensel factor search and certificate
check G(U) mod F.  Discriminants of cubics and quartics use their closed
form, which only multiplies and adds coefficients and so works over
every one of these rings and over Z.
No resultant is formed here: the one octaq needs, the Weil restriction
of the 3-torsion quartic, is a composed sum built from power sums by
Newton's identities (Bostan, Flajolet, Salvy and Schost, "Fast
computation of special resultants", J. Symbolic Comput. 2006; see
qcurve), so no fraction field of polynomials is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .rationals import is_square

Scalar = Union[int, Fraction]


class RationalField:
    zero = Fraction(0)
    one = Fraction(1)

    def embed(self, x: Scalar) -> Fraction:
        return Fraction(x)

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Iterable):
        self.field = field
        self.coeffs = tuple(_trim(list(coeffs)))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(self.field, _poly_add(self.coeffs, other.coeffs))

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(self.field, _poly_mul(self.coeffs, other.coeffs,
                                             self.field.zero))

    def scale(self, c) -> "UniPoly":
        return UniPoly(self.field, [a * c for a in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.lc ** -1)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """(q, r) with self = q other + r and deg r < deg other, by the
        monic other / lc, with no scaling when lc is 1; ValueError if a
        ring without 1/lc needs it."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return UniPoly(self.field, ()), self
        if other.lc == self.field.one:
            q, r = _divmod_monic(self.coeffs, other.coeffs, self.field.zero)
            return UniPoly(self.field, q), UniPoly(self.field, r)
        inv = self.field.one / other.lc
        q, r = _divmod_monic(self.coeffs, other.scale(inv).coeffs,
                             self.field.zero)
        return UniPoly(self.field, q).scale(inv), UniPoly(self.field, r)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def derivative(self) -> "UniPoly":
        emb = self.field.embed
        return UniPoly(
            self.field,
            [c * emb(i) for i, c in enumerate(self.coeffs) if i >= 1],
        )

    def eval(self, x):
        return _horner(self.coeffs, x)

    def __repr__(self):
        return f"UniPoly({poly_str(self)})"


def poly(field, coeffs: Sequence) -> UniPoly:
    return UniPoly(field, [field.embed(c) if isinstance(c, (int, Fraction))
                           else c for c in coeffs])


def qpoly(coeffs: Sequence[Scalar]) -> UniPoly:
    return poly(QQ, coeffs)


def poly_str(p: UniPoly, var: str = "x") -> str:
    """p with its highest term first, as "x^4 - x - 1": a coefficient 1 or
    -1 of a power of var is left out, a constant term is written in full."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if not c:
            continue
        power = var if i == 1 else f"{var}^{i}"
        if i == 0:
            parts.append(f"{c}")
        elif c == p.field.one:
            parts.append(power)
        elif c == -p.field.one:
            parts.append(f"-{power}")
        else:
            parts.append(f"{c}*{power}")
    return " + ".join(parts).replace("+ -", "- ")


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


# -- discriminants ------------------------------------------------------------


def _disc(c: Sequence):
    """Discriminant of the monic cubic or quartic with ascending coefficient
    list c, closed form: only products and sums of the coefficients, so it
    holds over Z and over every supported field."""
    if len(c) == 4:
        a0, a1, a2, _ = c
        return (a1 * a1 * (a2 * a2 - 4 * a1) - 4 * a2**3 * a0 - 27 * a0 * a0
                + 18 * a2 * a1 * a0)
    a0, a1, a2, a3, _ = c
    return (256 * a0**3 - 192 * a3 * a1 * a0**2 - 128 * a2**2 * a0**2
            + 144 * a2 * a1**2 * a0 - 27 * a1**4 + 144 * a3**2 * a2 * a0**2
            - 6 * a3**2 * a1**2 * a0 - 80 * a3 * a2**2 * a1 * a0
            + 18 * a3 * a2 * a1**3 + 16 * a2**4 * a0 - 4 * a2**3 * a1**2
            - 27 * a3**4 * a0**2 + 18 * a3**3 * a2 * a1 * a0
            - 4 * a3**3 * a1**3 - 4 * a3**2 * a2**3 * a0
            + a3**2 * a2**2 * a1**2)


def discriminant(f: UniPoly):
    """Discriminant of a monic cubic or quartic over Q, Q(sqrt(t)) or Q[s]."""
    if f.degree not in (3, 4) or f.lc != f.field.one:
        raise ValueError("discriminant needs a monic cubic or quartic")
    return _disc(f.coeffs)


# -- list kernels: ascending coefficient lists over Z or any ring -------------


def _trim(cs: list) -> list:
    """cs without its zero (or empty) leading entries."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _horner(cs: Sequence, x):
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _poly_mul(a: Sequence, b: Sequence, zero=0) -> list:
    """Product of ascending coefficient lists over Z or any ring; zero is
    the ring's, so that an entry no product reaches lies in it too."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a: Sequence, b: Sequence) -> list:
    """Sum of ascending coefficient lists, untrimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return out


def _divmod_monic(a: Sequence, c: Sequence, zero=0) -> tuple[list, list]:
    """(q, r), a = q c + r with len(r) < len(c), for a monic c over Z or
    any ring (zero as in _poly_mul); r is untrimmed.  Long division (Knuth,
    TAOCP vol. 2, 4.6.1, Algorithm D) that never divides, as lc(c) = 1."""
    r, d = list(a), len(c) - 1
    q = [zero] * max(0, len(r) - d)
    while len(r) > d:
        t = r.pop()
        if t:
            k = len(r) - d
            q[k] = t
            for j in range(d):
                r[k + j] -= t * c[j]
    return q, r


# -- the polynomial ring Q[s] and its quotients Q[s]/(s^2 - t) ---------------


class PolyElement:
    """num(s)/den in Q[s]: integer coefficients num, lowest degree first
    with a nonzero last one (none for 0), over one positive integer den
    prime to their content.  Immutable; built by _element."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: "PolyRing", num: tuple, den: int):
        self.ring, self.num, self.den = ring, num, den

    def _coerce(self, other) -> "PolyElement":
        if isinstance(other, PolyElement):
            if other.ring is not self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        if type(other) is int:
            # an integer constant is already in lowest terms over 1
            return (self.ring.element_class(self.ring, (other,), 1) if other
                    else self.ring.zero)
        if isinstance(other, (int, Fraction)):
            return self.ring.embed(other)
        raise TypeError(f"{other!r} is not in {self.ring!r}")

    def __add__(self, other):
        o = self._coerce(other)
        a, b, den = self.num, o.num, self.den
        if o.den != den:
            den = lcm(den, o.den)
            a = [x * (den // self.den) for x in a]
            b = [x * (den // o.den) for x in b]
        return _element(self.ring, _poly_add(a, b), den)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.element_class(self.ring, tuple(-x for x in self.num),
                                       self.den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        return _element(self.ring, _poly_mul(self.num, o.num),
                        self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # by a nonzero constant only: any other quotient would leave Q[s]
        o = self._coerce(other)
        if not o.num:
            raise ZeroDivisionError(f"division by zero in {self.ring!r}")
        if len(o.num) > 1:
            raise ValueError(f"{o} is not a constant: {self.ring!r} divides"
                             " only by nonzero constants")
        return _element(self.ring, [o.den * x for x in self.num],
                        o.num[0] * self.den)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return (self.ring.one / self) ** (-k)
        out, base = self.ring.one, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, (PolyElement, int, Fraction)):
            return NotImplemented
        o = self._coerce(other)
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a constant equals, so hashes as, the int or Fraction it embeds
        if len(self.num) <= 1:
            return hash(Fraction(self.num[0] if self.num else 0, self.den))
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return poly_str(UniPoly(QQ, [Fraction(x, self.den) for x in self.num]),
                        self.ring.var)


def _element(ring: "PolyRing", num: list, den: int) -> PolyElement:
    """num/den as an element of ring, for den != 0: trims num and divides
    it and den by their gcd, signed as den."""
    if not _trim(num):
        return ring.zero
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return ring.element_class(ring, tuple(num), den)


class PolyRing:
    """The polynomial ring Q[var]; UniPoly takes it as a coefficient field,
    with division by nonzero constants only."""

    element_class = PolyElement

    def __init__(self, var: str = "s"):
        self.var = var
        self.zero = self.element_class(self, (), 1)
        self.one = self.element_class(self, (1,), 1)
        self.gen = self.element_class(self, (0, 1), 1)

    def embed(self, x) -> PolyElement:
        if isinstance(x, PolyElement) and x.ring is self:
            return x
        return self.from_coeffs((x,))

    def from_coeffs(self, coeffs: Sequence[Scalar]) -> PolyElement:
        """The element with rational coefficients coeffs, lowest first."""
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        return _element(self, [c.numerator * (den // c.denominator)
                               for c in coeffs], den)

    def __repr__(self):
        return f"QQ[{self.var}]"


class QuadElement(PolyElement):
    """u + v*sqrt(t) in Q(sqrt(t)) = Q[s]/(s^2 - t): the element of Q[s]
    of degree at most 1 that represents it, so num has at most two
    entries.  Only a product can reach s^2, and __mul__ reduces it.  It
    divides as Q[s] does, by nonzero rationals only; any other divisor
    raises ValueError."""

    __slots__ = ()

    def _coerce(self, other) -> PolyElement:
        # two fields with the same t are one field
        if isinstance(other, QuadElement) and other.ring is not self.ring:
            if other.ring.t != self.ring.t:
                raise ValueError("mixed quadratic fields")
            return other
        return super()._coerce(other)

    def __mul__(self, other):
        # (c0 + c1 s + c2 s^2)/d with s^2 = tn/td is
        # (c0 td + c2 tn + c1 td s)/(d td)
        o = self._coerce(other)
        c, den = _poly_mul(self.num, o.num), self.den * o.den
        if len(c) == 3:
            t = self.ring.t
            tn, td = t.numerator, t.denominator
            c, den = [c[0] * td + c[2] * tn, c[1] * td], den * td
        return _element(self.ring, c, den)

    __rmul__ = __mul__

    @property
    def field(self) -> "QuadField":
        return self.ring

    @property
    def u(self) -> Fraction:
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    @property
    def v(self) -> Fraction:
        return Fraction(self.num[1], self.den) if self.num[1:] else Fraction(0)

    def __repr__(self):
        return f"({self.u} + {self.v}*sqrt({self.ring.t}))"


class QuadField(PolyRing):
    """Q(sqrt(t)) = Q[s]/(s^2 - t) for a fixed non-square rational t;
    sqrt_t is the class of s."""

    element_class = QuadElement

    def __init__(self, t: Scalar):
        t = Fraction(t)
        if is_square(t):
            raise ValueError(f"{t} is a rational square; use QQ directly")
        self.t = t
        super().__init__()
        self.sqrt_t = self.gen

    def element(self, u: Scalar, v: Scalar) -> QuadElement:
        return self.from_coeffs((u, v))

    def __repr__(self):
        return f"Q(sqrt({self.t}))"


# used by no module of octaq; perfbench/selftest.py calls it
def mat_mul(a: list[list], b: list[list]) -> list[list]:
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j])
         for j in range(n)]
        for i in range(n)
    ]
