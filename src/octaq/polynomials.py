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
coefficient; the zero polynomial has an empty tuple.  Discriminants of
cubics and quartics use their closed form, which only multiplies and adds
coefficients and so works over every one of these rings and over Z.
Resultants in Y of polynomials in Q[t][X][Y] come from their values at
integer points, each an integer Sylvester determinant (by a subresultant
remainder sequence), interpolated back exactly, so no fraction field of
polynomials is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .rationals import _exact_div, is_square

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(self.field, out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly(self.field, ())
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    def scale(self, c) -> "UniPoly":
        return UniPoly(self.field, [a * c for a in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.lc ** -1)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.field.zero] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        dlc = other.lc
        d = other.degree
        while len(rem) - 1 >= d and any(bool(c) for c in rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            factor = rem[-1] / dlc
            q[k] = factor
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - factor * c
            rem.pop()
        return UniPoly(self.field, q), UniPoly(self.field, rem)

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


# -- discriminants and resultants -------------------------------------------


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


# -- resultants in Y over Q[t][X], by evaluation and interpolation ------------


def _resultant_y(pc: Sequence, rc: Sequence) -> list[list[Fraction]]:
    """Res_Y(P, R) for P = sum_j pc[j] Y^j and R = sum_j rc[j] Y^j in
    Q[t][X][Y], pc[j][i][k] being the coefficient of X^i t^k in that of
    Y^j; returns res with res[i][k] the coefficient of X^i t^k.

    By evaluation and interpolation (Collins, JACM 1971).  With L the lcm
    of the denominators, m = deg_Y P and n = deg_Y R, Res(LP, LR) =
    L^(m+n) Res(P, R).  By Leibniz's expansion the Sylvester determinant
    has degree at most D_t in t and D_x in X, the largest sum of the
    degrees of its entries along a permutation (_leibniz_degree); if every
    permutation meets a zero entry the determinant is 0 and one node
    shows it.  At each node t0 = 0..D_t, x0 = 0..D_x the integer
    Sylvester determinant keeps the formal degrees (m, n), so a leading
    coefficient that vanishes there stays in it; _resultant_prs gives it
    by a subresultant PRS.  Forward differences interpolate in X, then t.
    """
    pc, rc = (_trim([_trim([_trim([Fraction(c) for c in ts]) for ts in xs])
                     for xs in a]) for a in (pc, rc))
    if not pc or not rc:
        raise ValueError("resultant of the zero polynomial")
    m, n = len(pc) - 1, len(rc) - 1
    big_l = lcm(*(c.denominator for a in (pc, rc) for xs in a for ts in xs
                  for c in ts))
    pz, rz = ([[[int(c * big_l) for c in ts] for ts in xs] for xs in a]
              for a in (pc, rc))

    def bound(deg) -> int:
        # None marks a zero entry; a None bound means Res = 0: one node
        return _leibniz_degree(_sylvester(
            [deg(xs) if xs else None for xs in pz],
            [deg(xs) if xs else None for xs in rz], None)) or 0
    dx = bound(lambda xs: len(xs) - 1)
    dt = bound(lambda xs: max(map(len, xs)) - 1)
    in_x = []
    for t0 in range(dt + 1):
        px, rx = ([[_horner(ts, t0) for ts in xs] for xs in a]
                  for a in (pz, rz))
        values = []
        for x0 in range(dx + 1):
            values.append(_resultant_prs([_horner(xs, x0) for xs in px],
                                         [_horner(xs, x0) for xs in rx]))
        in_x.append(_interpolate(values))
    scale = big_l ** (m + n)
    return _trim([[Fraction(c, scale) for c in _interpolate(
        [node[i] if i < len(node) else 0 for node in in_x])]
        for i in range(dx + 1)])


def _sylvester(p: Sequence, r: Sequence, zero) -> list[list]:
    """The Sylvester matrix of the ascending coefficient lists p and r:
    deg r shifted rows of p, then deg p shifted rows of r, each with its
    leading coefficient first and zero elsewhere."""
    m, n = len(p) - 1, len(r) - 1
    return ([[zero] * i + p[::-1] + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + r[::-1] + [zero] * (m - 1 - i)
               for i in range(m)])


def _leibniz_degree(deg: Sequence[Sequence]) -> int | None:
    """The largest sum(deg[i][p(i)]) over the permutations p of the
    columns of a square matrix of entry degrees, None marking a zero
    entry; None if every permutation meets one.  By Leibniz's expansion
    this bounds the degree of the determinant.  A dynamic programme over
    the sets of columns used by the first rows: 2^size states."""
    best = {0: 0}                      # used-column mask -> largest sum
    for row in deg:
        nxt = {}
        for used, total in best.items():
            for col, d in enumerate(row):
                if d is not None and not used >> col & 1:
                    key = used | 1 << col
                    if nxt.get(key, -1) < total + d:
                        nxt[key] = total + d
        best = nxt
    return best.get((1 << len(deg)) - 1)


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


def _resultant_prs(p: Sequence[int], r: Sequence[int]) -> int:
    """The determinant of the Sylvester matrix (_sylvester) of the
    ascending integer coefficient lists p and r at their formal degrees
    m = len(p) - 1 and n = len(r) - 1, a leading coefficient 0 included.

    If p_m or r_n is 0, the first column has at most one nonzero entry:
    expanding along it, Res_(m,n)(p, r) = p_m Res_(m,n-1)(p, r') when
    r_n = 0, (-1)^n r_n Res_(m-1,n)(p', r) when p_m = 0, and 0 when both
    are.  Res_(m,0)(p, r) = r_0^m.  Otherwise the subresultant PRS of
    Collins (JACM 1967) and Brown-Traub (JACM 1971), as in Cohen, GTM 138,
    Algorithm 3.3.7, without contents: Res(a, b) = (-1)^(deg a deg b)
    Res(b, a), and each pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b
    is divided by g h^delta.  Every division is exact over Z, checked by
    the explicit raise of _exact_div."""
    acc = 1
    while len(p) > 1 and len(r) > 1 and not (p[-1] and r[-1]):
        if p[-1]:
            acc *= p[-1]
            r = r[:-1]
        elif r[-1]:
            acc *= -r[-1] if len(r) % 2 == 0 else r[-1]
            p = p[:-1]
        else:
            return 0
    a, b, g, h = p, r, 1, 1
    if len(a) < len(b):
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            acc = -acc
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta, lead, rem = da - db, b[-1], list(a)
        if da & db & 1:
            acc = -acc
        for _ in range(delta + 1):  # rem = lead^(delta+1) a mod b
            top, k = rem.pop(), len(rem) - db
            rem = [lead * x for x in rem]
            if top:
                for i in range(db):
                    rem[k + i] -= top * b[i]
        if not _trim(rem):
            return 0
        a, b = b, [_exact_div(x, g * h ** delta) for x in rem]
        g = a[-1]
        h = _exact_div(g ** delta * h, h ** delta)
    da = len(a) - 1
    return acc * _exact_div(b[0] ** da * h, h ** da)


def _interpolate(ys: Sequence[int]) -> list[int]:
    """Ascending coefficients of the polynomial in Z[x] of degree below
    len(ys) that takes the values ys at x = 0, 1, ...: its Newton form has
    the coefficients (Delta^j y_0) / j!, each checked to be an integer."""
    newton, diffs, fact = [], list(ys), 1
    for j in range(len(ys)):
        fact *= j or 1
        newton.append(_exact_div(diffs[0], fact))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    out = []
    for j in range(len(newton) - 1, -1, -1):   # out = out * (x - j) + a_j
        out = [0] + out
        for i in range(len(out) - 1):
            out[i] -= j * out[i + 1]
        out[0] += newton[j]
    return _trim(out)


# -- the polynomial ring Q[s] and its quotients Q[s]/(s^2 - t) ---------------


def _poly_mul(a: Sequence, b: Sequence) -> list:
    """Product of ascending coefficient lists, over Z or any field."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return _element(self.ring, out, den)

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
