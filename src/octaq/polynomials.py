"""Dense univariate polynomials over an exact coefficient field.

Three coefficient fields are supported, all immutable:

* ``Fraction`` (the field object is the ``QQ`` singleton),
* ``QuadElement`` u + v*sqrt(t) for a fixed non-square rational t,
* ``RatFunc`` over any of the above (so Q(s), and Q(s)(X) by nesting).

Coefficients are stored lowest degree first with a nonzero leading
coefficient; the zero polynomial has an empty tuple.  Resultants use the
subresultant polynomial remainder sequence, which together with the
gcd-normalized rational-function arithmetic keeps coefficient growth
under control over Q(s); bivariate resultants go through a fraction-free
Sylvester determinant instead of a nested fraction field.
"""

from __future__ import annotations

from fractions import Fraction
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


def _fpow(x, k: int):
    """x**k for field elements, negative k via the inverse."""
    if k >= 0:
        return x**k
    return (x ** (-k)) ** -1 if hasattr(x, "__pow__") else 1 / (x ** (-k))


class QuadElement:
    """u + v*sqrt(t) with fixed non-square rational t."""

    __slots__ = ("field", "u", "v")

    def __init__(self, field: "QuadField", u: Scalar, v: Scalar):
        self.field = field
        self.u = Fraction(u)
        self.v = Fraction(v)

    def _coerce(self, other):
        if isinstance(other, QuadElement):
            if other.field.t != self.field.t:
                raise ValueError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(self.field, other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.field, self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(self.field, -self.u, -self.v)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.field, self.u - o.u, self.v - o.v)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = self.field.t
        return QuadElement(
            self.field,
            self.u * o.u + t * self.v * o.v,
            self.u * o.v + self.v * o.u,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadElement":
        nrm = self.u * self.u - self.field.t * self.v * self.v
        if nrm == 0:
            raise ZeroDivisionError("zero element of quadratic field")
        return QuadElement(self.field, self.u / nrm, -self.v / nrm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = QuadElement(self.field, 1, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.u == o.u and self.v == o.v

    def __hash__(self):
        return hash((self.field.t, self.u, self.v))

    def __bool__(self):
        return self.u != 0 or self.v != 0

    def conjugate(self) -> "QuadElement":
        return QuadElement(self.field, self.u, -self.v)

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    def __repr__(self):
        return f"({self.u} + {self.v}*sqrt({self.field.t}))"


class QuadField:
    """Q(sqrt(t)) for a fixed non-square rational t."""

    def __init__(self, t: Scalar):
        t = Fraction(t)
        if is_square(t):
            raise ValueError(f"{t} is a rational square; use QQ directly")
        self.t = t
        self.zero = QuadElement(self, 0, 0)
        self.one = QuadElement(self, 1, 0)
        self.sqrt_t = QuadElement(self, 0, 1)

    def embed(self, x: Scalar) -> QuadElement:
        return QuadElement(self, x, 0)

    def element(self, u: Scalar, v: Scalar) -> QuadElement:
        return QuadElement(self, u, v)

    def __repr__(self):
        return f"Q(sqrt({self.t}))"


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Iterable):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

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
        inv = _fpow(self.lc, -1)
        return self.scale(inv)

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
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly(self.field, ())
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly(self.field, (c,))
        return acc

    def __repr__(self):
        return f"UniPoly({poly_str(self)})"


def poly(field, coeffs: Sequence) -> UniPoly:
    return UniPoly(field, [field.embed(c) if isinstance(c, (int, Fraction))
                           else c for c in coeffs])


def qpoly(coeffs: Sequence[Scalar]) -> UniPoly:
    return poly(QQ, coeffs)


def poly_str(p: UniPoly, var: str = "x") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            parts.append(f"{c}")
        elif i == 1:
            parts.append(f"{c}*{var}" if c != p.field.one else var)
        else:
            parts.append(f"{c}*{var}^{i}" if c != p.field.one else f"{var}^{i}")
    return " + ".join(parts).replace("+ -", "- ")


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def lift_poly(p: UniPoly, field) -> UniPoly:
    """Embed a polynomial with rational coefficients into a larger field."""
    return UniPoly(field, [field.embed(c) for c in p.coeffs])


# -- resultants and discriminants -------------------------------------------


def _prem(a: UniPoly, b: UniPoly) -> UniPoly:
    """Pseudo-remainder lc(b)**(deg a - deg b + 1) * a mod b."""
    delta = a.degree - b.degree
    return a.scale(_fpow(b.lc, delta + 1)) % b


def resultant(f: UniPoly, g: UniPoly):
    """Res(f, g) = lc(f)**deg(g) * prod g(alpha) over the roots alpha of f.

    Subresultant PRS (Collins/Brown-Traub bookkeeping); exact over any of
    the supported coefficient fields.
    """
    F = f.field
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if f.degree == 0 and g.degree == 0:
        return F.one
    if g.degree == 0:
        return _fpow(g.lc, f.degree)
    if f.degree == 0:
        return _fpow(f.lc, g.degree)
    sign = 1
    a, b = f, g
    if a.degree < b.degree:
        if (a.degree % 2) and (b.degree % 2):
            sign = -sign
        a, b = b, a
    gg = F.one
    hh = F.one
    while True:
        delta = a.degree - b.degree
        if (a.degree % 2) and (b.degree % 2):
            sign = -sign
        r = _prem(a, b)
        a = b
        b = r.scale(_fpow(gg * _fpow(hh, delta), -1))
        gg = a.lc
        hh = _fpow(hh, 1 - delta) * _fpow(gg, delta) if delta != 0 else hh
        if b.is_zero():
            return F.zero
        if b.degree == 0:
            res = _fpow(hh, 1 - a.degree) * _fpow(b.lc, a.degree)
            return res * F.embed(sign)


def discriminant(f: UniPoly):
    """disc(f) = (-1)**(n(n-1)/2) * Res(f, f') / lc(f)."""
    n = f.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    r = resultant(f, f.derivative())
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    return r * _fpow(f.lc, -1) * f.field.embed(s)


def sylvester_matrix(f: UniPoly, g: UniPoly) -> list[list]:
    """(deg f + deg g) square matrix over the coefficient field."""
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = [f[m - i] for i in range(m + 1)]  # highest degree first
    gc = [g[n - i] for i in range(n + 1)]
    for i in range(n):
        rows.append([f.field.zero] * i + fc + [f.field.zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([f.field.zero] * i + gc + [f.field.zero] * (size - n - 1 - i))
    return rows


def bareiss_determinant(rows: list[list], zero, one):
    """Fraction-free Gaussian elimination; entries need exact division.

    Works for entries that are field elements or UniPoly values over a
    field (the divisions Bareiss performs are exact in the entry ring).
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return one
    sign = 1
    prev = one
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = _entry_exact_div(num, prev)
            m[i][k] = zero
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


def _entry_exact_div(num, den):
    if isinstance(num, UniPoly):
        if isinstance(den, UniPoly):
            return num.exact_div(den)
        return num.scale(_fpow(den, -1))
    return num / den


def resultant_bivariate(acoeffs: Sequence[UniPoly], bcoeffs: Sequence[UniPoly]):
    """Res_Y(A, B) for A = sum acoeffs[i] * Y**i with UniPoly-in-X entries.

    Sylvester determinant with fraction-free elimination, so everything
    stays in the polynomial ring; returns a UniPoly in X.
    """
    ac = list(acoeffs)
    bc = list(bcoeffs)
    while ac and ac[-1].is_zero():
        ac.pop()
    while bc and bc[-1].is_zero():
        bc.pop()
    if not ac or not bc:
        raise ValueError("resultant of the zero polynomial")
    field = ac[0].field
    m, n = len(ac) - 1, len(bc) - 1
    zero_p = UniPoly(field, ())
    one_p = UniPoly(field, (field.one,))
    if m == 0 and n == 0:
        return one_p
    if n == 0:
        return _poly_pow(bc[0], m)
    if m == 0:
        return _poly_pow(ac[0], n)
    size = m + n
    arow = list(reversed(ac))
    brow = list(reversed(bc))
    rows = []
    for i in range(n):
        rows.append([zero_p] * i + arow + [zero_p] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero_p] * i + brow + [zero_p] * (size - n - 1 - i))
    return bareiss_determinant(rows, zero_p, one_p)


def _poly_pow(p: UniPoly, k: int) -> UniPoly:
    out = UniPoly(p.field, (p.field.one,))
    for _ in range(k):
        out = out * p
    return out


# -- rational function field -------------------------------------------------


class RatFunc:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "FunctionField", num: UniPoly, den: UniPoly,
                 normalized: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not normalized:
            if den.degree == 0:
                num = num.scale(_fpow(den.lc, -1))
                den = UniPoly(num.field, (num.field.one,))
            elif num.is_zero():
                den = UniPoly(den.field, (den.field.one,))
            else:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                inv = _fpow(den.lc, -1)
                num = num.scale(inv)
                den = den.scale(inv)
        self.field = field
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field:
                raise ValueError("mixed function fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.embed(other)
        if isinstance(other, UniPoly):
            return RatFunc(self.field, other, self.field._one_poly, True)
        return None

    @property
    def _is_poly(self) -> bool:
        return self.den.degree == 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._is_poly and o._is_poly:
            return RatFunc(self.field, self.num + o.num,
                           self.field._one_poly, True)
        return RatFunc(self.field, self.num * o.den + o.num * self.den,
                       self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den, True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._is_poly and o._is_poly:
            return RatFunc(self.field, self.num * o.num,
                           self.field._one_poly, True)
        return RatFunc(self.field, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("zero rational function")
        return RatFunc(self.field, self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.num.is_zero()

    def eval(self, x):
        """Evaluate at a base-field point (denominator must not vanish)."""
        nv = self.num.eval(x)
        dv = self.den.eval(x)
        return nv / dv

    def __repr__(self):
        var = self.field.var
        if self._is_poly:
            return poly_str(self.num, var)
        return f"({poly_str(self.num, var)})/({poly_str(self.den, var)})"


class FunctionField:
    """Field of rational functions in one variable over an exact base field."""

    def __init__(self, base=QQ, var: str = "s"):
        self.base = base
        self.var = var
        self._one_poly = UniPoly(base, (base.one,))
        self._zero_poly = UniPoly(base, ())
        self.zero = RatFunc(self, self._zero_poly, self._one_poly, True)
        self.one = RatFunc(self, self._one_poly, self._one_poly, True)
        self.gen = RatFunc(self, UniPoly(base, (base.zero, base.one)),
                           self._one_poly, True)

    def embed(self, x) -> RatFunc:
        if isinstance(x, RatFunc) and x.field is self:
            return x
        return RatFunc(self, UniPoly(self.base, (self.base.embed(x),)),
                       self._one_poly, True)

    def from_poly(self, p: UniPoly) -> RatFunc:
        return RatFunc(self, p, self._one_poly, True)

    def __repr__(self):
        return f"{self.base!r}({self.var})"


# -- real root counting (Sturm) ----------------------------------------------


def _sign_at_inf(p: UniPoly, positive: bool) -> int:
    if p.is_zero():
        return 0
    lc = p.lc
    s = 1 if lc > 0 else -1
    if not positive and p.degree % 2 == 1:
        s = -s
    return s


def count_real_roots(f: UniPoly) -> int:
    """Number of distinct real roots of a rational polynomial (Sturm)."""
    if f.field is not QQ:
        raise ValueError("Sturm count implemented over Q only")
    g = poly_gcd(f, f.derivative())
    if g.degree > 0:
        f = f.exact_div(g)
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()

    def variations(positive: bool) -> int:
        signs = [s for s in (_sign_at_inf(p, positive) for p in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


# -- power sums and characteristic polynomials -------------------------------


def power_sums(f: UniPoly, count: int) -> list:
    """Traces p_k = sum of k-th powers of the roots of a monic polynomial,
    via Newton's identities, k = 1..count."""
    n = f.degree
    if f.lc != f.field.one:
        raise ValueError("power sums need a monic polynomial")
    emb = f.field.embed
    e = [f.field.zero] * (n + 1)
    for i in range(1, n + 1):
        c = f[n - i]
        e[i] = c if i % 2 == 0 else -c
    p = [f.field.zero] * (count + 1)
    for k in range(1, count + 1):
        acc = f.field.zero
        for i in range(1, min(k - 1, n) + 1):
            term = e[i] * p[k - i]
            acc = acc + (term if i % 2 == 1 else -term)
        if k <= n:
            term = e[k] * emb(k)
            acc = acc + (term if k % 2 == 1 else -term)
        p[k] = acc
    return p[1:]


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j])
         for j in range(n)]
        for i in range(n)
    ]


def mat_trace(a: list[list]):
    t = a[0][0]
    for i in range(1, len(a)):
        t = t + a[i][i]
    return t


def char_poly(m: list[list], field) -> UniPoly:
    """Characteristic polynomial det(X I - M), Faddeev-LeVerrier.

    Exact over any characteristic-zero coefficient field (the algorithm
    divides by the integers 1..n only).
    """
    n = len(m)
    emb = field.embed
    coeffs = [field.one]  # X**n coefficient
    mk = [row[:] for row in m]
    cs = []
    for k in range(1, n + 1):
        ck = -(mat_trace(mk) / emb(k))
        cs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] + ck
            mk = mat_mul(m, mk)
    return UniPoly(field, list(reversed(cs)) + coeffs)
