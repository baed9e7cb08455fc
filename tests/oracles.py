"""Reference routines that the tests compare octaq against; no command of
octaq uses them."""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, isqrt, prod

from octaq.errors import (CyclotomicExcluded, ExcludedParameter,
                          NotPrimitive, OctaqError)
from octaq.gl2f9 import F9_ADD, F9_INV, F9_MUL, F9_NEG, MINUS_ONE, ONE, ZETA
from octaq.hilbert import (INF, TRIVIAL, BrauerClass, brauer_class,
                           check_place)
from octaq.polynomials import (QQ, QuadField, UniPoly, poly_gcd,
                               poly_str)
from octaq.qcurve import (SymbolicContext, _require_principal,
                          companion_quartic_poly, curve_from_t,
                          principal_closure_p, principal_quartic_poly,
                          torsion_quartic)
from octaq.errors import SearchExhausted
from octaq.quartic import (PrincipalQuartic, TraceFormData, _ceil_div,
                           _eval_mod, _frobenius, _from_roots,
                           _integer_model, _normalize_principal,
                           _roots_mod, reduced_tschirnhaus_poly)
from octaq.rationals import _val_unit, factorize, is_square, squarefree_part


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


def compose(outer: UniPoly, inner: UniPoly) -> UniPoly:
    """outer(inner), by Horner over the coefficient field of outer."""
    acc = UniPoly(outer.field, ())
    for c in reversed(outer.coeffs):
        acc = acc * inner + UniPoly(outer.field, (c,))
    return acc


def _entry_exact_div(num, den):
    if isinstance(num, UniPoly):
        return num.exact_div(den)
    return num / den


def resultant_bivariate(acoeffs, bcoeffs):
    """Res_Y(A, B) for A = sum acoeffs[i] * Y**i with UniPoly-in-X entries.

    Sylvester determinant with fraction-free elimination over the entry
    ring F[X], F the coefficient field; returns a UniPoly in X.
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


def binomial_expand(field, coeffs, w):
    """Coefficients (in Y) of f(X + wY) as UniPoly-in-X entries:
    biv[j] = w^j * sum_k c_k C(k, j) X^(k-j)."""
    n = len(coeffs) - 1
    biv = []
    for j in range(n + 1):
        wj = w**j
        xs = [coeffs[k] * field.embed(comb(k, j)) * wj
              for k in range(j, n + 1)]
        biv.append(UniPoly(field, xs))
    return biv


def bareiss_weil_resultant(t=None, ctx=None) -> UniPoly:
    """Res_Y(P, R) of f_t(X + Y sqrt(t)) = P + R sqrt(t) by
    resultant_bivariate: over Q for a rational t; for t = None over the
    Q(s), t = s^2, of ctx (a new FunctionFieldContext by default), with P
    and R the even part of each coefficient in s and the odd part over s."""
    if t is not None:
        record = curve_from_t(t)
        K = record.quad_field
        biv = binomial_expand(K, record.f_t.coeffs, K.sqrt_t)
        return resultant_bivariate(
            [UniPoly(QQ, [c.u for c in e.coeffs]) for e in biv],
            [UniPoly(QQ, [c.v for c in e.coeffs]) for e in biv])
    ctx = ctx or FunctionFieldContext()
    F = ctx.field

    def half(c, parity):
        cs = [x if i % 2 == parity else 0 for i, x in enumerate(c.num.coeffs)]
        return F.from_poly(UniPoly(QQ, cs[parity:]))

    biv = binomial_expand(F, ctx.f_t.coeffs, ctx.s)
    return resultant_bivariate(
        [UniPoly(F, [half(c, 0) for c in e.coeffs]) for e in biv],
        [UniPoly(F, [half(c, 1) for c in e.coeffs]) for e in biv])


# -- the field Q(s): the reference route for the identity suite in Q[s] ------


class RatFunc:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "FunctionField", num: UniPoly, den: UniPoly,
                 normalized: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not normalized:
            if den.degree == 0:
                num = num.scale(den.lc ** -1)
                den = UniPoly(num.field, (num.field.one,))
            elif num.is_zero():
                den = UniPoly(den.field, (den.field.one,))
            else:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                inv = den.lc ** -1
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




class FunctionFieldContext(SymbolicContext):
    """The polynomials of SymbolicContext over the field Q(s), where every
    identity holds as it is displayed, with no denominator cleared."""

    def __init__(self):
        self.field = FunctionField(QQ, "s")
        self.s = self.field.gen
        self.t = self.s * self.s
        self.f_t = torsion_quartic(self.field, self.t, self.s)
        self.g_t = principal_quartic_poly(self.field, self.t)
        self.h_t = companion_quartic_poly(self.field, self.t)


def to_function_field(F: FunctionField, x):
    """An element of Q[s], or a UniPoly over Q[s], mapped into F = Q(s)."""
    if isinstance(x, UniPoly):
        return UniPoly(F, [to_function_field(F, c) for c in x.coeffs])
    return F.from_poly(UniPoly(QQ, [Fraction(c, x.den) for c in x.num]))


def sylvester_matrix(f: UniPoly, g: UniPoly, m: int | None = None,
                     n: int | None = None) -> list[list]:
    """(m + n) square matrix over the coefficient field, m = deg f and
    n = deg g unless given: a formal degree above the true one puts a
    zero leading coefficient in the matrix."""
    m = f.degree if m is None else m
    n = g.degree if n is None else n
    size = m + n
    rows = []
    fc = [f[m - i] for i in range(m + 1)]  # highest degree first
    gc = [g[n - i] for i in range(n + 1)]
    for i in range(n):
        rows.append([f.field.zero] * i + fc + [f.field.zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([f.field.zero] * i + gc + [f.field.zero] * (size - n - 1 - i))
    return rows


def sylvester_discriminant(f: UniPoly):
    """disc(f) = (-1)^(n(n-1)/2) det Syl(f, f') for monic f of degree n."""
    n = f.degree
    det = bareiss_determinant(sylvester_matrix(f, f.derivative()),
                              f.field.zero, f.field.one)
    return -det if (n * (n - 1) // 2) % 2 else det


def constant_resultant(f: UniPoly, g: UniPoly):
    """Res(f, g) over the coefficient field, by resultant_bivariate on
    entries that are constant polynomials."""
    def constants(p):
        return [UniPoly(p.field, (c,)) for c in p.coeffs]
    return resultant_bivariate(constants(f), constants(g))[0]


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


def fraction_gram(f) -> list[list[Fraction]]:
    """Gram matrix of Tr(x^2) on z_i = beta^i - Tr(beta^i)/4, i = 1..3,
    for a root beta of the ReducedQuartic f: Tr(z_i z_j) = p_(i+j) -
    p_i p_j / 4, from the Fraction power sums p_k of f itself."""
    ps = [Fraction(0)] + power_sums(f.poly(), 6)
    return [[ps[i + j] - ps[i] * ps[j] / 4 for j in range(1, 4)]
            for i in range(1, 4)]


def sym_diagonalize(g: list[list[Fraction]]
                    ) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Congruence diagonalization; returns (diagonal, C) with C^T G C diagonal.

    Zero pivots are repaired by swapping in a nonzero diagonal entry or,
    failing that, adding a row/column pair (valid in characteristic 0).
    """
    n = len(g)
    m = [row[:] for row in g]
    c = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]

    def col_op(dst: int, src: int, factor: Fraction) -> None:
        for i in range(n):
            m[i][dst] += factor * m[i][src]
        for i in range(n):
            m[dst][i] += factor * m[src][i]
        for i in range(n):
            c[i][dst] += factor * c[i][src]

    def swap(i: int, j: int) -> None:
        for r in m:
            r[i], r[j] = r[j], r[i]
        m[i], m[j] = m[j], m[i]
        for r in c:
            r[i], r[j] = r[j], r[i]

    for k in range(n):
        if m[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                found = next(((i, j) for i in range(k, n)
                              for j in range(i + 1, n) if m[i][j] != 0), None)
                if found is None:
                    raise ValueError("degenerate quadratic form")
                i, j = found
                col_op(i, j, Fraction(1))
                if i != k:
                    swap(k, i)
        for i in range(k + 1, n):
            if m[i][k] != 0:
                col_op(i, k, -m[i][k] / m[k][k])
    return [m[i][i] for i in range(n)], c


def witt_by_brauer_classes(coeffs) -> BrauerClass:
    """Hasse-Witt invariant of <a_1, ..., a_n> as the product of the
    classes (a_i, a_j), i < j, each over the full support of its entries."""
    return prod((brauer_class(a, b) for a, b in combinations(coeffs, 2)),
                start=TRIVIAL)


def fraction_trace_form(f) -> TraceFormData:
    """The trace form of the ReducedQuartic f by the Fraction route: the
    Gram of fraction_gram, sym_diagonalize with its congruence checked,
    and witt_by_brauer_classes."""
    g = fraction_gram(f)
    diag, c = sym_diagonalize(g)
    ct_g_c = [[sum(c[k][i] * g[k][l] * c[l][j]
                   for k in range(3) for l in range(3)) for j in range(3)]
              for i in range(3)]
    if ct_g_c != [[diag[i] if i == j else 0 for j in range(3)]
                  for i in range(3)]:
        raise AssertionError(f"C^T G C = {ct_g_c} is not diag {diag}")
    return TraceFormData(gram=tuple(tuple(r) for r in g),
                         diagonal=tuple(diag),
                         disc_class=squarefree_part(
                             sylvester_discriminant(f.poly())),
                         witt=witt_by_brauer_classes(diag))


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


def fraction_hilbert_symbol(a: Fraction | int, b: Fraction | int, v) -> int:
    """Local Hilbert symbol (a, b)_v in {+1, -1}, by the local formulas on
    the Fraction p-units of a and b themselves."""
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


def quad_element_family(g, s_param):
    """qcurve.family with j computed by QuadElement arithmetic in
    Q(sqrt(3(27 b_s^4 - 256 c_s^3)))."""
    _require_principal(g)
    s = Fraction(s_param)
    b, c = g.b, g.c
    if 3 * b * s + 4 * c == 0:
        raise ExcludedParameter(f"s = {s} is the excluded parameter -4c/3b")
    p = principal_closure_p(b, c, Fraction(1), s)
    image = reduced_tschirnhaus_poly(g.poly(), Fraction(1), s, p)
    if _integer_model(image).disc == 0:
        raise NotPrimitive("family member is not squarefree")
    if image[2] != 0:
        raise AssertionError("family member has a nonzero quadratic term")
    out, _ = _normalize_principal(image[1], image[0])
    bs, cs = out.b, out.c
    radicand = 3 * (27 * bs**4 - 256 * cs**3)
    if is_square(radicand):
        raise CyclotomicExcluded("family j-invariant lands in Q")
    K = QuadField(radicand)
    e = K.embed
    j = (e(27) * (e(27) * e(bs) ** 8 - e(207) * e(bs) ** 4 * e(cs) ** 3
                  + e(128) * e(cs) ** 6) / (e(2) * e(cs) ** 6)
         + e(81) * e(bs) ** 2 * (e(bs) ** 4 - e(3) * e(cs) ** 3)
         / (e(2) * e(cs) ** 6) * K.sqrt_t)
    return out, j


# -- the per-pair and per-residue searches that running sums replaced ----------


def mn_shells(box: int):
    """The shell order by its definition: all pairs of the square, kept
    when max(|m|, |n|) is the shell."""
    yield 0, 0
    for norm in range(1, box + 1):
        rng = range(-norm, norm + 1)
        for m in rng:
            for n in rng:
                if max(abs(m), abs(n)) == norm:
                    yield m, n


def isotropic_vectors_by_pairs(gram, box: int):
    """The isotropic vectors of quartic._isotropic_vectors with one isqrt
    per (m, n) of mn_shells: p solves G00 p^2 + 2hp + k = 0 for
    h = G01 n + G02 m and k = G11 n^2 + 2 G12 mn + G22 m^2.  At G00 = 0
    it yields every solution, of which the search keeps only the first."""
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram
    for m, n in mn_shells(box):
        h = g01 * n + g02 * m
        k = g11 * n * n + 2 * g12 * m * n + g22 * m * m
        if g00 == 0:
            if h:
                yield m, n, Fraction(-k, 2 * h)
            elif k == 0:  # p is free, so any nonzero p works
                yield m, n, Fraction(1)
            continue
        disc = h * h - g00 * k
        r = isqrt(max(disc, 0))
        if r * r != disc:
            continue
        for root in ((r, -r) if r else (0,)):
            p = Fraction(root - h, g00)
            if m or n or p:
                yield m, n, p


def roots_mod_by_residues(c: list[int], p: int) -> list[int]:
    """The roots of the integer polynomial c mod p, one Horner
    evaluation mod p per residue."""
    c = [x % p for x in c]
    return [x for x in range(p) if not _eval_mod(c, x, p)]


def normalize_principal_by_factoring(b: Fraction, c: Fraction
                                     ) -> tuple[PrincipalQuartic, Fraction]:
    """quartic._normalize_principal with every numerator and denominator
    of b and c factored."""
    primes: set[int] = set()
    for val in (b, c):
        if val.denominator != 1:
            den_fac = factorize(val.denominator)
            if not den_fac.complete:
                raise SearchExhausted(
                    f"cannot factor denominator {val.denominator}"
                    " during normalization")
            primes.update(den_fac.factors)
        if abs(val.numerator) > 1:
            primes.update(factorize(val.numerator).factors)
    r = Fraction(1)
    for q in sorted(primes):
        k = _ceil_div(-_val_unit(c, q)[0], 4)
        if b:
            k = max(k, _ceil_div(-_val_unit(b, q)[0], 3))
        if k:
            r *= Fraction(q) ** k
    b2, c2 = b * r**3, c * r**4
    if b2 < 0:
        r = -r
        b2 = -b2
    return PrincipalQuartic(b2, c2), r


# -- the split-prime search before its memo ---------------------------------


def split_prime_by_scan(model, avoid: int = 1) -> tuple[int, list[int]]:
    """_split_prime as one Frobenius scan of the model on every call, with
    no cache: the least split prime of the model prime to avoid and the
    sorted roots mod it; SearchExhausted past the cap."""
    for p, d, values in _frobenius(model.coeffs, model.disc, avoid):
        if pow(d, (p - 1) // 2, p) == 1:
            roots = _roots_mod(values, p)
            if len(roots) == len(model.coeffs) - 1:
                return p, roots


# -- the p-adic kernels of same_field before the carried inverse ---------------


def lift_roots_by_inversion(c: list[int], roots: list[int], p: int, k: int
                            ) -> list[int]:
    """Newton lifting of each simple root of c from mod p to mod p^k,
    with one inversion mod p^e per doubling step and no root from Vieta."""
    dc = [i * c[i] for i in range(1, len(c))]
    out = []
    for r in roots:
        e = 1
        while e < k:
            e = min(2 * e, k)
            m = p**e
            r = (r - _eval_mod(c, r, m) * pow(_eval_mod(dc, r, m), -1, m)) % m
        out.append(r)
    return out


def interpolation_basis_by_products(nodes: list[int], m: int
                                    ) -> list[list[int]]:
    """Lagrange basis mod m, L_i(nodes[j]) = [i == j], with L_i the product
    of the Y - r_j, j != i, over its value at r_i, one pow per node."""
    basis = []
    for i, x in enumerate(nodes):
        others = nodes[:i] + nodes[i + 1:]
        den = 1
        for y in others:
            den = den * (x - y) % m
        inv = pow(den, -1, m)
        basis.append([c * inv % m for c in _from_roots(others, m)])
    return basis


# -- the polynomial kernels before one list kernel per operation -------------


def add_by_loop(a: UniPoly, b: UniPoly) -> UniPoly:
    """UniPoly.__add__ with its own loop over the shorter summand."""
    field, a, b = a.field, a.coeffs, b.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return UniPoly(field, out)


def mul_by_loop(a: UniPoly, b: UniPoly) -> UniPoly:
    """UniPoly.__mul__ with its own schoolbook loop over a.field."""
    if a.is_zero() or b.is_zero():
        return UniPoly(a.field, ())
    out = [a.field.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return UniPoly(a.field, out)


def divmod_by_rescan(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """UniPoly.divmod dividing by lc at each step, popping trailing zeros
    and rescanning the remainder for a nonzero entry before each one."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [a.field.zero] * max(0, a.degree - b.degree + 1)
    rem = list(a.coeffs)
    dlc = b.lc
    d = b.degree
    while len(rem) - 1 >= d and any(bool(c) for c in rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < d:
            break
        k = len(rem) - 1 - d
        factor = rem[-1] / dlc
        q[k] = factor
        for i, c in enumerate(b.coeffs):
            rem[k + i] = rem[k + i] - factor * c
        rem.pop()
    return UniPoly(a.field, q), UniPoly(a.field, rem)


def int_rem_by_pops(a: list[int], c: list[int]) -> list[int]:
    """a mod the monic integer polynomial c, over Z (ascending lists): the
    remainder loop of same_field's certificate and factor checks."""
    a, d = list(a), len(c) - 1
    while len(a) > d:
        t = a.pop()
        if t:
            k = len(a) - d
            for j in range(d):
                a[k + j] -= t * c[j]
    return a


# -- GL2(F9) on packed integers, PGL2(F9) on canonical representatives ---------
#
# A matrix [[a, b], [c, d]] of F9 codes is the integer a + 81 b + 81^2 c +
# 81^3 d, and an element of PGL2(F9) is the scalar multiple whose first
# nonzero entry is 1.


def mat(e00: int, e01: int, e10: int, e11: int) -> int:
    return e00 + 81 * e01 + 81 * 81 * e10 + 81 * 81 * 81 * e11


def _unpack(m: int) -> tuple[int, int, int, int]:
    return m % 81, (m // 81) % 81, (m // 6561) % 81, m // 531441


def mat_entries(m: int) -> tuple[int, int, int, int]:
    a, b, c, d = _unpack(m)
    return a % 9, b % 9, c % 9, d % 9


def _pack(a: int, b: int, c: int, d: int) -> int:
    return a + 81 * b + 6561 * c + 531441 * d


PACKED_IDENTITY = mat(ONE, 0, 0, ONE)


def packed_mul(x: int, y: int) -> int:
    xa, xb, xc, xd = mat_entries(x)
    ya, yb, yc, yd = mat_entries(y)
    add, mul = F9_ADD, F9_MUL
    return _pack(
        add[mul[xa][ya]][mul[xb][yc]],
        add[mul[xa][yb]][mul[xb][yd]],
        add[mul[xc][ya]][mul[xd][yc]],
        add[mul[xc][yb]][mul[xd][yd]],
    )


def packed_det(m: int) -> int:
    a, b, c, d = mat_entries(m)
    return F9_ADD[F9_MUL[a][d]][F9_NEG[F9_MUL[b][c]]]


def packed_inv(m: int) -> int:
    a, b, c, d = mat_entries(m)
    det = packed_det(m)
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    di = F9_INV[det]
    return _pack(F9_MUL[di][d], F9_MUL[di][F9_NEG[b]],
                 F9_MUL[di][F9_NEG[c]], F9_MUL[di][a])


def packed_scalar_mul(c: int, m: int) -> int:
    a, b, cc, d = mat_entries(m)
    return _pack(F9_MUL[c][a], F9_MUL[c][b], F9_MUL[c][cc], F9_MUL[c][d])


def packed_order(m: int) -> int:
    k, cur = 1, m
    while cur != PACKED_IDENTITY:
        cur = packed_mul(cur, m)
        k += 1
        if k > 5760:
            raise ValueError("not an element of GL2(F9)")
    return k


def packed_closure(generators) -> frozenset:
    seen = {PACKED_IDENTITY, *generators}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                p = packed_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return frozenset(seen)


def pgl_canon(m: int) -> int:
    """Scale by F9* so the first nonzero entry is 1."""
    for e in mat_entries(m):
        if e != 0:
            return packed_scalar_mul(F9_INV[e], m)
    raise ValueError("zero matrix")


def pgl_project(elements) -> frozenset:
    return frozenset(pgl_canon(m) for m in elements)


def _pgl_mul(a: int, b: int) -> int:
    return pgl_canon(packed_mul(a, b))


def _pgl_order(m: int) -> int:
    k, cur = 1, m
    while cur != PACKED_IDENTITY:
        cur = _pgl_mul(cur, m)
        k += 1
        if k > 720:
            raise OctaqError("not an element of PGL2(F9)")
    return k


@cache
def gl2f9() -> frozenset:
    """The 5760 matrices, closed from diag(zeta, 1) and [[-1, 1], [-1, 0]]."""
    return packed_closure([mat(ZETA, 0, 0, ONE),
                           mat(MINUS_ONE, ONE, MINUS_ONE, 0)])


@cache
def pgl2f9() -> frozenset:
    return pgl_project(gl2f9())


@cache
def pgl2f3_conjugates() -> frozenset:
    """The conjugates of pi(GL2(F3)) under every element of PGL2(F9)."""
    base = pgl_project(packed_closure([mat(ONE, 0, 0, MINUS_ONE),
                                       mat(ONE, MINUS_ONE, ONE, 0)]))
    return frozenset(
        frozenset(_pgl_mul(_pgl_mul(g, m), pgl_canon(packed_inv(g)))
                  for m in base)
        for g in pgl2f9())
