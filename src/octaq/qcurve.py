"""Degree-2 Q-curve parametrization and its link to principal quartics.

A non-CM curve defined over Q(sqrt(t)) with a 2-isogeny to its conjugate
is isomorphic to

    C_t : Y^2 = X^3 - 6(5 + 3 sqrt(t)) X + 8(7 + 9 sqrt(t))

for a non-square rational t, with j-invariant

    j_t = 64 (5 + 3 sqrt(t))^3 / ((-1 + sqrt(t))^2 (1 + sqrt(t))).

The x-coordinates of its 3-torsion are the roots of the quartic f_t over
Q(sqrt(t)); a reduced Tschirnhaus transformation takes f_t to the rational
principal quartic g_t = X^4 + 4(t-1)^2 X - 3(t-1)^3, and the Weil
restriction of f_t produces the companion rational quartic
h_t = X^4 - 6X^2 + 8X + 3(8 - 9t) defining the same octahedral field.
Conversely a principal X^4 + bX + c with discriminant class != -3 gives
t = -disc/(27 b^4).

Every displayed identity is checked exactly: polynomial identities over
Q(s) after the substitution t = s^2 (so sqrt(t) = s is rational), and
Brauer-class identities at sampled rational t, symbols being arithmetic
rather than polynomial objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .errors import (CyclotomicExcluded, DegenerateParameter,
                     ExcludedParameter, NotOctahedral, NotPrimitive,
                     NotPrincipal, OctaqError)
from .hilbert import brauer_class
from .polynomials import (QQ, FunctionField, QuadField, RatFunc, UniPoly,
                          discriminant, lift_poly, poly_gcd, poly_str,
                          resultant_bivariate)
from .quartic import (PrincipalQuartic, ReducedQuartic,
                      _normalize_principal, reduced_tschirnhaus_poly,
                      trace_form)
from .rationals import is_square, squarefree_part

J_AT_CUSP = 1728


# -- generic constructors over any field carrying (t, sqrt_t) -----------------


def torsion_quartic(field, t, sqrt_t) -> UniPoly:
    """f_t = X^4 - 12(5+3w)X^2 + 32(7+9w)X - 12(25+9t+30w), w = sqrt(t):
    the 3-division polynomial of the Weierstrass model, scaled monic."""
    e = field.embed
    return UniPoly(field, (
        e(-12) * (e(25) + e(9) * t + e(30) * sqrt_t),
        e(32) * (e(7) + e(9) * sqrt_t),
        e(-12) * (e(5) + e(3) * sqrt_t),
        field.zero,
        field.one,
    ))


def principal_quartic_poly(field, t) -> UniPoly:
    """g_t = X^4 + 4(t-1)^2 X - 3(t-1)^3."""
    e = field.embed
    tm1 = t - e(1)
    return UniPoly(field, (e(-3) * tm1**3, e(4) * tm1**2, field.zero,
                           field.zero, field.one))


def companion_quartic_poly(field, t) -> UniPoly:
    """h_t = X^4 - 6X^2 + 8X + 3(8 - 9t)."""
    e = field.embed
    return UniPoly(field, (e(3) * (e(8) - e(9) * t), e(8), e(-6),
                           field.zero, field.one))


def j_invariant_factored(field, t, sqrt_t):
    """64 (5+3w)^3 / ((-1+w)^2 (1+w))."""
    e = field.embed
    w = sqrt_t
    num = e(64) * (e(5) + e(3) * w) ** 3
    den = (e(-1) + w) ** 2 * (e(1) + w)
    return num / den


def j_invariant_split(field, t, sqrt_t):
    """Rational and sqrt(t) parts displayed separately:
    64(27t^2+360t+125)/(t-1)^2 + 128(81t+175)/(t-1)^2 * sqrt(t)."""
    e = field.embed
    den = (t - e(1)) ** 2
    return (e(64) * (e(27) * t**2 + e(360) * t + e(125)) / den
            + e(128) * (e(81) * t + e(175)) / den * sqrt_t)


def weierstrass_model(field, sqrt_t):
    """(A, B) of Y^2 = X^3 + AX + B."""
    e = field.embed
    return (e(-6) * (e(5) + e(3) * sqrt_t), e(8) * (e(7) + e(9) * sqrt_t))


# -- numeric records -----------------------------------------------------------


@dataclass
class QCurveRecord:
    t: Fraction
    quad_field: QuadField
    j: object                 # QuadElement
    model: tuple               # (A, B) QuadElements
    f_t: UniPoly               # over Q(sqrt(t))
    g_t: UniPoly               # over Q
    h_t: UniPoly               # over Q


def curve_from_t(t: Fraction | int) -> QCurveRecord:
    """Curve data for a non-degenerate parameter (t not 0, 1 or a square)."""
    t = Fraction(t)
    if t in (0, 1) or is_square(t):
        raise DegenerateParameter(
            f"t = {t} is degenerate (0, 1, or a rational square)")
    K = QuadField(t)
    w = K.sqrt_t
    tK = K.embed(t)
    record = QCurveRecord(
        t=t,
        quad_field=K,
        j=j_invariant_factored(K, tK, w),
        model=weierstrass_model(K, w),
        f_t=torsion_quartic(K, tK, w),
        g_t=principal_quartic_poly(QQ, t),
        h_t=companion_quartic_poly(QQ, t),
    )
    return record


def _require_principal(g: ReducedQuartic) -> None:
    if g.a != 0:
        raise NotPrincipal(f"{poly_str(g.poly())} is not of the principal"
                           " shape X^4 + bX + c")


def t_from_principal(g: PrincipalQuartic) -> Fraction:
    """t = -disc(g)/(27 b^4) = 1 - 256 c^3/(27 b^4); the square class of t
    is that of -3 disc(g), so Q(sqrt(t)) = Q(sqrt(-3 d))."""
    _require_principal(g)
    if g.b == 0:
        raise NotOctahedral(f"{poly_str(g.poly())} has b = 0: X^4 + c is not"
                            " octahedral and t is undefined")
    disc = g.disc()
    if squarefree_part(disc) == -3:
        raise CyclotomicExcluded(
            "discriminant class -3: determinant character is cyclotomic")
    t = -disc / (27 * g.b**4)
    if is_square(t):
        raise OctaqError(f"t = {t} from an irreducible principal quartic"
                         " is a square")
    return t


def tschirnhaus_to_torsion(g: PrincipalQuartic):
    """Transformation parameters (m, n, p) over Q(sqrt(t)) carrying g to
    f_t, verified exactly; returns (t, quad field, (m, n, p))."""
    t = t_from_principal(g)
    K = QuadField(t)
    b, c = K.embed(g.b), K.embed(g.c)
    tK, w = K.embed(t), K.sqrt_t
    m = -K.embed(4) * (tK + K.embed(3) * w) / (b * tK)
    n = K.embed(16) * c * w / (b**2 * tK)
    p = -K.embed(64) * c**2 * w / (K.embed(3) * b**3 * tK)
    image = reduced_tschirnhaus_poly(lift_poly(g.poly(), K), m, n, p)
    expected = torsion_quartic(K, tK, w)
    if image != expected:
        raise AssertionError("transformation to the torsion quartic failed")
    return t, K, (m, n, p)


def torsion_to_principal_params(field, t, sqrt_t):
    """(m, n, p) with Tsc(f_t; m, n, p) = g_t:
    (1/72, -1/36, (-37 - 27 sqrt(t))/36)."""
    e = field.embed
    return (e(1) / e(72), -e(1) / e(36),
            (e(-37) - e(27) * sqrt_t) / e(36))


def principal_closure_p(b: Fraction, c: Fraction, m: Fraction,
                        n: Fraction) -> Fraction:
    """The unique p with Tsc(X^4+bX+c; m, n, p) again of principal shape:
    p = (3 b^2 m^2 - 16 c n^2) / (8 (4 c m + 3 b n)), from the isotropy of
    m beta^3 + n beta^2 + p beta + q in the trace-zero quadratic form."""
    denom = 8 * (4 * c * m + 3 * b * n)
    if denom == 0:
        raise ExcludedParameter("4cm + 3bn = 0 has no principal completion")
    return (3 * b**2 * m**2 - 16 * c * n**2) / denom


def family(g: PrincipalQuartic, s_param: Fraction | int
           ) -> tuple[PrincipalQuartic, object]:
    """Member X^4 + b_s X + c_s of the one-parameter family of principal
    polynomials defining the same field, s != -4c/(3b), together with the
    j-invariant of the attached curve in Q(sqrt(3(27 b_s^4 - 256 c_s^3)))."""
    _require_principal(g)
    s = Fraction(s_param)
    b, c = g.b, g.c
    if 3 * b * s + 4 * c == 0:
        raise ExcludedParameter(f"s = {s} is the excluded parameter -4c/3b")
    p = principal_closure_p(b, c, Fraction(1), s)
    image = reduced_tschirnhaus_poly(g.poly(), Fraction(1), s, p)
    if poly_gcd(image, image.derivative()).degree > 0:
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


# -- Weil restriction ----------------------------------------------------------


@dataclass
class WeilRestrictionRecord:
    resultant_degree: int
    divisible: bool
    cofactor: Optional[UniPoly]
    companion: UniPoly


def _binomial_expand(field, coeffs, w):
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


def weil_restriction_factor(t: Optional[Fraction] = None) -> WeilRestrictionRecord:
    """Split f_t(X + Y sqrt(t)) = P(X, Y) + R(X, Y) sqrt(t) over Q, form the
    degree-16 resultant Res_Y(P, R) and verify h_t divides it exactly.

    t = None runs the symbolic version over Q(s) with t = s^2.
    """
    if t is None:
        return _symbolic_weil_restriction(SymbolicContext())
    record = curve_from_t(t)
    K = record.quad_field
    pt, rt = [], []
    for entry in _binomial_expand(K, record.f_t.coeffs, K.sqrt_t):
        pt.append(UniPoly(QQ, [c.u for c in entry.coeffs]))
        rt.append(UniPoly(QQ, [c.v for c in entry.coeffs]))
    return _weil_record(pt, rt, record.h_t)


def _symbolic_weil_restriction(ctx: SymbolicContext) -> WeilRestrictionRecord:
    """weil_restriction_factor over Q(s), on the polynomials of ctx."""
    F = ctx.field
    pt, rt = [], []
    for entry in _binomial_expand(F, ctx.f_t.coeffs, ctx.s):
        halves = [_split_parity(cf) for cf in entry.coeffs]
        pt.append(UniPoly(F, [ev for ev, _ in halves]))
        rt.append(UniPoly(F, [od for _, od in halves]))
    return _weil_record(pt, rt, ctx.h_t)


def _weil_record(pt: list[UniPoly], rt: list[UniPoly], companion: UniPoly
                 ) -> WeilRestrictionRecord:
    """Res_Y(P, R) from the coefficient lists in Y and its division by the
    companion quartic, given over the coefficient field of P and R."""
    while rt and rt[-1].is_zero():
        rt.pop()
    res = resultant_bivariate(pt, rt)
    quot, rem = res.divmod(companion)
    divisible = rem.is_zero()
    return WeilRestrictionRecord(
        resultant_degree=res.degree,
        divisible=divisible,
        cofactor=quot if divisible else None,
        companion=companion,
    )


def _split_parity(rf: RatFunc) -> tuple[RatFunc, RatFunc]:
    """Polynomial element of Q(s) as even(s) + s*odd(s) with even/odd in
    Q(s) polynomials of s^2; returns (even, odd/s... ) as elements."""
    if rf.den.degree != 0:
        raise ValueError("parity split needs a polynomial element")
    num = rf.num
    even = [num[i] for i in range(0, num.degree + 1, 2)]
    odd = [num[i] for i in range(1, num.degree + 1, 2)]
    field = rf.field

    def inflate(cs):
        out = []
        for c in cs:
            out.append(c)
            out.append(Fraction(0))
        return UniPoly(QQ, out[:-1] if out else ())

    return (field.from_poly(inflate(even)), field.from_poly(inflate(odd)))


# -- symbolic verification context ---------------------------------------------


class SymbolicContext:
    """Q(s) with t = s^2, so sqrt(t) = s and every displayed identity is a
    rational-function identity.  The attached polynomials are attributes so
    a harness can corrupt one and watch the suite fail."""

    def __init__(self):
        self.field = FunctionField(QQ, "s")
        self.s = self.field.gen
        self.t = self.s * self.s
        self.f_t = torsion_quartic(self.field, self.t, self.s)
        self.g_t = principal_quartic_poly(self.field, self.t)
        self.h_t = companion_quartic_poly(self.field, self.t)

    def e(self, x):
        return self.field.embed(x)


@dataclass
class SuiteEntry:
    name: str
    passed: bool
    detail: str = ""


def _check_tsc_torsion_to_principal(ctx: SymbolicContext) -> bool:
    m, n, p = torsion_to_principal_params(ctx.field, ctx.t, ctx.s)
    return reduced_tschirnhaus_poly(ctx.f_t, m, n, p) == ctx.g_t


def _check_tsc_principal_to_torsion(ctx: SymbolicContext) -> bool:
    e = ctx.e
    t, s = ctx.t, ctx.s
    b = e(4) * (t - e(1)) ** 2
    c = e(-3) * (t - e(1)) ** 3
    m = -e(4) * (t + e(3) * s) / (b * t)
    n = e(16) * c * s / (b**2 * t)
    p = -e(64) * c**2 * s / (e(3) * b**3 * t)
    return reduced_tschirnhaus_poly(ctx.g_t, m, n, p) == ctx.f_t


def _check_disc_principal(ctx: SymbolicContext) -> bool:
    e = ctx.e
    return discriminant(ctx.g_t) == e(-(2**8) * 27) * ctx.t * (ctx.t - e(1)) ** 8


def _check_disc_companion(ctx: SymbolicContext) -> bool:
    e = ctx.e
    return discriminant(ctx.h_t) == e(-(2**8) * 3**9) * ctx.t * (ctx.t - e(1)) ** 2


def _check_weil_divisibility(ctx: SymbolicContext) -> bool:
    record = _symbolic_weil_restriction(ctx)
    return record.resultant_degree == 16 and record.divisible


def _check_tsc_companion_to_principal(ctx: SymbolicContext) -> bool:
    e = ctx.e
    m, n, p = -e(1) / e(9), -e(1) / e(9), e(5) / e(9)
    return reduced_tschirnhaus_poly(ctx.h_t, m, n, p) == ctx.g_t


def _check_j_two_forms(ctx: SymbolicContext) -> bool:
    return (j_invariant_factored(ctx.field, ctx.t, ctx.s)
            == j_invariant_split(ctx.field, ctx.t, ctx.s))


def _witt_samples(count: int) -> list[Fraction]:
    pool = [2, 3, 5, 6, 7, 10, -1, -2, -3, -5, -6, -7, -10, -11, 13, -13,
            15, -15, 21, -21, 22, -22, 33, -33]
    out = []
    for t in pool:
        if t in (0, 1) or is_square(Fraction(t)):
            continue
        out.append(Fraction(t))
        if len(out) == count:
            break
    return out


def _check_witt_companion(samples: int) -> tuple[bool, str]:
    """w(h_t) = (-1, 3t) = (-1, -disc h_t) at sampled rational t."""
    failures = []
    for t in _witt_samples(samples):
        h = companion_quartic_poly(QQ, t)
        rq = ReducedQuartic(h[2], h[1], h[0])
        w = trace_form(rq).witt
        expected = brauer_class(-1, 3 * t)
        also = brauer_class(-1, -discriminant(h))
        if w != expected or w != also:
            failures.append(str(t))
    return (not failures, ", ".join(failures))


def symbolic_suite(samples: int = 20,
                   ctx: Optional[SymbolicContext] = None) -> list[SuiteEntry]:
    """Run every displayed identity; returns one pass/fail entry each."""
    if ctx is None:
        ctx = SymbolicContext()
    entries = []
    checks = [
        ("tsc_torsion_to_principal", _check_tsc_torsion_to_principal),
        ("tsc_principal_to_torsion", _check_tsc_principal_to_torsion),
        ("disc_principal_quartic", _check_disc_principal),
        ("disc_companion_quartic", _check_disc_companion),
        ("companion_divides_weil_resultant", _check_weil_divisibility),
        ("tsc_companion_to_principal", _check_tsc_companion_to_principal),
        ("j_invariant_two_forms", _check_j_two_forms),
    ]
    for name, fn in checks:
        try:
            ok = fn(ctx)
            entries.append(SuiteEntry(name, bool(ok)))
        except Exception as exc:  # suite reports, never raises
            entries.append(SuiteEntry(name, False, f"{type(exc).__name__}: {exc}"))
    ok, detail = _check_witt_companion(samples)
    entries.append(SuiteEntry("witt_companion_sampled", ok, detail))
    return entries
