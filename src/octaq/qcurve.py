"""Degree-2 Q-curve parametrization and its link to principal quartics.

A non-CM curve defined over Q(sqrt(t)) with a 2-isogeny to its conjugate
is isomorphic to

    C_t : Y^2 = X^3 - 6(5 + 3 sqrt(t)) X + 8(7 + 9 sqrt(t))

for a non-square rational t, with j-invariant

    j_t = 64 (5 + 3 sqrt(t))^3 / ((-1 + sqrt(t))^2 (1 + sqrt(t)))
        = [64(27t^2 + 360t + 125) + 128(81t + 175) sqrt(t)] / (t - 1)^2,

held in the second form, whose denominator is rational (no field inverse).

The x-coordinates of its 3-torsion are the roots of the quartic f_t over
Q(sqrt(t)); a reduced Tschirnhaus transformation takes f_t to the rational
principal quartic g_t = X^4 + 4(t-1)^2 X - 3(t-1)^3, and the Weil
restriction of f_t produces the companion rational quartic
h_t = X^4 - 6X^2 + 8X + 3(8 - 9t) defining the same octahedral field.
Conversely a principal X^4 + bX + c with discriminant class != -3 gives
t = -disc/(27 b^4).

Every displayed identity is checked exactly: polynomial identities in
Q[s], denominators cleared, after the substitution t = s^2 (so sqrt(t) = s
is rational), and Brauer-class identities at sampled rational t, symbols
being arithmetic rather than polynomial objects.  The Weil restriction
of f_t is the composed sum of f_t and its conjugate, built from power
sums by Newton's identities (Bostan, Flajolet, Salvy and Schost, J.
Symbolic Comput. 2006) and divided by h_t exactly in Q[s]; the three
Tschirnhaus identities are each one call of reduced_tschirnhaus_poly
over Q[s].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .errors import (CyclotomicExcluded, DegenerateParameter,
                     ExcludedParameter, NotOctahedral, NotPrimitive,
                     NotPrincipal, OctaqError, _excerpt)
from .hilbert import brauer_class
from .polynomials import (QQ, PolyRing, QuadField, UniPoly, _horner,
                          discriminant, poly_str)
from .quartic import (PrincipalQuartic, ReducedQuartic, _power_sums,
                      _principal_image, reduced_tschirnhaus_poly, trace_form)
from .rationals import is_square

J_AT_CUSP = 1728


# -- constructors from t and sqrt_t in Q, Q[s] or Q(sqrt(t)); each ring --------
# embeds an int operand itself, so only a bare constant needs field.embed


def torsion_quartic(field, t, sqrt_t) -> UniPoly:
    """f_t = X^4 - 12(5+3w)X^2 + 32(7+9w)X - 12(25+9t+30w), w = sqrt(t):
    the 3-division polynomial of the Weierstrass model, scaled monic."""
    return UniPoly(field, (-12 * (25 + 9 * t + 30 * sqrt_t),
                           32 * (7 + 9 * sqrt_t), -12 * (5 + 3 * sqrt_t),
                           field.zero, field.one))


def principal_quartic_poly(field, t) -> UniPoly:
    """g_t = X^4 + 4(t-1)^2 X - 3(t-1)^3."""
    tm1 = t - 1
    return UniPoly(field, (-3 * tm1**3, 4 * tm1**2, field.zero, field.zero,
                           field.one))


def companion_quartic_poly(field, t) -> UniPoly:
    """h_t = X^4 - 6X^2 + 8X + 3(8 - 9t)."""
    return UniPoly(field, (3 * (8 - 9 * t), field.embed(8), field.embed(-6),
                           field.zero, field.one))


def j_invariant_factored(sqrt_t):
    """(numerator, denominator) of 64 (5+3w)^3 / ((-1+w)^2 (1+w))."""
    return 64 * (5 + 3 * sqrt_t) ** 3, (-1 + sqrt_t) ** 2 * (1 + sqrt_t)


def j_invariant_split(t, sqrt_t):
    """(numerator, denominator) of j with rational and sqrt(t) parts apart:
    64(27t^2+360t+125)/(t-1)^2 + 128(81t+175)/(t-1)^2 * sqrt(t)."""
    return (64 * (27 * t**2 + 360 * t + 125) + 128 * (81 * t + 175) * sqrt_t,
            (t - 1) ** 2)


def weierstrass_model(sqrt_t):
    """(A, B) of Y^2 = X^3 + AX + B."""
    return -6 * (5 + 3 * sqrt_t), 8 * (7 + 9 * sqrt_t)


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


def _nondegenerate(t: Fraction | int) -> Fraction:
    """t as a Fraction; raises DegenerateParameter for 0, 1 or a square."""
    t = Fraction(t)
    if t in (0, 1) or is_square(t):
        raise DegenerateParameter(
            f"t = {t} is degenerate (0, 1, or a rational square)")
    return t


def curve_from_t(t: Fraction | int) -> QCurveRecord:
    """Curve data for a non-degenerate parameter (t not 0, 1 or a square);
    j is j_invariant_split over its rational denominator (t - 1)^2."""
    t = _nondegenerate(t)
    K = QuadField(t)
    w = K.sqrt_t
    j_num, j_den = j_invariant_split(t, w)
    return QCurveRecord(
        t=t,
        quad_field=K,
        j=j_num / j_den,
        model=weierstrass_model(w),
        f_t=torsion_quartic(K, t, w),
        g_t=principal_quartic_poly(QQ, t),
        h_t=companion_quartic_poly(QQ, t),
    )


def _require_principal(g: ReducedQuartic) -> None:
    if g.a != 0:
        raise NotPrincipal(f"{_excerpt(poly_str(g.poly()), str)} is not of"
                           " the principal shape X^4 + bX + c")


def t_from_principal(g: PrincipalQuartic) -> Fraction:
    """t = -disc(g)/(27 b^4) = 1 - 256 c^3/(27 b^4) = -3 disc(g)/(9 b^2)^2,
    so Q(sqrt(t)) = Q(sqrt(-3 d)), and t is a square exactly when d = -3."""
    _require_principal(g)
    if g.b == 0:
        raise NotOctahedral(f"{_excerpt(poly_str(g.poly()), str)} has b = 0:"
                            " X^4 + c is not octahedral and t is undefined")
    t = -g.disc() / (27 * g.b**4)
    if is_square(t):
        raise CyclotomicExcluded(
            "discriminant class -3: determinant character is cyclotomic")
    return t


def torsion_to_principal_params(sqrt_t):
    """(m, n, p) with Tsc(f_t; m, n, p) = g_t:
    (1/72, -1/36, (-37 - 27 sqrt(t))/36)."""
    return Fraction(1, 72), Fraction(-1, 36), (-37 - 27 * sqrt_t) / 36


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
    j-invariant u + v sqrt(D) of the attached curve, D = 3(27 b_s^4 -
    256 c_s^3), from its rational coordinates
        u = 27 (27 b_s^8 - 207 b_s^4 c_s^3 + 128 c_s^6) / (2 c_s^6),
        v = 81 b_s^2 (b_s^4 - 3 c_s^3) / (2 c_s^6)
    (c_s != 0: the member is irreducible)."""
    _require_principal(g)
    s = Fraction(s_param)
    b, c = g.b, g.c
    if 3 * b * s + 4 * c == 0:
        raise ExcludedParameter(f"s = {s} is the excluded parameter -4c/3b")
    p = principal_closure_p(b, c, Fraction(1), s)
    image = _principal_image(g, Fraction(1), s, p)
    if image is None:
        raise NotPrimitive("family member is not squarefree")
    out, _ = image
    bs, cs = out.b, out.c
    b4, c3 = bs**4, cs**3
    radicand = 3 * (27 * b4 - 256 * c3)
    if is_square(radicand):
        raise CyclotomicExcluded("family j-invariant lands in Q")
    den = 2 * c3 * c3
    j = QuadField(radicand).element(
        27 * (27 * b4 * b4 - 207 * b4 * c3 + 128 * c3 * c3) / den,
        81 * bs**2 * (b4 - 3 * c3) / den)
    return out, j


# -- Weil restriction ----------------------------------------------------------


@dataclass
class WeilRestrictionRecord:
    resultant_degree: int
    divisible: bool
    cofactor: Optional[UniPoly]
    companion: UniPoly


def _composed_sum(f: UniPoly, g: UniPoly) -> UniPoly:
    """The degree-16 composed sum W(X) = prod (X - (a + b)/2) over the
    roots a of f and b of g, monic reduced quartics over one coefficient
    ring: Res_Y(f(Y), g(2X - Y))/2^16, from power sums as in Bostan,
    Flajolet, Salvy and Schost, "Fast computation of special resultants"
    (J. Symbolic Comput. 2006).  The power sums of W are
    p_k(W) = 2^-k sum_m C(k, m) p_m(f) p_(k-m)(g) (quartic._power_sums),
    and Newton's identities k w_k = -sum_(i=1..k) w_(k-i) p_i(W), w_k the
    coefficient of X^(16-k), divide only by the constant k: over Q[s], W
    stays in Q[s]."""
    F = f.field
    if any(p.degree != 4 or p.lc != F.one or p[3] for p in (f, g)):
        raise ValueError("need two monic reduced quartics")
    pf, pg = (_power_sums(p[0], p[1], p[2], 17) for p in (f, g))
    pw = [sum((comb(k, m) * pf[m] * pg[k - m] for m in range(k + 1)),
              F.zero) / 2**k for k in range(17)]
    w = [F.one]
    for k in range(1, 17):
        w.append(-sum((w[k - i] * pw[i] for i in range(1, k + 1)), F.zero)
                 / k)
    return UniPoly(F, w[::-1])


def _weil_composed_sum(ctx: SymbolicContext) -> UniPoly:
    """The W of weil_restriction_factor over the Q[s] of ctx, t = s^2: the
    composed sum of ctx.f_t and its conjugate under s -> -s, each
    coefficient's odd entries of num negated.  P and R have a common root
    Y exactly when X + sY is a root of f_t and X - sY one of its
    conjugate, that is when X is half their sum; swapping the two quartics
    fixes W, so W is even in s."""
    F = ctx.field
    conjugate = UniPoly(F, [F.element_class(
        F, tuple(-x if i % 2 else x for i, x in enumerate(c.num)), c.den)
        for c in ctx.f_t.coeffs])
    return _composed_sum(ctx.f_t, conjugate)


def weil_restriction_factor(t: Fraction | int) -> WeilRestrictionRecord:
    """The Weil restriction W of f_t at t, of degree 16, and the exact
    division of W by h_t over Q.

    f_t(X + Y sqrt(t)) = P(X, Y) + R(X, Y) sqrt(t) with P, R over Q, and
    W = Res_Y(P, R)/(4096 t^4) is the composed sum of f_t and its
    conjugate (_weil_composed_sum).  It is built over Q[s], t = s^2, where
    it is even in s, and each coefficient num(s)/den is read at t from the
    even entries of num; a nonzero odd entry raises OctaqError.  The
    symbolic version, on W over Q[s], is _symbolic_weil_restriction.
    """
    t = _nondegenerate(t)
    coeffs = []
    for c in _weil_composed_sum(SymbolicContext()).coeffs:
        if any(c.num[1::2]):
            raise OctaqError(f"the Weil restriction has an odd power of s"
                             f" in {c}")
        coeffs.append(Fraction(_horner(c.num[::2], t), c.den))  # s^2k is t^k
    return _weil_record(UniPoly(QQ, coeffs), companion_quartic_poly(QQ, t))


def _symbolic_weil_restriction(ctx: SymbolicContext) -> WeilRestrictionRecord:
    """weil_restriction_factor over Q[s], on the polynomials of ctx: the
    composed sum W (_weil_composed_sum) is divided by the monic h_t over
    Q[s]."""
    return _weil_record(_weil_composed_sum(ctx), ctx.h_t)


def _weil_record(res: UniPoly, companion: UniPoly) -> WeilRestrictionRecord:
    """The record of the resultant res and its division by the companion
    quartic, both over the same coefficient field."""
    quot, rem = res.divmod(companion)
    divisible = rem.is_zero()
    return WeilRestrictionRecord(
        resultant_degree=res.degree,
        divisible=divisible,
        cofactor=quot if divisible else None,
        companion=companion,
    )


# -- symbolic verification context ---------------------------------------------


class SymbolicContext:
    """Q[s] with t = s^2, so sqrt(t) = s and every displayed identity, its
    known denominator cleared, is a polynomial identity.  The attached
    polynomials are attributes so a harness can corrupt one and watch the
    suite fail."""

    def __init__(self):
        self.field = PolyRing()
        self.s = self.field.gen
        self.t = self.s * self.s
        self.f_t = torsion_quartic(self.field, self.t, self.s)
        self.g_t = principal_quartic_poly(self.field, self.t)
        self.h_t = companion_quartic_poly(self.field, self.t)


@dataclass
class SuiteEntry:
    name: str
    passed: bool
    detail: str = ""


def _check_tsc_torsion_to_principal(ctx: SymbolicContext) -> bool:
    m, n, p = torsion_to_principal_params(ctx.s)
    return reduced_tschirnhaus_poly(ctx.f_t, m, n, p) == ctx.g_t


def _check_tsc_principal_to_torsion(ctx: SymbolicContext) -> bool:
    """Tsc(g_t; m, n, p) = f_t for m = -4(t+3s)/(bt), n = 16cs/(b^2 t) and
    p = -64c^2 s/(3b^3 t), b = 4(t-1)^2, c = -3(t-1)^3: in lowest terms
    m = -(t+3s)/L, n = -3s(t-1)/L and p = -3s(t-1)^2/L over the least
    common denominator L = t(t-1)^2.  The image of (Lm, Ln, Lp) has L times
    the roots, so L^(4-i) times the X^i coefficient of f_t, an identity
    in Q[s] on the one Newton route of reduced_tschirnhaus_poly."""
    t, s = ctx.t, ctx.s
    u = t - 1
    big_l = t * u * u
    image = reduced_tschirnhaus_poly(ctx.g_t, -(t + 3 * s), -3 * s * u,
                                     -3 * s * u * u)
    return image == UniPoly(ctx.field, [x * big_l ** (4 - i) for i, x
                                        in enumerate(ctx.f_t.coeffs)])


def _check_disc_principal(ctx: SymbolicContext) -> bool:
    return discriminant(ctx.g_t) == -(2**8) * 27 * ctx.t * (ctx.t - 1) ** 8


def _check_disc_companion(ctx: SymbolicContext) -> bool:
    return discriminant(ctx.h_t) == -(2**8) * 3**9 * ctx.t * (ctx.t - 1) ** 2


def _check_weil_divisibility(ctx: SymbolicContext) -> bool:
    record = _symbolic_weil_restriction(ctx)
    return record.resultant_degree == 16 and record.divisible


def _check_tsc_companion_to_principal(ctx: SymbolicContext) -> bool:
    m, n, p = Fraction(-1, 9), Fraction(-1, 9), Fraction(5, 9)
    return reduced_tschirnhaus_poly(ctx.h_t, m, n, p) == ctx.g_t


def _check_j_two_forms(ctx: SymbolicContext) -> bool:
    """The two forms of j_t, cross-multiplied: 64(5+3s)^3 (t-1)^2 =
    [64(27t^2+360t+125) + 128(81t+175)s] (s-1)^2 (s+1)."""
    num_f, den_f = j_invariant_factored(ctx.s)
    num_s, den_s = j_invariant_split(ctx.t, ctx.s)
    return num_f * den_s == num_s * den_f


# the t of the sampled Witt check, in order: none is 0, 1 or a square
WITT_SAMPLES = tuple(Fraction(t) for t in (
    2, 3, 5, 6, 7, 10, -1, -2, -3, -5, -6, -7, -10, -11, 13, -13,
    15, -15, 21, -21, 22, -22, 33, -33))


def _check_witt_companion(samples: int) -> tuple[bool, str]:
    """w(h_t) = (-1, 3t) = (-1, -disc h_t) at the first t of WITT_SAMPLES."""
    failures = []
    for t in WITT_SAMPLES[:samples]:
        h = companion_quartic_poly(QQ, t)
        rq = ReducedQuartic(h[2], h[1], h[0])
        w = trace_form(rq).witt
        expected = brauer_class(-1, 3 * t)
        also = brauer_class(-1, -rq.disc())
        if w != expected or w != also:
            failures.append(str(t))
    return (not failures, ", ".join(failures))


def symbolic_suite(samples: int = 20,
                   ctx: Optional[SymbolicContext] = None) -> list[SuiteEntry]:
    """Run every displayed identity; returns one pass/fail entry each."""
    if not 1 <= samples <= len(WITT_SAMPLES):  # no t checked is no pass
        raise ValueError(f"samples {samples} is outside 1..{len(WITT_SAMPLES)}")
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
        # a false identity can only divide by zero, leave Q[s] or an input's
        # required form, or not divide exactly (ValueError); any other
        # exception, an AssertionError too, is a bug
        except (ValueError, ZeroDivisionError) as exc:
            entries.append(SuiteEntry(name, False, f"{type(exc).__name__}: {exc}"))
    ok, detail = _check_witt_companion(samples)
    entries.append(SuiteEntry("witt_companion_sampled", ok, detail))
    return entries
