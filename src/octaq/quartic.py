"""Quartic field analysis over Q.

A trace-zero primitive element of a quartic field K1/Q has a *reduced*
minimal polynomial X^4 + aX^2 + bX + c; passing between two generators is
a reduced Tschirnhaus transformation.  The field is *principal* when some
generator has a = 0 as well (polynomial X^4 + bX + c), which happens iff
the Witt invariant w of the trace form Tr(x^2) equals (-1, -d) for d the
discriminant class: the rank-3 trace form on the trace-zero space must
represent zero.

Two independent routes to w are implemented: diagonalizing the Gram
matrix of the trace-zero space (basis beta^i - Tr(beta^i)/4) and the
closed formula w = (2 a d, 2a^3 + 9b^2 - 8ac) x (-1, -d), valid when
a != 0 and d != 2a in Q*/Q*^2; they must always agree.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

import mpmath

from . import config
from .errors import (DegenerateUnresolvable, FactorizationIncomplete,
                     NotPrimitive, NotPrincipal, OctaqError, Reducible,
                     SearchExhausted)
from .hilbert import BrauerClass, brauer_class, witt_invariant_diagonal
from .polynomials import (UniPoly, char_poly, discriminant, poly_gcd,
                          power_sums, qpoly)
from .rationals import (factorize, is_square, rational_reconstruct,
                        same_square_class, squarefree_part)
from .roots import complex_roots, mpf_to_fraction


# -- irreducibility over Q ----------------------------------------------------


def _integer_model(f: UniPoly) -> list[int]:
    """Monic integer polynomial defining the same field (X -> X/e)."""
    n = f.degree
    e = lcm(*[Fraction(c).denominator for c in f.coeffs])
    return [int(Fraction(f[i]) * e ** (n - i)) for i in range(n + 1)]


def _divisors(n: int) -> list[int]:
    fac = factorize(abs(n))
    if not fac.complete:
        raise FactorizationIncomplete(
            f"cannot enumerate divisors of {n}")
    divs = [1]
    for p, e in fac.factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def _has_rational_root(coeffs: list[int]) -> bool:
    """coeffs monic integer, ascending."""
    if coeffs[0] == 0:
        return True
    for d in _divisors(coeffs[0]):
        for r in (d, -d):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * r + c
            if acc == 0:
                return True
    return False


def _has_quadratic_factor(c: list[int]) -> bool:
    """Monic integer quartic [a0,a1,a2,a3,1]: test all monic integer
    splittings (Y^2+uY+v)(Y^2+wY+z); by Gauss's lemma this is exhaustive
    over Q."""
    a0, a1, a2, a3, _ = c
    if a0 == 0:
        return True
    for dv in _divisors(a0):
        for v in (dv, -dv):
            if a0 % v:
                continue
            z = a0 // v
            if z != v:
                num = a1 - a3 * v
                if num % (z - v):
                    continue
                u = num // (z - v)
                w = a3 - u
                if u * w + v + z == a2:
                    return True
            else:
                if v * a3 != a1:
                    continue
                disc = a3 * a3 - 4 * (a2 - 2 * v)
                if disc < 0:
                    continue
                r = isqrt(disc)
                if r * r == disc and (a3 + r) % 2 == 0:
                    return True
    return False


# small polynomial arithmetic over F_p, ascending coefficient lists


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce mod monic f of degree 4
    for k in range(len(out) - 1, 3, -1):
        c = out[k]
        if c:
            out[k] = 0
            for i in range(4):
                out[k - 4 + i] = (out[k - 4 + i] - c * f[i]) % p
    return _fp_trim(out[:4])


def _fp_xpow_mod(e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = [0, 1]
    while e:
        if e & 1:
            result = _fp_mulmod(result, base, f, p)
        base = _fp_mulmod(base, base, f, p)
        e >>= 1
    return result


def _fp_gcd_deg(a: list[int], b: list[int], p: int) -> int:
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        d = len(b) - 1
        r = list(a)
        while len(r) - 1 >= d and r:
            k = len(r) - 1 - d
            c = (r[-1] * inv) % p
            for i in range(len(b)):
                r[k + i] = (r[k + i] - c * b[i]) % p
            _fp_trim(r)
        a, b = b, r
    return len(a) - 1


def _fp_compose_mod(outer: list[int], inner: list[int], f: list[int],
                    p: int) -> list[int]:
    """outer(inner) mod f over F_p, Horner."""
    acc: list[int] = []
    for coeff in reversed(outer):
        acc = _fp_mulmod(acc, inner, f, p)
        if coeff:
            if acc:
                acc[0] = (acc[0] + coeff) % p
            else:
                acc = [coeff % p]
            _fp_trim(acc)
    return acc


def _modp_pattern(c: list[int], p: int) -> Optional[tuple[int, int]]:
    """(degree of the linear part, degree of the part with factors of
    degree <= 2) of f mod p, or None when the reduction is not squarefree
    (bad prime).  X^(p^2) mod f is the Frobenius composed with itself."""
    cp = [x % p for x in c]
    deriv = _fp_trim([(i * cp[i]) % p for i in range(1, 5)])
    if not deriv or _fp_gcd_deg(cp, deriv, p) > 0:
        return None
    frob = _fp_xpow_mod(p, cp, p)
    frob2 = _fp_compose_mod(frob, frob, cp, p)
    d1 = _fp_gcd_deg(_sub_x(frob, p), cp, p)
    d2 = _fp_gcd_deg(_sub_x(frob2, p), cp, p)
    return d1, d2


def _sub_x(a: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, 2 - len(a))
    out[1] = (out[1] - 1) % p
    return _fp_trim(out)


_CERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109)


def _irreducible_by_modp(c: list[int]) -> Optional[bool]:
    """True when factorization patterns mod good primes certify
    irreducibility: a pattern (4) or (1,3) rules out quadratic splittings,
    a rootless pattern rules out linear factors.  Never proves
    reducibility; None when the prime budget runs out."""
    no_root = False
    no_quad = False
    for p in _CERT_PRIMES:
        pat = _modp_pattern(c, p)
        if pat is None:
            continue
        d1, d2 = pat
        if d2 == 0:
            return True
        if d1 == 0:
            no_root = True
        if (d1, d2) in ((0, 0), (1, 1)):
            no_quad = True
        if no_root and no_quad:
            return True
    return None


def _reducible_by_roots(c: list[int]) -> bool:
    """Hunt for a monic integer factor near the complex roots and verify
    it exactly; True only on a verified factor."""
    f = qpoly(c)
    if poly_gcd(f, f.derivative()).degree > 0:
        return True
    roots = complex_roots(f, digits=40)
    # linear factors: integer roots sit next to real approximations
    for r in roots:
        if abs(r.imag) < 1e-10:
            base = int(mpmath.nint(r.real))
            for cand in (base - 1, base, base + 1):
                if f.eval(Fraction(cand)) == 0:
                    return True
    # quadratic factors: pair the roots and round the symmetric functions
    for i, j in itertools.combinations(range(4), 2):
        s = roots[i].as_mpc() + roots[j].as_mpc()
        q = roots[i].as_mpc() * roots[j].as_mpc()
        if abs(s.imag) > 1e-8 or abs(q.imag) > 1e-8:
            continue
        u0, v0 = int(mpmath.nint(s.real)), int(mpmath.nint(q.real))
        for du in (-1, 0, 1):
            for dv in (-1, 0, 1):
                quad = qpoly([v0 + dv, -(u0 + du), 1])
                if (f % quad).is_zero():
                    return True
    return False


def is_irreducible_quartic(f: UniPoly) -> bool:
    """Exact irreducibility over Q for a monic quartic.

    Small constant terms go through exhaustive divisor enumeration (which
    decides both ways); otherwise mod-p factorization patterns certify
    irreducibility and an exactly-verified factor hunt certifies
    reducibility.  The combination only fails to decide for pathological
    inputs, which then fall back to the exhaustive method and its
    factoring budget rather than guessing.
    """
    if f.degree != 4 or f.lc != 1:
        raise ValueError("need a monic quartic")
    c = _integer_model(f)
    if c[0] == 0:
        return False
    if abs(c[0]) < 10**12:
        return not _has_rational_root(c) and not _has_quadratic_factor(c)
    if _irreducible_by_modp(c):
        return True
    if _reducible_by_roots(c):
        return False
    return not _has_rational_root(c) and not _has_quadratic_factor(c)


def cubic_has_rational_root(f: UniPoly) -> bool:
    return _has_rational_root(_integer_model(f))


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class ReducedQuartic:
    """X^4 + aX^2 + bX + c, irreducible over Q."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        p = self.poly()
        if not is_irreducible_quartic(p):
            raise Reducible(f"{p!r} factors over Q")
        if discriminant(p) == 0:
            raise Reducible("zero discriminant")

    def poly(self) -> UniPoly:
        return qpoly([self.c, self.b, self.a, 0, 1])

    def disc(self) -> Fraction:
        a, b, c = self.a, self.b, self.c
        return (16 * a**4 * c - 4 * a**3 * b**2 - 128 * a**2 * c**2
                + 144 * a * b**2 * c - 27 * b**4 + 256 * c**3)

    def disc_class(self) -> int:
        return squarefree_part(self.disc())


@dataclass(frozen=True)
class PrincipalQuartic:
    """X^4 + bX + c, irreducible over Q."""

    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        p = self.poly()
        if not is_irreducible_quartic(p):
            raise Reducible(f"{p!r} factors over Q")
        if self.disc() == 0:
            raise Reducible("zero discriminant")

    def poly(self) -> UniPoly:
        return qpoly([self.c, self.b, 0, 0, 1])

    def disc(self) -> Fraction:
        return -27 * self.b**4 + 256 * self.c**3

    def disc_class(self) -> int:
        return squarefree_part(self.disc())

    def reduced(self) -> ReducedQuartic:
        return ReducedQuartic(Fraction(0), self.b, self.c)


@dataclass(frozen=True)
class FieldCertificate:
    """gamma = m beta^3 + n beta^2 + p beta + q maps the source root beta
    to a root of the target polynomial; verified exactly on construction
    sites, not here."""

    m: Fraction
    n: Fraction
    p: Fraction
    q: Fraction

    def substitution(self) -> UniPoly:
        return qpoly([self.q, self.p, self.n, self.m])


@dataclass(frozen=True)
class TraceFormData:
    gram: tuple
    diagonal: tuple
    disc_class: int
    witt: BrauerClass


# -- depression and Tschirnhaus ----------------------------------------------


def depress(f: UniPoly) -> ReducedQuartic:
    """Shift X -> X - a3/4 to kill the cubic term; same field and
    discriminant class."""
    if f.degree != 4 or f.lc != 1:
        raise ValueError("need a monic quartic")
    if not is_irreducible_quartic(f):
        raise Reducible(f"{f!r} factors over Q")
    a3 = Fraction(f[3])
    shifted = f.compose(qpoly([-a3 / 4, 1]))
    if shifted[3]:
        raise OctaqError(f"depressing {f!r} left a cubic term")
    return ReducedQuartic(shifted[2], shifted[1], shifted[0])


def reduced_tschirnhaus_poly(f: UniPoly, m, n, p) -> UniPoly:
    """Minimal-polynomial candidate of gamma = m beta^3 + n beta^2 + p beta + q
    for a root beta of the reduced quartic f, with q chosen so that gamma
    has trace zero: q = (3bm + 2an)/4.

    Computed as the characteristic polynomial of multiplication by gamma
    on the quotient algebra; works over any exact coefficient field.
    Equals the resultant Res_Y(f(Y), X - (mY^3 + nY^2 + pY + q)).
    """
    F = f.field
    if f.degree != 4 or f.lc != F.one or f[3]:
        raise ValueError("need a monic reduced quartic")
    a, b = f[2], f[1]
    emb = F.embed
    m, n, p = (x if not isinstance(x, (int, Fraction)) else emb(x)
               for x in (m, n, p))
    q = (emb(3) * b * m + emb(2) * a * n) / emb(4)
    u = UniPoly(F, (q, p, n, m))
    cols = []
    ypow = UniPoly(F, (F.one,))
    xpoly = UniPoly(F, (F.zero, F.one))
    for _ in range(4):
        col = (u * ypow) % f
        cols.append([col[i] for i in range(4)])
        ypow = (ypow * xpoly) % f
    mat = [[cols[j][i] for j in range(4)] for i in range(4)]
    return char_poly(mat, F)


def tschirnhaus(f: ReducedQuartic, m, n, p) -> ReducedQuartic:
    """Reduced Tschirnhaus transformation over Q; raises NotPrimitive when
    the image does not generate the field (non-squarefree image)."""
    if not (m or n or p):
        raise ValueError("(m, n, p) must be nonzero")
    g = reduced_tschirnhaus_poly(f.poly(), Fraction(m), Fraction(n),
                                 Fraction(p))
    if poly_gcd(g, g.derivative()).degree > 0:
        raise NotPrimitive(f"image of Tsc(...;{m},{n},{p}) is not primitive")
    try:
        return ReducedQuartic(g[2], g[1], g[0])
    except Reducible as exc:
        raise NotPrimitive(str(exc)) from exc


def resolvent_cubic(f: ReducedQuartic) -> UniPoly:
    """X^3 - aX^2 - 4cX + (4ac - b^2) for X^4 + aX^2 + bX + c."""
    a, b, c = f.a, f.b, f.c
    return qpoly([4 * a * c - b * b, -4 * c, -a, 1])


def galois_is_S4(f: ReducedQuartic) -> bool:
    """Irreducible resolvent cubic and non-square discriminant."""
    if cubic_has_rational_root(resolvent_cubic(f)):
        return False
    return not is_square(f.disc())


# -- trace form ---------------------------------------------------------------


def trace_zero_gram(f: ReducedQuartic) -> list[list[Fraction]]:
    """Gram matrix of Tr(x^2) on the basis z_i = beta^i - Tr(beta^i)/4,
    i = 1..3, computed from power sums."""
    ps = [Fraction(0)] + power_sums(f.poly(), 6)
    return [[ps[i + j] - ps[i] * ps[j] / 4 for j in range(1, 4)]
            for i in range(1, 4)]


def _sym_diagonalize(g: list[list[Fraction]]) -> tuple[list[Fraction], list[list[Fraction]]]:
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


def trace_form(f: ReducedQuartic) -> TraceFormData:
    """Trace form restricted to the trace-zero space: Gram matrix, a
    congruent diagonal form, discriminant class and Witt invariant."""
    g = trace_zero_gram(f)
    diag, c = _sym_diagonalize(g)
    # re-verify the congruence C^T G C = diag
    ct_g_c = [[sum(c[a][i] * g[a][b] * c[b][j] for a in range(3)
                   for b in range(3)) for j in range(3)] for i in range(3)]
    for i in range(3):
        for j in range(3):
            expected = diag[i] if i == j else Fraction(0)
            if ct_g_c[i][j] != expected:
                raise AssertionError("congruence verification failed")
    det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
           - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
           + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))
    if not same_square_class(det, f.disc()):
        raise AssertionError("trace-form discriminant mismatch")
    dclass = f.disc_class()
    witt = witt_invariant_diagonal(diag)
    return TraceFormData(gram=tuple(tuple(r) for r in g),
                         diagonal=tuple(diag), disc_class=dclass, witt=witt)


def witt_formula(f: ReducedQuartic, max_tries: int = 20) -> BrauerClass:
    """Witt invariant by the closed formula
    w = (2 a d, 2a^3 + 9b^2 - 8ac) x (-1, -d),
    after a small Tschirnhaus dodge when a = 0 or d = 2a in Q*/Q*^2."""
    # Fraction hashes are PYTHONHASHSEED-independent, so the dodge sequence
    # (and hence the report bytes) is reproducible across runs
    rng = random.Random(hash((f.a, f.b, f.c, 0x77D6)))
    cur = f
    for _ in range(max_tries):
        a, b, c = cur.a, cur.b, cur.c
        d = cur.disc()
        if a != 0 and not same_square_class(d, 2 * a):
            xi_left = 2 * a * d
            xi_right = 2 * a**3 + 9 * b**2 - 8 * a * c
            xi = brauer_class(xi_left, xi_right)
            return xi * brauer_class(-1, -d)
        while True:
            m, n, p = (rng.randint(-3, 3) for _ in range(3))
            if m or n or p:
                break
        try:
            cur = tschirnhaus(cur, m, n, p)
        except NotPrimitive:
            continue
    raise DegenerateUnresolvable(
        f"no non-degenerate model of {f} after {max_tries} perturbations")


# -- principality ------------------------------------------------------------


def is_principal(f: ReducedQuartic) -> bool:
    """w = (-1, -d): the trace-zero form represents zero, so the field has
    a defining polynomial X^4 + bX + c."""
    if not galois_is_S4(f):
        warnings.warn("principality criterion evaluated on a non-S4 quartic",
                      stacklevel=2)
    tf = trace_form(f)
    return tf.witt == brauer_class(-1, -tf.disc_class)


def _normalize_principal(b: Fraction, c: Fraction) -> tuple[PrincipalQuartic, Fraction]:
    """Scale by r (b -> b r^3, c -> c r^4) to integer coefficients with no
    removable (q^3, q^4) content at factorable primes, then fix the sign
    of b positive.

    Denominators must factor completely (integrality is exact); numerator
    content hidden in an unfactored cofactor merely stays in place,
    which only affects canonicality, never correctness.
    """
    primes: set[int] = set()
    for val in (b, c):
        den_fac = factorize(val.denominator) if val.denominator != 1 else None
        if den_fac is not None:
            if not den_fac.complete:
                raise SearchExhausted(
                    f"cannot factor denominator {val.denominator}"
                    " during normalization")
            primes.update(den_fac.factors.keys())
        if abs(val.numerator) > 1:
            primes.update(factorize(val.numerator).factors.keys())
    r = Fraction(1)
    for q in sorted(primes):
        alpha = _val(b, q)
        beta = _val(c, q)
        k = max(_ceil_div(-alpha, 3), _ceil_div(-beta, 4))
        if k:
            r *= Fraction(q) ** k
    b2, c2 = b * r**3, c * r**4
    if b2 < 0:
        r = -r
        b2 = -b2
    return PrincipalQuartic(b2, c2), r


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _val(x: Fraction, q: int) -> int:
    v = 0
    n = x.numerator
    while n % q == 0:
        n //= q
        v += 1
    d = x.denominator
    while d % q == 0:
        d //= q
        v -= 1
    return v


def _isotropy_p_solutions(g: list[list[Fraction]], m: int, n: int
                          ) -> list[Fraction]:
    """Exact rational roots p of Q(p, n, m) = 0 for the trace-zero Gram g,
    variables ordered (z1, z2, z3) = (beta, beta^2 - .., beta^3 - ..)."""
    a = g[0][0]
    b = 2 * (g[0][1] * n + g[0][2] * m)
    c = g[1][1] * n * n + 2 * g[1][2] * m * n + g[2][2] * m * m
    if a == 0:
        if b == 0:
            # p unconstrained iff c = 0 (then any nonzero p works)
            return [Fraction(1)] if c == 0 else []
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0 or not is_square(disc):
        return []
    root = Fraction(isqrt(disc.numerator), isqrt(disc.denominator))
    if root == 0:
        return [-b / (2 * a)]
    return [(-b + root) / (2 * a), (-b - root) / (2 * a)]


def principalize(f: ReducedQuartic, box: Optional[int] = None
                 ) -> tuple[PrincipalQuartic, FieldCertificate]:
    """Find a trace-zero gamma = m beta^3 + n beta^2 + p beta + q with
    Tr(gamma^2) = 0 as well; the output is the normalized minimal
    polynomial X^4 + bX + c of gamma plus the certificate.

    Search: integer (m, n) with max coordinate <= box, solving the
    isotropy condition exactly as a quadratic in p (rational roots via a
    square test), so the witnesses may have rational p of any height.
    The criterion itself is exact; exhausting the box raises
    SearchExhausted rather than returning a wrong answer.
    """
    if box is None:
        box = config.search_box()
    if not is_principal(f):
        raise NotPrincipal(f"Witt invariant differs from (-1, -d) for {f}")
    g = trace_zero_gram(f)
    for m, n in _mn_shells(box):
        for pf in _isotropy_p_solutions(g, m, n):
            if m == 0 and n == 0 and pf == 0:
                continue
            mf, nf = Fraction(m), Fraction(n)
            gp = reduced_tschirnhaus_poly(f.poly(), mf, nf, pf)
            if gp[2] != 0:
                raise AssertionError("isotropic vector gave nonzero X^2 term")
            if poly_gcd(gp, gp.derivative()).degree > 0:
                continue
            if not is_irreducible_quartic(gp):
                continue
            out, r = _normalize_principal(gp[1], gp[0])
            q = (3 * f.b * mf + 2 * f.a * nf) / 4
            cert = FieldCertificate(m=mf * r, n=nf * r, p=pf * r, q=q * r)
            return out, cert
    raise SearchExhausted(
        f"no isotropic vector with (m, n) coordinates <= {box}")


def _mn_shells(box: int):
    """Integer pairs ordered by max(|m|, |n|), deterministic."""
    yield 0, 0
    for norm in range(1, box + 1):
        rng = range(-norm, norm + 1)
        for m in rng:
            for n in rng:
                if max(abs(m), abs(n)) == norm:
                    yield m, n


# -- exact field-equality certification ---------------------------------------


def _verify_certificate(f: UniPoly, g: UniPoly, cert: FieldCertificate) -> bool:
    """g(m Y^3 + n Y^2 + p Y + q) = 0 mod f(Y), checked in Q[Y]."""
    u = cert.substitution()
    acc = qpoly([])
    for coeff in reversed(g.coeffs):
        acc = (acc * u + qpoly([coeff])) % f
    return acc.is_zero()


def same_field(f: UniPoly, g: UniPoly,
               digits: Optional[int] = None) -> Optional[FieldCertificate]:
    """Exactly-verified certificate that f and g define the same quartic
    field, or None.

    Strategy: reject on discriminant square class; otherwise match a fixed
    complex root beta of f against root orderings of g, solve the linear
    system for gamma = q + p beta + n beta^2 + m beta^3 through the four
    embeddings, reconstruct rational coefficients and re-verify exactly.
    A numerically found candidate is never trusted without the exact check.
    """
    for h in (f, g):
        if h.degree != 4 or h.lc != 1:
            raise ValueError("need monic quartics")
    if not is_irreducible_quartic(f) or not is_irreducible_quartic(g):
        raise Reducible("same_field needs irreducible quartics")
    df = discriminant(f)
    dg = discriminant(g)
    if not same_square_class(df, dg):
        return None
    base = digits if digits is not None else config.precision()
    for scale in (1, 2, 4):
        cert = _same_field_at(f, g, base * scale)
        if cert is not None:
            return cert
    return None


def _same_field_at(f: UniPoly, g: UniPoly, digits: int
                   ) -> Optional[FieldCertificate]:
    rf = complex_roots(f, digits)
    rg = complex_roots(g, digits)
    with mpmath.workdps(2 * digits + 20):
        betas = [r.as_mpc() for r in rf]
        gammas = [r.as_mpc() for r in rg]
        vander = mpmath.matrix([[b**k for k in range(4)] for b in betas])
        try:
            vinv = vander**-1
        except ZeroDivisionError:
            return None
        eps = Fraction(1, 10**(digits // 2))
        qmax = 10**(digits // 3)
        for perm in itertools.permutations(range(4)):
            rhs = mpmath.matrix([gammas[perm[i]] for i in range(4)])
            sol = vinv * rhs
            coeffs = []
            ok = True
            for i in range(4):
                z = sol[i]
                if abs(z.imag) > mpmath.mpf(10)**(-digits // 2):
                    ok = False
                    break
                approx = mpf_to_fraction(z.real)
                rec = rational_reconstruct(approx, eps, qmax)
                if rec is None:
                    ok = False
                    break
                coeffs.append(rec)
            if not ok:
                continue
            cert = FieldCertificate(q=coeffs[0], p=coeffs[1],
                                    n=coeffs[2], m=coeffs[3])
            if _verify_certificate(f, g, cert):
                return cert
    return None
