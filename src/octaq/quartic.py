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

import functools
import itertools
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

from . import config
from .errors import (DegenerateUnresolvable, FactorizationIncomplete,
                     NotPrimitive, NotPrincipal, OctaqError, Reducible,
                     SearchExhausted)
from .hilbert import BrauerClass, brauer_class, witt_invariant_diagonal
from .polynomials import (UniPoly, char_poly, discriminant, poly_gcd,
                          power_sums, qpoly)
from .rationals import (_primes_below, factorize, is_square,
                        rational_reconstruct, same_square_class,
                        squarefree_part)


# -- irreducibility over Q ----------------------------------------------------


def _model_scale(f: UniPoly) -> int:
    """The e of _integer_model: the lcm of the coefficient denominators."""
    return lcm(*[Fraction(c).denominator for c in f.coeffs])


def _integer_model(f: UniPoly) -> list[int]:
    """Monic integer polynomial defining the same field (X -> X/e)."""
    n = f.degree
    e = _model_scale(f)
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
    """a * b mod the monic f over F_p, reducing mod p once per
    coefficient."""
    n = len(f) - 1
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k] % p
        if c:
            for i in range(n):
                out[k - n + i] -= c * f[i]
    return _fp_trim([x % p for x in out[:n]])


def _fp_powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e mod f over F_p, left to right, so the multiplications are by
    the (short) base."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _fp_mulmod(result, result, f, p)
        if bit == "1":
            result = _fp_mulmod(result, base, f, p)
    return result


def _fp_xpow_mod(e: int, f: list[int], p: int) -> list[int]:
    return _fp_powmod([0, 1], e, f, p)


def _fp_divmod(a: list[int], b: list[int], p: int
               ) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by a nonzero trimmed b over F_p."""
    r = _fp_trim([x % p for x in a])
    inv = pow(b[-1], -1, p)
    d = len(b) - 1
    q = [0] * max(len(r) - d, 0)
    while r and len(r) - 1 >= d:
        k = len(r) - 1 - d
        c = (r[-1] * inv) % p
        q[k] = c
        for i in range(len(b)):
            r[k + i] = (r[k + i] - c * b[i]) % p
        _fp_trim(r)
    return q, r


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p ([] when a and b are both zero)."""
    a, b = _fp_trim([x % p for x in a]), _fp_trim([x % p for x in b])
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [(x * inv) % p for x in a]


def _fp_roots(h: list[int], p: int) -> list[int]:
    """Sorted roots over F_p, p odd, of a monic h that is a product of
    distinct linear factors.

    Deterministic equal-degree splitting: gcd(h, (X + a)^((p-1)/2) - 1)
    for a = 0, 1, ... separates the roots r with r + a a nonzero square.
    Two distinct roots r, s are separated by some a < p, since the values
    chi((r + a)(s + a)) sum to -1 over a."""
    if len(h) == 2:
        return [-h[0] % p]
    for a in range(p):
        w = _fp_powmod([a, 1], (p - 1) // 2, h, p) or [0]
        w[0] = (w[0] - 1) % p
        g = _fp_gcd(h, _fp_trim(w), p)
        if 1 < len(g) < len(h):
            rest = _fp_divmod(h, g, p)[0]
            return sorted(_fp_roots(g, p) + _fp_roots(rest, p))
    raise OctaqError(f"{h} is not a product of distinct linear factors"
                     f" mod {p}")


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
    if not deriv or len(_fp_gcd(cp, deriv, p)) > 1:
        return None
    frob = _fp_xpow_mod(p, cp, p)
    frob2 = _fp_compose_mod(frob, frob, cp, p)
    d1 = len(_fp_gcd(_sub_x(frob, p), cp, p)) - 1
    d2 = len(_fp_gcd(_sub_x(frob2, p), cp, p)) - 1
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


@functools.cache
def _split_primes() -> tuple[int, ...]:
    """The odd primes below 2^14, all tried before a split-prime search
    gives up: an S4 quartic splits completely at primes of density 1/24,
    so running out is a computational limit, never an answer.  Sieved on
    first use, which keeps the import cheap."""
    return _primes_below(1 << 14)[1:]


def _split_prime(c: list[int], disc: int, avoid: int = 1) -> int:
    """Smallest odd prime p dividing neither disc = disc(c) != 0 nor avoid
    at which the monic integer quartic c splits into distinct linear
    factors, i.e. X^p = X mod (c, p).  By Stickelberger's theorem disc is
    then a square mod p, which rules out half the primes cheaply."""
    for p in _split_primes():
        d = disc % p
        if (d and avoid % p and pow(d, (p - 1) // 2, p) == 1
                and _fp_xpow_mod(p, [x % p for x in c], p) == [0, 1]):
            return p
    raise SearchExhausted(
        f"no odd prime up to {_split_primes()[-1]} splits {c} into distinct"
        " linear factors")


def _eval_mod(c: list[int], x: int, m: int) -> int:
    acc = 0
    for coeff in reversed(c):
        acc = (acc * x + coeff) % m
    return acc


def _lift_roots(c: list[int], roots: list[int], p: int, j: int, k: int
                ) -> list[int]:
    """Newton lifting of simple roots of c from mod p^j to mod p^k."""
    dc = [i * c[i] for i in range(1, len(c))]
    out = []
    for r in roots:
        e = j
        while e < k:
            e = min(2 * e, k)
            m = p**e
            r = (r - _eval_mod(c, r, m) * pow(_eval_mod(dc, r, m), -1, m)) % m
        out.append(r)
    return out


def _cauchy_bound(c: list[int]) -> int:
    """Every complex root z of the monic c has |z| < 1 + max |c_i|."""
    return 1 + max(abs(x) for x in c[:-1])


def _p_adic_roots(c: list[int], p: int, k: int) -> list[int]:
    """The four roots mod p^k of c, which splits completely mod p."""
    return _lift_roots(c, _fp_roots([x % p for x in c], p), p, 1, k)


def _precision_for(p: int, bound: int) -> int:
    """Smallest k with p^k > bound."""
    k, m = 1, p
    while m <= bound:
        k, m = k + 1, m * p
    return k


def _from_roots(roots: list[int], m: int) -> list[int]:
    """Ascending coefficients of prod (Y - r) mod m."""
    h = [1]
    for r in roots:
        h = [(s - r * x) % m for s, x in zip([0] + h, h + [0])]
    return h


def _reducible_by_hensel(c: list[int]) -> bool:
    """Decide reducibility of the monic integer quartic c exactly.

    A repeated factor shows in a zero discriminant.  Otherwise, at a prime
    p where c splits into distinct linear factors, any monic integer
    factor of degree 1 or 2 is the product of the matching p-adic linear
    factors, with coefficients below (1 + R)^2 for the root bound R; so
    lifting the roots past twice that bound and trying the 4 single roots
    and the 3 pairs containing the first root (a 2 + 2 split or its
    complement) finds every factor by exact division."""
    disc = discriminant(qpoly(c))
    if disc == 0:
        return True
    p = _split_prime(c, disc.numerator)
    k = _precision_for(p, 2 * (1 + _cauchy_bound(c))**2)
    m = p**k
    roots = _p_adic_roots(c, p, k)
    f = qpoly(c)
    for subset in ((0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)):
        h = _from_roots([roots[i] for i in subset], m)
        if (f % qpoly([x - m if 2 * x > m else x for x in h])).is_zero():
            return True
    return False


def is_irreducible_quartic(f: UniPoly) -> bool:
    """Exact irreducibility over Q for a monic quartic.

    Small constant terms go through exhaustive divisor enumeration (which
    decides both ways); otherwise mod-p factorization patterns certify
    irreducibility fast and, when they do not, a Hensel-lifted factor
    search at a completely split prime decides both ways.
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
    return not _reducible_by_hensel(c)


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
    """The q-adic valuation of a nonzero rational x."""
    if x == 0:
        raise OctaqError("the valuation of 0 is infinite")
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


# the first p-adic modulus tried: the certificates of the table corpus and
# of the principal family reconstruct modulo 2^21, so one step usually
# suffices, and the denominator filter of _reconstruct_certificate lets
# fewer wrong matchings through at a larger modulus
_FIRST_MODULUS = 1 << 64


def same_field(f: UniPoly, g: UniPoly) -> Optional[FieldCertificate]:
    """Exactly verified certificate that f and g define the same quartic
    field, or None when they provably do not.

    Exact p-adic strategy, no floating point (Wang's modular rational
    reconstruction; Cohen, GTM 138, 3.5 and 4.5).  Reject on the
    discriminant square class.  Take the monic integer models F and G,
    with roots e_f beta and e_g gamma, and the smallest prime p not
    dividing e_f e_g disc(F) disc(G) at which F splits completely.  By
    Dedekind, p splits completely in the field of F, so G splits too when
    the fields agree; if it does not, they differ.  Otherwise lift the
    roots of F and G to p^k and, for each of the 24 matchings of roots,
    interpolate U with U(root of F) = matched root of G, reconstruct its
    rational coefficients modulo p^k and verify the candidate exactly,
    doubling k until p^k passes the height bound of _certificate_height.
    Past it, no certificate exists and None is a proof.
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
    ef, eg = _model_scale(f), _model_scale(g)
    big_f, big_g = _integer_model(f), _integer_model(g)
    # disc(F) = e^12 disc(f) for the substitution X -> X/e of a quartic
    disc_f = (df * ef**12).numerator
    disc_g = (dg * eg**12).numerator
    p = _split_prime(big_f, disc_f, ef * eg * disc_g)
    if _fp_xpow_mod(p, [x % p for x in big_g], p) != [0, 1]:
        return None
    height = _certificate_height(big_f, big_g)
    k = _precision_for(p, _FIRST_MODULUS)
    betas = _p_adic_roots(big_f, p, k)
    gammas = _p_adic_roots(big_g, p, k)
    while True:
        m = p**k
        basis = _interpolation_basis(betas, m)
        for perm in itertools.permutations(gammas):
            cert = _reconstruct_certificate(basis, perm, m, disc_f, ef, eg)
            if cert is not None and _verify_certificate(f, g, cert):
                return cert
        if m > 2 * height**2:
            return None
        k_next = min(2 * k, _precision_for(p, 2 * height**2))
        betas = _lift_roots(big_f, betas, p, k, k_next)
        gammas = _lift_roots(big_g, gammas, p, k, k_next)
        k = k_next


def _certificate_height(big_f: list[int], big_g: list[int]) -> int:
    """H bounding |r| and s of every coefficient r/s of U, where
    U(Y) = e_g u(Y / e_f) maps a root B of F to a root C of G.

    C is integral and i O_K lies in Z[B] for the index i of Z[B], so
    i U has integer coefficients and s <= i <= sqrt|disc F|.  By Lagrange
    interpolation over the complex roots, with R the Cauchy bound of F,
    |U_k| <= 4 R_G (1 + R)^3 max 1/|F'(B_i)|, and
    |F'(B_i)| >= |disc F| / (2R)^9 since the four |F'(B_j)| <= (2R)^3
    multiply to |disc F|.  Hence |r| = |U_k| s <= H and s <= (2R)^6 <= H
    for H = 4 R_G (1 + R)^3 (2R)^9.  Wang's reconstruction modulo
    M > 2 H^2 then recovers every coefficient uniquely."""
    r_f = _cauchy_bound(big_f)
    return 4 * _cauchy_bound(big_g) * (1 + r_f)**3 * (2 * r_f)**9


def _interpolation_basis(nodes: list[int], m: int) -> list[list[int]]:
    """Lagrange basis mod m: L_i(nodes[j]) = [i == j], for nodes whose
    differences are units mod m."""
    basis = []
    for i, x in enumerate(nodes):
        others = nodes[:i] + nodes[i + 1:]
        den = 1
        for y in others:
            den = den * (x - y) % m
        inv = pow(den, -1, m)
        basis.append([c * inv % m for c in _from_roots(others, m)])
    return basis


def _reconstruct_certificate(basis: list[list[int]], values, m: int,
                             disc_f: int, ef: int, eg: int
                             ) -> Optional[FieldCertificate]:
    """Rational u with U = sum values[i] basis[i] mod m, or None when a
    coefficient has no reconstruction or a denominator not dividing
    disc(F) (impossible for the true U, see _certificate_height)."""
    coeffs = []
    for t in range(4):
        residue = sum(v * b[t] for v, b in zip(values, basis)) % m
        x = rational_reconstruct(residue, m)
        if x is None or disc_f % x.denominator:
            return None
        coeffs.append(x * Fraction(ef)**t / eg)
    return FieldCertificate(q=coeffs[0], p=coeffs[1], n=coeffs[2],
                            m=coeffs[3])
