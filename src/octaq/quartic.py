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
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

from .errors import (DegenerateUnresolvable, NotPrimitive, NotPrincipal,
                     OctaqError, Reducible, SearchExhausted)
from .hilbert import BrauerClass, brauer_class, witt_invariant_diagonal
from .polynomials import (UniPoly, char_poly, discriminant, poly_gcd,
                          poly_str, power_sums, qpoly)
from .rationals import (_primes_below, _val_unit, factorize, is_square,
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


_CERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109)


def _irreducible_by_modp(c: list[int], disc: int) -> bool:
    """True when Frobenius data at primes p not dividing disc = disc(c)
    certify that the monic integer cubic or quartic c is irreducible;
    False when no prime of _CERT_PRIMES does, which proves nothing.

    Since c is squarefree mod p, its roots mod p, counted by evaluation,
    give the degree of its linear part gcd(c, X^p - X).  A cubic with no
    root mod p is irreducible.  A quartic with one root mod p has the
    pattern (1,3), so no quadratic factor.  A rootless quartic is
    irreducible mod p exactly when disc is a non-square mod p, since the
    number of irreducible factors mod p has the parity of the degree
    exactly when disc is a square mod p (Stickelberger; Swan, Pacific J.
    Math. 1962); otherwise its pattern (2,2) rules out linear factors
    only."""
    no_root = no_quad = False
    for p in _CERT_PRIMES:
        d = disc % p
        if not d:
            continue
        cp = [x % p for x in c]
        roots = sum(1 for x in range(p) if not _eval_mod(cp, x, p))
        if roots == 0:
            if len(c) == 4 or pow(d, (p - 1) // 2, p) != 1:
                return True
            no_root = True
        elif roots == 1:
            no_quad = True
        if no_root and no_quad:
            return True
    return False


@functools.cache
def _split_primes() -> tuple[int, ...]:
    """The odd primes below 2^14, all tried before a split-prime search
    gives up: an S4 quartic splits completely at primes of density 1/24,
    so running out is a computational limit, never an answer.  Sieved on
    first use, which keeps the import cheap."""
    return _primes_below(1 << 14)[1:]


def _split_prime(c: list[int], disc: int, avoid: int = 1) -> int:
    """Smallest odd prime p dividing neither disc = disc(c) != 0 nor avoid
    at which the monic integer cubic or quartic c splits into distinct linear
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
    """The roots mod p^k of c, which splits completely mod p."""
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


def _reducible_by_hensel(c: list[int], disc: int) -> bool:
    """Decide whether the monic integer cubic or quartic c with
    disc = disc(c) != 0 factors over Q.

    At a prime p where c splits into distinct linear factors, any monic
    integer factor of degree 1 or 2 is the product of the matching p-adic
    linear factors, with coefficients below (1 + R)^2 for the root bound R;
    so lifting the roots past twice that bound and trying the single roots
    and, for a quartic, the 3 pairs containing the first root (a 2 + 2
    split or its complement) finds every factor by exact division."""
    p = _split_prime(c, disc)
    k = _precision_for(p, 2 * (1 + _cauchy_bound(c))**2)
    m = p**k
    roots = _p_adic_roots(c, p, k)
    subsets = [(i,) for i in range(len(roots))]
    if len(roots) == 4:
        subsets += [(0, 1), (0, 2), (0, 3)]
    f = qpoly(c)
    for subset in subsets:
        h = _from_roots([roots[i] for i in subset], m)
        if (f % qpoly([x - m if 2 * x > m else x for x in h])).is_zero():
            return True
    return False


def _disc(c: list[int]) -> int:
    """Discriminant of the monic integer cubic or quartic c, closed form."""
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


def _irreducible(c: list[int]) -> bool:
    """Irreducibility over Q of the monic integer cubic or quartic c.

    A zero discriminant means a repeated factor.  Otherwise Frobenius data
    at small primes usually certify irreducibility, and the Hensel factor
    search decides the rest; no integer is factored."""
    disc = _disc(c)
    if disc == 0:
        return False
    return _irreducible_by_modp(c, disc) or not _reducible_by_hensel(c, disc)


def is_irreducible_quartic(f: UniPoly) -> bool:
    """Exact irreducibility over Q for a monic quartic (see _irreducible)."""
    if f.degree != 4 or f.lc != 1:
        raise ValueError("need a monic quartic")
    return _irreducible(_integer_model(f))


def cubic_has_rational_root(f: UniPoly) -> bool:
    """Exact test for a monic cubic: reducible means a linear factor."""
    if f.degree != 3 or f.lc != 1:
        raise ValueError("need a monic cubic")
    return not _irreducible(_integer_model(f))


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class ReducedQuartic:
    """X^4 + aX^2 + bX + c, irreducible over Q (hence separable).

    The S4 test and the trace form are computed on first use and kept, so
    every stage handed the same quartic shares one computation."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        p = self.poly()
        if not is_irreducible_quartic(p):
            raise Reducible(f"{poly_str(p)} factors over Q")

    def poly(self) -> UniPoly:
        return qpoly([self.c, self.b, self.a, 0, 1])

    @functools.cached_property
    def is_s4(self) -> bool:
        return galois_is_S4(self)

    @functools.cached_property
    def trace_data(self) -> TraceFormData:
        return trace_form(self)

    def disc(self) -> Fraction:
        a, b, c = self.a, self.b, self.c
        return (16 * a**4 * c - 4 * a**3 * b**2 - 128 * a**2 * c**2
                + 144 * a * b**2 * c - 27 * b**4 + 256 * c**3)

    def disc_class(self) -> int:
        return squarefree_part(self.disc())


class PrincipalQuartic(ReducedQuartic):
    """X^4 + bX + c: a ReducedQuartic with a = 0."""

    def __init__(self, b, c):
        super().__init__(Fraction(0), b, c)

    def reduced(self) -> ReducedQuartic:
        """The quartic itself, so its S4 test and trace form are shared."""
        return self


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
    discriminant class.  The shift preserves irreducibility, so
    ReducedQuartic's check decides it for f."""
    if f.degree != 4 or f.lc != 1:
        raise ValueError("need a monic quartic")
    a3 = Fraction(f[3])
    shifted = f.compose(qpoly([-a3 / 4, 1]))
    if shifted[3]:
        raise OctaqError(f"depressing {f!r} left a cubic term")
    try:
        return ReducedQuartic(shifted[2], shifted[1], shifted[0])
    except Reducible:
        raise Reducible(f"{poly_str(f)} factors over Q") from None


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
    the image does not generate the field, i.e. its characteristic
    polynomial is not irreducible (ReducedQuartic proves which)."""
    if not (m or n or p):
        raise ValueError("(m, n, p) must be nonzero")
    g = reduced_tschirnhaus_poly(f.poly(), Fraction(m), Fraction(n),
                                 Fraction(p))
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
        f"no non-degenerate model of {poly_str(f.poly())} after {max_tries}"
        " perturbations")


# -- principality ------------------------------------------------------------


def is_principal(f: ReducedQuartic) -> bool:
    """w = (-1, -d): the trace-zero form represents zero, so the field has
    a defining polynomial X^4 + bX + c.  This holds for every quartic
    field, S4 or not: it is the isotropy test for a non-degenerate ternary
    form (Serre, A Course in Arithmetic, IV.2.2, Thm 6), an isotropic form
    has infinitely many isotropic lines, and only finitely many lines
    consist of non-primitive elements."""
    tf = f.trace_data
    return tf.witt == brauer_class(-1, -tf.disc_class)


def _normalize_principal(b: Fraction, c: Fraction) -> tuple[PrincipalQuartic, Fraction]:
    """Scale by r (b -> b r^3, c -> c r^4) to integer coefficients with no
    removable (q^3, q^4) content at factorable primes (q^4 content of c
    alone when b = 0), then fix the sign of b positive.

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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


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


def principalize(f: ReducedQuartic, box: int = 50
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
    if not is_principal(f):
        raise NotPrincipal("Witt invariant differs from (-1, -d) for"
                           f" {poly_str(f.poly())}")
    g = f.trace_data.gram
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
            # a squarefree gp is the minimal polynomial of a generator of
            # the field, so irreducible; PrincipalQuartic checks it again
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
        if not is_irreducible_quartic(h):
            raise Reducible(f"{poly_str(h)} factors over Q")
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
