"""Quartic field analysis over Q.

A trace-zero primitive element of a quartic field K1/Q has a *reduced*
minimal polynomial X^4 + aX^2 + bX + c; passing between two generators is
a reduced Tschirnhaus transformation.  The field is *principal* when some
generator has a = 0 as well (polynomial X^4 + bX + c), which happens iff
the Witt invariant w of the trace form Tr(x^2) equals (-1, -d) for d the
discriminant class: the rank-3 trace form on the trace-zero space must
represent zero.

Two independent routes to w are implemented: diagonalizing the integer
Gram matrix of the trace-zero space, with Hilbert symbols read only at 2,
infinity and the primes of disc F for the integer model F (trace_form),
and the closed formula w = (2 a d, 2a^3 + 9b^2 - 8ac) x (-1, -d), valid
when a != 0 and d != 2a in Q*/Q*^2; they must always agree.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from typing import NamedTuple, Optional, Sequence

from .errors import (DegenerateUnresolvable, NotPrimitive, NotPrincipal,
                     Reducible, SearchExhausted, _excerpt)
from .hilbert import INF, BrauerClass, _support, _witt, brauer_class
from .polynomials import (QQ, UniPoly, _disc, _divmod_monic, _poly_mul,
                          poly_str, qpoly)
from .rationals import (_exact_div, _primes_below, _val_unit, factorize,
                        is_square, same_square_class, squarefree_part)


# -- irreducibility over Q ----------------------------------------------------


class _Model(NamedTuple):
    """F(X) = e^n f(X/e), the monic integer model of a monic cubic or
    quartic f over Q, its scale e and disc F = e^(n(n-1)) disc f.
    Immutable, so it is the key of the Frobenius-scan caches."""

    coeffs: tuple[int, ...]
    e: int
    disc: int


def _integer_model(f: UniPoly) -> _Model:
    """The _Model of f: e is the lcm of the denominators, num/den at X^i,
    i < n, becomes num (e/den) e^(n-i-1), and disc F is the closed form."""
    n = f.degree
    e = lcm(*[c.denominator for c in f.coeffs])
    big_f = (*[c.numerator * (e // c.denominator) * e ** (n - i - 1)
               for i, c in enumerate(f.coeffs[:n])], 1)
    return _Model(big_f, e, _disc(big_f))


# -- integer polynomial arithmetic on integer models --------------------------


def _scaled_numerators(coeffs, e: int) -> tuple[list[int], int]:
    """(U, L) with U integral and U(eY) = L sum coeffs[i] Y^i, L > 0 least:
    a polynomial in a root beta written as an integer polynomial in the
    root e beta of the integer model, times L."""
    scaled = [Fraction(x) / e**i for i, x in enumerate(coeffs)]
    big_l = lcm(*[x.denominator for x in scaled])
    return [x.numerator * (big_l // x.denominator) for x in scaled], big_l


def _tabulate(coeffs, start: int = 0):
    """The values c(start), c(start + 1), ... of the integer polynomial c
    with ascending coefficients coeffs, as an endless iterator of running
    sums (Knuth, TAOCP vol. 2, 4.6.4): the top forward difference of c is
    constant, and each lower difference is the running sum of the one
    above it, started at its value at start.

    Those starting values are k! a_k for the Newton form
    c(X) = sum a_k (X - start) ... (X - start - k + 1), whose a_k are the
    remainders of synthetic division by X - start, X - start - 1, ...;
    so the set-up costs about deg(c)^2 / 2 products and each value
    deg(c) additions, with no evaluation of c."""
    c = list(coeffs)
    diffs = []
    for k in range(len(c)):
        x = start + k
        for i in range(len(c) - 2, -1, -1):
            c[i] += x * c[i + 1]
        diffs.append(factorial(k) * c.pop(0))
    values = itertools.repeat(diffs.pop())
    for d in reversed(diffs):
        values = itertools.accumulate(values, initial=d)
    return values


def _roots_mod(values: list[int], p: int) -> list[int]:
    """The roots of c mod p, ascending, from the values c(0), c(1), ...,
    c(p - 1) (at least) of an integer polynomial c."""
    return [x for x in range(p) if not values[x] % p]


@functools.cache
def _split_primes() -> tuple[int, ...]:
    """The odd primes below 2^14, the prime list of every Frobenius scan
    (_frobenius): a cubic or quartic splits completely at primes of
    positive density, 1/24 for S4, so running out is a computational
    limit, never an answer.  A scan reads every residue of each prime it
    tries, so its cost grows like p, not log p; a full scan to the cap
    holds 2^14 integer values.  Sieved on first use, which keeps the
    import cheap."""
    return _primes_below(1 << 14)[1:]


def _frobenius(model: _Model, avoid: int = 1):
    """(p, disc mod p, values) for each odd prime p of _split_primes that
    divides neither disc = disc(c) != 0 nor avoid, values holding at least
    c(0), ..., c(p - 1) for the integer model c of a cubic or quartic, in
    one table extended by running sums (_tabulate); past the last prime,
    SearchExhausted names the cap.  As p does not divide disc, c is
    squarefree mod p: its roots mod p (_roots_mod) give the degree of
    gcd(c, X^p - X), and its number of irreducible factors has the parity
    of deg c exactly when disc is a square mod p (Stickelberger; Swan,
    Pacific J. Math. 1962)."""
    c, _, disc = model
    values: list[int] = []
    table = _tabulate(c)
    for p in _split_primes():
        d = disc % p
        if d and avoid % p:
            values.extend(itertools.islice(table, p - len(values)))
            yield p, d, values
    raise SearchExhausted(
        f"no odd prime up to {_split_primes()[-1]} splits {list(c)} into"
        " distinct linear factors")


@functools.lru_cache(maxsize=4096)
def _split_prime(model: _Model, avoid: int = 1
                 ) -> tuple[int, tuple[int, ...]]:
    """Smallest odd prime p dividing neither disc = disc(c) != 0 nor avoid
    at which the integer model c of a cubic or quartic splits into
    distinct linear factors, with the sorted roots of c mod p, from one
    Frobenius scan (_frobenius): disc is a square mod a split prime p
    (Stickelberger), which rules out half the primes unreduced.  Kept by
    the model and avoid in a cache bounded like rationals._factorize, so
    the least split prime of a model (avoid = 1) is searched once per
    process for every same_field call on it (its scans past one avoid go
    round the cache); SearchExhausted is not kept and names the cap."""
    for p, d, values in _frobenius(model, avoid):
        if pow(d, (p - 1) // 2, p) == 1:
            roots = _roots_mod(values, p)
            if len(roots) == len(model.coeffs) - 1:
                return p, tuple(roots)


def _eval_mod(c: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for coeff in reversed(c):
        acc = (acc * x + coeff) % m
    return acc


def _lift_roots(c: Sequence[int], roots: Sequence[int], p: int, k: int
                ) -> list[int]:
    """The roots mod p^k of the monic integer c, from all deg c of its
    roots mod p, which must be distinct mod p.

    Newton lifting with precision doubling that carries the inverse too:
    z = c'(r)^-1 mod p once per root, then z <- z (2 - c'(r) z) mod p^e,
    so no step inverts.  The last root is not lifted: the p-adic roots
    of c sum to -c[n - 1] and Hensel lifts are unique, so it is that sum
    less the others, mod p^k (Vieta)."""
    dc = [i * c[i] for i in range(1, len(c))]
    moduli, e, m = [], 1, p**k
    while e < k:
        e = min(2 * e, k)
        moduli.append(p**e)
    out = []
    for r in roots[:-1]:
        z = pow(_eval_mod(dc, r, p), -1, p)
        for mod in moduli:
            r = (r - _eval_mod(c, r, mod) * z) % mod
            if mod < m:
                z = z * (2 - _eval_mod(dc, r, mod) * z) % mod
        out.append(r)
    return out + [(-c[-2] - sum(out)) % m]


def _cauchy_bound(c: Sequence[int]) -> int:
    """Every complex root z of the monic c has |z| < 1 + max |c_i|."""
    return 1 + max(abs(x) for x in c[:-1])


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


def _has_factor(c: Sequence[int], p: int, roots: list[int]) -> bool:
    """Whether the monic integer cubic or quartic c has a monic integer
    factor of degree 1 or 2, from its deg c roots mod a prime p not
    dividing disc(c).  Such a factor is the product of the matching p-adic
    linear factors, with coefficients below (1 + R)^2 for the root bound
    R; so lifting the roots past twice that bound and trying the single
    roots and, for a quartic, the 3 pairs containing the first root (a
    2 + 2 split or its complement) finds every factor by exact division."""
    k = _precision_for(p, 2 * (1 + _cauchy_bound(c))**2)
    m = p**k
    roots = _lift_roots(c, roots, p, k)
    subsets = [(i,) for i in range(len(roots))]
    if len(roots) == 4:
        subsets += [(0, 1), (0, 2), (0, 3)]
    for subset in subsets:
        h = [x - m if 2 * x > m else x
             for x in _from_roots([roots[i] for i in subset], m)]
        if not any(_divmod_monic(c, h)[1]):
            return True
    return False


@functools.lru_cache(maxsize=4096)
def _irreducible(model: _Model) -> bool:
    """Irreducibility over Q of a cubic or quartic, on its integer model c,
    decided at one prime of a Frobenius scan (_frobenius); no integer is
    factored.  Kept by the model in a cache bounded like
    rationals._factorize, so it is proved once per process for each model
    and shared by every ReducedQuartic and same_field call on it.

    A zero disc means a repeated factor.  The certificate is the first
    prime p at which a cubic has no root, or a quartic no root and disc a
    non-square (the pattern [4], by Stickelberger).  If c splits
    completely at p first, the Hensel factor search (_has_factor) decides
    at p, as it does for every reducible c and for A4 and V4 quartics."""
    c, _, disc = model
    if disc == 0:
        return False
    for p, d, values in _frobenius(model):
        roots = _roots_mod(values, p)
        if len(roots) == len(c) - 1:
            return not _has_factor(c, p, roots)
        if not roots and (len(c) == 4 or pow(d, (p - 1) // 2, p) != 1):
            return True


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class ReducedQuartic:
    """X^4 + aX^2 + bX + c, irreducible over Q (hence separable).

    The integer model is built at construction and proves irreducibility;
    the discriminant class, the S4 test and the trace form are computed on
    first use.  All are kept, so every stage shares one computation."""

    a: Fraction
    b: Fraction
    c: Fraction
    _model: _Model = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        p = self.poly()
        object.__setattr__(self, "_model", _integer_model(p))
        if not _irreducible(self._model):
            raise Reducible(f"{_excerpt(poly_str(p), str)} factors over Q")

    def poly(self) -> UniPoly:
        return qpoly([self.c, self.b, self.a, 0, 1])

    @functools.cached_property
    def is_s4(self) -> bool:
        return galois_is_S4(self)

    @functools.cached_property
    def trace_data(self) -> TraceFormData:
        return trace_form(self)

    def disc(self) -> Fraction:
        return Fraction(self._model.disc, self._model.e**12)

    @functools.cached_property
    def _disc_class(self) -> int:
        return squarefree_part(self._model.disc)

    def disc_class(self) -> int:
        return self._disc_class


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
    """Tr(x^2) on the trace-zero space, basis z_i = beta^i - Tr(beta^i)/4
    for a root beta of f.  gram is the integer H = (2 e^3)^2 Tr(z_i z_j) =
    e^(6-i-j) (4 P_(i+j) - P_i P_j), P_k the power sums of the roots e beta
    of the integer model F; diagonal is integral and congruent to H."""

    gram: tuple
    diagonal: tuple
    disc_class: int
    witt: BrauerClass


# -- depression and Tschirnhaus ----------------------------------------------


def depress(f: UniPoly) -> ReducedQuartic:
    """f(X + h) for h = -a3/4, which kills the cubic term; same field and
    discriminant class.  The shift preserves irreducibility, so
    ReducedQuartic's check decides it for f."""
    if f.degree != 4 or f.lc != 1:
        raise ValueError("need a monic quartic")
    a0, a1, a2, a3 = (Fraction(x) for x in f.coeffs[:4])
    h = -a3 / 4
    # Taylor coefficients of f at h; the X^3 one, 4h + a3, is 0
    c2 = (6 * h + 3 * a3) * h + a2
    c1 = ((4 * h + 3 * a3) * h + 2 * a2) * h + a1
    c0 = (((h + a3) * h + a2) * h + a1) * h + a0
    try:
        return ReducedQuartic(c2, c1, c0)
    except Reducible:
        quoted = _excerpt(poly_str(f), str)
        raise Reducible(f"{quoted} factors over Q") from None


def reduced_tschirnhaus_poly(f: UniPoly, m, n, p) -> UniPoly:
    """Minimal-polynomial candidate of gamma = m beta^3 + n beta^2 + p beta + q
    for a root beta of the reduced quartic f, with q chosen so that gamma
    has trace zero: q = (3bm + 2an)/4.  Equals the resultant
    Res_Y(f(Y), X - (mY^3 + nY^2 + pY + q)).

    One route over every coefficient ring, Q, Q[s] and Q(sqrt(t)):
    Newton's identities (_newton_image) in F; over Q, tschirnhaus and
    _principal_image run them on the integer model (_rational_image)."""
    F = f.field
    if f.degree != 4 or f.lc != F.one or f[3]:
        raise ValueError("need a monic reduced quartic")
    m, n, p = (F.embed(x) if isinstance(x, (int, Fraction)) else x
               for x in (m, n, p))
    q = (3 * f[1] * m + 2 * f[2] * n) / 4
    # dividing by F.embed(k) keeps even the image of u = 0 in F
    e2, e3, e4 = _newton_image(f[0], f[1], f[2], (q, p, n, m),
                               lambda x, k: x / F.embed(k))
    return UniPoly(F, (e4, -e3, e2, F.zero, F.one))


def _rational_image(model: _Model, m, n, p) -> UniPoly:
    """reduced_tschirnhaus_poly over Q, in integers: y = e beta is a root
    of the integer model Y^4 + AY^2 + BY + C of f (a = A/e^2, b = B/e^3)
    and L gamma = U(y) for an integer polynomial U (_scaled_numerators),
    so the image of U on the model is integral, and dividing its roots by
    L gives X^4 + (E2/L^2) X^2 - (E3/L^3) X + E4/L^4."""
    (c0, c1, c2, _, _), e, _ = model
    q = (3 * Fraction(c1, e**3) * m + 2 * Fraction(c2, e**2) * n) / 4
    u, big_l = _scaled_numerators((q, p, n, m), e)
    e2, e3, e4 = _newton_image(c0, c1, c2, u, _exact_div)
    return UniPoly(QQ, (Fraction(e4, big_l**4), Fraction(-e3, big_l**3),
                        Fraction(e2, big_l**2), QQ.zero, QQ.one))


def _power_sums(c0, c1, c2, count: int) -> list:
    """P_0, ..., P_(count-1), P_k the sum of the k-th powers of the roots of
    Y^4 + c2 Y^2 + c1 Y + c0, over any coefficient ring: 4, 0, -2 c2, -3 c1
    (Newton's identities), then P_k = -c2 P_(k-2) - c1 P_(k-3) - c0 P_(k-4),
    as every root r has r^4 = -c2 r^2 - c1 r - c0."""
    ps = [4, 0, -2 * c2, -3 * c1]
    for k in range(4, count):
        ps.append(-c2 * ps[k - 2] - c1 * ps[k - 3] - c0 * ps[k - 4])
    return ps[:count]


def _newton_image(c0, c1, c2, u, div) -> tuple:
    """(E2, E3, E4) with X^4 + E2 X^2 - E3 X + E4 the characteristic
    polynomial of multiplication by u(Y) = u[0] + u[1] Y + u[2] Y^2 +
    u[3] Y^3 on R[Y]/(Y^4 + c2 Y^2 + c1 Y + c0), where div(x, k) divides
    exactly by k = 2, 3, 4 in the coefficient ring R (Newton's identities;
    Cohen, GTM 138, 4.3).

    The traces of 1, Y, Y^2, Y^3 are the power sums 4, 0, -2 c2, -3 c1 of
    the roots (_power_sums), so S_k = Tr(u^k) is the dot product of u^k mod the quartic
    with them.  With S_1 = 0, E2 = -S2/2, E3 = S3/3 and
    E4 = (-E2 S2 - S4)/4.  Over Z each division is exact, since the
    multiplication matrix is integral and so is its characteristic
    polynomial; over a field of characteristic 0 every division is."""
    ps = _power_sums(c0, c1, c2, 4)
    sums = []
    power = u
    for _ in range(3):
        power = _poly_mul(power, u)
        for k in range(len(power) - 1, 3, -1):
            top = power.pop()
            if top:
                power[k - 4] -= top * c0
                power[k - 3] -= top * c1
                power[k - 2] -= top * c2
        sums.append(sum(x * y for x, y in zip(power, ps) if y))
    s2, s3, s4 = sums
    e2 = div(-s2, 2)
    return e2, div(s3, 3), div(-e2 * s2 - s4, 4)


def tschirnhaus(f: ReducedQuartic, m, n, p) -> ReducedQuartic:
    """Reduced Tschirnhaus transformation over Q; raises NotPrimitive when
    the image does not generate the field, i.e. its characteristic
    polynomial is not irreducible (ReducedQuartic proves which)."""
    if not (m or n or p):
        raise ValueError("(m, n, p) must be nonzero")
    g = _rational_image(f._model, Fraction(m), Fraction(n), Fraction(p))
    try:
        return ReducedQuartic(g[2], g[1], g[0])
    except Reducible as exc:
        raise NotPrimitive(str(exc)) from exc


def resolvent_cubic(f: ReducedQuartic) -> UniPoly:
    """X^3 - aX^2 - 4cX + (4ac - b^2) for X^4 + aX^2 + bX + c."""
    a, b, c = f.a, f.b, f.c
    return qpoly([4 * a * c - b * b, -4 * c, -a, 1])


def galois_is_S4(f: ReducedQuartic) -> bool:
    """Irreducible resolvent cubic (a reducible cubic has a rational root)
    and non-square disc F = e^12 disc f; the resolvent of the integer model
    F = X^4 + AX^2 + BX + C has roots e^2 times those of f's and disc F."""
    (c, b, a, _, _), e, disc = f._model
    cubic = _Model((4 * a * c - b * b, -4 * c, -a, 1), e * e, disc)
    return _irreducible(cubic) and not is_square(disc)


# -- trace form ---------------------------------------------------------------


def _pairing(gram, u, v) -> int:
    return sum(u[i] * gram[i][j] * v[j] for i in range(3) for j in range(3))


def _orthogonal_basis(gram) -> list[list[int]]:
    """Pairwise orthogonal integer vectors with nonzero values for a
    nondegenerate integer Gram, by fraction-free Lagrange reduction."""
    vecs, basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]], []
    while vecs:
        w = next((v for v in vecs if _pairing(gram, v, v)), None)
        if w is None:  # nondegenerate: B(u + v, u + v) = 2 B(u, v) != 0
            u, v = next((u, v) for u, v in itertools.combinations(vecs, 2)
                        if _pairing(gram, u, v))
            vecs[vecs.index(u)] = w = [x + y for x, y in zip(u, v)]
        vecs.remove(w)
        basis.append(w)
        a = _pairing(gram, w, w)
        for i, v in enumerate(vecs):  # a v - B(w, v) w is orthogonal to w
            b = _pairing(gram, w, v)
            v = [a * x - b * y for x, y in zip(v, w)]
            g = gcd(*v)
            vecs[i] = [x // g for x in v]
    return basis


def trace_form(f: ReducedQuartic) -> TraceFormData:
    """TraceFormData of f, in integers from the integer model F.

    Two checks raise explicitly: the basis of the diagonal is pairwise
    orthogonal with nonzero values, and det H = 16 e^6 disc F, as
    <4> + H / (4 e^6) is Tr(x^2) on 1, z_1, z_2, z_3.  Hilbert symbols are
    read at 2, INF and the primes of disc F only: by diag(e^2, e, 1), H is
    congruent to 4 Tr(x^2) on z_i(e beta), which at an odd p not dividing
    disc F is the complement of <4> in the unimodular trace form of
    Z_p[X]/(F), so unimodular and unramified at p (Serre, "L'invariant de
    Witt de la forme Tr(x^2)", 1984)."""
    big_f, e, disc = f._model
    ps = _power_sums(*big_f[:3], 7)
    gram = tuple(tuple(e**(6 - i - j) * (4 * ps[i + j] - ps[i] * ps[j])
                       for j in range(1, 4)) for i in range(1, 4))
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram
    if (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
            + g02 * (g01 * g12 - g11 * g02)) != 16 * e**6 * disc:
        raise AssertionError("trace-form determinant is not 16 e^6 disc F")
    basis = _orthogonal_basis(gram)
    diag = tuple(_pairing(gram, w, w) for w in basis)
    if not all(diag) or any(_pairing(gram, u, v)
                            for u, v in itertools.combinations(basis, 2)):
        raise AssertionError("trace-form basis is not orthogonal")
    # the primes of disc F were proved by its factorization, so the places
    # are not proved again
    witt = _witt(diag, {2, INF} | _support(disc))
    return TraceFormData(gram, diag, f.disc_class(), witt)


# Tschirnhaus dodges witt_formula makes before it gives up
WITT_DODGES = 20


def witt_formula(f: ReducedQuartic) -> BrauerClass:
    """Witt invariant by the closed formula
    w = (2 a d, 2a^3 + 9b^2 - 8ac) x (-1, -d),
    after a small Tschirnhaus dodge when a = 0 or d = 2a in Q*/Q*^2, at
    most WITT_DODGES of them (DegenerateUnresolvable after that)."""
    # Fraction hashes are PYTHONHASHSEED-independent, so the dodge sequence
    # (and hence the report bytes) is reproducible across runs
    rng = random.Random(hash((f.a, f.b, f.c, 0x77D6)))
    cur = f
    for _ in range(WITT_DODGES):
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
        f"no non-degenerate model of {_excerpt(poly_str(f.poly()), str)}"
        f" after WITT_DODGES = {WITT_DODGES} Tschirnhaus dodges")


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

    Only the primes that can move r are factored: those of the
    denominators, and those of g = gcd(num b, num c) (num c alone when
    b = 0), since taking q out needs v_q(b) >= 3 and v_q(c) >= 4.
    Denominators must factor completely (integrality is exact); content
    hidden in an unfactored cofactor of g merely stays in place, which
    only affects canonicality, never correctness.
    """
    den = lcm(b.denominator, c.denominator)
    primes: set[int] = set()
    if den != 1:
        den_fac = factorize(den)
        if not den_fac.complete:
            raise SearchExhausted(
                f"cannot factor denominator {den} during normalization")
        primes.update(den_fac.factors)
    g = gcd(b.numerator, c.numerator)
    if g > 1:
        primes.update(factorize(g).factors)
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


def _principal_image(f: ReducedQuartic, m, n, p
                     ) -> Optional[tuple[PrincipalQuartic, Fraction]]:
    """The normalized image X^4 + bX + c of f under the reduced Tschirnhaus
    transformation (m, n, p) of an isotropic vector, with its scale r
    (_normalize_principal); None when its discriminant 256 c^3 - 27 b^4 is
    0.  A squarefree image is the minimal polynomial of a generator of the
    field, so irreducible; PrincipalQuartic checks it again."""
    c, b, a, _, _ = _rational_image(f._model, m, n, p).coeffs
    if a != 0:
        raise AssertionError("isotropic vector gave nonzero X^2 term")
    if 256 * c**3 == 27 * b**4:
        return None
    return _normalize_principal(b, c)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@functools.cache
def _square_tables() -> tuple[bytes, ...]:
    """For M = 64, 63, 65 and 11, the table of squares mod M: entry r is 1
    when r is a square mod M.  A square passes all four, a random
    residue with probability 6/715 (Cohen, GTM 138, Algorithm 1.7.3).
    Built on first use, which keeps the import cheap."""
    tables = []
    for m in (64, 63, 65, 11):
        table = bytearray(m)
        for x in range(m // 2 + 1):
            table[x * x % m] = 1
        tables.append(bytes(table))
    return tuple(tables)


def _square_hits(values, count: int) -> list[tuple[int, int]]:
    """(i, isqrt(v)) for the perfect squares v among the first count
    values: the residue tables screen every value, mod 64 by a C-level
    pass over the table, and isqrt runs only on the survivors."""
    vals = list(itertools.islice(values, count))
    q64, q63, q65, q11 = _square_tables()
    hits = []
    for i in itertools.compress(range(count),
                                map(q64.__getitem__, map((63).__and__, vals))):
        v = vals[i]
        if v >= 0 and q63[v % 63] and q65[v % 65] and q11[v % 11]:
            r = isqrt(v)
            if r * r == v:
                hits.append((i, r))
    return hits


def _isotropic_vectors(gram, box: int):
    """Nonzero isotropic (m, n, p) of the integer trace-zero Gram in the
    variables (z1, z2, z3) = (beta, beta^2 - .., beta^3 - ..), integer
    (m, n) ordered by max(|m|, |n|), then lexicographically: p solves
    G00 p^2 + 2hp + k = 0 in integers h = G01 n + G02 m,
    k = G11 n^2 + 2 G12 mn + G22 m^2.

    G00 = -8 a e^6 for the model's scale e, so G00 = 0 only for a = 0,
    where f is already X^4 + bX + c: then beta itself, (0, 0, 1), is
    isotropic, and principalize always accepts it, as an irreducible f
    is its own squarefree image.  It is the only vector yielded.

    When G00 != 0, p is rational exactly when the binary form
    Q(m, n) = h^2 - G00 k = A n^2 + B mn + C m^2, with A = G01^2 - G00 G11,
    B = 2(G01 G02 - G00 G12) and C = G02^2 - G00 G22, is a square.  Q is
    even, so the hits of shell N are those of its left edge (m = -N) and
    lower band (n = -N, |m| < N) and their negatives, and sorting them
    gives the shell's lexicographic order.  Along each of the two lines Q
    is a quadratic in one variable, tabulated by running sums
    (_tabulate) and screened for squares by residues (_square_hits)."""
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram
    if g00 == 0:
        yield 0, 0, Fraction(1)
        return
    a = g01 * g01 - g00 * g11
    b = 2 * (g01 * g02 - g00 * g12)
    c = g02 * g02 - g00 * g22
    for norm in range(1, box + 1):
        edge = _square_hits(_tabulate((c * norm * norm, -b * norm, a), -norm),
                            2 * norm + 1)
        band = _square_hits(_tabulate((a * norm * norm, -b * norm, c),
                                      1 - norm), 2 * norm - 1)
        hits = ([(-norm, i - norm, r) for i, r in edge]
                + [(i + 1 - norm, -norm, r) for i, r in band])
        hits += [(-m, -n, r) for m, n, r in hits]
        for m, n, r in sorted(hits):
            h = g01 * n + g02 * m
            for root in ((r, -r) if r else (0,)):
                yield m, n, Fraction(root - h, g00)


def principalize(f: ReducedQuartic, box: int = 50
                 ) -> tuple[PrincipalQuartic, FieldCertificate]:
    """Find a trace-zero gamma = m beta^3 + n beta^2 + p beta + q with
    Tr(gamma^2) = 0 as well; the output is the normalized minimal
    polynomial X^4 + bX + c of gamma plus the certificate.

    Search: integer (m, n) with max coordinate <= box and rational p of
    any height, solving the isotropy condition as a quadratic in p in
    integers (_isotropic_vectors): its discriminant, a binary quadratic
    form in (m, n), is tabulated along lines by running sums and screened
    for squares by residues, so isqrt runs only on likely squares and
    only square hits build Fractions.  The criterion itself is exact;
    exhausting the box raises SearchExhausted rather than returning a
    wrong answer.
    """
    if not is_principal(f):
        raise NotPrincipal("Witt invariant differs from (-1, -d) for"
                           f" {_excerpt(poly_str(f.poly()), str)}")
    for m, n, pf in _isotropic_vectors(f.trace_data.gram, box):
        image = _principal_image(f, m, n, pf)
        if image is not None:
            out, r = image
            q = (3 * f.b * m + 2 * f.a * n) / 4
            return out, FieldCertificate(m=m * r, n=n * r, p=pf * r, q=q * r)
    raise SearchExhausted(
        f"no isotropic vector with (m, n) coordinates <= {box}")


# -- exact field-equality certification ---------------------------------------


def _certificate_holds(mf: _Model, mg: _Model, cert: FieldCertificate
                       ) -> bool:
    """g(m Y^3 + n Y^2 + p Y + q) = 0 mod f(Y), checked in Z[Y] on the
    integer models F(Y) = e_f^4 f(Y/e_f) and G, with scales e_f and e_g.

    With V = L u(Y/e_f) integral (_scaled_numerators), the substitution
    Y -> Y/e_f turns g(u(Y)) into G(e_g V/L) / e_g^4, and f into F / e_f^4.
    So g(u) = 0 mod f in Q[Y] exactly when
    H = sum G_i (e_g V)^i L^(4-i) = 0 mod F; as F is monic, H mod F is
    computed by Horner in Z[Y], with no Fraction arithmetic."""
    (big_f, ef, _), (big_g, eg, _) = mf, mg
    v, big_l = _scaled_numerators((cert.q, cert.p, cert.n, cert.m), ef)
    w = [eg * x for x in v]
    deg = len(big_g) - 1
    acc = [big_g[deg]]
    for i in range(deg - 1, -1, -1):
        acc = _divmod_monic(_poly_mul(acc, w), big_f)[1]
        acc[0] += big_g[i] * big_l ** (deg - i)
    return not any(acc)


# the floor of the p-adic modulus M: any M > 2H proves the answer, and the
# floor only makes a wrong matching rarely pass the height test, where each
# of its coefficients passes with probability about 2H/M, so that few wrong
# candidates reach the exact check
_MODULUS_FLOOR = 1 << 64


def same_field(f: UniPoly, g: UniPoly) -> Optional[FieldCertificate]:
    """Exactly verified certificate that f and g define the same quartic
    field, or None when they provably do not.

    Exact p-adic strategy, no floating point.  Take the monic integer
    models F and G, with roots e_f beta and e_g gamma; the substitution
    X -> X/e multiplies the discriminant of a quartic by e^12, so reject
    when disc(F) and disc(G) (closed form) differ in square class.  Take
    the smallest prime p not dividing disc(F) disc(G) at which F splits
    completely, with the roots of F mod p (_split_prime).  No prime of e_f
    is such a p: the coefficients of F below X^3 carry e_f, so 0 is a
    double root of F mod it; so for G.  That p is the least split prime
    of F, kept by the model F and so found once per process for every
    call on F, unless it divides disc(G); only then is F scanned again,
    past those primes, uncached, as that search is this pair's alone.  By
    Dedekind, p splits completely in the field of F, so G splits too when
    the fields agree; evaluating G at the residues shows whether it has
    its 4 roots mod p, and if it does not, the fields differ.

    Otherwise lift the 4 roots of F and of G mod p, distinct as p divides
    neither discriminant, once, to a modulus M = p^k above 2H for the
    height H of _certificate_height; Newton steps carry the inverse of
    the derivative, and the last root is free by Vieta.  For each of the
    24 matchings of roots, interpolate U with U(root of F) = matched root
    of G, in the basis from F(Y) / (Y - r_i) with one inversion, and read
    the coefficients of D U, D = |disc F|, as symmetric residues mod M: a
    residue above H rejects the matching, and the others give a candidate
    that is verified exactly.

    None is a proof.  If the fields agree, gamma = u(beta) for some u in
    Q[X], and U(Y) = e_g u(Y / e_f) maps the roots of F to those of G in
    every embedding of the Galois closure, so in Q_p, where p splits
    completely.  The matching it induces on the p-adic roots interpolates
    U mod M (p divides no denominator of U, which divides disc F), and
    D U is integral with coefficients at most H in absolute value, so
    each residue is the coefficient itself: that matching passes the
    test and its candidate u holds.
    """
    models = []
    for h in (f, g):
        if h.degree != 4 or h.lc != 1:
            raise ValueError("need monic quartics")
        models.append(_integer_model(h))
        if not _irreducible(models[-1]):
            raise Reducible(f"{_excerpt(poly_str(h), str)} factors over Q")
    mf, mg = models
    if not same_square_class(mf.disc, mg.disc):
        return None
    p, f_roots = _split_prime(mf)
    if not mg.disc % p:
        p, f_roots = _split_prime.__wrapped__(mf, mg.disc)
    big_f, big_g = mf.coeffs, mg.coeffs
    g_roots = _roots_mod(
        list(itertools.islice(_tabulate([x % p for x in big_g]), p)), p)
    if len(g_roots) < 4:
        return None
    height = _certificate_height(big_f, big_g)
    k = _precision_for(p, max(2 * height, _MODULUS_FLOOR))
    m, scale = p**k, abs(mf.disc)
    basis = _interpolation_basis(_lift_roots(big_f, f_roots, p, k), m, big_f)
    for perm in itertools.permutations(_lift_roots(big_g, g_roots, p, k)):
        coeffs = []
        for t in range(4):
            x = scale * sum(v * b[t] for v, b in zip(perm, basis)) % m
            x = x - m if 2 * x > m else x
            if abs(x) > height:
                break
            coeffs.append(Fraction(x * mf.e**t, scale * mg.e))
        else:
            cert = FieldCertificate(q=coeffs[0], p=coeffs[1], n=coeffs[2],
                                    m=coeffs[3])
            if _certificate_holds(mf, mg, cert):
                return cert
    return None


def _certificate_height(big_f: Sequence[int], big_g: Sequence[int]) -> int:
    """H bounding |disc F| |U_k| for every coefficient U_k of U, where
    U(Y) = e_g u(Y / e_f) maps a root B of F to a root C of G; |disc F| U
    is integral.

    C is integral and i O_K lies in Z[B] for the index i of Z[B], so
    i U has integer coefficients, and i divides i^2, which divides
    disc F.  By Lagrange interpolation over the complex roots, with R the
    Cauchy bound of F, |U_k| <= 4 R_G (1 + R)^3 max 1/|F'(B_i)|, and
    |F'(B_i)| >= |disc F| / (2R)^9 since the four |F'(B_j)| <= (2R)^3
    multiply to |disc F|.  Hence |disc F| |U_k| <= H for
    H = 4 R_G (1 + R)^3 (2R)^9."""
    r_f = _cauchy_bound(big_f)
    return 4 * _cauchy_bound(big_g) * (1 + r_f)**3 * (2 * r_f)**9


def _interpolation_basis(nodes: list[int], m: int, c: Sequence[int]
                         ) -> list[list[int]]:
    """Lagrange basis mod m, L_i(nodes[j]) = [i == j], at the deg c roots
    mod m of the monic c, whose differences are units mod m.

    L_i = q_i / q_i(r_i) for q_i = c(Y) / (Y - r_i) by synthetic division,
    exact as c(r_i) = 0 mod m; c is the product of the Y - r_j mod m, so
    q_i is that of the Y - r_j, j != i, and q_i(r_i) = c'(r_i).  The deg c
    values are inverted with one pow and prefix products (Montgomery)."""
    quotients, dens, prefix = [], [], [1]
    for r in nodes:
        q, den = [1], 1
        for coeff in c[-2:0:-1]:
            q.append((coeff + r * q[-1]) % m)
            den = (den * r + q[-1]) % m
        quotients.append(q[::-1])
        dens.append(den)
        prefix.append(prefix[-1] * den % m)
    inv = pow(prefix.pop(), -1, m)
    basis = []
    for q, den, before in zip(quotients[::-1], dens[::-1], prefix[::-1]):
        inv_i = inv * before % m
        inv = inv * den % m
        basis.append([x * inv_i % m for x in q])
    return basis[::-1]
