"""A sampled Galois-side consistency check of the curve-to-quartic link:
Frobenius on C_t[3] against the cycle type of the row's source quartic
mod p.  It samples split primes below 200 and proves nothing; every
identity it touches is proved by algebra elsewhere.

For a corpus row with principal model X^4 + bX + c and t =
t_from_principal, the projective mod-3 representation of C_t over
Q(sqrt(t)) cuts out the row's S4 field.  At a prime p split in Q(sqrt(t))
and of good reduction, the trace a of Frobenius at a prime s of Q(sqrt(t))
above p and its determinant p fix the class of Frobenius in PGL2(F3) = S4
up to identity versus 3-cycle:

    a mod 3   p mod 3   cycle types
    0         1         [2,2]
    0         2         [2,1,1]
    +-1       1         [1,1,1,1] or [3,1]
    +-1       2         [4]

The cycle type of the source quartic mod p comes from its number of roots
mod p, and with none from the Legendre symbol of its discriminant, which
separates the even [2,2] from the odd [4] (Stickelberger).

The same sampled check runs at random t, with the cycle type read from
the principal quartic g_t, which defines the field cut out by C_t[3].
"""

from fractions import Fraction
from math import isqrt

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octaq.polynomials import QQ, discriminant
from octaq.qcurve import (curve_from_t, principal_quartic_poly,
                          t_from_principal)
from octaq.quartic import PrincipalQuartic
from octaq.rationals import is_square
from octaq.tables import load_bundled_corpus

CORPUS = load_bundled_corpus()

ALLOWED = {(True, 1): {(2, 2)}, (True, 2): {(2, 1, 1)},
           (False, 1): {(1, 1, 1, 1), (3, 1)}, (False, 2): {(4,)}}


def _mod(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


def _value(coeffs, x: int, p: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % p
    return out


def _cycle_type(coeffs, disc: int, p: int, chi: list) -> tuple:
    roots = sum(1 for x in range(p) if _value(coeffs, x, p) == 0)
    if roots == 0:
        return (2, 2) if chi[disc % p] == 1 else (4,)
    return {4: (1, 1, 1, 1), 2: (2, 1, 1), 1: (3, 1)}[roots]


def _split_prime_checks(t: Fraction, source, primes) -> list:
    """(p, s, a, cycle type) at each split prime p of good reduction and
    root s of s^2 = t, the cycle type that of the quartic source mod p."""
    disc = discriminant(source)
    bad = (6 * t.numerator * t.denominator * (t.numerator - t.denominator)
           * disc.numerator)
    A, B = curve_from_t(t).model
    out = []
    for p in primes:
        if bad % p == 0:
            continue
        chi = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1
                     for x in range(1, p)]
        tp = _mod(t, p)
        if chi[tp] != 1:
            continue
        coeffs = [_mod(c, p) for c in source.coeffs]
        cycle = _cycle_type(coeffs, _mod(disc, p), p, chi)
        for s in (x for x in range(p) if (x * x - tp) % p == 0):
            a4, b6 = ((_mod(z.u, p) + _mod(z.v, p) * s) % p for z in (A, B))
            if (4 * a4**3 + 27 * b6**2) % p == 0:
                continue
            a = -sum(chi[(x**3 + a4 * x + b6) % p] for x in range(p))
            out.append((p, s, a, cycle))
    return out


def _primes(lo: int, hi: int) -> list:
    return [p for p in range(lo, hi)
            if all(p % q for q in range(2, isqrt(p) + 1))]


def _mismatches(checks) -> tuple[list, set]:
    """The checks whose cycle type Frobenius does not allow, and the
    (a = 0 mod 3, p mod 3) classes seen."""
    seen, bad = set(), []
    for p, s, a, cycle in checks:
        key = (a % 3 == 0, p % 3)
        seen.add(key)
        if cycle not in ALLOWED[key]:
            bad.append((p, s, a, cycle))
    return bad, seen


def test_frobenius_at_split_primes_matches_source_cycle_types():
    primes = _primes(5, 200)
    seen, mismatches, count = set(), [], 0
    for row in CORPUS:
        t = t_from_principal(PrincipalQuartic(row.principal_b,
                                              row.principal_c))
        checks = _split_prime_checks(t, row.source_poly(), primes)
        bad, row_seen = _mismatches(checks)
        seen |= row_seen
        count += len(checks)
        mismatches += [(row.line, *check) for check in bad]
    assert not mismatches, mismatches[:5]
    # every row of the table is sampled, thousands of times in all
    assert len(CORPUS) == 85 and count > 3000 and seen == set(ALLOWED)


@settings(max_examples=60, deadline=None)
@given(st.integers(-60, 60), st.integers(1, 60))
def test_frobenius_at_split_primes_matches_g_t_at_random_t(u, v):
    # a sampled consistency check, as above, at t = u/v with g_t as the
    # source: it proves nothing about t
    t = Fraction(u, v)
    assume(t not in (0, 1) and not is_square(t))
    checks = _split_prime_checks(t, principal_quartic_poly(QQ, t),
                                 _primes(5, 100))
    bad, _ = _mismatches(checks)
    assert not bad, (t, bad[:5])
