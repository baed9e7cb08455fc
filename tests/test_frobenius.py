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
"""

from fractions import Fraction
from math import isqrt

from octaq.polynomials import discriminant
from octaq.qcurve import curve_from_t, t_from_principal
from octaq.quartic import PrincipalQuartic
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


def _split_prime_checks(row, primes) -> list:
    """(p, s, a, cycle type) at each split prime p and root s of s^2 = t."""
    t = t_from_principal(PrincipalQuartic(row.principal_b, row.principal_c))
    disc = int(discriminant(row.source_poly()))
    bad = 6 * t.numerator * t.denominator * (t.numerator - t.denominator) * disc
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
        cycle = _cycle_type(row.source_coeffs, disc, p, chi)
        for s in (x for x in range(p) if (x * x - tp) % p == 0):
            a4, b6 = ((_mod(z.u, p) + _mod(z.v, p) * s) % p for z in (A, B))
            if (4 * a4**3 + 27 * b6**2) % p == 0:
                continue
            a = -sum(chi[(x**3 + a4 * x + b6) % p] for x in range(p))
            out.append((p, s, a, cycle))
    return out


def test_frobenius_at_split_primes_matches_source_cycle_types():
    primes = [p for p in range(5, 200)
              if all(p % q for q in range(2, isqrt(p) + 1))]
    seen, mismatches, count = set(), [], 0
    for row in CORPUS:
        for p, s, a, cycle in _split_prime_checks(row, primes):
            key = (a % 3 == 0, p % 3)
            seen.add(key)
            count += 1
            if cycle not in ALLOWED[key]:
                mismatches.append((row.line, p, s, a, cycle))
    assert not mismatches, mismatches[:5]
    # every row of the table is sampled, thousands of times in all
    assert len(CORPUS) == 85 and count > 3000 and seen == set(ALLOWED)
