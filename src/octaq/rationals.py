"""Integer factorization, square classes, rational reconstruction.

All scalars are ``fractions.Fraction`` (arbitrary precision, always
reduced, positive denominator), so the only genuine work here is prime
bookkeeping.  ``factorize`` trial-divides by the primes below 2**10,
recurses on the root of a perfect square, proves primality by
deterministic Miller-Rabin and splits composites with Brent's variant of
Pollard rho (Brent, "An improved Monte Carlo factorization algorithm",
BIT 20, 1980) under an iteration budget.  Miller-Rabin to the first 13
prime bases is a proof only below PSI_13 (Sorenson and Webster, 2015), so
no larger number is ever declared prime.  What is neither split nor
proven stays in the cofactor, and callers that need it fail loudly
instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt
from types import MappingProxyType
from typing import Mapping, Optional

from . import config
from .errors import FactorizationIncomplete, OctaqError


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p, flag in enumerate(sieve) if flag)


_TRIAL_LIMIT = 1 << 10
_SMALL_PRIMES = _primes_below(_TRIAL_LIMIT)
# no composite below PSI_13 is a strong pseudoprime to all of these bases
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981
_RHO_BATCH = 128  # rho iterations per gcd


@dataclass(frozen=True)
class IntegerFactorization:
    """sign * prod(p**e) * cofactor reconstructs the input.

    Every listed p is a proven prime.  cofactor == 1 means the
    factorization is complete; otherwise it is the residue that was
    neither split within the budget nor proven prime: it has no prime
    factor below 2**10 and is coprime to every listed prime.  ``factors``
    is a read-only mapping because results are shared through a cache.
    """

    sign: int
    factors: Mapping[int, int] = field(default_factory=dict)
    cofactor: int = 1

    def __post_init__(self):
        object.__setattr__(self, "factors",
                           MappingProxyType(dict(self.factors)))

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors.items():
            n *= p**e
        return n * self.cofactor

    def squarefree_part(self) -> int:
        # A perfect-square cofactor cannot change the square class even
        # though its prime factorization is unknown (it is coprime to the
        # listed primes).
        if not self.complete:
            r = isqrt(self.cofactor)
            if r * r != self.cofactor:
                raise FactorizationIncomplete(
                    f"cofactor {self.cofactor} neither split within the"
                    " factoring budget nor proven prime")
        d = self.sign
        for p, e in self.factors.items():
            if e % 2:
                d *= p
        return d


def factorize(n: int, budget: Optional[int] = None) -> IntegerFactorization:
    """Prime factorization of n != 0, as far as ``budget`` rho iterations
    (default ``config.factor_budget()``) reach.

    Results are memoized on (|n|, budget); equal arguments always give
    the same result, since the rho constants are fixed.
    """
    if n == 0:
        raise ValueError("0 has no factorization")
    if budget is None:
        budget = config.factor_budget()
    if budget < 0:
        raise ValueError(f"factoring budget {budget} is negative")
    result = _factorize(abs(n), budget)
    return result if n > 0 else replace(result, sign=-1)


@lru_cache(maxsize=4096)
def _factorize(n: int, budget: int) -> IntegerFactorization:
    m = n
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        m, e = _strip(m, p)
        if e:
            factors[p] = e
    # m is 1, a prime below 2**20, or free of prime factors below 2**10,
    # and so is every piece split from it: a piece below 2**20 is prime
    cofactor = 1
    pieces = [(m, 1)] if m > 1 else []
    while pieces:
        u, e = pieces.pop()
        if u < _TRIAL_LIMIT**2:
            factors[u] = factors.get(u, 0) + e
            continue
        r = isqrt(u)
        if r * r == u:
            pieces.append((r, 2 * e))
            continue
        if _strong_probable_prime(u):
            if u < PSI_13:
                factors[u] = factors.get(u, 0) + e
            else:
                cofactor *= u**e
            continue
        d, used = _brent_split(u, budget)
        budget -= used
        if d is None:
            cofactor *= u**e
        else:
            pieces += [(d, e), (u // d, e)]
    for p in factors:
        cofactor, e = _strip(cofactor, p)
        factors[p] += e
    result = IntegerFactorization(1, dict(sorted(factors.items())), cofactor)
    if result.value() != n:
        raise OctaqError(f"factorization of {n} does not multiply back")
    return result


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n / p^e, e) with p^e the exact power of p dividing n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base in _MR_BASES; n odd and above them."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_split(n: int, budget: int) -> tuple[Optional[int], int]:
    """(proper divisor of the odd composite n, iterations spent), with
    None in place of the divisor when ``budget`` iterations did not split n.

    Brent's cycle search on y -> y^2 + c from y = 2, for c = 1, 2, ...,
    multiplying _RHO_BATCH differences together per gcd.
    """
    used = 0
    for c in count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            if used + r > budget:
                return None, used
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            k = 0
            while k < r and g == 1:
                steps = min(_RHO_BATCH, r - k, budget - used)
                if steps == 0:
                    return None, used
                ys = y
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                used += steps
                k += steps
            r *= 2
        if g == n:
            # the batch overshot: replay it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, used


def is_square(x: Fraction | int) -> bool:
    """Exact test, no factorization needed."""
    x = Fraction(x)
    if x < 0:
        return False
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


def squarefree_part(x: Fraction | int, budget: Optional[int] = None) -> int:
    """The unique squarefree integer d with x/d a nonzero rational square.

    For x = num/den in lowest terms this is the squarefree part of
    num * den, sign included.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 has no squarefree part")
    return factorize(x.numerator * x.denominator, budget).squarefree_part()


def same_square_class(x: Fraction | int, y: Fraction | int) -> bool:
    """x and y differ by a nonzero rational square (no factorization)."""
    x, y = Fraction(x), Fraction(y)
    if x == 0 or y == 0:
        raise ValueError("square classes are defined for nonzero values")
    return is_square(x * y)


def rational_reconstruct(a: int, m: int) -> Optional[Fraction]:
    """The fraction r/s with r = a s mod m, |r| <= N and 0 < s <= N for
    N = isqrt((m - 1) // 2), or None when there is none.

    Wang's modular rational reconstruction: run the extended Euclidean
    algorithm on (m, a) until the remainder is at most N; since
    2 N^2 < m the answer is unique and that row gives it (von zur Gathen
    and Gerhard, Modern Computer Algebra, Theorem 5.26).
    """
    if m < 2:
        raise ValueError(f"modulus {m} is below 2")
    bound = isqrt((m - 1) // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or gcd(r1, s1) != 1 or gcd(s1, m) != 1:
        return None
    return Fraction(r1, s1)
