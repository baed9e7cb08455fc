"""The displayed curve/quartic identities, proved exactly over Q(s).

Substituting t = s^2 makes sqrt(t) = s rational, so each identity becomes
an identity of rational functions; with its known denominator cleared it
is checked by exact arithmetic in Q[s]: no sampling, no floating point.
"""

from fractions import Fraction

from octaq import curve_from_t, symbolic_suite, weil_restriction_factor
from octaq.polynomials import discriminant

print("symbolic suite over Q(s), t = s^2:")
for entry in symbolic_suite():
    flag = "ok " if entry.passed else "FAIL"
    print(f"  [{flag}] {entry.name}" + (f"  ({entry.detail})" if entry.detail else ""))

print()
print("numeric spot check at t = -1:")
rec = curve_from_t(Fraction(-1))
print(f"  g_t = {rec.g_t!r}")
print(f"  h_t = {rec.h_t!r}")
print(f"  disc(g_t) = {discriminant(rec.g_t)}  (expected -2^8 3^3 t (t-1)^8)")
print(f"  disc(h_t) = {discriminant(rec.h_t)}  (expected -2^8 3^9 t (t-1)^2)")

wr = weil_restriction_factor(Fraction(-1))
print(f"  Weil-restriction resultant: degree {wr.resultant_degree}, "
      f"h_t divides it: {wr.divisible}, cofactor degree {wr.cofactor.degree}")
