"""Solvability of the octahedral embedding problems attached to a quartic.

For an S4 quartic field with squarefree discriminant class d, write
d = sign * 2^nu * d1 * d3 * d5 * d7 with d_i the product of the primes
congruent to i mod 8 dividing d.  2S4+ is solvable iff w x (2, d) is
trivial, for w the Witt invariant of the trace form (Serre, 1984).  For
principal fields the solvability of the four central embedding problems
depends only on this decomposition:

    2S4+  <=>  d < 0 and d5 = d7 = 1
    4S4+  <=>  d > 0 and d3 = d7 = 1
    4S4-  <=>  d5 = 1
    8S4-  solvable with type [d5, -d3]  <=>  the field is principal

On other fields classify reports 4S4+ and 4S4- as None (unknown).  The
generic obstruction w x (-2, d) x (2, b) x (-1, r) is exposed for
arbitrary type parameters (b, r); it is trivial exactly when the
corresponding lifting exists.  The norm conditions (2, -3d), (-1, -3d),
(-2, -3d) drive the endomorphism-algebra bookkeeping: they detect
elements of norm 2, -1, -2 in Q(sqrt(-3d)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .errors import (CyclotomicExcluded, FactorizationIncomplete,
                     InvalidTypeParameter, NotOctahedral, SearchExhausted,
                     _excerpt)
from .hilbert import BrauerClass, brauer_class
from .polynomials import poly_str
from .quartic import ReducedQuartic, is_principal
from .rationals import factorize, is_square, squarefree_part


@dataclass(frozen=True)
class DiscDecomposition:
    sign: int
    nu: int
    d1: int
    d3: int
    d5: int
    d7: int

    def value(self) -> int:
        return self.sign * 2**self.nu * self.d1 * self.d3 * self.d5 * self.d7


def decompose_discriminant(d: int) -> DiscDecomposition:
    """Bucket the primes of a squarefree integer by residue mod 8."""
    if d == 0:
        raise ValueError("discriminant must be nonzero")
    fac = factorize(d)
    if not fac.complete:
        raise FactorizationIncomplete(f"cannot factor {d}")
    if any(e > 1 for e in fac.factors.values()):
        raise ValueError(f"{d} is not squarefree")
    nu = 1 if 2 in fac.factors else 0
    buckets = {1: 1, 3: 1, 5: 1, 7: 1}
    for p in fac.factors:
        if p != 2:
            buckets[p % 8] *= p
    return DiscDecomposition(sign=fac.sign, nu=nu, d1=buckets[1],
                             d3=buckets[3], d5=buckets[5], d7=buckets[7])


@dataclass(frozen=True)
class EmbeddingReport:
    d: int
    decomposition: DiscDecomposition
    principal: bool
    solvable_2s4_plus: bool
    solvable_4s4_plus: Optional[bool]     # None: not principal, unknown
    solvable_4s4_minus: Optional[bool]
    solvable_8s4_minus: bool
    type_8s4_minus: tuple[int, int]
    star_norm2: bool      # (2, -3d) trivial: norm 2 exists in Q(sqrt(-3d))
    norm_minus1: bool     # (-1, -3d) trivial
    norm_minus2: bool     # (-2, -3d) trivial

    def table_id(self) -> Optional[int]:
        """1..5 following the classification used for the shipped corpus;
        None for a field that is not principal."""
        if not self.principal:
            return None
        if self.solvable_2s4_plus:
            return 1
        if self.solvable_4s4_minus:
            return 2
        if self.solvable_4s4_plus:
            return 3
        return 5 if self.norm_minus1 else 4

    def flags(self) -> dict:
        """Solvability of the four embedding problems and the 8S4- type,
        keyed as in the JSON reports."""
        return {"2S4+": self.solvable_2s4_plus,
                "4S4+": self.solvable_4s4_plus,
                "4S4-": self.solvable_4s4_minus,
                "8S4-": self.solvable_8s4_minus,
                "type": list(self.type_8s4_minus)}


def classify(f: ReducedQuartic) -> EmbeddingReport:
    """Full embedding-problem report for an S4 quartic.

    2S4+ is Serre's criterion, w x (2, d) trivial, for every S4 field.
    4S4+ and 4S4- are the discriminant criteria, which characterize
    solvability when the field is principal, and None otherwise, as is
    table_id(); 8S4- with type [d5, -d3] is solvable iff the field is
    principal.  For a non-principal field evaluate ``obstruction`` with
    explicit (b, r).
    """
    if not f.is_s4:
        raise NotOctahedral(f"{_excerpt(poly_str(f.poly()), str)} does not"
                            " have Galois group S4")
    d = f.disc_class()
    dec = decompose_discriminant(d)
    principal = is_principal(f)
    return EmbeddingReport(
        d=d,
        decomposition=dec,
        principal=principal,
        solvable_2s4_plus=(f.trace_data.witt
                           * brauer_class(2, d)).is_trivial,
        solvable_4s4_plus=(d > 0 and dec.d3 == 1 and dec.d7 == 1
                           if principal else None),
        solvable_4s4_minus=dec.d5 == 1 if principal else None,
        solvable_8s4_minus=principal,
        type_8s4_minus=(dec.d5, -dec.d3),
        star_norm2=brauer_class(2, -3 * d).is_trivial,
        norm_minus1=brauer_class(-1, -3 * d).is_trivial,
        norm_minus2=brauer_class(-2, -3 * d).is_trivial,
    )


def obstruction(w: BrauerClass, d: int, b: Fraction | int,
                r: Fraction | int) -> BrauerClass:
    """w x (-2, d) x (2, b) x (-1, r); trivial iff the lifting with type
    parameters (b, r) exists.  Requires (-1, b) trivial."""
    b, r = Fraction(b), Fraction(r)
    if not brauer_class(-1, b).is_trivial:
        raise InvalidTypeParameter(f"(-1, {b}) is nontrivial")
    return (w * brauer_class(-2, d) * brauer_class(2, b)
            * brauer_class(-1, r))


def splitting_obstruction(w: BrauerClass, d: int) -> BrauerClass:
    """Sign component of the isogeny cocycle: w x (-2, d) x (-1, -3),
    the last factor being the class of the mod-3 cyclotomic character."""
    return w * brauer_class(-2, d) * brauer_class(-1, -3)


# -- determinant / splitting-character fields ---------------------------------


@dataclass(frozen=True)
class FieldDescription:
    """Symbolic description of Q(sqrt(r)) or Q(sqrt(r(b + x sqrt(b))))."""

    b: Fraction
    r: Fraction
    x: Optional[Fraction]
    text: str


def _sqrt_exact(x: Fraction) -> Fraction:
    return Fraction(isqrt(x.numerator), isqrt(x.denominator))


# the largest x that det_field tries; past it the search raises SearchExhausted
DET_FIELD_MAX_X = 10**6


def det_field(b: Fraction | int, r: Fraction | int) -> FieldDescription:
    """Fixed field of the determinant character for type parameters (b, r):
    Q(sqrt(r)) when b is a square, else Q(sqrt(r(b + x sqrt(b)))) for an
    x with b - x^2 a rational square."""
    b, r = Fraction(b), Fraction(r)
    if b <= 0:
        raise InvalidTypeParameter("b must be positive")
    if not brauer_class(-1, b).is_trivial:
        raise InvalidTypeParameter(
            f"(-1, {b}) nontrivial: b is not a sum of two squares")
    if is_square(b):
        rr = squarefree_part(r)
        if rr == 1:
            return FieldDescription(b=b, r=r, x=None, text="Q")
        return FieldDescription(b=b, r=r, x=None, text=f"Q(sqrt({rr}))")
    bsf = squarefree_part(b)
    scale = _sqrt_exact(b / bsf)
    y = next((y for y in range(1, min(isqrt(bsf), DET_FIELD_MAX_X) + 1)
              if is_square(bsf - y * y)), None)
    if y is None:
        raise SearchExhausted(f"no x <= {DET_FIELD_MAX_X} (DET_FIELD_MAX_X)"
                              f" with {b} - x^2 a square")
    x = Fraction(y) * scale
    rr = squarefree_part(r)  # same field up to the square factor
    rtxt = "" if rr == 1 else ("-" if rr == -1 else f"{rr}*")
    xtxt = "" if x == 1 else f"{x}*"
    text = f"Q(sqrt({rtxt}({b} + {xtxt}sqrt({b}))))"
    return FieldDescription(b=b, r=r, x=x, text=text)


# -- endomorphism algebras -----------------------------------------------------


@dataclass(frozen=True)
class EndoCase:
    label: str          # one of a..f
    algebra: str
    b: Fraction
    r: Fraction
    k_eps: FieldDescription
    factors: str        # "single" GL2-type variety or "pair" A1 x A2


@dataclass(frozen=True)
class EndoReport:
    d: int
    cases: tuple[EndoCase, ...]

    def algebras(self) -> set[str]:
        return {c.algebra for c in self.cases}


ALG_SQRT_M2 = "Q(sqrt(-2))"
ALG_SQRT_2 = "Q(sqrt(2))"
ALG_I = "Q(i)"
ALG_BIQUAD = "Q(sqrt(2),sqrt(-2))"

_R_MOVES = (1, 2, 5, 10, 13, 26, 65, 17)       # 2 and primes 1 mod 4
_B_MOVES = (1, 2, 17, 34, 41, 82, 73, 97)     # 2 and primes 1 mod 8


def _adjust_class(base: int, forbidden: list[int], moves: tuple[int, ...]) -> int:
    """First multiple of the nonzero base (by allowed square-class moves)
    avoiding the forbidden square classes.

    It cannot run out: the 8 moves are distinct squarefree classes, and
    base m f is a square for at most one of them, m = base f in Q*/Q*^2,
    so each of the 2 or 3 nonzero forbidden classes rules out at most one
    move."""
    for m in moves:
        cand = base * m
        if all(not is_square(Fraction(cand) * f) for f in forbidden):
            return cand
    raise AssertionError(f"every move of {base} hits a class of {forbidden}")


def _k_eps(b: Fraction | int, r: Fraction | int) -> FieldDescription:
    """Splitting-character field: the determinant field with r scaled by -3."""
    return det_field(Fraction(b), Fraction(-3) * Fraction(r))


def endo_algebras(report: EmbeddingReport) -> EndoReport:
    """Minimal Q-endomorphism algebras of the GL2-type varieties attached
    to a principal octahedral quartic with d != -3, one entry per
    applicable construction:

      (a) norm -2 exists: Q(sqrt(-2)), with b = 1, r = d
      (b) norm 2 exists: Q(sqrt(2)), with b = 1, r = -3
      (c) norm -1 exists: Q(i), with b = -3d
      (d) 4S4- solvable: Q(sqrt(2),sqrt(-2)), b = 1
      (e) 4S4+ solvable: Q(sqrt(2),sqrt(-2)), b = d
      (f) otherwise: Q(sqrt(2),sqrt(-2)), b in the class of d5

    The biquadratic algebra is always present through (d), (e) or (f).
    """
    if not report.principal:
        raise InvalidTypeParameter("endomorphism report needs a principal field")
    d = report.d
    if d == -3:
        raise CyclotomicExcluded(
            "d = -3 has cyclotomic determinant and is handled separately")
    dec = report.decomposition
    cases: list[EndoCase] = []
    if report.norm_minus2:
        cases.append(EndoCase("a", ALG_SQRT_M2, Fraction(1), Fraction(d),
                              _k_eps(1, d), "single"))
    if report.star_norm2:
        cases.append(EndoCase("b", ALG_SQRT_2, Fraction(1), Fraction(-3),
                              _k_eps(1, -3), "single"))
    if report.norm_minus1:
        b = squarefree_part(-3 * d)
        cases.append(EndoCase("c", ALG_I, Fraction(b), Fraction(-3),
                              _k_eps(b, -3), "pair"))
    if report.solvable_4s4_minus:
        r = _adjust_class(-dec.d3, [Fraction(d), Fraction(-3)], _R_MOVES)
        cases.append(EndoCase("d", ALG_BIQUAD, Fraction(1), Fraction(r),
                              _k_eps(1, r), "single"))
    if report.solvable_4s4_plus:
        cases.append(EndoCase("e", ALG_BIQUAD, Fraction(d), Fraction(-1),
                              _k_eps(d, -1), "pair"))
    if not report.solvable_4s4_minus and not report.solvable_4s4_plus:
        b = _adjust_class(dec.d5, [Fraction(1), Fraction(d), Fraction(-3 * d)],
                          _B_MOVES)
        r = -dec.d3
        cases.append(EndoCase("f", ALG_BIQUAD, Fraction(b), Fraction(r),
                              _k_eps(b, r), "pair"))
    return EndoReport(d=d, cases=tuple(cases))
