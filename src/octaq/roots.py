"""Certified high-precision complex roots of rational polynomials.

mpmath's simultaneous iteration does the numerics; certification is ours:
every returned approximation carries a residual bound |f(z)| < 10**-digits
checked by re-evaluating f at doubled working precision with exact
rational coefficients.  Downstream consumers (the same-field certifier)
never trust these values without an exact algebraic verification anyway.

No command imports this module; mpmath comes with the ``dev`` extra, not
as a runtime dependency.  It remains only for perfbench/tracer.py, which
imports it by name, and goes with the next benchmark change (ROADMAP 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import PrecisionExhausted
from .polynomials import UniPoly, poly_gcd

MAX_DPS = 2400


@dataclass
class ComplexApprox:
    real: mpmath.mpf
    imag: mpmath.mpf
    error_bound: mpmath.mpf

    def as_mpc(self) -> mpmath.mpc:
        return mpmath.mpc(self.real, self.imag)


def mpf_to_fraction(x) -> Fraction:
    """Exact value of a binary float as a rational."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    val = Fraction(man)
    val = val * Fraction(2) ** exp
    return -val if sign else val


def _residual(coeffs: list[Fraction], z, dps: int) -> mpmath.mpf:
    """|f(z)| evaluated at doubled precision with exact coefficients."""
    with mpmath.workdps(2 * dps):
        acc = mpmath.mpc(0)
        for c in reversed(coeffs):
            acc = acc * z + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
        return abs(acc)


def complex_roots(f: UniPoly, digits: int = 60) -> list[ComplexApprox]:
    """All deg(f) roots with certified residual |f(z)| < 10**-digits.

    Requires f squarefree (checked through gcd with the derivative).
    Raises PrecisionExhausted if certification keeps failing up to the
    working-precision cap.  mpf values keep their full mantissa once
    created, so the approximations stay valid outside the working context.
    """
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    if poly_gcd(f, f.derivative()).degree > 0:
        raise ValueError("polynomial has repeated roots")
    coeffs = [Fraction(c) for c in f.coeffs]
    dps = max(2 * digits + 10, 30)
    while dps <= MAX_DPS:
        try:
            with mpmath.workdps(dps):
                desc = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                        for c in reversed(coeffs)]
                roots = [mpmath.mpc(z) for z in
                         mpmath.polyroots(desc, maxsteps=200,
                                          extraprec=dps * 2)]
                target = mpmath.mpf(10) ** (-digits)
        except mpmath.libmp.NoConvergence:
            dps *= 2
            continue
        certified = []
        for z in roots:
            if _residual(coeffs, z, dps) >= target:
                certified = None
                break
            certified.append(ComplexApprox(real=z.real, imag=z.imag,
                                           error_bound=target))
        if certified is not None:
            return certified
        dps *= 2
    raise PrecisionExhausted(
        f"could not certify roots to {digits} digits within {MAX_DPS} dps")
