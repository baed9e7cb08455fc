import mpmath
import pytest

from octaq.polynomials import qpoly
from octaq.roots import complex_roots, mpf_to_fraction


def test_quadratic_roots():
    roots = complex_roots(qpoly([1, 0, 1]), digits=30)
    assert len(roots) == 2
    imags = sorted(r.imag for r in roots)
    assert abs(imags[0] + 1) < mpmath.mpf(10) ** -29
    assert abs(imags[1] - 1) < mpmath.mpf(10) ** -29


def test_real_complex_split_matches_sturm():
    from sturm import count_real_roots
    f = qpoly([-1, 1, 0, 0, 1])
    roots = complex_roots(f, digits=40)
    n_real = sum(1 for r in roots if abs(r.imag) < mpmath.mpf(10) ** -20)
    assert n_real == count_real_roots(f) == 2


def test_integer_roots():
    f = qpoly([24, -50, 35, -10, 1])  # (x-1)(x-2)(x-3)(x-4)
    roots = complex_roots(f, digits=30)
    got = sorted(round(float(r.real)) for r in roots)
    assert got == [1, 2, 3, 4]


def test_residual_certificate_holds_at_doubled_precision():
    f = qpoly([-3, 0, 0, -1, 1])
    digits = 50
    roots = complex_roots(f, digits=digits)
    for r in roots:
        with mpmath.workdps(4 * digits):
            z = mpmath.mpc(r.real, r.imag)
            val = mpmath.mpc(0)
            for c in reversed(f.coeffs):
                val = val * z + int(c)
            assert abs(val) < r.error_bound


def test_repeated_roots_rejected():
    with pytest.raises(ValueError):
        complex_roots(qpoly([1, 2, 1]), digits=20)  # (x+1)^2


def test_mpf_to_fraction_exact():
    with mpmath.workdps(50):
        x = mpmath.mpf(3) / mpmath.mpf(8)
    assert mpf_to_fraction(x) * 8 == 3
