"""Sturm counts of real roots, for the tests that pick totally real
quartics; no command of octaq needs them."""

from octaq.polynomials import QQ, UniPoly, poly_gcd


def _sign_at_inf(p: UniPoly, positive: bool) -> int:
    if p.is_zero():
        return 0
    lc = p.lc
    s = 1 if lc > 0 else -1
    if not positive and p.degree % 2 == 1:
        s = -s
    return s


def count_real_roots(f: UniPoly) -> int:
    """Number of distinct real roots of a rational polynomial (Sturm)."""
    if f.field is not QQ:
        raise ValueError("Sturm count implemented over Q only")
    g = poly_gcd(f, f.derivative())
    if g.degree > 0:
        f = f.exact_div(g)
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()

    def variations(positive: bool) -> int:
        signs = [s for s in (_sign_at_inf(p, positive) for p in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)
