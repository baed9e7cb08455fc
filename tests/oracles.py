"""Reference routines that the tests compare octaq against; no command of
octaq uses them."""

from octaq.polynomials import UniPoly, bareiss_determinant, resultant_bivariate


def sylvester_matrix(f: UniPoly, g: UniPoly) -> list[list]:
    """(deg f + deg g) square matrix over the coefficient field."""
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = [f[m - i] for i in range(m + 1)]  # highest degree first
    gc = [g[n - i] for i in range(n + 1)]
    for i in range(n):
        rows.append([f.field.zero] * i + fc + [f.field.zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([f.field.zero] * i + gc + [f.field.zero] * (size - n - 1 - i))
    return rows


def sylvester_discriminant(f: UniPoly):
    """disc(f) = (-1)^(n(n-1)/2) det Syl(f, f') for monic f of degree n."""
    n = f.degree
    det = bareiss_determinant(sylvester_matrix(f, f.derivative()),
                              f.field.zero, f.field.one)
    return -det if (n * (n - 1) // 2) % 2 else det


def constant_resultant(f: UniPoly, g: UniPoly):
    """Res(f, g) over the coefficient field, by resultant_bivariate on
    entries that are constant polynomials."""
    def constants(p):
        return [UniPoly(p.field, (c,)) for c in p.coeffs]
    return resultant_bivariate(constants(f), constants(g))[0]


def power_sums(f: UniPoly, count: int) -> list:
    """Traces p_k = sum of k-th powers of the roots of a monic polynomial,
    via Newton's identities, k = 1..count."""
    n = f.degree
    if f.lc != f.field.one:
        raise ValueError("power sums need a monic polynomial")
    emb = f.field.embed
    e = [f.field.zero] * (n + 1)
    for i in range(1, n + 1):
        c = f[n - i]
        e[i] = c if i % 2 == 0 else -c
    p = [f.field.zero] * (count + 1)
    for k in range(1, count + 1):
        acc = f.field.zero
        for i in range(1, min(k - 1, n) + 1):
            term = e[i] * p[k - i]
            acc = acc + (term if i % 2 == 1 else -term)
        if k <= n:
            term = e[k] * emb(k)
            acc = acc + (term if k % 2 == 1 else -term)
        p[k] = acc
    return p[1:]
