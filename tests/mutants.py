"""Mutant harness: each mutant replaces one exact snippet of the sources in
a temporary copy of src/, tests/ and pyproject.toml, and runs its target
test files there with pytest -x.  A mutant is killed when pytest reports a
failing test (exit status 1).

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py ID ...     # the named ones

It fails when a snippet, of a mutant or of an equivalent mutant, is not
found exactly once (so a refactor must update its mutants rather than
silently drop them), when the target tests fail without any mutant, and
when a mutant survives.  Equivalent mutants are listed apart, each with
its proof, and never run.  pytest does not collect this file, as its name
does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    id: str
    file: str               # relative to the repository root
    old: str                # must occur exactly once in file
    new: str
    targets: tuple[str, ...]
    origin: str             # the CHANGES.md entry or ROADMAP item


QUARTIC = "src/octaq/quartic.py"
QCURVE = "src/octaq/qcurve.py"
GL2F9 = "src/octaq/gl2f9.py"
POLYNOMIALS = "src/octaq/polynomials.py"

MUTANTS = (
    Mutant("vieta-root-sign", QUARTIC,
           "return out + [(-c[-2] - sum(out)) % m]",
           "return out + [(c[-2] + sum(out)) % m]",
           ("tests/test_quartic.py",),
           "CHANGES.md: cheaper p-adic kernels of same_field"),
    Mutant("newton-inverse-not-carried", QUARTIC,
           "z = z * (2 - _eval_mod(dc, r, mod) * z) % mod",
           "pass",
           ("tests/test_quartic.py",),
           "CHANGES.md: cheaper p-adic kernels of same_field"),
    Mutant("basis-quotient-constant-off-by-one", QUARTIC,
           "        quotients.append(q[::-1])",
           "        q[-1] += 1\n        quotients.append(q[::-1])",
           ("tests/test_quartic.py",),
           "CHANGES.md: cheaper p-adic kernels of same_field"),
    Mutant("tsc-clearing-one-factor-short", QCURVE,
           "big_l = t * u * u",
           "big_l = t * u",
           ("tests/test_qcurve.py",),
           "CHANGES.md: tsc_principal_to_torsion in Q[s]"),
    Mutant("tsc-lm-sign", QCURVE,
           "-(t + e(3) * s)",
           "(t + e(3) * s)",
           ("tests/test_qcurve.py",),
           "CHANGES.md: tsc_principal_to_torsion in Q[s]"),
    Mutant("same-field-scale-one", QUARTIC,
           "m, scale = p**k, abs(mf.disc)",
           "m, scale = p**k, 1",
           ("tests/test_quartic.py",),
           "ROADMAP item 13"),
    Mutant("disc-check-always-passes", "src/octaq/tables.py",
           'checks["disc"] = report.d == squarefree_part(row.expected_disc)',
           'checks["disc"] = True',
           ("tests/test_tables_cli.py",),
           "ROADMAP item 13"),
    Mutant("stickelberger-parity-flipped", QUARTIC,
           "if len(c) == 4 or pow(d, (p - 1) // 2, p) != 1:",
           "if len(c) == 4 or pow(d, (p - 1) // 2, p) == 1:",
           ("tests/test_quartic.py",),
           "CHANGES.md: one Frobenius scan per integer model"),
    Mutant("has-factor-without-pairs", QUARTIC,
           "subsets += [(0, 1), (0, 2), (0, 3)]",
           "subsets += []",
           ("tests/test_quartic.py",),
           "CHANGES.md: one Frobenius scan per integer model"),
    Mutant("split-prime-cached-despite-avoid", QUARTIC,
           "if not avoid % p:",
           "if False:",
           ("tests/test_quartic.py",),
           "CHANGES.md: one Frobenius scan per integer model per process"),
    Mutant("irreducible-key-drops-a-coefficient", QUARTIC,
           "return _irreducible_scan(tuple(model.coeffs), model.disc)",
           "return _irreducible_scan(tuple(model.coeffs[1:]), model.disc)",
           ("tests/test_quartic.py",),
           "CHANGES.md: one Frobenius scan per integer model per process"),
    Mutant("two-s4-plus-without-witt", "src/octaq/embedding.py",
           "solvable_2s4_plus=(f.trace_data.witt\n"
           "                           * brauer_class(2, d)).is_trivial,",
           "solvable_2s4_plus=brauer_class(2, d).is_trivial,",
           ("tests/test_embedding.py",),
           "ROADMAP item 1"),
    Mutant("j-split-form-coefficient", QCURVE,
           "e(360)",
           "e(361)",
           ("tests/test_qcurve.py",),
           "CHANGES.md: Q(sqrt(t)) divides only by rationals"),
    Mutant("t-from-principal-times-4", QCURVE,
           "t = -disc / (27 * g.b**4)",
           "t = -4 * disc / (27 * g.b**4)",
           ("tests/test_frobenius.py",),
           "ROADMAP item 12"),
    Mutant("weierstrass-b-coefficient", QCURVE,
           "e(8) * (e(7) + e(9) * sqrt_t)",
           "e(8)",
           ("tests/test_frobenius.py",),
           "ROADMAP item 12"),
    Mutant("composed-sum-binomial-off-by-one", QCURVE,
           "comb(k, m) * pf[m]",
           "(comb(k, m) + ((k, m) == (4, 2))) * pf[m]",
           ("tests/test_qcurve.py",),
           "CHANGES.md: the Weil restriction as a composed sum"),
    Mutant("weil-conjugate-left-out", QCURVE,
           "return _composed_sum(ctx.f_t, conjugate)",
           "return _composed_sum(ctx.f_t, ctx.f_t)",
           ("tests/test_qcurve.py",),
           "CHANGES.md: the Weil restriction as a composed sum"),
    Mutant("newton-divides-by-k-plus-one", QCURVE,
           "/ F.embed(k))",
           "/ F.embed(k + 1))",
           ("tests/test_qcurve.py",),
           "CHANGES.md: the Weil restriction as a composed sum"),
    Mutant("newton-sign-flipped", QCURVE,
           "w.append(-sum(",
           "w.append(sum(",
           ("tests/test_qcurve.py",),
           "CHANGES.md: the Weil restriction as a composed sum"),
    Mutant("weil-evenness-unchecked", QCURVE,
           "if any(c.num[1::2]):",
           "if False:",
           ("tests/test_qcurve.py",),
           "CHANGES.md: the Weil restriction as a composed sum"),
    Mutant("tabulate-k-for-k-factorial", QUARTIC,
           "diffs.append(factorial(k) * c.pop(0))",
           "diffs.append(k * c.pop(0))",
           ("tests/test_quartic.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("depress-taylor-coefficient", QUARTIC,
           "c2 = (6 * h + 3 * a3) * h + a2",
           "c2 = (6 * h + 2 * a3) * h + a2",
           ("tests/test_quartic.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("roots-mod-skips-zero", QUARTIC,
           "return [x for x in range(p) if not values[x] % p]",
           "return [x for x in range(1, p) if not values[x] % p]",
           ("tests/test_quartic.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("perm-infinity-image", GL2F9,
           "images.append(_INF if c == ZERO else ma[F9_INV[c]])",
           "images.append(_INF if c == ZERO else F9_INV[c])",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("is-inner-without-confirmation", GL2F9,
           "                for s in g.generators)\n"
           "                and all(mat_mul(h, m) == mat_mul(mapping[m], h)\n"
           "                        for m in g.elements)):",
           "                for s in g.generators)):",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("compose-reversed", GL2F9,
           "return tuple(map(p.__getitem__, q))",
           "return tuple(map(q.__getitem__, p))",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("perm-without-singular-check", GL2F9,
           "    if mat_det(m) == ZERO:\n"
           "        raise OctaqError(\"a singular matrix is not an element of"
           " PGL2(F9)\")\n",
           "",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("pgl-without-720-check", GL2F9,
           "if pgl is None or len(pgl) != 720:",
           "if pgl is None:",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("is-inner-screen-s-h", GL2F9,
           "all(mat_mul(h, s) == mat_mul(mapping[s], h)",
           "all(mat_mul(s, h) == mat_mul(mapping[s], h)",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("projective-det-without-f3-check", GL2F9,
           "if any(e not in (ZERO, ONE, MINUS_ONE) for e in m0):",
           "if False:",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("mat-mul-entry", GL2F9,
           "add[mc[yb]][md[yd]])",
           "add[mc[yb]][md[yc]])",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("scalar-mul-swapped", GL2F9,
           "return mc[a], mc[b], mc[cc], mc[d]",
           "return mc[a], mc[cc], mc[b], mc[d]",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("square-hits-mod-63-index", QUARTIC,
           "q63[v % 63]",
           "q63[(v + 1) % 63]",
           ("tests/test_quartic.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("conjugates-one-generator", GL2F9,
           "_perm(mat_inv(g))) for g in GL2_GENERATORS]",
           "_perm(mat_inv(g))) for g in GL2_GENERATORS[:1]]",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("isotropic-roots-minus-first", QUARTIC,
           "for root in ((r, -r) if r else (0,)):",
           "for root in ((-r, r) if r else (0,)):",
           ("tests/test_quartic.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("isotropic-band-start-moved", QUARTIC,
           "1 - norm), 2 * norm - 1)",
           "2 - norm), 2 * norm - 1)",
           ("tests/test_quartic.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("normalize-gcd-of-b-only", QUARTIC,
           "g = gcd(b.numerator, c.numerator)",
           "g = gcd(b.numerator)",
           ("tests/test_quartic.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("parse-degree-cap-at-5", "src/octaq/cli.py",
           "int(digits) > 4",
           "int(digits) > 5",
           ("tests/test_tables_cli.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("witt-companion-disc-sign", QCURVE,
           "brauer_class(-1, -rq.disc())",
           "brauer_class(-1, rq.disc())",
           ("tests/test_qcurve.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("perm-denominator-entry", GL2F9,
           "(den := add[mc[x]][d])",
           "(den := add[mc[x]][b])",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: GL2(F9) on 4-tuples, PGL2(F9) as permutations"),
    Mutant("normalize-drops-a-denominator-prime", QUARTIC,
           "primes.update(den_fac.factors)",
           "primes.update(sorted(den_fac.factors)[1:])",
           ("tests/test_quartic.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("same-field-roots-by-residue", QUARTIC,
           "list(itertools.islice(_tabulate([x % p for x in big_g]), p)), p)",
           "[_eval_mod(big_g, x, p) for x in range(p)], p)",
           ("tests/test_quartic.py",),
           "CHANGES.md: running sums for the corpus's two searches"),
    Mutant("quad-product-drops-s-squared", POLYNOMIALS,
           "c, den = [c[0] * td + c[2] * tn, c[1] * td], den * td",
           "c, den = [c[0] * td, c[1] * td], den * td",
           ("tests/test_polynomials.py",),
           "CHANGES.md: Q(sqrt(t)) as Q[s]/(s^2 - t)"),
    Mutant("quad-product-ignores-t-denominator", POLYNOMIALS,
           "c, den = [c[0] * td + c[2] * tn, c[1] * td], den * td",
           "c, den = [c[0] + c[2] * tn, c[1]], den",
           ("tests/test_polynomials.py",),
           "CHANGES.md: Q(sqrt(t)) as Q[s]/(s^2 - t)"),
    Mutant("divmod-monic-constant-quotient-zeroed", POLYNOMIALS,
           "q[k] = t",
           "q[k] = t if k else zero",
           ("tests/test_polynomials.py",),
           "CHANGES.md: one list kernel per polynomial operation"),
    Mutant("divmod-monic-skips-last-divisor-term", POLYNOMIALS,
           "for j in range(d):",
           "for j in range(d - 1):",
           ("tests/test_polynomials.py",),
           "CHANGES.md: one list kernel per polynomial operation"),
    Mutant("poly-add-tail-overwritten", POLYNOMIALS,
           "out = list(a)",
           "out = list(a[:len(b)]) + [0] * (len(a) - len(b))",
           ("tests/test_polynomials.py",),
           "CHANGES.md: one list kernel per polynomial operation"),
    Mutant("quad-coerce-without-equal-t", POLYNOMIALS,
           "if isinstance(other, QuadElement) and other.ring is not self.ring:",
           "if False:",
           ("tests/test_polynomials.py",),
           "CHANGES.md: Q(sqrt(t)) as Q[s]/(s^2 - t)"),
    Mutant("close-without-cap-check", GL2F9,
           "return None if len(els) > cap else els",
           "return els",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: one process for verify-tables"),
    Mutant("s4-scan-closes-found-subgroups", GL2F9,
           "                or any(b in sub for sub in subs)):",
           "                or False):",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: S4 conjugacy from one class of order-4 elements"),
    Mutant("generate-skips-generators", GL2F9,
           "            queue.append(g)\n            yield g\n",
           "            queue.append(g)\n",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: fewer products in the proofs"),
    Mutant("s4-scan-without-order-four-class", GL2F9,
           "    if frozenset().union(*_conjugates(frozenset({a0})))"
           " != fours:\n"
           "        raise OctaqError(\"the elements of order 4 in PGL2(F9) are"
           " not one\"\n"
           "                         \" conjugacy class\")\n",
           "",
           ("tests/test_gl2f9.py",),
           "CHANGES.md: S4 conjugacy from one class of order-4 elements"),
)

EQUIVALENT = (
    (Mutant("det-field-tries-y-zero", "src/octaq/embedding.py",
            "for y in range(1, min(isqrt(bsf), DET_FIELD_MAX_X) + 1)",
            "for y in range(0, min(isqrt(bsf), DET_FIELD_MAX_X) + 1)",
            ("tests/test_embedding.py",), "ROADMAP item 13"),
     "b is not a square, so its squarefree part bsf > 1 is not a square"
     " either, and y = 0 (bsf - 0 a square) never matches: the search"
     " returns the same first y"),
    (Mutant("s4-scan-screen-point-moved", GL2F9,
            "a0[b[a0[b[0]]]] != 0",
            "a0[b[a0[b[1]]]] != 1",
            ("tests/test_gl2f9.py",), "CHANGES.md: GL2(F9) on 4-tuples,"
            " PGL2(F9) as permutations"),
     "(a0 b)^2 = 1 fixes every point, so no pair that passes the full"
     " test is screened out at point 1 either, and every pair that fails"
     " it is still rejected by the test: the same subgroups are found"),
    (Mutant("perm-order-max-for-lcm", GL2F9,
            "order = lcm(order, length)",
            "order = max(order, length)",
            ("tests/test_gl2f9.py",), "CHANGES.md: GL2(F9) on 4-tuples,"
            " PGL2(F9) as permutations"),
     "a cycle of length d gives g^d at least d fixed points, and an element"
     " of PGL2(F9) other than 1 fixes at most 2 points of P^1(F9): a cycle"
     " shorter than the order has length 1 or 2, and a 2 makes the order"
     " even, so the lcm of the cycle lengths is their maximum"),
)


def _check_snippets(mutants) -> list[str]:
    errors = []
    for m in mutants:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            errors.append(f"{m.id}: snippet found {count} times in {m.file}")
    return errors


def _pytest(workdir: Path, targets) -> int:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *targets], cwd=workdir,
        # no bytecode cache: a mutant of the same size and mtime as its
        # original must not be served from a stale .pyc
        env={**os.environ, "PYTHONPATH": str(workdir / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(ids: list[str]) -> int:
    chosen = [m for m in MUTANTS if not ids or m.id in ids]
    unknown = set(ids) - {m.id for m in MUTANTS}
    errors = [f"unknown mutant {i}" for i in sorted(unknown)]
    errors += _check_snippets(MUTANTS + tuple(m for m, _ in EQUIVALENT))
    if errors:
        print("\n".join(errors))
        return 1
    for m, proof in EQUIVALENT:
        print(f"equivalent  {m.id}: {proof}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        targets = sorted({t for m in chosen for t in m.targets})
        if _pytest(work, targets):
            print(f"the target tests fail without a mutant: {targets}")
            return 1
        survivors = 0
        for m in chosen:
            path = work / m.file
            source = path.read_text()
            path.write_text(source.replace(m.old, m.new))
            start = time.perf_counter()
            status = _pytest(work, m.targets)
            path.write_text(source)
            verdict = {1: "killed"}.get(status, "SURVIVED" if status == 0
                                        else f"ERROR (pytest exit {status})")
            survivors += verdict != "killed"
            print(f"{verdict}  {m.id} ({time.perf_counter() - start:.1f} s,"
                  f" {', '.join(m.targets)}; {m.origin})")
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
