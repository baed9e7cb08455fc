"""Command-line interface: JSON reports on stdout, diagnostics on stderr.

Exit codes: 0 success, 2 validation failure (bad input, out-of-scope
value, failed table row), 3 computational limit (factoring budget,
search box, or split-prime search exhausted), 141 (128 + SIGPIPE) when
stdout is closed before the report is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from fractions import Fraction

from .embedding import classify, endo_algebras
from .errors import (ComputationalLimit, NotOctahedral, OctaqError,
                     ParseError, ValidationFailure)
from .gl2f9 import (_TWIST_PLAN, five_groups, s4_conjugacy_scan,
                    verify_outer_involutions, verify_subgroup_classification)
from .hilbert import INF
from .polynomials import QQ, UniPoly, poly_str, qpoly
from .qcurve import (J_AT_CUSP, curve_from_t, principal_quartic_poly,
                     symbolic_suite, t_from_principal,
                     weil_restriction_factor)
from .quartic import ReducedQuartic, depress, principalize
from .rationals import FACTOR_BUDGET, squarefree_part
from .tables import load_bundled_corpus, parse_table, verify_table_row

SCHEMA = 1

_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<num>\d+(?:/\d+)?)?(?:\*)?(?P<var>[xX])?"
    r"(?:\^(?P<exp>\d+))?$")


def parse_rational(text: str) -> Fraction:
    """A rational number such as '-3', '7/2' or '0.5'; ParseError
    otherwise (zero denominators included)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {text!r}") from exc


def parse_polynomial(text: str) -> UniPoly:
    """Accept either a comma-separated ascending coefficient list
    ('-1,-1,0,0,1') or a human-readable expression ('x^4+37x-43'), whose
    exponents must be at most 4 (ParseError otherwise)."""
    text = text.strip()
    if "," in text:
        return qpoly([parse_rational(c) for c in text.split(",")])
    compact = text.replace(" ", "")
    if not compact:
        raise ParseError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    coeffs: dict[int, Fraction] = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group("num") is None and m.group("var") is None):
            raise ParseError(f"cannot parse term {chunk!r}")
        value = parse_rational((m.group("sign") or "") + (m.group("num") or "1"))
        if m.group("var"):
            # checked as text, so a long exponent builds no dense list and
            # never reaches int()'s digit limit
            digits = (m.group("exp") or "1").lstrip("0") or "0"
            if len(digits) > 1 or int(digits) > 4:
                raise ParseError(f"degree {digits} in {chunk!r} is above 4,"
                                 " the largest degree octaq reads")
            exp = int(digits)
        else:
            if m.group("exp") is not None:
                raise ParseError(f"exponent without variable in {chunk!r}")
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + value
    top = max(coeffs)
    return qpoly([coeffs.get(i, Fraction(0)) for i in range(top + 1)])


def _s4_quartic(text: str) -> tuple[UniPoly, ReducedQuartic]:
    """The monic quartic the user typed and its depressed form, which
    must have Galois group S4."""
    poly = parse_polynomial(text)
    if poly.degree != 4 or poly.lc != 1:
        raise ParseError(f"need a monic quartic, got {poly_str(poly)}")
    reduced = depress(poly)
    if not reduced.is_s4:
        raise NotOctahedral(f"{poly_str(poly)} does not have Galois group S4")
    return poly, reduced


def _place(v) -> object:
    return "oo" if v == INF else v


def _brauer_json(cls) -> list:
    return [_place(v) for v in cls.places()]


def _quad_json(q) -> dict:
    return {"rational": str(q.u), "surd": str(q.v),
            "radicand": str(q.field.t)}


def _curve_json(rec) -> dict:
    """t, j, the model and the quartics g_t and h_t of a QCurveRecord."""
    a, b = rec.model
    return {"t": str(rec.t), "j_invariant": _quad_json(rec.j),
            "model": {"A": _quad_json(a), "B": _quad_json(b)},
            "principal_quartic": [str(c) for c in rec.g_t.coeffs],
            "companion_quartic": [str(c) for c in rec.h_t.coeffs]}


def cmd_analyze(args) -> int:
    poly, reduced = _s4_quartic(args.polynomial)
    report = classify(reduced)
    out = {
        "input": poly_str(poly),
        "reduced": [str(reduced.c), str(reduced.b), str(reduced.a),
                    "0", "1"],
        "disc": str(reduced.disc()),
        "disc_class": report.d,
        "galois_s4": True,
        "witt_ramified": _brauer_json(reduced.trace_data.witt),
        "principal": report.principal,
        "embedding": {
            **report.flags(),
            "norm_2": report.star_norm2,
            "norm_-1": report.norm_minus1,
            "norm_-2": report.norm_minus2,
        },
    }
    if report.principal and report.d != -3:
        endo = endo_algebras(report)
        out["endomorphism_algebras"] = [
            {"case": c.label, "algebra": c.algebra, "b": str(c.b),
             "r": str(c.r), "K_eps": c.k_eps.text, "factors": c.factors}
            for c in endo.cases]
        principal_form, cert = principalize(reduced, box=args.box)
        t = t_from_principal(principal_form)
        out["principal_form"] = [str(principal_form.b),
                                 str(principal_form.c)]
        out["certificate"] = [str(cert.m), str(cert.n), str(cert.p),
                              str(cert.q)]
        out["qcurve"] = {
            "t": str(t),
            "field_k": f"Q(sqrt({squarefree_part(-3 * report.d)}))",
            "g_t": [str(c) for c in principal_quartic_poly(QQ, t).coeffs],
        }
    _emit(out)
    return 0


def cmd_principalize(args) -> int:
    poly, reduced = _s4_quartic(args.polynomial)
    out, cert = principalize(reduced, box=args.box)
    _emit({
        "input": poly_str(poly),
        "principal_form": [str(out.b), str(out.c)],
        "polynomial": poly_str(out.poly()),
        "certificate": {"m": str(cert.m), "n": str(cert.n),
                        "p": str(cert.p), "q": str(cert.q)},
    })
    return 0


def cmd_classify(args) -> int:
    poly, reduced = _s4_quartic(args.polynomial)
    report = classify(reduced)
    out = {
        "input": poly_str(poly),
        "disc_class": report.d,
        "decomposition": dataclasses.asdict(report.decomposition),
        "principal": report.principal,
        "embedding": report.flags(),
        "norms": {"2": report.star_norm2, "-1": report.norm_minus1,
                  "-2": report.norm_minus2},
        "table": report.table_id(),
    }
    _emit(out)
    return 0


def cmd_qcurve_from_t(args) -> int:
    t = parse_rational(args.t)
    rec = curve_from_t(t)
    wr = weil_restriction_factor(t)
    _emit({
        **_curve_json(rec),
        "j_at_cusp": J_AT_CUSP,
        "torsion_quartic": [_quad_json(c) for c in rec.f_t.coeffs],
        "weil_restriction": {
            "resultant_degree": wr.resultant_degree,
            "companion_divides": wr.divisible,
            "cofactor_degree": wr.cofactor.degree if wr.cofactor else None,
        },
    })
    return 0


def cmd_qcurve_from_quartic(args) -> int:
    poly, reduced = _s4_quartic(args.polynomial)
    principal, _ = principalize(reduced, box=args.box)
    rec = curve_from_t(t_from_principal(principal))
    _emit({
        **_curve_json(rec),
        "input": poly_str(poly),
        "principal_form": [str(principal.b), str(principal.c)],
        "field_k": f"Q(sqrt({squarefree_part(rec.t)}))",
    })
    return 0


def _verify_row(row, box: int) -> dict:
    """verify_table_row, with an OctaqError turned into a failed row so
    that one bad row fails alone."""
    try:
        return verify_table_row(row, box=box)
    except OctaqError as exc:
        return {"d": row.expected_disc, "table": row.table_id,
                "line": row.line, "passed": False,
                "failures": [f"{type(exc).__name__}: {exc}"]}


def cmd_verify_tables(args) -> int:
    if args.path is None:
        rows = load_bundled_corpus()
    else:
        try:
            with open(args.path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.path}: {exc.strerror}"
                             ) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.path} is not UTF-8 text: {exc.reason}"
                             ) from exc
        rows = parse_table(text)
        if not rows:
            # zero rows verified is no evidence for the table
            raise ParseError(f"{args.path} holds no table rows")
    results = [_verify_row(row, args.box) for row in rows]
    n_pass = sum(1 for r in results if r["passed"])
    for r in results:
        status = "ok" if r["passed"] else "FAIL " + "; ".join(r["failures"])
        print(f"row d={r['d']} table {r['table']}: {status}", file=sys.stderr)
    _emit({
        "rows": len(results),
        "passed": n_pass,
        "failed": len(results) - n_pass,
        "results": results,
    })
    return 0 if n_pass == len(results) else 2


def cmd_symbolic(args) -> int:
    entries = symbolic_suite()
    _emit({
        "checks": [{"name": e.name, "passed": e.passed,
                    **({"detail": e.detail} if e.detail else {})}
                   for e in entries],
        "all_passed": all(e.passed for e in entries),
    })
    return 0 if all(e.passed for e in entries) else 2


def cmd_gl2f9(args) -> int:
    led = verify_subgroup_classification()
    twists = {name: verify_outer_involutions(grp)
              for name, grp in five_groups().items()}
    out = {
        "checks": led.entries,
        "twists": twists,
        "all_passed": led.ok and all(
            twists[name][t].get("automorphism")
            and twists[name][t].get("square_inner")
            for name, plan in _TWIST_PLAN.items() for t in plan),
    }
    if args.conjugacy:
        scan = s4_conjugacy_scan()
        out["s4_conjugacy"] = scan
        out["all_passed"] = out["all_passed"] and scan["single_conjugacy_class"]
    _emit(out)
    return 0 if out["all_passed"] else 2


def _emit(obj) -> None:
    json.dump({"schema": SCHEMA, **obj}, sys.stdout, indent=2,
              sort_keys=True)
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="octaq",
        description="Exact analysis of octahedral quartic fields, their "
                    "embedding problems, and degree-2 Q-curve data")
    ap.add_argument("--factor-budget", type=int, default=FACTOR_BUDGET.get(),
                    help="Pollard rho iterations per factorization; a number"
                         " not split or proven prime within it stops the"
                         " command with exit 3 (default %(default)s)")
    ap.add_argument("--box", type=int, default=50,
                    help="principalize search box (default %(default)s)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full dossier for one quartic")
    p.add_argument("polynomial")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("principalize", help="find X^4 + bX + c for the field")
    p.add_argument("polynomial")
    p.set_defaults(fn=cmd_principalize)

    p = sub.add_parser("classify", help="embedding-problem solvability")
    p.add_argument("polynomial")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("qcurve", help="degree-2 Q-curve data")
    qsub = p.add_subparsers(dest="qcommand", required=True)
    q1 = qsub.add_parser("from-t", help="curve attached to a parameter t")
    q1.add_argument("t")
    q1.set_defaults(fn=cmd_qcurve_from_t)
    q2 = qsub.add_parser("from-quartic", help="curve attached to a quartic")
    q2.add_argument("polynomial")
    q2.set_defaults(fn=cmd_qcurve_from_quartic)

    p = sub.add_parser("verify-tables", help="re-derive a table corpus")
    p.add_argument("path", nargs="?", default=None,
                   help="table file (default: the bundled 85-row corpus)")
    p.set_defaults(fn=cmd_verify_tables)

    p = sub.add_parser("symbolic", help="symbolic identity suite in Q[s]")
    p.set_defaults(fn=cmd_symbolic)

    p = sub.add_parser("gl2f9", help="finite matrix-group verification")
    p.add_argument("--conjugacy", action="store_true",
                   help="proof that the S4 subgroups of PGL2(F9) form one"
                        " conjugacy class")
    p.set_defaults(fn=cmd_gl2f9)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    budget = FACTOR_BUDGET.set(args.factor_budget)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at
        # interpreter exit cannot fail again, and exit 128 + SIGPIPE as a
        # shell reports a process killed by it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        FACTOR_BUDGET.reset(budget)


def _run(args) -> int:
    try:
        for flag, value in (("--factor-budget", args.factor_budget),
                            ("--box", args.box)):
            if value < 0:
                raise ValidationFailure(f"{flag} {value} is negative")
        return args.fn(args)
    except (ComputationalLimit, ValidationFailure) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 3 if isinstance(exc, ComputationalLimit) else 2


if __name__ == "__main__":
    sys.exit(main())
