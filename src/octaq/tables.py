"""Quartic table corpus: file format and row verification.

One row per line: ``table_id ; d ; c0,c1,c2,c3,c4 ; b,c ; star`` with the
source polynomial ascending-power monic quartic and the principal
polynomial X^4 + bX + c.  ``#`` starts a comment.  The shipped corpus
lives in data/tables.txt (85 rows).

Parsing checks only the syntax and two cheap facts (a monic source and
d != 0); every mathematical claim of a row is proved once, by
``verify_table_row``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .embedding import classify, endo_algebras
from .errors import ComputationalLimit, ParseError, _digit_limit
from .polynomials import UniPoly, qpoly
from .quartic import depress, principalize, same_field
from .rationals import squarefree_part


@dataclass(frozen=True)
class TableRow:
    table_id: int
    expected_disc: int
    source_coeffs: tuple[int, ...]
    principal_b: int
    principal_c: int
    star: bool
    line: int

    def source_poly(self) -> UniPoly:
        return qpoly(list(self.source_coeffs))

    def principal_poly(self) -> UniPoly:
        return qpoly([self.principal_c, self.principal_b, 0, 0, 1])


def parse_table(text: str) -> list[TableRow]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            table_id = int(parts[0])
            d = int(parts[1])
            coeffs = tuple(int(c) for c in parts[2].split(","))
            b, c = (int(v) for v in parts[3].split(","))
            star = {"0": False, "1": True}[parts[4]]
        except (ValueError, KeyError) as exc:
            if _digit_limit(exc):
                raise  # well formed: cli._run reports the limit
            raise ParseError(f"line {lineno}: {exc}") from exc
        if table_id not in (1, 2, 3, 4, 5):
            raise ParseError(f"line {lineno}: table_id must be 1..5")
        if len(coeffs) != 5:
            raise ParseError(f"line {lineno}: need 5 source coefficients")
        if coeffs[4] != 1:
            raise ParseError(f"line {lineno}: source is not monic")
        if d == 0:
            raise ParseError(f"line {lineno}: d must be nonzero")
        rows.append(TableRow(table_id=table_id, expected_disc=d,
                             source_coeffs=coeffs, principal_b=b,
                             principal_c=c, star=star, line=lineno))
    return rows


def load_bundled_corpus() -> list[TableRow]:
    text = resources.files("octaq").joinpath("data/tables.txt").read_text()
    return parse_table(text)


def verify_table_row(row: TableRow, box: int = 50) -> dict:
    """Re-derive everything the row claims; returns a result dict with a
    'passed' flag and a list of failures.

    parse_table proves nothing, so every claim is checked here: depress
    proves the source irreducible, classify that it is S4 (or raises),
    and same_field that the principal polynomial is irreducible (or
    raises) and defines the same field, which gives it the source's
    discriminant class too."""
    reduced = depress(row.source_poly())
    report = classify(reduced)
    got_table = report.table_id()
    # (name, passed, failure): s4 holds, as classify would have raised
    outcomes = [
        ("s4", True, ""),
        ("disc", report.d == squarefree_part(row.expected_disc),
         f"discriminant class is {report.d}, row claims d ="
         f" {row.expected_disc}"),
        ("principal", report.principal, "field is not principal"),
        ("table", got_table == row.table_id,
         f"classified into table {got_table}, row claims {row.table_id}"),
        ("star", report.star_norm2 == row.star,
         f"star flag mismatch: (2,-3d) trivial is {report.star_norm2},"
         f" row says {row.star}"),
    ]
    cert = same_field(row.source_poly(), row.principal_poly())
    outcomes.append(("same_field", cert is not None,
                     "no field-equality certificate found"))
    principal_form = None
    if report.principal:
        try:
            out, _ = principalize(reduced, box=box)
            principal_form = [str(out.b), str(out.c)]
            outcomes.append(("principalize", True, ""))
        except ComputationalLimit as exc:
            outcomes.append(("principalize", False,
                             f"principalize failed: {exc}"))
    checks = {name: passed for name, passed, _ in outcomes}
    failures = [failure for _, passed, failure in outcomes if not passed]
    return {
        "d": row.expected_disc,
        "d_class": report.d,
        "table": row.table_id,
        "line": row.line,
        "checks": checks,
        "passed": not failures,
        "failures": failures,
        "embedding": report.flags(),
        "algebras": sorted(endo_algebras(report).algebras())
        if report.principal and report.d != -3 else [],
        "certificate": None if cert is None else
        [str(cert.m), str(cert.n), str(cert.p), str(cert.q)],
        "principal_form": principal_form,
    }
