"""Quartic table corpus: file format, validation, and row verification.

One row per line: ``table_id ; d ; c0,c1,c2,c3,c4 ; b,c ; star`` with the
source polynomial ascending-power monic quartic and the principal
polynomial X^4 + bX + c.  ``#`` starts a comment.  The shipped corpus
lives in data/tables.txt (85 rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .embedding import classify, endo_algebras
from .errors import ParseError, ValidationError
from .polynomials import UniPoly, discriminant, qpoly
from .quartic import (depress, is_irreducible_quartic, principalize,
                      same_field)
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


def _validate(row: TableRow) -> None:
    src = row.source_poly()
    pri = row.principal_poly()
    if src.degree != 4 or src.lc != 1:
        raise ValidationError(f"line {row.line}: source is not a monic quartic")
    if not is_irreducible_quartic(src):
        raise ValidationError(f"line {row.line}: source polynomial reducible")
    if not is_irreducible_quartic(pri):
        raise ValidationError(f"line {row.line}: principal polynomial reducible")
    want = squarefree_part(row.expected_disc)
    if squarefree_part(discriminant(src)) != want:
        raise ValidationError(
            f"line {row.line}: source discriminant class differs from d")
    if squarefree_part(discriminant(pri)) != want:
        raise ValidationError(
            f"line {row.line}: principal discriminant class differs from d")


def parse_table(text: str, validate: bool = True) -> list[TableRow]:
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
            raise ParseError(f"line {lineno}: {exc}") from exc
        if table_id not in (1, 2, 3, 4, 5):
            raise ParseError(f"line {lineno}: table_id must be 1..5")
        if len(coeffs) != 5:
            raise ParseError(f"line {lineno}: need 5 source coefficients")
        row = TableRow(table_id=table_id, expected_disc=d,
                       source_coeffs=coeffs, principal_b=b, principal_c=c,
                       star=star, line=lineno)
        if validate:
            _validate(row)
        rows.append(row)
    return rows


def load_bundled_corpus(validate: bool = True) -> list[TableRow]:
    text = resources.files("octaq").joinpath("data/tables.txt").read_text()
    return parse_table(text, validate=validate)


def verify_table_row(row: TableRow, box: int = 50) -> dict:
    """Re-derive everything the row claims; returns a result dict with a
    'passed' flag and a list of failures."""
    failures = []
    checks = {}
    reduced = depress(row.source_poly())
    report = classify(reduced)

    checks["s4"] = True  # classify would have raised otherwise
    checks["principal"] = report.principal
    if not report.principal:
        failures.append("field is not principal")

    got_table = report.table_id()
    checks["table"] = got_table == row.table_id
    if not checks["table"]:
        failures.append(f"classified into table {got_table},"
                        f" row claims {row.table_id}")

    checks["star"] = report.star_norm2 == row.star
    if not checks["star"]:
        failures.append(f"star flag mismatch: (2,-3d) trivial is"
                        f" {report.star_norm2}, row says {row.star}")

    cert = same_field(row.source_poly(), row.principal_poly())
    checks["same_field"] = cert is not None
    if cert is None:
        failures.append("no field-equality certificate found")

    principal_form = None
    if report.principal:
        try:
            out, _ = principalize(reduced, box=box)
            principal_form = (out.b, out.c)
            checks["principalize"] = True
        except Exception as exc:
            checks["principalize"] = False
            failures.append(f"principalize failed: {exc}")
    result = {
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
        "principal_form": None if principal_form is None else
        [str(principal_form[0]), str(principal_form[1])],
    }
    return result
