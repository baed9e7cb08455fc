import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaq.cli import main, parse_polynomial
from octaq.errors import ParseError
from octaq.polynomials import poly_str, qpoly
from octaq.tables import (load_bundled_corpus, parse_table, verify_table_row)

CORPUS = load_bundled_corpus()


# -- parsing -------------------------------------------------------------------


def test_parse_table_first_row():
    rows = parse_table("1 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0")
    assert len(rows) == 1
    r = rows[0]
    assert r.table_id == 1 and r.expected_disc == -283
    assert r.source_coeffs == (-1, -1, 0, 0, 1)
    assert (r.principal_b, r.principal_c) == (1, -1)
    assert not r.star


def test_parse_table_malformed():
    with pytest.raises(ParseError):
        parse_table("1 ; -283 ; -1,-1,0,zero,1 ; 1,-1 ; 0")
    with pytest.raises(ParseError):
        parse_table("1 ; -283 ; -1,-1,0,0,1 ; 1,-1")
    with pytest.raises(ParseError):
        parse_table("9 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0")
    with pytest.raises(ParseError, match="not monic"):
        parse_table("1 ; -283 ; -1,-1,0,0,2 ; 1,-1 ; 0")
    with pytest.raises(ParseError, match="nonzero"):
        parse_table("1 ; 0 ; -1,-1,0,0,1 ; 1,-1 ; 0")


def test_bundled_corpus_shape():
    counts = {}
    for row in CORPUS:
        counts[row.table_id] = counts.get(row.table_id, 0) + 1
    assert counts == {1: 20, 2: 20, 3: 20, 4: 20, 5: 5}


def test_polynomial_string_parser():
    assert parse_polynomial("x^4+x-1") == qpoly([-1, 1, 0, 0, 1])
    assert parse_polynomial("x^4 + 37x - 43") == qpoly([-43, 37, 0, 0, 1])
    assert parse_polynomial("-1,-1,0,0,1") == qpoly([-1, -1, 0, 0, 1])
    assert parse_polynomial("X^4-6X^2+8X+51") == qpoly([51, 8, -6, 0, 1])
    from fractions import Fraction
    assert parse_polynomial("3/2x^2+1") == qpoly([1, 0, Fraction(3, 2)])
    with pytest.raises(ParseError):
        parse_polynomial("x^4+y-1")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=50), max_size=7))
def test_parse_polynomial_round_trips_poly_str(coeffs):
    p = qpoly(coeffs)
    assert parse_polynomial(poly_str(p)) == p


# -- row verification and mutation controls -------------------------------------


def test_verify_row_passes():
    res = verify_table_row(CORPUS[0])
    assert res["passed"] and not res["failures"]
    assert res["embedding"]["2S4+"] is True


def test_wrong_table_fails_loudly():
    row = replace(CORPUS[0], table_id=3)
    res = verify_table_row(row)
    assert not res["passed"]
    assert any("table" in f for f in res["failures"])


def test_verify_row_flags_disc_mismatch():
    # parse_table proves nothing: the d column is checked per row
    res = verify_table_row(replace(CORPUS[0], expected_disc=-284))
    assert res["checks"]["disc"] is False
    assert not res["passed"]
    assert any("-284" in f for f in res["failures"])
    assert verify_table_row(CORPUS[0])["checks"]["disc"] is True


def test_verify_row_lets_internal_errors_through(monkeypatch):
    from octaq import tables

    def broken(f, box=50):
        raise ZeroDivisionError("internal bug")
    monkeypatch.setattr(tables, "principalize", broken)
    with pytest.raises(ZeroDivisionError):
        verify_table_row(CORPUS[0])


def test_star_toggle_fails_loudly():
    starred = next(r for r in CORPUS if r.expected_disc == -1107)
    res = verify_table_row(replace(starred, star=False))
    assert not res["passed"]
    assert any("star" in f for f in res["failures"])


# -- CLI -------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_analyze_principal(capsys):
    code, data = run_cli(capsys, "analyze", "x^4+x-1")
    assert code == 0
    assert data["schema"] == 1
    assert data["principal"] is True
    assert data["embedding"]["2S4+"] is True
    assert data["qcurve"]["t"] == "283/27"
    algebras = {c["algebra"] for c in data["endomorphism_algebras"]}
    assert "Q(sqrt(-2))" in algebras


def test_cli_analyze_non_octahedral(capsys):
    code, data = run_cli(capsys, "analyze", "x^4+1")
    assert code == 2
    assert data["error"]["type"] == "NotOctahedral"


def test_cli_analyze_table5_row(capsys):
    code, data = run_cli(capsys, "analyze", "x^4-x^3-3")
    assert code == 0
    emb = data["embedding"]
    assert not emb["2S4+"] and not emb["4S4+"] and not emb["4S4-"]
    assert emb["8S4-"] is True
    algebras = {c["algebra"] for c in data["endomorphism_algebras"]}
    assert "Q(i)" in algebras


@pytest.mark.parametrize("argv, error, poly", [
    (("analyze", "x^4-6x^2+8x+51"), "NotOctahedral", "x^4 - 6*x^2 + 8*x + 51"),
    (("classify", "x^4+1"), "NotOctahedral", "x^4 + 1"),
    # totally real S4 fields are never principal
    (("principalize", "x^4-10x^2-6x+1"), "NotPrincipal",
     "x^4 - 10*x^2 - 6*x + 1"),
])
def test_cli_error_names_the_polynomial(capsys, argv, error, poly):
    code, data = run_cli(capsys, *argv)
    assert code == 2
    assert data["error"]["type"] == error
    assert poly in data["error"]["message"]
    assert "Fraction(" not in data["error"]["message"]


def test_cli_byte_reproducible(capsys):
    code1 = main(["analyze", "x^4+37x-43"])
    out1 = capsys.readouterr().out
    code2 = main(["analyze", "x^4+37x-43"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_classify(capsys):
    code, data = run_cli(capsys, "classify", "x^4-x-1")
    assert code == 0
    assert data["table"] == 1
    assert data["decomposition"]["d3"] == 283


def test_cli_qcurve_from_t(capsys):
    code, data = run_cli(capsys, "qcurve", "from-t", "-1")
    assert code == 0
    assert data["principal_quartic"] == ["24", "16", "0", "0", "1"]
    assert data["companion_quartic"] == ["51", "8", "-6", "0", "1"]
    assert data["weil_restriction"]["companion_divides"] is True


def test_cli_qcurve_degenerate(capsys):
    code, data = run_cli(capsys, "qcurve", "from-t", "4")
    assert code == 2
    assert data["error"]["type"] == "DegenerateParameter"


@pytest.mark.parametrize("poly", ["x^4+1", "x^4-2"])
def test_cli_qcurve_from_quartic_non_octahedral(capsys, poly):
    # X^4 + c passes as a principal model with b = 0, where t is undefined
    code, data = run_cli(capsys, "qcurve", "from-quartic", poly)
    assert code == 2
    assert data["error"]["type"] == "NotOctahedral"


def _run_child(*argv):
    import subprocess
    import sys
    from pathlib import Path

    import octaq
    env = {**os.environ,
           "PYTHONPATH": str(Path(octaq.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "octaq.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)


def test_cli_principalize_non_octahedral_is_quiet():
    # principalize used to answer for a non-S4 quartic with exit 0 and a
    # UserWarning on stderr; stderr is checked in a child process
    proc = _run_child("principalize", "x^4-6x^2+8x+51")
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "NotOctahedral"
    assert "x^4 - 6*x^2 + 8*x + 51" in error["message"]
    assert proc.stderr == ""


def test_cli_qcurve_from_quartic_non_s4_ends():
    # principalize used to reach a model with b = 0 and loop on its
    # valuation, so run it in a child process under a timeout
    proc = _run_child("qcurve", "from-quartic", "x^4+3x^2+1")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "NotOctahedral"


def test_cli_verify_tables_mutated(tmp_path, capsys):
    fixture = tmp_path / "mut.txt"
    fixture.write_text("2 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0\n")
    code, data = run_cli(capsys, "verify-tables", str(fixture), "--jobs", "1")
    assert code == 2
    assert data["failed"] == 1


def test_cli_verify_tables_reducible_row_fails_alone(tmp_path, capsys):
    fixture = tmp_path / "reducible.txt"
    fixture.write_text("1 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0\n"
                       "1 ; -283 ; -1,0,0,0,1 ; 1,-1 ; 0\n")
    code, data = run_cli(capsys, "verify-tables", str(fixture), "--jobs", "1")
    assert code == 2
    assert (data["passed"], data["failed"]) == (1, 1)
    assert data["results"][1]["failures"] == [
        "Reducible: x^4 - 1 factors over Q"]


@pytest.mark.parametrize("line", [
    "1 ; -283 ; -1,-1,0,0,2 ; 1,-1 ; 0",   # source not monic
    "1 ; 0 ; -1,-1,0,0,1 ; 1,-1 ; 0",      # d = 0
])
def test_cli_verify_tables_bad_file_is_parse_error(tmp_path, capsys, line):
    fixture = tmp_path / "bad.txt"
    fixture.write_text(line + "\n")
    code, data = run_cli(capsys, "verify-tables", str(fixture), "--jobs", "1")
    assert code == 2
    assert data["error"]["type"] == "ParseError"


def test_cli_factor_bound_exhaustion_exit_code(capsys):
    # disc(x^4+67x+1) = -4583 * 118717: past the trial-division table, so
    # only rho can split it
    before = os.environ.get("OCTA_FACTOR_BUDGET")
    code, data = run_cli(capsys, "--factor-budget", "0", "analyze",
                         "x^4+67x+1")
    assert code == 3
    assert data["error"]["type"] == "FactorizationIncomplete"
    assert os.environ.get("OCTA_FACTOR_BUDGET") == before  # override restored
    code, data = run_cli(capsys, "analyze", "x^4+67x+1")
    assert code == 0 and data["disc_class"] == -544080011


@pytest.mark.parametrize("command", [("analyze",), ("qcurve", "from-quartic")])
def test_cli_box_reaches_principalize(capsys, command):
    # x^4 + x^3 - 1 is principal, but not of the shape X^4 + bX + c, and
    # box 0 leaves only the excluded (m, n) = (0, 0)
    code, data = run_cli(capsys, "--box", "0", *command, "x^4+x^3-1")
    assert code == 3
    assert data["error"]["type"] == "SearchExhausted"
    code, data = run_cli(capsys, *command, "x^4+x^3-1")
    assert code == 0


@pytest.mark.parametrize("flag", ["--box", "--factor-budget"])
def test_cli_negative_setting_is_bad_input(capsys, flag):
    code, data = run_cli(capsys, flag, "-1", "analyze", "x^4+x-1")
    assert code == 2
    assert data["error"]["type"] == "ValidationFailure"
    assert flag in data["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("qcurve", "from-t", "1/0"),
    ("qcurve", "from-t", "abc"),
    ("analyze", "1/0,0,0,0,1"),
    ("analyze", "abc,0,0,0,1"),
    ("analyze", "x^4+1/0x-1"),
])
def test_cli_bad_number_exit_code(capsys, argv):
    code, data = run_cli(capsys, *argv)
    assert code == 2
    assert data["error"]["type"] == "ParseError"


def test_cli_internal_value_error_is_not_bad_input(monkeypatch):
    from octaq import cli

    def broken(args):
        raise ValueError("division is not exact")
    monkeypatch.setattr(cli, "cmd_symbolic", broken)
    with pytest.raises(ValueError):
        main(["symbolic"])


def test_cli_verify_tables_worker_pool(tmp_path, capsys):
    fixture = tmp_path / "two.txt"
    fixture.write_text("1 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0\n"
                       "3 ; 229 ; 1,-1,0,0,1 ; 1,1 ; 0\n")
    code, data = run_cli(capsys, "verify-tables", str(fixture), "--jobs", "2")
    assert code == 0
    assert data["passed"] == 2
    # result order is input order regardless of worker scheduling
    assert [r["d"] for r in data["results"]] == [-283, 229]


def test_cli_symbolic(capsys):
    code, data = run_cli(capsys, "symbolic", "--samples", "3")
    assert code == 0
    assert data["all_passed"] is True


def test_cli_gl2f9(capsys):
    code, data = run_cli(capsys, "gl2f9")
    assert code == 0
    assert data["all_passed"] is True
    assert len(data["checks"]) == 16


def test_cli_gl2f9_conjugacy(capsys):
    import hashlib
    code = main(["gl2f9", "--conjugacy"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["s4_conjugacy"] == {
        "subgroup_count": 30, "single_conjugacy_class": True}
    # stdout is pinned byte for byte to the brute-force scan's output
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ac2db0e85faa55d70bdcdd79666a237c4ec7229a84968dec6b0d571a429ef445"
