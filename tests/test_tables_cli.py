import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import octaq
from octaq import cli
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
@example([-1, 0, 0, 0, 0, 1])   # degree 5, the first one refused
def test_parse_polynomial_round_trips_poly_str(coeffs):
    p = qpoly(coeffs)
    if p.degree <= 4:
        assert parse_polynomial(poly_str(p)) == p
    else:
        with pytest.raises(ParseError, match=f"degree {p.degree} in"):
            parse_polynomial(poly_str(p))


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


def test_cli_non_principal_prints_only_proved_flags(capsys):
    # d = -6411 has d5 = d7 = 1, so the discriminant criteria would claim
    # 2S4+ and 4S4-; but the field is not principal and w x (2, d) is not
    # trivial, so 2S4+ is unsolvable and the 4S4 flags are unknown
    for command in ("analyze", "classify"):
        code, data = run_cli(capsys, command, "x^4-2x^2+3x-3")
        assert code == 0 and data["principal"] is False
        assert data["disc_class"] == -6411
        emb = data["embedding"]
        assert (emb["2S4+"], emb["4S4+"], emb["4S4-"]) == (False, None, None)
    assert data["table"] is None


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


@pytest.mark.parametrize("poly, form", [("x^4+16x-16", ["2", "-1"]),
                                        ("x^4-x-1", ["1", "-1"]),
                                        ("x^4+x-1", ["1", "-1"])])
def test_cli_from_quartic_prints_the_principalized_model(capsys, poly, form):
    # a quartic already of the shape X^4 + bX + c is normalized like any
    # other, so both commands print one principal model
    for command in (("qcurve", "from-quartic"), ("principalize",)):
        code, data = run_cli(capsys, *command, poly)
        assert code == 0 and data["principal_form"] == form


def _run_child(*argv, stdout=subprocess.PIPE, flags=()):
    env = {**os.environ,
           "PYTHONPATH": str(Path(octaq.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *flags, "-m", "octaq.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=60, env=env)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this CPython has no int-to-str digit limit")
@pytest.mark.parametrize("t, unlimited_code", [("2e1500", 0), ("1e5000", 2)])
def test_cli_result_past_the_int_str_limit_exits_3(t, unlimited_code):
    # the constant of g_t has about 4500 digits for t = 2e1500, and the
    # message of DegenerateParameter prints t = 1e5000 itself: both used
    # to end in a ValueError traceback from int-to-str and exit 1
    proc = _run_child("qcurve", "from-t", t)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "ComputationalLimit"
    assert "-X int_max_str_digits=0" in error["message"]
    assert str(sys.get_int_max_str_digits()) in error["message"]
    # with the limit lifted the command answers as for any other t
    proc = _run_child("qcurve", "from-t", t,
                      flags=("-X", "int_max_str_digits=0"))
    assert proc.returncode == unlimited_code, proc.stderr
    assert "Traceback" not in proc.stderr
    json.loads(proc.stdout)


def _digit_limit_error(stdout: str) -> None:
    error = json.loads(stdout)["error"]
    assert error["type"] == "ComputationalLimit"
    assert "-X int_max_str_digits=0" in error["message"]
    assert "sys.get_int_max_str_digits()" in error["message"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this CPython has no int-to-str digit limit")
def test_cli_input_past_the_int_str_limit_exits_3(capsys, tmp_path):
    # a well-formed number of 4301 digits used to be a ParseError (exit 2,
    # its digits echoed back) or, as a table's d, exit 2 with CPython's
    # text; it meets the limit a number of the result meets
    big = "7" * 4301
    proc = _run_child("qcurve", "from-t", "--", big)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    _digit_limit_error(proc.stdout)
    proc = _run_child("qcurve", "from-t", "--", big,
                      flags=("-X", "int_max_str_digits=0"))
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)
    assert main(["analyze", f"x^4+{big}x-1"]) == 3
    _digit_limit_error(capsys.readouterr().out)
    # not run with the limit lifted: squarefree_part(d) would spend the
    # whole factoring budget on a number of 4301 digits
    table = tmp_path / "big_d.txt"
    table.write_text(f"1 ; {big} ; -1,-1,0,0,1 ; -1,-1 ; 0\n")
    proc = _run_child("verify-tables", str(table))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    _digit_limit_error(proc.stdout)


def test_cli_other_value_errors_still_end_in_a_traceback(monkeypatch):
    # only the int-to-str guard is a computational limit; any other
    # ValueError is a bug
    def broken(args):
        raise ValueError("a bug")
    monkeypatch.setattr(cli, "cmd_gl2f9", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["gl2f9"])


@pytest.mark.parametrize("exponent", ["3000000", "9" * 5000])
def test_cli_analyze_high_degree_exits_quickly(capsys, exponent):
    # x^3000000 used to build 3,000,001 Fractions and take seconds before
    # exit 2; a 5000-digit exponent is past int()'s digit limit, and the
    # message quotes only its first 40 digits
    start = time.perf_counter()
    code, data = run_cli(capsys, "analyze", f"x^{exponent}+1")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert data["error"]["type"] == "ParseError"
    shown = exponent if len(exponent) <= 40 else \
        f"{exponent[:40]}... ({len(exponent)} characters)"
    assert f"degree {shown} in" in data["error"]["message"]


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


@pytest.mark.parametrize("argv", [("verify-tables",),
                                  ("analyze", "x^4+x-1")])
def test_cli_closed_stdout_exits_141_quietly(argv):
    # a reader that closes the pipe early, as `octaq verify-tables | head`
    # does, used to end in a BrokenPipeError traceback and exit 1: the
    # large output fails while it is written, the small one at the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_child(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 141


def test_cli_verify_tables_mutated(tmp_path, capsys):
    fixture = tmp_path / "mut.txt"
    fixture.write_text("2 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0\n")
    code, data = run_cli(capsys, "verify-tables", str(fixture))
    assert code == 2
    assert data["failed"] == 1


def test_cli_verify_tables_reducible_row_fails_alone(tmp_path, capsys):
    fixture = tmp_path / "reducible.txt"
    fixture.write_text("1 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0\n"
                       "1 ; -283 ; -1,0,0,0,1 ; 1,-1 ; 0\n")
    code, data = run_cli(capsys, "verify-tables", str(fixture))
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
    code, data = run_cli(capsys, "verify-tables", str(fixture))
    assert code == 2
    assert data["error"]["type"] == "ParseError"


def test_cli_verify_tables_unreadable_path_is_parse_error(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes("1 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0 # \xe9\n"
                         .encode("latin-1"))
    for path, message in ((missing, "No such file or directory"),
                          (tmp_path, "cannot read"),
                          (not_utf8, "is not UTF-8 text")):
        code, data = run_cli(capsys, "verify-tables", str(path))
        assert code == 2
        assert data["error"]["type"] == "ParseError"
        assert str(path) in data["error"]["message"]
        assert message in data["error"]["message"]


def test_cli_verify_tables_empty_table_is_parse_error(tmp_path, capsys):
    # a table with no rows proves nothing
    fixture = tmp_path / "empty.txt"
    fixture.write_text("# a comment\n")
    code, data = run_cli(capsys, "verify-tables", str(fixture))
    assert code == 2
    assert data["error"] == {"type": "ParseError",
                             "message": f"{fixture} holds no table rows"}


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
def test_cli_factors_no_principal_discriminant(capsys, command):
    # at budget 0 the corpus source x^4 - x^3 + 2x^2 + 2x - 1 factors
    # completely except for the discriminant of its principal form and
    # its t, whose square class -3 d is known from the source: both
    # commands exited 3 on factoring it
    argv = (*command, "--", "-1,2,2,-1,1")
    code, data = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, "--factor-budget", "0", *argv) == (code, data)


@pytest.mark.parametrize("command", [("analyze",), ("qcurve", "from-quartic")])
def test_cli_box_reaches_principalize(capsys, command):
    # x^4 + x^3 - 1 is principal, but not of the shape X^4 + bX + c, and
    # box 0 leaves only the excluded (m, n) = (0, 0)
    code, data = run_cli(capsys, "--box", "0", *command, "x^4+x^3-1")
    assert code == 3
    assert data["error"]["type"] == "SearchExhausted"
    code, data = run_cli(capsys, *command, "x^4+x^3-1")
    assert code == 0


def test_cli_det_field_bound_exit_code(capsys, monkeypatch):
    # d = 229: case (e) needs x = 2 with 229 - x^2 a square
    from octaq import embedding
    monkeypatch.setattr(embedding, "DET_FIELD_MAX_X", 1)
    code, data = run_cli(capsys, "analyze", "x^4-x+1")
    assert code == 3
    assert data["error"] == {
        "type": "SearchExhausted",
        "message": "no x <= 1 (DET_FIELD_MAX_X) with 229 - x^2 a square"}
    monkeypatch.undo()
    code, data = run_cli(capsys, "analyze", "x^4-x+1")
    assert code == 0 and data["disc_class"] == 229


@pytest.mark.parametrize("flag", ["--box", "--factor-budget"])
def test_cli_negative_setting_is_bad_input(capsys, flag):
    code, data = run_cli(capsys, flag, "-1", "analyze", "x^4+x-1")
    assert code == 2
    assert data["error"]["type"] == "ValidationFailure"
    assert flag in data["error"]["message"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this CPython has no int-to-str digit limit")
@pytest.mark.parametrize("flag", ["--box", "--factor-budget"])
def test_cli_setting_past_the_int_str_limit_exits_3(capsys, flag):
    # argparse used to parse the flag: exit 2 with its usage text on
    # stderr, all 4301 digits echoed; now it meets the limit a number of
    # the command's input meets
    big = "7" * 4301
    assert main([flag, big, "principalize", "x^4+x-1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    _digit_limit_error(captured.out)
    assert "7" * 20 not in captured.out
    # a malformed value is bad input, as a malformed number of the input is
    code, data = run_cli(capsys, flag, "7x", "principalize", "x^4+x-1")
    assert code == 2
    assert data["error"]["type"] == "ParseError"
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


def test_cli_parse_error_quotes_a_bounded_prefix(capsys):
    # a malformed input of 5000 characters used to be echoed in full, a
    # JSON error of about 5100 bytes; its message now quotes at most 40
    # characters of it and its length
    token = "z" * 5000
    for argv in (("--box", token, "principalize", "x^4+x-1"),
                 ("--factor-budget", token, "analyze", "x^4+x-1"),
                 ("qcurve", "from-t", token),
                 ("analyze", f"x^4+{token}x-1"),
                 ("analyze", f"1,2,{token}"),
                 ("analyze", "x^4+x^" + "9" * 5000),
                 ("analyze", "x^4+1^" + "9" * 5000)):
        assert main(list(argv)) == 2, argv[:2]
        captured = capsys.readouterr()
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "ParseError"
        assert len(error["message"]) < 200, error["message"]
        assert " characters)" in error["message"], error["message"]
    # a parsed polynomial is quoted by the same bound: these messages were
    # 4108 to 4127 bytes
    sevens = "7" * 4000
    for text, kind in ((f"2x^4+{sevens}x-1", "ParseError"),
                       (f"x^4+x^2+{sevens}x", "Reducible"),
                       (f"x^4+{sevens}x^2+1", "NotOctahedral")):
        assert main(["analyze", text]) == 2, kind
        captured = capsys.readouterr()
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == kind
        assert len(error["message"]) < 200, error["message"]
        assert " (4014 characters)" in error["message"], error["message"]
    # a short input is quoted whole, as before
    for argv, message in (
            (("--box", "7x", "principalize", "x^4+x-1"),
             "--box '7x' is not an integer"),
            (("qcurve", "from-t", "abc"), "bad number 'abc'"),
            (("analyze", "x^4+yx-1"), "cannot parse term '+yx'"),
            (("analyze", "x^5+x-1"),
             "degree 5 in 'x^5' is above 4, the largest degree octaq reads"),
            (("analyze", "x^4+2^3"), "exponent without variable in '+2^3'")):
        code, data = run_cli(capsys, *argv)
        assert (code, data["error"]["message"]) == (2, message)


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
    code, data = run_cli(capsys, "verify-tables", str(fixture))
    assert code == 0
    assert data["passed"] == 2
    # result order is input order
    assert [r["d"] for r in data["results"]] == [-283, 229]


def test_cli_verify_tables_runs_rows_in_order_in_process(tmp_path, capsys,
                                                          monkeypatch):
    from octaq import cli
    fixture = tmp_path / "three.txt"
    fixture.write_text("1 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0\n"
                       "3 ; 229 ; 1,-1,0,0,1 ; 1,1 ; 0\n"
                       "2 ; -283 ; -1,-1,0,0,1 ; 1,-1 ; 0\n")
    calls = []
    verify = cli.verify_table_row

    def recording(row, box):
        calls.append((row.line, row.expected_disc, box))
        return verify(row, box=box)
    monkeypatch.setattr(cli, "verify_table_row", recording)
    code = main(["--box", "7", "verify-tables", str(fixture)])
    capsys.readouterr()
    # a row verified in a worker process would not reach the recorder
    assert code == 2
    assert calls == [(1, -283, 7), (2, 229, 7), (3, -283, 7)]


def test_cli_symbolic(capsys):
    code, data = run_cli(capsys, "symbolic")
    assert code == 0
    assert data["all_passed"] is True


def test_cli_gl2f9(capsys):
    import hashlib
    code = main(["gl2f9"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0
    assert data["all_passed"] is True
    assert len(data["checks"]) == 16
    # stdout is pinned byte for byte to the output of the packed-integer
    # matrix arithmetic
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d926f3b1849140788ec56b60cce50e4bea42b71c156e20bed3bd917a70178f0b"


def test_cli_gl2f9_fails_on_a_broken_twist(capsys, monkeypatch):
    # phi as multiplication by zeta is no automorphism of G3, G4 or G5,
    # where the plan needs phi; the ledger itself still passes
    import octaq.gl2f9 as gl2f9
    monkeypatch.setattr(gl2f9, "twist_phi",
                        lambda m: gl2f9.scalar_mul(gl2f9.ZETA, m))
    code, data = run_cli(capsys, "gl2f9")
    assert code == 2
    assert data["all_passed"] is False
    assert all(e["passed"] for e in data["checks"])
    assert not any(data["twists"][g]["phi"].get("automorphism")
                   for g in ("G3", "G4", "G5"))


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


def test_cli_verify_tables_stdout_is_pinned(capsys):
    import hashlib
    code = main(["verify-tables"])
    out = capsys.readouterr().out
    assert code == 0
    # stdout is pinned byte for byte, principal models and certificates
    # included, to the output of the Fraction-quadratic isotropy search
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1975292ab56075ce0476e128ca5a081eb202d5d78c403c1c5a898c9214106ae8"


def test_cli_symbolic_stdout_is_pinned(capsys):
    import hashlib
    code = main(["symbolic"])
    out = capsys.readouterr().out
    assert code == 0
    # stdout is pinned byte for byte to the output of the
    # multiplication-matrix (Faddeev-LeVerrier) Tschirnhaus route over Q(s)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3560189619b3e86afe8d31b00f282ad40a0b2793b11013406b103d5c496932e6"


@pytest.mark.parametrize("t, digest", [
    ("-1", "b4a72cb596214600ac6341c438c59ab76a285977704e9c0a16359e352f104997"),
    ("5/3", "4758ec94bff9073c03fa70b6d73a25e290879a2320dad93a604f3efb756c826a"),
    ("2", "bcf04685ac1a4f33f712e13657f6ae90e3bb1f9c76e22459fef5bb95f26f500e"),
    ("283/27",
     "f9271b1b5c3557b5547e0c654566e434634d8a58e74461aa487d5708ff8eebc6"),
    ("-7/2",
     "3127aec8bc0f1aa3d473438bc6ffbdbb2c2604a13574adc76c95a6087ef0063a"),
    ("1/3",
     "1781a889dbba3406d1c057c43cf875afbf24ed87ff1b32dfaae569d56cb969a9"),
])
def test_cli_qcurve_from_t_stdout_is_pinned(capsys, t, digest):
    import hashlib
    code = main(["qcurve", "from-t", "--", t])
    out = capsys.readouterr().out
    assert code == 0
    # stdout, the Weil-restriction record included, is pinned byte for
    # byte to the output of the Bareiss resultant over Q[X] entries
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_principalize_names_the_exhausted_box(capsys):
    # a principal field whose model has no isotropic vector in the box
    code, data = run_cli(capsys, "principalize",
                         "x^4-259/2x^2+3041x-1362947/16")
    assert code == 3
    assert data["error"] == {
        "type": "SearchExhausted",
        "message": "no isotropic vector with (m, n) coordinates <= 50"}
