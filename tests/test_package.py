import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import octaq


def test_star_import_binds_no_module():
    namespace = {}
    exec("from octaq import *", namespace)
    namespace.pop("__builtins__")
    assert "classify" in namespace and "verify_table_row" in namespace
    assert [name for name, value in namespace.items()
            if isinstance(value, ModuleType)] == []


# the CLI examples of the README, each with the sha256 of its stdout
README_COMMANDS = {
    ("verify-tables",):
        "1975292ab56075ce0476e128ca5a081eb202d5d78c403c1c5a898c9214106ae8",
    ("analyze", "x^4+x-1"):
        "6b8c444027b34fb32d265cebae5b0b126bd0eea7f048815baa0068f3803707df",
    ("classify", "x^4+37x-43"):
        "9fd5dcbfee3508dfe31e59b5cf744ace139f435a305134037cf331954e2be95b",
    ("principalize", "--", "-1,-1,0,0,1"):
        "f99970920ea0e1e7e419257bce6c7cb4fef317f03ec9ccaee3618bbffabb34d7",
    ("qcurve", "from-t", "--", "-1"):
        "b4a72cb596214600ac6341c438c59ab76a285977704e9c0a16359e352f104997",
    ("qcurve", "from-quartic", "x^4+x-1"):
        "19b0a4085b9d16b774054f540fa15fecfa27df575184696e47993c5731a2d27b",
    ("symbolic",):
        "3560189619b3e86afe8d31b00f282ad40a0b2793b11013406b103d5c496932e6",
    ("gl2f9", "--conjugacy"):
        "ac2db0e85faa55d70bdcdd79666a237c4ec7229a84968dec6b0d571a429ef445",
}


def test_readme_commands_need_no_runtime_dependency():
    # octaq has no runtime dependency: with mpmath unimportable, every
    # README example exits 0 and keeps its pinned stdout
    script = (
        "import contextlib, hashlib, io, json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from octaq.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()\n"
        "    print(json.dumps([argv, code, digest]))\n")
    proc = _run_python("-c", script, json.dumps(list(README_COMMANDS)))
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.decode().splitlines()]
    assert {tuple(argv): (code, digest) for argv, code, digest in runs} == \
        {argv: (0, digest) for argv, digest in README_COMMANDS.items()}


def _run_python(*args):
    src = str(Path(octaq.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": src})


PACKAGE = Path(octaq.__file__).resolve().parent


def _package_nodes(package: Path = PACKAGE):
    """(file name, node) for every AST node of every module of package."""
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_package_has_no_assert_statement():
    # -O strips assert statements, so no invariant may rest on one: every
    # module of the package, parsed, holds none
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _non_stdlib_imports(package: Path = PACKAGE) -> list[str]:
    """The imports of the package that are neither relative nor of a
    module of the standard library."""
    found = []
    for name, node in _package_nodes(package):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno} {module}" for module in modules
                  if module.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_the_standard_library(tmp_path):
    # octaq has no dependency: every import of src/octaq is relative or of
    # a stdlib module; a module importing mpmath, in either form, is caught
    assert _non_stdlib_imports() == []
    (tmp_path / "roots.py").write_text(
        "import json\nfrom . import errors\nfrom mpmath import mpf\n"
        "import mpmath.libmp\n", encoding="utf-8")
    assert _non_stdlib_imports(tmp_path) == [
        "roots.py:3 mpmath", "roots.py:4 mpmath.libmp"]


def test_verify_tables_under_python_O():
    # -O strips assert statements; every check must be an explicit raise
    import hashlib
    proc = _run_python("-O", "-m", "octaq.cli", "verify-tables")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "1975292ab56075ce0476e128ca5a081eb202d5d78c403c1c5a898c9214106ae8"


def test_trace_form_checks_survive_python_O():
    # a corrupted power sum fails the determinant identity, a basis that is
    # not orthogonal fails the diagonal check, both as explicit raises
    script = (
        "from octaq import quartic as q\n"
        "f = q.ReducedQuartic(0, 1, -1)\n"
        "power_sums = q._power_sums\n"
        "q._power_sums = lambda *a: [x + (k == 6) for k, x in"
        " enumerate(power_sums(*a))]\n"
        "try:\n"
        "    q.trace_form(f)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "q._power_sums = power_sums\n"
        "q._orthogonal_basis = lambda gram: [[0, 1, 0], [0, 0, 1], [1, 1, 0]]\n"
        "try:\n"
        "    q.trace_form(f)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    proc = _run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == 2, lines
    assert "determinant" in lines[0] and "orthogonal" in lines[1]


def test_resultant_kernel_checks_survive_python_O():
    # the composed-sum kernel of the Weil resultant refuses a quartic that
    # is not monic reduced, and a Weil restriction with an odd power of s
    # fails the read at t: both are explicit raises
    script = (
        "from octaq import qcurve\n"
        "from octaq.polynomials import UniPoly, qpoly\n"
        "quartic = qpoly([1, 1, 0, 0, 1])\n"
        "for f, g in ((quartic, quartic.scale(2)),\n"
        "             (quartic, qpoly([1, 1, 0, 1, 1]))):\n"
        "    try:\n"
        "        print('returned', qcurve._composed_sum(f, g))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "composed_sum = qcurve._composed_sum\n"
        "qcurve._composed_sum = lambda f, g: composed_sum(f, g) + UniPoly(\n"
        "    f.field, [f.field.gen])\n"
        "try:\n"
        "    print('returned', qcurve.weil_restriction_factor(2))\n"
        "except qcurve.OctaqError as exc:\n"
        "    print(type(exc).__name__)\n")
    proc = _run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "need two monic reduced quartics", "need two monic reduced quartics",
        "OctaqError"]


def test_symbolic_suite_under_python_O():
    # the identity suite keeps its stdout under -O, a corrupted g_t still
    # fails its entries, an h_t with its constant off by 1 fails the Weil
    # entry, and every division the ring Q[s] refuses (by zero, by a
    # non-constant) is an explicit raise
    import hashlib
    proc = _run_python("-O", "-m", "octaq.cli", "symbolic")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "3560189619b3e86afe8d31b00f282ad40a0b2793b11013406b103d5c496932e6"
    script = (
        "from octaq.polynomials import UniPoly\n"
        "from octaq.qcurve import SymbolicContext, symbolic_suite\n"
        "ctx = SymbolicContext()\n"
        "bad = list(ctx.g_t.coeffs)\n"
        "bad[1] = bad[1] + 1\n"
        "ctx.g_t = UniPoly(ctx.field, bad)\n"
        "print(sorted(e.name for e in symbolic_suite(samples=1, ctx=ctx)\n"
        "             if not e.passed))\n"
        "ctx = SymbolicContext()\n"
        "ctx.h_t = ctx.h_t + UniPoly(ctx.field, [1])\n"
        "print(sorted(e.name for e in symbolic_suite(samples=1, ctx=ctx)\n"
        "             if not e.passed))\n"
        "s = ctx.s\n"
        "for call in (lambda: s / 0, lambda: s / (s + 1),\n"
        "             lambda: (s + 1) ** -1):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except (ZeroDivisionError, ValueError) as exc:\n"
        "        print(type(exc).__name__)\n")
    proc = _run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "['disc_principal_quartic', 'tsc_companion_to_principal',"
        " 'tsc_principal_to_torsion', 'tsc_torsion_to_principal']",
        "['companion_divides_weil_resultant', 'disc_companion_quartic',"
        " 'tsc_companion_to_principal']",
        "ZeroDivisionError", "ValueError", "ValueError"]


def test_gl2f9_conjugacy_under_python_O():
    # the GL2(F9) proofs, the S4 scan included, keep their stdout under -O
    import hashlib
    proc = _run_python("-O", "-m", "octaq.cli", "gl2f9", "--conjugacy")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "ac2db0e85faa55d70bdcdd79666a237c4ec7229a84968dec6b0d571a429ef445"


def test_python_m_octaq_runs_the_cli():
    args = ("principalize", "--", "-1,-1,0,0,1")
    package = _run_python("-m", "octaq", *args)
    cli = _run_python("-m", "octaq.cli", *args)
    assert package.returncode == cli.returncode == 0, package.stderr
    assert package.stdout == cli.stdout and package.stdout
