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


def test_import_and_analyze_do_not_load_mpmath():
    # no command uses floating point; mpmath stays behind octaq.roots
    script = ("import sys, octaq\n"
              "assert 'mpmath' not in sys.modules\n"
              "from octaq.cli import main\n"
              "main(['analyze', 'x^4+x-1'])\n"
              "assert 'mpmath' not in sys.modules\n")
    src = str(Path(octaq.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
