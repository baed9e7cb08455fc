from types import ModuleType


def test_star_import_binds_no_module():
    namespace = {}
    exec("from octaq import *", namespace)
    namespace.pop("__builtins__")
    assert "classify" in namespace and "verify_table_row" in namespace
    assert [name for name, value in namespace.items()
            if isinstance(value, ModuleType)] == []
