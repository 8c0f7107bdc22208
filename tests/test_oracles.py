"""The oracles in ``tests/oracles.py`` never call the code they certify.

Each oracle recomputes its values from first principles; one that imported
horokit could agree with the library by sharing its bug.  This parses the
module, without running it, and fails on any import of horokit.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def _horokit_imports(source: str) -> list[str]:
    """The import statements and dynamic imports of horokit in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "horokit"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "horokit":
                found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Call):
            found += [a.value for a in node.args
                      if isinstance(a, ast.Constant) and isinstance(a.value, str) and a.value.startswith("horokit")]
    return found


def test_oracles_import_no_horokit():
    assert _horokit_imports(ORACLES.read_text()) == []


def test_the_scan_sees_every_form_of_import():
    forms = ["import horokit", "import horokit.groups as g", "from horokit.groups import Zd",
             "from . import groups", "importlib.import_module('horokit.groups')", "__import__('horokit')"]
    assert all(_horokit_imports(form) for form in forms)
    assert _horokit_imports("import numpy\nfrom fractions import Fraction\nx = 'horokit-free'") == []
