"""The library imports no oracle.

The oracles in `tests/conftest.py` and `perfbench/reference.py` check the
library only while the library never reads them, so no module under
`src/treecolor` may import `tests`, `conftest` or anything under
`perfbench`, nor reach them by a relative import that leaves the package.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

import treecolor

ORACLE_PACKAGES = {"tests", "conftest", "perfbench"}
IMPORT_CALLS = {"import_module", "__import__"}  # importlib's, or the builtin
PACKAGE = pathlib.Path(treecolor.__file__).parent


def oracle_imports(source: str) -> list[str]:
    """The imports in `source` that name an oracle package or leave the
    package, each as written, in order of appearance."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 1:  # above the package
                found.append("." * node.level + (node.module or ""))
                continue
            names = [node.module] if node.level == 0 and node.module else []
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in IMPORT_CALLS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names = [node.args[0].value]
        else:
            continue
        found.extend(name for name in names if name.split(".")[0] in ORACLE_PACKAGES)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_library_module_imports_no_oracle(path):
    assert oracle_imports(path.read_text(encoding="utf-8")) == []


def test_oracle_import_check_sees_every_form():
    source = "\n".join([
        "import numpy, tests.helpers",
        "from conftest import block_projection",
        "from perfbench.reference import run",
        "from .dynamics import step",
        "from .. import perfbench",
        "importlib.import_module('perfbench.checks')",
        "__import__('tests')",
    ])
    assert oracle_imports(source) == [
        "tests.helpers", "conftest", "perfbench.reference", "..", "perfbench.checks", "tests",
    ]
