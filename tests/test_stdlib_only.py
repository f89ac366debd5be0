"""The runtime uses the standard library only: every import in the package is stdlib or relative."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckepoly

PACKAGE_DIR = Path(heckepoly.__file__).parent


def _imports(path):
    """(line, module) for each import in a file: an absolute import's top-level module, a relative one's ".name"."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level:
            for name in [node.module] if node.module else [alias.name for alias in node.names]:
                yield node.lineno, "." + name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_stdlib_or_relative():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 10
    offenders = [
        "%s:%d %s" % (path.name, line, module)
        for path in sources
        for line, module in _imports(path)
        if not module.startswith(".") and module not in sys.stdlib_module_names
    ]
    assert offenders == []


def test_qoracle_imports_only_the_exact_arithmetic_layers():
    # the q-expansion oracle is the independent channel: no module of the period pipeline may feed it
    allowed = {".errors", ".exactlinalg", ".exactnum", ".polyring"}
    offenders = [
        "qoracle.py:%d %s" % (line, module)
        for line, module in _imports(PACKAGE_DIR / "qoracle.py")
        if module not in allowed and module not in sys.stdlib_module_names
    ]
    assert offenders == []


@pytest.mark.parametrize("name", ["exactnum.py", "exactlinalg.py"])
def test_exact_arithmetic_layers_import_nothing_above_them(name):
    # the oracle and every layer take their input rules and exact arithmetic from here, so these read nothing higher
    allowed = {".errors", ".exactnum", ".polyring"}
    offenders = [
        "%s:%d %s" % (name, line, module)
        for line, module in _imports(PACKAGE_DIR / name)
        if module not in allowed and module not in sys.stdlib_module_names
    ]
    assert offenders == []


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every CLI call pays for what ``import heckepoly.cli`` loads; -S keeps site's own imports out of the count
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    probe = "import sys, heckepoly.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_all_names_exactly_the_public_imports_of_the_package():
    # __all__ is written out beside the imports that bind its names, so the two lists are checked against each other
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert len(imported) == len(set(imported)) == 43
    assert sorted(heckepoly.__all__) == sorted(imported)
