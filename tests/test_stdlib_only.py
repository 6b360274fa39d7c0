"""The runtime package imports nothing outside the standard library.

A static scan of every module under ``src/repro``, imports inside
functions included, so it holds even when the test environment has
extra packages installed (scipy for the q-Horn LP oracle).
"""

import ast
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_or_repro():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    modules = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert len(modules) > 50
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}:{lineno}: {root}"
        for path in modules
        for lineno, root in _imported_roots(ast.parse(path.read_text()))
        if root not in allowed
    ]
    assert offenders == []
