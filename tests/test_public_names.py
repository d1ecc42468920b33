"""Tests reach the library only through its public names."""

import ast
import inspect
from pathlib import Path

import gameclust


def test_tests_use_only_public_library_names():
    # a private helper may change with the code it serves; the references in
    # oracles.py pin the rules behind it
    sites = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gameclust"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            private = [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]
            sites += [f"{path.name}:{node.lineno}: {n}" for n in private]
    assert not sites, "private library names reached by tests:\n" + "\n".join(sites)


def test_exports_are_the_public_names():
    # every public name once, and no listed name the package lacks, which
    # would break ``from gameclust import *``
    exported = gameclust.__all__
    public = {name for name, value in vars(gameclust).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(exported) == len(set(exported)), "a name is listed twice in __all__"
    assert set(exported) == public, f"unlisted: {sorted(public - set(exported))}, missing: {sorted(set(exported) - public)}"
