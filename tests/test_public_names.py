"""Tests reach the library only through its public names."""

import ast
from pathlib import Path


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
