"""Static checks on the package and test sources that need no linter."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "holo_rmt"


def unused_imports(source):
    """Names bound by an import in ``source`` that no expression reads.

    ``from __future__`` imports are directives, not bindings.  A dotted
    ``import a.b`` binds ``a``; an attribute chain ``a.b.c`` reads it.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_detector_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "def f():\n    import json\n    return np.pi + os.sep\n"
              "@dataclass\nclass C:\n    x: int\n")
    assert unused_imports(source) == [(2, "math"), (5, "field"), (7, "json")]


# The package's __init__ imports only to re-export.
@pytest.mark.parametrize("path", [
    *(pytest.param(p, id=p.name) for p in sorted(PACKAGE.glob("*.py"))
      if p.name != "__init__.py"),
    *(pytest.param(p, id=f"tests/{p.name}")
      for p in sorted(TESTS.glob("*.py")))])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
