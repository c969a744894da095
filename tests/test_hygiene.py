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


def dead_helpers(sources):
    """Module-level ``_private`` functions that no code reads.

    ``sources`` maps module names to source text.  A read is a name or an
    attribute (``solver._full``) anywhere in any of the sources, except
    inside the function's own ``def``, so a helper that only calls itself
    is dead too.  Dunder names are protocol hooks, not helpers.
    """
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {node.id for node in ast.walk(stmt)
                     if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute)}
            if isinstance(stmt, ast.FunctionDef):
                names.discard(stmt.name)
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append((module, stmt.name))
            read |= names
    return sorted((module, name) for module, name in defined
                  if name not in read)


def test_dead_helper_detector():
    sources = {
        "a": ("def _used():\n    return 1\n"
              "def _unused():\n    return _used()\n"
              "def _recursive(k):\n    return _recursive(k - 1) if k else 0\n"
              "def _by_attribute():\n    pass\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n"
              "class C:\n    def _method(self):\n        pass\n"),
        "b": "from . import a\nVALUE = a._by_attribute\n",
    }
    assert dead_helpers(sources) == [("a", "_recursive"), ("a", "_unused")]


def test_every_private_helper_is_read():
    assert dead_helpers({p.name: p.read_text()
                         for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_detector_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "def f():\n    import json\n    return np.pi + os.sep\n"
              "@dataclass\nclass C:\n    x: int\n")
    assert unused_imports(source) == [(2, "math"), (5, "field"), (7, "json")]


def vectorize_reads(source):
    """Lines of ``source`` that read ``vectorize`` off numpy: ``np.vectorize``
    is a Python loop over object arrays, slower than mapping the scalar
    function over ``tolist()``, and it refuses a size-0 input."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "vectorize"
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy"))


def test_vectorize_detector():
    source = ("import numpy as np\nf = np.vectorize(abs)\n"
              "g = numpy.vectorize\nh = other.vectorize(abs)\n")
    assert vectorize_reads(source) == [2, 3]


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name)
                                  for p in sorted(PACKAGE.glob("*.py"))])
def test_package_does_not_use_np_vectorize(path):
    assert vectorize_reads(path.read_text()) == []


def json_load_reads(source):
    """Where ``source`` reads ``load`` off ``json``: the dotted name of the
    enclosing class and function, or ``<module>``.  ``from json import
    load`` counts as a read where it stands."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if ((isinstance(child, ast.Attribute) and child.attr == "load"
                 and isinstance(child.value, ast.Name)
                 and child.value.id == "json")
                    or (isinstance(child, ast.ImportFrom)
                        and child.module == "json"
                        and any(a.name == "load" for a in child.names))):
                sites.append(".".join(scope) or "<module>")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return sorted(sites)


def test_json_load_detector():
    source = ("import json\nfrom json import load, loads\n"
              "class C:\n    @classmethod\n    def f(cls, fh):\n"
              "        return json.load(fh)\n"
              "def g(fh):\n    return json.loads(fh.read()), other.load(fh)\n"
              "def h():\n    def inner():\n        return json.load\n")
    assert json_load_reads(source) == ["<module>", "C.f", "h.inner"]


def test_json_files_are_read_in_two_places():
    # Matrix files go through matio.load_matrix, which checks their header
    # and entries; a second reader would skip those checks.
    sites = [f"{p.stem}.{site}" for p in sorted(PACKAGE.glob("*.py"))
             for site in json_load_reads(p.read_text())]
    assert sites == ["config.RunConfig.from_file", "matio.load_matrix"]


# The package's __init__ imports only to re-export.
@pytest.mark.parametrize("path", [
    *(pytest.param(p, id=p.name) for p in sorted(PACKAGE.glob("*.py"))
      if p.name != "__init__.py"),
    *(pytest.param(p, id=f"tests/{p.name}")
      for p in sorted(TESTS.glob("*.py")))])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
