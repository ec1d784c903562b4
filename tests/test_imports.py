"""Every name a module imports is referenced in it.

An import nothing reads hides which names a module depends on.  The scan
is syntactic: a name counts as used when it appears anywhere in the module
as an identifier; `from __future__ import ...` is exempt.
"""

import ast
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_MODULES = sorted([*(_ROOT / "src" / "effpath").glob("*.py"),
                   *(_ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never references."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    return [(line, name) for line, name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nimport itertools as it\n"
                          "from x import a, b as c\nprint(a, os)\n") \
        == [(3, "it"), (4, "c")]


@pytest.mark.parametrize("path", _MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in _MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
