"""No module of the package, the scripts or the tests imports a name it never uses.

A stdlib `ast` check: a name bound by an import statement must appear as
a name (or the root of an attribute chain) somewhere in the module. The
package's `__init__.py` is skipped, since its imports are re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKED = sorted(
    [p for p in (ROOT / "src" / "qkalman").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}"
            for name, line in sorted(bound.items(), key=lambda item: item[::-1])
            if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport re\nfrom a.b import c, d as e\n"
                          "re.compile\nc()\n") == ["line 1: os", "line 3: e"]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
