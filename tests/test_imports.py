"""Import hygiene: every module-level import of the package is referenced."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatsections"


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that no Name node
    of the module reads (an attribute access a.b reads the name a)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def test_detects_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["dumps", "math"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_referenced(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
