"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import treetoric

PACKAGE = Path(treetoric.__file__).resolve().parent
# pipeline keeps the invert_exact binding for perfbench's tracer test
ALLOWED = {("pipeline", "invert_exact")}


def unused_imports(source: str) -> set[str]:
    """The names that ``source``'s imports bind and that no other node of
    it reads, as a name or as the base of an attribute."""
    tree = ast.parse(source)
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]
    bound = {(alias.asname or alias.name).split(".")[0] for node in imports for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_no_module_imports_an_unused_name():
    # __init__ imports to re-export: its names are the package's API
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    }
    assert found == ALLOWED


def test_scan_reads_names_and_attribute_bases():
    source = "import os.path\nfrom a import b, c as d\nfrom e import f\nos.sep\nd()\n"
    assert unused_imports(source) == {"b", "f"}
