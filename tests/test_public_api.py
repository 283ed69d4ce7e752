"""Every public symbol has a caller in the package.

A name exported in ``psa_audit.__all__`` must be referenced by some package
module other than ``__init__.py``, outside the ``def`` or ``class`` that
defines it.  A name only the tests call is test-only code in the package.
"""

import ast
from pathlib import Path

import psa_audit

PACKAGE = Path(psa_audit.__file__).parent


def _references(tree: ast.Module) -> set[str]:
    """Names a module loads or reads as attributes, skipping each top-level
    definition's references to its own name."""
    found = set()

    def visit(node: ast.AST, own: str | None) -> None:
        if isinstance(node, ast.Name) and node.id != own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for node in tree.body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        visit(node, own)
    return found


def test_every_public_symbol_has_a_caller_in_the_package():
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            referenced |= _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    uncalled = sorted(set(psa_audit.__all__) - referenced)
    assert uncalled == [], f"public symbols with no caller in the package: {', '.join(uncalled)}"
