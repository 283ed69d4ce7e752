"""Every public symbol has a caller in the package, and every import a use.

A name exported in ``psa_audit.__all__``, and every public function and
method a package module defines, must be referenced by some package module
other than ``__init__.py``, outside the ``def`` or ``class`` that defines
it, and a public method must be referenced as an attribute (``obj.name``),
so that a local variable of the same name does not count as its caller.
A name only the tests call is test-only code in the package.
``oracle.py`` is the one documented exception: its definitions exist for
the tests, so they are not checked.  Each name a package module other
than ``__init__.py`` imports must be read somewhere in that module.
"""

import ast
from itertools import chain
from pathlib import Path

import psa_audit

PACKAGE = Path(psa_audit.__file__).parent
MODULES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names a module loads, names it reads as attributes), skipping each
    definition's references to its own name and to the names of the
    definitions around it."""
    names, attributes = set(), set()

    def visit(node: ast.AST, own: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name) and node.id not in own:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return names, attributes


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_functions(module: str, tree: ast.Module):
    """(qualified name, name) of each public top-level function; dunders
    are not public."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name


def _public_methods(module: str, tree: ast.Module):
    """(qualified name, name) of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, _FUNCTIONS) and not method.name.startswith("_"):
                    yield f"{module}.{node.name}.{method.name}", method.name


_REFERENCES = [_references(tree) for tree in MODULES.values()]
ATTRIBUTES = set().union(*(attributes for _, attributes in _REFERENCES))
REFERENCED = ATTRIBUTES.union(*(names for names, _ in _REFERENCES))


def test_every_public_symbol_has_a_caller_in_the_package():
    uncalled = sorted(set(psa_audit.__all__) - REFERENCED)
    assert uncalled == [], f"public symbols with no caller in the package: {', '.join(uncalled)}"


def test_every_public_function_and_method_has_a_caller_in_the_package():
    uncalled = sorted(
        qualified
        for path, tree in MODULES.items() if path.name != "oracle.py"
        for qualified, name in chain(_public_functions(path.stem, tree), _public_methods(path.stem, tree))
        if name not in REFERENCED
    )
    assert uncalled == [], f"public functions and methods with no caller in the package: {', '.join(uncalled)}"


def test_every_public_method_is_called_through_an_attribute_in_the_package():
    uncalled = sorted(
        qualified
        for path, tree in MODULES.items() if path.name != "oracle.py"
        for qualified, name in _public_methods(path.stem, tree)
        if name not in ATTRIBUTES
    )
    assert uncalled == [], f"public methods never read as an attribute in the package: {', '.join(uncalled)}"


def _imported_names(tree: ast.Module):
    """(line, name) of each name a module's imports bind, ``__future__``
    features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _unused_imports(tree: ast.Module):
    """(line, name) of each imported name that the module never reads."""
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in _imported_names(tree) if name not in loaded]


def test_every_imported_name_is_used():
    unused = sorted(f"{path.name}:{line} {name}" for path, tree in MODULES.items()
                    for line, name in _unused_imports(tree))
    assert unused == [], f"imported names no code uses: {', '.join(unused)}"
