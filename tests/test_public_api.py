"""Every public symbol has a caller in the package, and every import a use.

A name exported in ``psa_audit.__all__``, and every public function and
method a package module defines, must be referenced by some package module
other than ``__init__.py``, outside the ``def`` or ``class`` that defines
it, and a public method must be referenced as an attribute (``obj.name``),
so that a local variable of the same name does not count as its caller.
A name only the tests call is test-only code in the package.
``oracle.py`` is the one documented exception: its definitions exist for
the tests, so they are not checked.  Each name a package module other
than ``__init__.py`` imports must be read somewhere in that module, and
no package module has a ``global`` statement.  A package module imports
only the standard library, PyYAML and the package itself.
"""

import ast
import sys
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


def test_no_package_module_keeps_state_under_a_global_statement():
    """State that outlives a call belongs to an object a caller holds,
    such as a catalog, so that two runs in one process share none of it."""
    found = [f"{path.name}:{node.lineno} {', '.join(node.names)}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Global)]
    assert found == [], f"global statements in the package: {', '.join(found)}"


#: The top-level names a package module may import besides the standard
#: library's: its one runtime dependency and the package itself.
ALLOWED_IMPORTS = {"yaml", "psa_audit"}


def test_the_package_imports_only_the_standard_library_and_pyyaml():
    """numpy, scipy and hypothesis are installed for the tests, so an
    import of one of them would run here and fail only where PyYAML is the
    one dependency installed."""
    foreign = sorted(
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.partition(".")[0] not in sys.stdlib_module_names | ALLOWED_IMPORTS
    )
    assert foreign == [], f"imports outside the standard library and PyYAML: {', '.join(foreign)}"
