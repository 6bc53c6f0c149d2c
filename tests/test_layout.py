"""Module layout: no module of the package uses another module's private
names (a leading underscore), whether it imports them, at top level or
inside a function, or reads them as attributes of an imported module; what
one module needs from another is part of that module's public surface; and
every name a module exports in ``__all__`` is one it defines."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rhopi"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _is_package(node: ast.ImportFrom) -> bool:
    module = node.module or ""
    return node.level > 0 or module.split(".")[0] == "rhopi"


def private_imports(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or not _is_package(node):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module or '.'}")
    return found


def private_attribute_reads(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # local names bound to a package module: `from . import m as x`,
    # `from rhopi import m`, `import rhopi.m as x`
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            for alias in node.names:
                if alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, tail = alias.name.partition(".")
                if head == "rhopi" and tail in MODULES and alias.asname:
                    modules[alias.asname] = tail
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{path.name}:{node.lineno} reads {modules[node.value.id]}.{node.attr}")
    return found


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offences = [hit for path in modules for hit in private_imports(path)]
    assert offences == []


def test_no_module_reads_a_private_attribute_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offences = [hit for path in modules for hit in private_attribute_reads(path)]
    assert offences == []


def test_every_export_names_an_attribute_of_its_module():
    exported = 0
    for stem in sorted(MODULES):
        module = importlib.import_module("rhopi" if stem == "__init__" else f"rhopi.{stem}")
        names = getattr(module, "__all__", ())
        exported += len(names)
        assert [n for n in names if not hasattr(module, n)] == [], stem
    assert exported
