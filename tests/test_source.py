"""Static checks on the package source, with the stdlib ast module."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "framefuse"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def _type_checking_imports(tree):
    """Import nodes under an `if TYPE_CHECKING:` block."""
    return {id(sub) for node in ast.walk(tree)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
            for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = _type_checking_imports(tree)
    local = sorted(sub.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Import, ast.ImportFrom)) and id(sub) not in allowed)
    assert local == []


def test_every_error_class_is_raised():
    bases = {"FrameFuseError", "ValidationError", "NumericalError"}
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - bases
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(classes - raised) == []


def _referenced_names(tree, skip=None) -> set[str]:
    """Every name a Name, an attribute or an import in `tree` refers to,
    leaving out the subtree `skip`."""
    inner = {id(sub) for sub in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inner:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_no_test_only_definitions():
    # tests/ holds the reference code only tests call; src/ holds the program.
    # Checked for top-level definitions and for the methods of top-level
    # classes.
    root = SRC.parent.parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (SRC, root / "scripts", root / "perfbench")
             for path in sorted(folder.glob("*.py"))}
    elsewhere = {path: _referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for path in MODULES:
        named = set().union(*(names for other, names in elsewhere.items() if other != path))
        for node, label in _definitions(trees[path]):
            if node.name not in named | _referenced_names(trees[path], skip=node):
                unused.append(f"{path.name}:{label}")
    assert unused == []


def _definitions(tree):
    """(node, label) for each top-level function and class, and each
    non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs[:2]) and not (sub.name.startswith("__")
                                                      and sub.name.endswith("__")):
                    yield sub, f"{node.name}.{sub.name}"
