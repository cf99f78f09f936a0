"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import troplift

PACKAGE = Path(troplift.__file__).parent


def _imported_names(tree):
    """(name, line) for every name bound by an import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _referenced_names(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "ValueScalar"
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            sub = ast.parse(ann.value, mode="eval")
            names |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = _referenced_names(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in used]


def test_scan_finds_an_unused_import():
    src = "from fractions import Fraction\nimport math\nfrom .x import a as b\nprint(math.pi)\n"
    assert unused_imports(src) == [("Fraction", 1), ("b", 3)]
    assert unused_imports("from .x import C\ndef f() -> 'C': pass\n") == []


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = []
    for path in modules:
        for name, line in unused_imports(path.read_text()):
            found.append(f"{path.name}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
