"""Source hygiene: no module of the package imports a name it never uses,
defines a top-level function or class, or a method, that only tests
reference, imports inside a function body, or holds an assert statement
(python -O strips them); only PolyRing.order builds an OrderDescriptor;
commands that factor never load sympy; every name the benchmark tracer
wraps exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import troplift

PACKAGE = Path(troplift.__file__).parent
TESTS = Path(__file__).parent


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


def _names_in(node):
    """Every name node uses: plain names, attributes, imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                yield alias.name.split(".")[-1]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _methods(cls):
    """The methods of a class that code calls by name: not dunders, which
    Python calls itself."""
    return [node for node in cls.body if isinstance(node, _DEFS[:2])
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unreferenced_definitions(sources):
    """(file, name) of each top-level function or class, and each method
    (as Class.method), of the files in sources ({file: (source, defines)})
    that no file references outside the definition itself; only files with
    defines set are checked.  A method counts as referenced wherever its
    bare name is used, as an attribute or a name."""
    defined = []
    uses = []  # (file, definitions the code lies in, names used)
    for file, (source, defines) in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, _DEFS):
                uses.append((file, set(), set(_names_in(node))))
                continue
            names = [node.name]
            methods = _methods(node) if isinstance(node, ast.ClassDef) else []
            for method in methods:
                dotted = f"{node.name}.{method.name}"
                names.append(dotted)
                uses.append((file, {node.name, dotted}, set(_names_in(method))))
            # the rest of the definition, its methods left out
            rest = [sub for sub in ast.iter_child_nodes(node) if sub not in methods]
            uses.append((file, {node.name}, {name for sub in rest for name in _names_in(sub)}))
            if defines:
                defined += [(file, name) for name in names]
    return [
        (file, name)
        for file, name in defined
        if not any(name.split(".")[-1] in names and (f != file or name not in owners)
                   for f, owners, names in uses)
    ]


def test_scan_finds_an_unreferenced_definition():
    sources = {
        "a.py": ("def used():\n    pass\n\ndef dead():\n    dead()\n\nclass C:\n    pass\n", True),
        "b.py": ("from a import C\nused()\n", False),
    }
    assert unreferenced_definitions(sources) == [("a.py", "dead")]


# methods the standard library calls: argparse calls ArgumentParser.error
_CALLED_BY_THE_LIBRARY = {("cli.py", "_Parser.error")}


def test_no_unreferenced_definitions():
    sources = {p.name: (p.read_text(), True) for p in PACKAGE.glob("*.py")}
    for p in TESTS.glob("*.py"):
        sources["tests/" + p.name] = (p.read_text(), False)
    found = [f"{file}: {name}" for file, name in unreferenced_definitions(sources)
             if (file, name) not in _CALLED_BY_THE_LIBRARY]
    assert not found, "unreferenced definitions:\n" + "\n".join(found)


def caller_free_definitions(package):
    """(file, name) of each top-level function or class of the package
    ({file: source}) that no module of it references: the re-exports of
    __init__.py do not count, and tests are not callers."""
    return unreferenced_definitions(
        {file: (source, True) for file, source in package.items() if file != "__init__.py"}
    )


def test_scan_finds_a_test_only_definition():
    package = {
        "a.py": "def api():\n    helper()\n\ndef helper():\n    pass\n\ndef tested():\n    pass\n",
        "b.py": "from .a import api\napi()\n",
        "__init__.py": "from .a import api, tested\n",
    }
    assert caller_free_definitions(package) == [("a.py", "tested")]


def test_scan_finds_a_test_only_method():
    """A method that another method calls has a caller; one that only
    calls itself, or that only tests call, has none; dunders are never
    reported."""
    package = {
        "a.py": (
            "class C:\n"
            "    def __init__(self):\n        self.helper()\n"
            "    def helper(self):\n        pass\n"
            "    def loop(self):\n        self.loop()\n"
            "    def tested(self):\n        pass\n"
        ),
        "b.py": "from .a import C\nC()\n",
    }
    assert caller_free_definitions(package) == [("a.py", "C.loop"), ("a.py", "C.tested")]


# library entry points that no module of the package calls yet
_CALLER_FREE_ALLOWED = {
    ("valfan.py", "init_additivity_check"),
    ("valfan.py", "GroebnerCone.contains"),
} | _CALLED_BY_THE_LIBRARY


def test_every_definition_has_a_caller_in_the_package():
    package = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    found = set(caller_free_definitions(package))
    # an allowed name that gains a caller leaves the list too
    assert found == _CALLER_FREE_ALLOWED, f"called only from tests or __init__.py: {sorted(found)}"


_LOCAL_IMPORTS_ALLOWED = set()


def local_imports(source):
    """(function, imported module) for each import inside a function body."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    out += [(fn.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    out.append((fn.name, "." * node.level + (node.module or "")))
    return out


def test_scan_finds_a_local_import():
    src = "import os\ndef f():\n    import random\n    from .x import y\n"
    assert local_imports(src) == [("f", "random"), ("f", ".x")]


def test_no_function_local_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, module in local_imports(path.read_text()):
            if (path.name, fn, module) not in _LOCAL_IMPORTS_ALLOWED:
                found.append(f"{path.name}: {fn} imports {module}")
    assert not found, "function-local imports:\n" + "\n".join(found)


def assert_lines(source):
    """Line of each assert statement in source."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_scan_finds_an_assert():
    assert assert_lines("def f(x):\n    assert x\n    return x\n") == [2]


def test_no_assert_statements():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in assert_lines(path.read_text())]
    assert not found, "assert statements (stripped by python -O):\n" + "\n".join(found)


def calls_by_owner(source, callee):
    """Dotted name of the class and function around each call of callee."""
    out = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    out.append(".".join(path))
            visit(child, path)

    visit(ast.parse(source), ())
    return out


def test_scan_finds_calls_by_owner():
    src = "class R:\n    def order(self):\n        return O(1)\nx = O(2)\ndef f():\n    m.O(3)\n"
    assert calls_by_owner(src, "O") == ["R.order", "", "f"]


def test_orders_are_built_only_by_the_ring():
    """PolyRing.order is the one place that builds an OrderDescriptor, so
    the presentations of a ring share one order, and its key memo, per
    (weights, mode)."""
    found = [f"{path.name}: {owner or '<module>'}" for path in sorted(PACKAGE.glob("*.py"))
             for owner in calls_by_owner(path.read_text(), "OrderDescriptor")]
    assert found == ["polyring.py: PolyRing.order"], found


def test_rings_change_only_in_polyring():
    """move, extend and restrict in polyring.py make every change of ring;
    elsewhere a PolyRing is built only from variable names given by the user
    or to put two rings side by side."""
    found = [f"{path.name}: {owner or '<module>'}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "polyring.py"
             for owner in calls_by_owner(path.read_text(), "PolyRing")]
    assert found == ["cli.py: _load_ideal", "cli.py: _cmd_tensor",
                     "parsing.py: parse_ideal_text", "valfan.py: tensor_combine"], found


# -- the package factors over Q without sympy

_FACTORING_ARGVS = [
    ["lift", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3", "--N", "10"],
    ["np-solve", "--coeffs=-t^(2)-t^(3);0;1", "--N", "8", "--json"],
]


def test_commands_that_factor_do_not_import_sympy():
    script = (
        "import sys; from troplift import cli\n"
        "try:\n    cli.main()\nexcept SystemExit as exc:\n    assert exc.code == 0\n"
        "print('sympy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for argv in _FACTORING_ARGVS:
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False", argv


# -- the benchmark tracer wraps troplift functions by name

TRACING = TESTS.parent / "bench" / "tracing.py"


def traced_names(source):
    """(module, dotted name) of every function and method the tracer wraps:
    the entries of SPANS and COUNTS and the names its install methods patch
    directly."""
    tree = ast.parse(source)
    out = []
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTS"):
            out += [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("function", "method")
            and len(node.args) >= 2
            and all(isinstance(a, ast.Constant) for a in node.args[:2])
        ):
            out.append((node.args[0].value, node.args[1].value))
    return out


def _resolves(module, dotted):
    owner = importlib.import_module(module)
    *path, last = dotted.split(".")
    for name in path:
        owner = getattr(owner, name, None)
    return owner is not None and last in vars(owner)


def test_tracer_names_resolve():
    names = traced_names(TRACING.read_text())
    assert ("troplift.ideals", "_mora_std") in names
    assert ("troplift.polyring", "OrderDescriptor.key") in names
    missing = [f"{m}.{n}" for m, n in names if not _resolves(m, n)]
    assert not missing, "tracer names not found in troplift:\n" + "\n".join(missing)
