"""Every top-level function and class of the package, and every domain tag,
has a use.

A name is used when some module under src/chipmunkring reads it or names
it as an attribute, or when perfbench/tracing.py's TARGETS table names it,
since the traced benchmark looks those up. Its own definition and an
import are not uses: a name that a module only imports, or re-exports, has no caller there. The package root imports
only modules (tests/test_package_root.py keeps it that way). A helper that
only tests need belongs under tests/.

Every parameter of every function, in the package and under tests/, is
read, so an argument a function ignores cannot linger in its signature.
A fixture a test needs only for its side effects goes in
pytest.mark.usefixtures, not in the test's signature.

No module imports or reaches into another's private name: a decision two
modules share belongs behind one public name. No function imports a
sibling module: each module names its imports once, at module level.
"""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chipmunkring"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"
TAG_PREFIXES = ("DOMAIN_", "ZK_DOMAIN_")


def modules(directory=PACKAGE):
    for path in sorted(directory.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def definitions():
    """(module, name) of each top-level function, class and domain tag."""
    for module, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield module, node.name
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.startswith(TAG_PREFIXES):
                        yield module, target.id


class References(ast.NodeVisitor):
    """Every name read or attribute named. Importing a name is not a use of it."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)


def test_every_name_has_a_use(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing.py imports common
    targets = runpy.run_path(str(PERFBENCH / "tracing.py"))["TARGETS"]
    traced = {(module, name) for module, names in targets.items() for name in names}
    refs = References()
    for _, tree in modules():
        refs.visit(tree)
    unused = [f"{module}.{name}" for module, name in definitions()
              if name not in refs.names and (module, name) not in traced]
    assert unused == []


def test_no_private_name_crosses_modules():
    crossing = [f"{module}: from .{node.module} import {alias.name}"
                for module, tree in modules()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if alias.name.startswith("_")]
    assert crossing == []


def test_no_relative_import_inside_a_function():
    nested = [f"{module}.{node.name}: from .{imp.module or ''} import ..."
              for module, tree in modules()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for imp in ast.walk(node)
              if isinstance(imp, ast.ImportFrom) and imp.level > 0]
    assert nested == []


def test_every_parameter_is_read():
    unread = []
    for module, tree in [*modules(), *modules(TESTS)]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{module}.{node.name}({a.arg})" for a in params
                       if a.arg not in loaded]
    # perfbench passes params to keygen; it goes with the next benchmark change
    assert unread == ["hots.keygen(params)"]


def test_no_private_attribute_crosses_modules():
    crossing = []
    for module, tree in modules():
        siblings = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is None for alias in node.names}
        crossing += [f"{module}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in siblings and node.attr.startswith("_")]
    assert crossing == []
