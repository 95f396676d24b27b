"""Package hygiene: public names resolve and numpy is the only runtime
dependency.

A stale ``__all__`` entry breaks nothing but ``from ... import *``, and a
name the package root re-exports without listing it in its module's
``__all__`` is public by accident, so neither shows in the unit tests.
The import scan keeps the rule that ``compactseq`` needs only the standard
library and numpy at run time (scipy and hypothesis are test-only), and a
name, private or public, that only the tests call belongs in
``tests/helpers.py``.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "compactseq"
SOURCES = sorted(PKG.glob("*.py"))
MODULES = [p.stem for p in SOURCES if not p.stem.startswith("__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"compactseq.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"compactseq.{name}.__all__ lists {missing}"


def test_package_root_imports_only_public_names():
    tree = ast.parse((PKG / "__init__.py").read_text(encoding="utf-8"))
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module, ast.unparse(node)
            public = importlib.import_module(f"compactseq.{node.module}").__all__
            for alias in node.names:
                assert alias.name in public, f"{alias.name} not in compactseq.{node.module}.__all__"
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_or_numpy(path):
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root in allowed, f"{path.name}:{node.lineno} imports {root}"


def _reads(tree) -> set:
    """Every name the module reads: loaded names, attributes and imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_private_names_have_a_runtime_use():
    # every module-level _name is read somewhere in the package itself
    defined, used = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update((n, path.name) for n in names if n[:1] == "_" and n[:2] != "__")
        used |= _reads(tree)
    unused = sorted(f"{where}:{name}" for name, where in defined.items() if name not in used)
    assert not unused, f"private names with no runtime use: {unused}"


def test_public_names_have_a_runtime_use():
    # every name in a module's __all__ is read somewhere in the package;
    # the package root's re-export is not a use
    used = set()
    for path in SOURCES:
        if path.name != "__init__.py":
            used |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    unused = sorted(
        f"{name}.py:{n}"
        for name in MODULES
        for n in importlib.import_module(f"compactseq.{name}").__all__
        if n not in used
    )
    assert not unused, f"public names with no runtime use: {unused}"


def _package_imports(path) -> set:
    """What the source at ``path`` imports from ``compactseq``: the module,
    or the name for one taken from the package root."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["compactseq" * bool(node.level), node.module]))
            dotted += [f"{base}.{alias.name}" for alias in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("compactseq.")}


def test_eigen_imports_no_package_module():
    # the kernel is the bottom layer: every other module may build on it
    assert _package_imports(PKG / "eigen.py") == set()


def test_only_eigen_reads_the_a0_table():
    # _a0's (a0, b, 1 - b, b') layout is eigen's own; the designer reaches
    # the table through eigen._seed
    readers = [p.name for p in SOURCES if p.name != "eigen.py"
               and "_a0" in _reads(ast.parse(p.read_text(encoding="utf-8")))]
    assert not readers, f"read eigen._a0: {readers}"


def test_bounds_does_not_import_design():
    # design imports bounds, so bounds reaches the root of b = alpha on the
    # whole line through eigen._seed, not through design
    assert "design" not in _package_imports(PKG / "bounds.py")
