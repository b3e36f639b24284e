"""Every name a library module imports is used in that module, every
private top-level name is used somewhere in the package, every public
method of a package class is referenced as an attribute in the package,
its tests or its demos, and every name a module exports exists."""
import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qubofolio"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert _unused_imports(source) == ["os (line 1)", "tau (line 2)"]


def _private_definitions(tree: ast.Module):
    """Private top-level functions, classes and constants (dunder names excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _orphaned_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = {ref for tree in trees.values() for ref in _references(tree)}
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) if name not in used)


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert _orphaned_private_names(sources) == []


def test_orphaned_private_name_is_reported():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _orphan():\n    pass\n\n\n_LIMIT = 3\n"
                "__all__ = []\n",
        "b.py": "from a import _used\n\n\nclass _Spare:\n    pass\n\n\n_used()\n",
    }
    assert _orphaned_private_names(sources) == ["a.py:_LIMIT", "a.py:_orphan", "b.py:_Spare"]


def _public_methods(tree: ast.Module):
    """(class, name) of every public method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _orphaned_public_methods(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Public methods of the classes in sources that no `.name` in sources or readers reaches."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = {node.attr for tree in [*trees.values(), *map(ast.parse, readers)]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(f"{module}:{cls}.{name}" for module, tree in trees.items()
                  for cls, name in _public_methods(tree) if name not in used)


def test_every_public_method_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for folder in ("tests", "demos")
               for p in (ROOT / folder).glob("*.py")]
    assert _orphaned_public_methods(sources, readers) == []


def test_orphaned_public_method_is_reported():
    sources = {
        "a.py": "class Box:\n    def used(self):\n        pass\n\n    @property\n"
                "    def size(self):\n        return 1\n\n    def grow(self):\n        pass\n\n"
                "    def _hidden(self):\n        pass\n\n\ndef spare():\n    pass\n",
        "b.py": "from a import Box\n\n\nclass _Run:\n    def offer(self):\n        pass\n\n\n"
                "Box().used()\n",
    }
    readers = ["from a import Box\n\n\ndef offer():\n    pass\n\n\noffer()\nprint(Box().size)\n"]
    assert _orphaned_public_methods(sources, readers) == ["a.py:Box.grow", "b.py:_Run.offer"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    module = importlib.import_module(f"qubofolio.{path.stem}")
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []
