"""Every name a library module imports is used in that module, every
private top-level name is used somewhere in the package, every public
method of a package class is referenced as an attribute in the package,
its tests or its demos, every option of an exported function or
dataclass is passed by some call, every CLI option appears in a test,
demo, bench file or the README, no module reads an environment
variable or imports scipy, every command runs with scipy blocked, a
failing property test does not end the test run, every name a module
exports exists, and each size-cap message is formed in one place."""
import argparse
import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qubofolio import cli

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


def _name(node: ast.AST) -> str | None:
    """The id of a Name or the attr of an Attribute."""
    return getattr(node, "id", getattr(node, "attr", None))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(deco.func if isinstance(deco, ast.Call) else deco) == "dataclass"
               for deco in node.decorator_list)


def _init_field(item: ast.stmt) -> bool:
    """An annotated class-body name that is not field(init=False)."""
    if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
        return False
    value = item.value
    return not (isinstance(value, ast.Call) and _name(value.func) == "field"
                and any(kw.arg == "init" and getattr(kw.value, "value", True) is False
                        for kw in value.keywords))


def _options(tree: ast.Module):
    """(callable, option, position) of every defaulted parameter of an exported
    function and every defaulted __init__ field of an exported dataclass;
    position is None for a keyword-only parameter."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(_name(t) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    for node in tree.body:
        if getattr(node, "name", None) not in exported:
            continue
        if isinstance(node, ast.FunctionDef):
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield node.name, arg.arg, i
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [item for item in node.body if _init_field(item)]
            for i, item in enumerate(fields):
                if item.value is not None:
                    yield node.name, item.target.id, i


def _literal_keys(value: ast.expr) -> set[str] | None:
    """The keys of a dict(...) call or a dict literal with plain string keys, else None."""
    if isinstance(value, ast.Dict) and all(isinstance(k, ast.Constant) and isinstance(k.value, str)
                                           for k in value.keys):
        return {k.value for k in value.keys}
    if (isinstance(value, ast.Call) and _name(value.func) == "dict"
            and not value.args and all(kw.arg for kw in value.keywords)):
        return {kw.arg for kw in value.keywords}
    return None


def _dict_names(tree: ast.Module) -> dict[str, set[str]]:
    """Keys of every name whose assignments in the file are all dicts with known keys."""
    keys: dict[str, set[str]] = {}
    other = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        found = _literal_keys(node.value)
        for target in targets:
            if found is None:
                other.add(_name(target))
            else:
                keys.setdefault(_name(target), set()).update(found)
    return {name: found for name, found in keys.items() if name not in other}


def _passed(callers: list[str]):
    """Per callee name: the most positional arguments of a call (inf after a *
    expansion) and the keywords passed (None once a ** expansion may pass any)."""
    most: dict[str, float] = {}
    words: dict[str, set[str] | None] = {}
    for tree in map(ast.parse, callers):
        dicts = _dict_names(tree)
        for call in ast.walk(tree):
            name = _name(call.func) if isinstance(call, ast.Call) else None
            if name is None:
                continue
            star = any(isinstance(a, ast.Starred) for a in call.args)
            most[name] = max(most.get(name, 0), math.inf if star else len(call.args))
            for kw in call.keywords:
                keys = {kw.arg} if kw.arg is not None else dicts.get(_name(kw.value))
                known = words.get(name, set())
                words[name] = None if keys is None or known is None else known | keys
    return most, words


def _unpassed_options(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Options of the exported callables in sources that no call in callers passes."""
    most, words = _passed(callers)
    unpassed = []
    for module, source in sources.items():
        for name, option, position in _options(ast.parse(source)):
            by_position = position is not None and most.get(name, 0) > position
            by_keyword = words.get(name, set()) is None or option in words.get(name, set())
            if not (by_position or by_keyword):
                unpassed.append(f"{module}:{name}({option})")
    return sorted(unpassed)


def test_every_public_option_is_passed_somewhere():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for folder in ("src", "bench", "demos", "tests")
               for p in (ROOT / folder).rglob("*.py")]
    assert _unpassed_options(sources, callers) == []


def test_unpassed_option_is_reported():
    sources = {
        "a.py": "from dataclasses import dataclass, field\n\n__all__ = ['grow', 'Box', 'open_']\n\n\n"
                "def grow(n, by=1, cap=9, *, twice=False, loud=True):\n    pass\n\n\n"
                "def _hidden(n, by=1):\n    pass\n\n\n"
                "@dataclass\nclass Box:\n    size: int\n    area: int = field(init=False)\n"
                "    depth: int = 1\n    tag: str = ''\n\n\n"
                "def open_(path, mode='r'):\n    pass\n",
    }
    callers = ["OPTS = dict(twice=True)\n\n\ngrow(1, 2, **OPTS)\nBox(1, 2)\n",
               "from a import open_\n\n\ndef f(kw):\n    open_('x', **kw)\n"]
    assert _unpassed_options(sources, callers) == [
        "a.py:Box(tag)", "a.py:grow(cap)", "a.py:grow(loud)"]


def _cli_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of the parser's subcommands, argparse's own help excepted."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {option for sub in commands.choices.values() for action in sub._actions
            if not isinstance(action, argparse._HelpAction) for option in action.option_strings}


def _unpassed_cli_options(options: set[str], readers: list[str]) -> list[str]:
    """The options that no reader holds as a whole word: `--q` inside `--qubo` does not count."""
    return sorted(option for option in options
                  if not any(re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
                             for text in readers))


def test_every_cli_option_is_passed_somewhere():
    readers = [p.read_text(encoding="utf-8") for folder in ("tests", "demos", "bench")
               for p in (ROOT / folder).rglob("*.py")]
    readers.append((ROOT / "README.md").read_text(encoding="utf-8"))
    assert _unpassed_cli_options(_cli_options(cli.build_parser()), readers) == []


def test_unpassed_cli_option_is_reported():
    parser = argparse.ArgumentParser()
    command = parser.add_subparsers().add_parser("grow")
    for option in ("--sp", "--spare", "--spare-n", "--spare-t"):
        command.add_argument(option)
    readers = ['run("grow", "--spare", "1", "--spare-n", "2")\n', "`grow --spare-t 3`"]
    assert _unpassed_cli_options(_cli_options(parser), readers) == ["--sp"]


def _environment_reads(source: str) -> list[str]:
    """Each use of os.environ or os.getenv in source, by attribute or by import from os."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and _name(node.value) == "os":
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in ("environ", "getenv")]
    return [f"os.{name} (line {line})" for line, name in sorted(found)]


def test_no_module_reads_the_environment():
    reads = [f"{p.name}: {read}" for p in sorted(SRC.glob("*.py"))
             for read in _environment_reads(p.read_text(encoding="utf-8"))]
    assert reads == []


def test_environment_read_is_reported():
    source = ("import os\nfrom os import getenv, sep\n\n\n"
              "def cap():\n    return os.environ.get('CAP', getenv('CAP', sep))\n")
    assert _environment_reads(source) == ["os.getenv (line 2)", "os.environ (line 6)"]


CAP_MESSAGES = ("exceeds dense limit", "supports at most", "exceeds the simulator cap")


def _message_sites(sources: dict[str, str], text: str) -> list[str]:
    """module:line of each string literal, f-string parts included, that holds text."""
    return [f"{module}:{node.lineno}" for module, source in sorted(sources.items())
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and text in node.value]


@pytest.mark.parametrize("text", CAP_MESSAGES)
def test_each_size_cap_message_is_formed_in_one_place(text):
    """A header check and the solver it stands for raise one message from one function."""
    sites = _message_sites({p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")},
                           text)
    assert len(sites) == 1, sites


def test_a_second_site_of_a_message_is_reported():
    sources = {"a.py": 'def check(n):\n    raise ValueError(f"{n} exceeds dense limit")\n',
               "b.py": 'MESSAGE = "exceeds dense limit"\nOTHER = 3\n'}
    assert _message_sites(sources, "exceeds dense limit") == ["a.py:2", "b.py:1"]


def _imports(source: str, package: str) -> list[str]:
    """Each import of package or a submodule, wherever it stands: at module
    level, in a class body or inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return [f"{name} (line {line})" for line, name in sorted(found)
            if name == package or name.startswith(package + ".")]


def test_no_src_module_imports_scipy():
    imports = [f"{p.name}: {found}" for p in sorted(SRC.glob("*.py"))
               for found in _imports(p.read_text(encoding="utf-8"), "scipy")]
    assert imports == []


def test_scipy_import_is_reported_wherever_it_stands():
    source = ("import scipy\nimport scipyx\n\ntry:\n    from scipy.optimize import minimize\n"
              "except ImportError:\n    pass\n\n\nclass Fit:\n    import scipy.linalg as la\n\n"
              "    def solve(self):\n        from scipy import sparse\n\n\n"
              "def bound():\n    import scipy.sparse\n")
    assert _imports(source, "scipy") == [
        "scipy (line 1)", "scipy.optimize (line 5)", "scipy.linalg (line 11)",
        "scipy (line 14)", "scipy.sparse (line 18)"]


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was not blocked")
from qubofolio.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_command_runs_without_scipy(tmp_path):
    """numpy is the one runtime dependency: each command exits 0 on the toy with scipy blocked."""
    argvs = [["build", "--toy", "--ising", "--bqp", "--out", "toy.qubo"],
             *(["solve", "--toy", "--solver", solver, "--max-iterations", "2000",
                "--out", f"{solver}.json"] for solver in ("exact", "bnb", "sa", "abs")),
             *(["quantum", "--toy", "--algo", algo, "--out", f"{algo}.json"]
               for algo in ("anneal", "qaoa")),
             ["sweep", "--toy", "--out", "pareto.csv"],
             ["report", "--toy", "--solution", "exact.json"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(argvs)


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_after_it():
    pass
"""


def test_a_failing_property_test_fails_without_ending_the_run(tmp_path):
    """Under the project's warning filters, a failing Hypothesis test is reported as one
    failure and the tests after it still run: no INTERNALERROR ends the session."""
    for name in ("pyproject.toml", "tests/conftest.py"):
        (tmp_path / Path(name).name).write_bytes((ROOT / name).read_bytes())
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    module = importlib.import_module(f"qubofolio.{path.stem}")
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []
