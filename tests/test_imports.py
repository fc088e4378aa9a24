"""Every module of the package uses each name it imports, and each name it
defines is used somewhere in ``src/``, ``tests/`` or ``perfbench/`` (the
package's ``__init__.py`` imports names only to re-export them, so it is
left out on both counts)."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sugra"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_an_unused_import():
    source = "from typing import Callable, Optional\nimport numpy as np\n\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Callable (line 1)", "np (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


ROOT = SRC.parent.parent
CORPUS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
                if p.name != "__init__.py")


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST, bool]]:
    """``(name, node, is_method)`` for the top-level functions, classes and
    constants of a module and the public methods of its classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node, False) for t in targets
                    if isinstance(t, ast.Name) and not t.id.startswith("__")]
        if isinstance(node, ast.ClassDef):
            out += [(f.name, f, True) for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return out


def uses(node: ast.AST) -> Counter:
    """The names a tree reads: loaded names and imported names count for
    any definition, attribute names (``x.name``) for methods too."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[("name", n.id)] += 1
        elif isinstance(n, ast.alias):
            out[("name", n.asname or n.name)] += 1
        elif isinstance(n, ast.Attribute):
            out[("attr", n.attr)] += 1
    return out


def dead_definitions(modules: dict[str, str], corpus: list[str]) -> list[str]:
    """The definitions of ``modules`` (name -> source) that no file of
    ``corpus`` (sources, the modules among them) names outside the
    definition itself."""
    total = Counter()
    for source in corpus:
        total += uses(ast.parse(source))
    dead = []
    for module, source in modules.items():
        for name, node, method in definitions(ast.parse(source)):
            kinds = ("attr",) if method else ("name", "attr")
            own = uses(node)
            if not any(total[(k, name)] - own[(k, name)] for k in kinds):
                dead.append(f"{module}:{node.lineno} {name}")
    return dead


def test_checker_flags_a_dead_definition():
    source = ("LIMIT = 3\nUSED = 4\n\n\ndef spin(n):\n    return spin(n - 1) if n else USED\n\n\n"
              "class Box:\n    def row(self):\n        return 1\n\n    def size(self):\n        return 2\n")
    caller = "row = Box().size()\n"
    assert dead_definitions({"m.py": source}, [source, caller]) == [
        "m.py:1 LIMIT", "m.py:5 spin", "m.py:10 row"]


def test_no_dead_definitions():
    modules = {name: (SRC / name).read_text() for name in MODULES}
    assert dead_definitions(modules, [p.read_text() for p in CORPUS]) == []
