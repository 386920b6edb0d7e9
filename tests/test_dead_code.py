"""Guard against dead helpers in the package.

Every module-level function, class and method in src/riscpl must be named
somewhere in src/, tests/ or perfbench/ other than at its own definition.
A name counts as used when it appears as an identifier, an attribute, an
imported name or a word inside a string constant (the benchmark tracer
looks functions up by name).  Dunder methods, `main` and the `cmd_*`
command handlers are reached through the interpreter or argparse and are
exempt.

No check in src/riscpl is an `assert` statement, which `python -O` strips.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riscpl"
SEARCHED = ("src", "tests", "perfbench")


def definitions(tree):
    """(name, line) of the module-level functions and classes and of the
    methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.lineno


def used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from re.findall(r"[A-Za-z_]\w*", node.value)


def exempt(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return dunder or name == "main" or name.startswith("cmd_")


def test_no_dead_helpers():
    used = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used.update(used_names(ast.parse(path.read_text())))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, line in definitions(ast.parse(path.read_text())):
            name = qualname.rsplit(".", 1)[-1]
            if not exempt(name) and name not in used:
                dead.append(f"{path.name}:{line} {qualname}")
    assert dead == []


def test_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
