"""Guard against dead helpers in the package.

Every module-level function, class and method in src/riscpl must be
reached by the package itself or be declared.  A module-level function or
class counts as used when one of these holds:

- its own module names it as an identifier outside its own definition;
- another module imports it from its module by name;
- the benchmark tracer's TRACED table lists it, since the tracer wraps
  those functions by name from outside;
- its module's `__all__` declares it.

An attribute of the same name, such as `table.point(...)` for a function
`point`, does not count.  A method counts as used when code in src/ names
it outside its own definition as an attribute or an imported name, or when
TRACED lists it; a bare identifier of the same name, such as a call of a
function `rank` for a method `rank`, does not count.  Words in strings and
docstrings never count.

References from tests/ do not count: an oracle or a fixture builder that
only tests reach belongs in tests/.  Dunder methods, `main` and the `cmd_*`
command handlers are reached through the interpreter or argparse and are
exempt.

No check in src/riscpl is an `assert` statement, which `python -O` strips.
"""

import ast
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riscpl"
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from tracer import TRACED  # noqa: E402


def definitions(tree):
    """(qualified name, node) of the module-level functions and classes and
    of the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def attributes(node) -> Counter:
    """How often the code under node names each attribute and imported
    name."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
    return out


def identifiers(node) -> Counter:
    """How often the code under node names each identifier."""
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def imported(tree) -> set:
    """(module, name) of every name a module imports from another one."""
    return {(sub.module.rsplit(".", 1)[-1], alias.name) for sub in ast.walk(tree)
            if isinstance(sub, ast.ImportFrom) and sub.module for alias in sub.names}


def declared(tree) -> set:
    """The names a module lists in its `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def exempt(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return dunder or name == "main" or name.startswith("cmd_")


def dead_definitions(sources: Dict[str, str], traced: Dict[str, List[str]]) -> List[str]:
    """The definitions of a package, given as module name -> source, that
    nothing uses by the rule above; traced maps a module name to the
    qualified names the tracer wraps in it."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    total: Counter = Counter()
    imports: set = set()
    for tree in trees.values():
        total.update(attributes(tree))
        imports |= imported(tree)
    wrapped = {f"{mod}.{attr}" for mod, attrs in traced.items() for attr in attrs}
    dead = []
    for mod, tree in sorted(trees.items()):
        public = declared(tree)
        own = identifiers(tree)
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if exempt(name) or qualname in public or f"{mod}.{qualname}" in wrapped:
                continue
            if "." in qualname:
                used = total[name] > attributes(node)[name]
            else:
                used = own[name] > identifiers(node)[name] or (mod, name) in imports
            if not used:
                dead.append(f"{mod}.py:{node.lineno} {qualname}")
    return dead


def test_no_dead_helpers():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources, TRACED) == []


SYNTHETIC = {
    "geometry": (
        "def t_power(p, n):\n"
        "    return p\n"
        "\n"
        "def oracle(p):\n"
        "    return oracle(t_power(p, 1)) if p else p\n"
        "\n"
        "def main():\n"
        '    """Checks t_power against oracle."""\n'
        "    return t_power(0, 2)\n"
    ),
}


def test_guard_flags_a_function_only_a_test_reaches():
    # oracle is what a test would call; in the package only a docstring
    # word and a call from its own body name it, and neither counts
    assert dead_definitions(SYNTHETIC, {}) == ["geometry.py:4 oracle"]


def test_guard_keeps_a_function_declared_in_all():
    declared_src = {"geometry": '__all__ = ["oracle"]\n\n' + SYNTHETIC["geometry"]}
    assert dead_definitions(declared_src, {}) == []


def test_guard_keeps_a_traced_function():
    assert dead_definitions(SYNTHETIC, {"geometry": ["oracle"]}) == []
    assert dead_definitions(SYNTHETIC, {"other": ["oracle"]}) == ["geometry.py:4 oracle"]


def test_guard_flags_a_function_only_an_attribute_shares():
    # point is a module-level function of geometry; grid calls a method of
    # the same name and never imports it, so only the method is used
    shared = {
        "geometry": "def point(x):\n    return x\n",
        "grid": ("class Table:\n"
                 "    def point(self, x):\n"
                 "        return x\n"
                 "\n"
                 "def main():\n"
                 "    return Table().point(1)\n"),
    }
    assert dead_definitions(shared, {}) == ["geometry.py:1 point"]
    imported_src = dict(shared, grid="from .geometry import point\n" + shared["grid"])
    assert dead_definitions(imported_src, {}) == []


def test_guard_flags_a_method_only_a_function_shares():
    # rank is a module-level function that main calls; Table.rank is never
    # named as an attribute, so the call does not keep it
    shared = {
        "grid": ("def rank(m):\n"
                 "    return m\n"
                 "\n"
                 "class Table:\n"
                 "    def rank(self):\n"
                 "        return 0\n"
                 "\n"
                 "def main():\n"
                 "    return rank(Table())\n"),
    }
    assert dead_definitions(shared, {}) == ["grid.py:5 Table.rank"]
    called = dict(shared, grid=shared["grid"].replace("rank(Table())", "rank(Table().rank())"))
    assert dead_definitions(called, {}) == []


def test_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
